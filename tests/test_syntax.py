import copy
import gc
import pickle
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given

from conftest import ALPHABET, child_env, reverse, terms
from topkat import syntax
from topkat.decide import Equivalent, equivalent
from topkat.errors import ParseError, SortError
from topkat.gen import random_term
from topkat.syntax import (
    Act, Alphabet, Dot, Not, ONE, Plus, Star, TOP, ZERO,
    contains_top, declare_alphabet, parse, render, scan_identifiers,
)


def test_parse_sequence_with_tests():
    t = parse("p (b + !c)* q", ALPHABET)
    assert t == Dot(Dot(Act("p"), Star(Plus(syntax.Test("b"), Not(syntax.Test("c"))))), Act("q"))


def test_parse_rejects_negated_action():
    with pytest.raises(ParseError):
        parse("!(p)", ALPHABET)
    with pytest.raises(ParseError):
        parse("!p", ALPHABET)
    with pytest.raises(ParseError):
        parse("!(b*)", ALPHABET)
    with pytest.raises(ParseError):
        parse("!T", ALPHABET)


def test_parse_star_unfolding_shape():
    assert parse("1 + p p*", ALPHABET) == Plus(ONE, Dot(Act("p"), Star(Act("p"))))


def test_parse_precedence_and_separators():
    assert parse("p + q p*", ALPHABET) == Plus(Act("p"), Dot(Act("q"), Star(Act("p"))))
    assert parse("p;q", ALPHABET) == parse("p.q", ALPHABET) == parse("p q", ALPHABET)
    assert parse("p q p", ALPHABET) == Dot(Dot(Act("p"), Act("q")), Act("p"))
    assert parse("!b*", ALPHABET) == Star(Not(syntax.Test("b")))
    assert parse("p**", ALPHABET) == Star(Star(Act("p")))


def test_parse_errors_report_positions():
    with pytest.raises(ParseError, match="position"):
        parse("p @ q", ALPHABET)
    with pytest.raises(ParseError, match="undeclared"):
        parse("p r", ALPHABET)
    with pytest.raises(ParseError):
        parse("(p + q", ALPHABET)
    with pytest.raises(ParseError):
        parse("", ALPHABET)
    with pytest.raises(ParseError, match="trailing"):
        parse("p )", ALPHABET)


def test_render_basics():
    assert render(ZERO) == "0"
    assert render(TOP) == "T"
    assert render(Star(Plus(Act("p"), Act("q")))) == "(p + q)*"
    assert render(Dot(Act("p"), Dot(Act("q"), Act("p")))) == "p (q p)"
    assert render(Plus(Act("p"), Plus(Act("q"), Act("p")))) == "p + (q + p)"


def test_render_refuses_what_is_not_a_term():
    with pytest.raises(TypeError, match="^not a term: 5$"):
        render(5)


@given(terms(allow_top=True))
def test_parse_render_roundtrip(t):
    assert parse(render(t), ALPHABET) == t


def test_contains_top():
    assert contains_top(parse("p T p", ALPHABET))
    assert not contains_top(parse("p b", ALPHABET))
    assert contains_top(TOP)


def test_reverse_flips_sequences():
    assert reverse(Dot(Act("p"), Act("q"))) == Dot(Act("q"), Act("p"))
    assert reverse(Dot(TOP, Act("p"))) == Dot(Act("p"), TOP)
    assert reverse(parse("p q p", ALPHABET)) == parse("p (q p)", ALPHABET)


@given(terms(allow_top=True))
def test_reverse_involution(t):
    assert reverse(reverse(t)) == t
    assert contains_top(reverse(t)) == contains_top(t)


def test_reverse_preserves_equivalence():
    rng = random.Random(7)
    for _ in range(40):
        t1 = random_term(rng, ALPHABET, 3)
        t2 = random_term(rng, ALPHABET, 3)
        direct = isinstance(equivalent(t1, t2, ALPHABET), Equivalent)
        flipped = isinstance(equivalent(reverse(t1), reverse(t2), ALPHABET), Equivalent)
        assert direct == flipped


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(("p",), ("p",))
    with pytest.raises(ValueError):
        Alphabet(("T",), ())
    with pytest.raises(ValueError):
        Alphabet(("p", "p"), ())
    with pytest.raises(ValueError):
        declare_alphabet(["__top__"], [])
    assert declare_alphabet(["p"], ["b"]).sort_of("p") == "action"
    assert declare_alphabet(["p"], ["b"]) == Alphabet(("p",), ("b",))


@pytest.mark.parametrize("declare, message", [
    (lambda: Alphabet(("push"), ("b")), "must be tuples"),  # no trailing commas: strings
    (lambda: Alphabet(["p"], ["b"]), "must be tuples"),  # unhashable
    (lambda: declare_alphabet("pq", "b"), "not strings"),
], ids=["strings", "lists", "declared-strings"])
def test_alphabet_names_are_a_tuple(declare, message):
    with pytest.raises(TypeError, match=message):
        declare()


def test_scan_identifiers():
    assert scan_identifiers("p (b + !c)* q T p") == ("p", "b", "c", "q")
    assert scan_identifiers("[b&!c] p [b&c]") == ("b", "c", "p")


def test_equal_terms_are_one_object():
    assert parse("p (b + !c)* q", ALPHABET) is parse("p (b + !c)* q", ALPHABET)
    assert Plus(Act("p"), ONE) is Plus(Act("p"), ONE)
    assert Act("p") is not syntax.Test("p")
    t = parse("p + b", ALPHABET)
    with pytest.raises(AttributeError):
        t.left = ONE
    with pytest.raises(AttributeError):
        del t.right
    assert t.left is Act("p") and repr(t) == "Plus(left=Act(name='p'), right=Test(name='b'))"
    assert pickle.loads(pickle.dumps(t)) is t and copy.deepcopy(t) is t


def test_negation_sort_check_runs_on_every_build():
    for _ in range(3):
        with pytest.raises(SortError):
            Not(Act("p"))


def test_a_failed_build_leaves_nothing_behind():
    p, b = Act("p"), syntax.Test("b")
    gc.collect()
    before = len(syntax._INTERNED)
    # the errors' tracebacks keep the half-built nodes alive
    with pytest.raises(SortError) as sort_error:
        Not(p)
    with pytest.raises(TypeError, match="Act takes 1 fields, got 2") as type_error:
        Act("p", "q")
    assert len(syntax._INTERNED) == before, (sort_error, type_error)
    assert Not(b).kids == (b,) and Act("p") is p
    assert Act("failed_build").acts == syntax._NAME_BITS["failed_build"]


# Memory a live node takes, with its intern table entry, its weak
# reference and its kids: 10 000 sequences over 100 live actions whose
# names are numbered beforehand, in a fresh interpreter so that the table
# starts at the same size.  The bound is 10 % over the 375.8 bytes that
# a node took on CPython 3.11 with `weakref.KeyedRef` (368.0 on 3.10,
# 384.2 on 3.12 and 3.13); a callback object per node would exceed it.
PER_NODE = """\
import tracemalloc
from topkat.syntax import Act, Dot
acts = [Act(f"n{i}") for i in range(100)]
tracemalloc.start()
nodes = [Dot(a, b) for a in acts for b in acts]
print(tracemalloc.get_traced_memory()[0] / len(nodes))
"""


def test_a_live_node_takes_no_more_memory():
    done = subprocess.run([sys.executable, "-c", PER_NODE], env=child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    assert float(done.stdout) < 375.8 * 1.10, done.stdout


def test_dropped_terms_leave_the_intern_table():
    gc.collect()
    before = len(syntax._INTERNED)
    built = [Plus(Act(f"gone{i}"), ONE) for i in range(10_000)]
    assert len(syntax._INTERNED) == before + 20_000
    del built
    gc.collect()
    assert len(syntax._INTERNED) == before


def test_threads_building_the_same_terms_get_one_object():
    barrier = threading.Barrier(4)

    def build():
        barrier.wait(timeout=10)
        return [Star(Dot(Act(f"shared{i}"), syntax.Test(f"shared{i}"))) for i in range(500)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(build) for _ in range(4)]
            results = [future.result(timeout=30) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for other in results[1:]:
        assert all(a is b for a, b in zip(results[0], other))
