import functools
import os
from pathlib import Path

import hypothesis
import hypothesis.strategies as st

import topkat
from topkat import syntax
from topkat.reduction import TOP_ACTION
from topkat.relmodel import evaluate
from topkat.semantics import GuardedString

hypothesis.settings.register_profile("suite", deadline=None, max_examples=60)
hypothesis.settings.load_profile("suite")

ALPHABET = syntax.Alphabet(("p", "q"), ("b", "c"))


def child_env(**extra: str) -> dict[str, str]:
    """The environment for a Python child process: os.environ plus
    `extra`, with the directory that holds the imported topkat first on
    PYTHONPATH, so that the child imports the topkat these tests import,
    from a checkout's src/ or from an installed copy."""
    here = str(Path(topkat.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))}


def fuse(s1, s2):
    """The fusion product of two guarded strings (Kozen and Smith, CSL
    1996): their concatenation when the boundary atoms agree, else None."""
    if s1.atoms[-1] != s2.atoms[0]:
        return None
    return GuardedString(s1.atoms + s2.atoms[1:], s1.acts + s2.acts)


def reverse(t):
    """t with the operands of every sequential composition swapped; an
    involution.  One loop over `postorder`, so any depth reverses."""
    new = {}
    for s in syntax.postorder(t):
        kids = [new[k] for k in s.kids]
        if isinstance(s, syntax.Dot):
            kids.reverse()
        new[s] = type(s)(*kids) if kids else s
    return new[t]


def rebuild(t, leaf):
    """Copy t bottom-up with every leaf s replaced by leaf(s)."""
    new = {}
    for s in syntax.postorder(t):
        new[s] = type(s)(*(new[k] for k in s.kids)) if s.kids else leaf(s)
    return new[t]


def extended(alphabet):
    """The alphabet plus the reserved action TOP_ACTION standing in for T."""
    return syntax.Alphabet(alphabet.actions + (TOP_ACTION,), alphabet.tests)


def sum_star(alphabet):
    """The largest element of the extended KAT: (a1 + ... + ak + __top__)*."""
    return syntax.Star(functools.reduce(syntax.Plus, map(syntax.Act, extended(alphabet).actions)))


def reduce(t, alphabet):
    """The reduct of t (Zhang, de Amorim and Gaboardi, POPL 2022): every T
    replaced with the extended sum-star; homomorphic elsewhere."""
    syntax.check_over(t, alphabet)
    top = sum_star(alphabet)
    return rebuild(t, lambda s: top if s is syntax.TOP else s)


def embed_back(t):
    """Map the reserved action back to T; homomorphic on everything else."""
    return rebuild(t, lambda s: syntax.TOP if s is syntax.Act(TOP_ACTION) else s)


def encoding_sides(interp, t1, t2):
    """Both top-encoding biconditionals on one model, each as (via T, direct):
    t2 T <= t1 T against dom(t2) <= dom(t1), and T t2 <= T t1 against cod."""
    def within(smaller, larger):
        return not evaluate(smaller, interp).mask & ~evaluate(larger, interp).mask

    r1, r2 = evaluate(t1, interp), evaluate(t2, interp)
    top = syntax.TOP
    return ((within(syntax.Dot(t2, top), syntax.Dot(t1, top)), r2.dom() <= r1.dom()),
            (within(syntax.Dot(top, t2), syntax.Dot(top, t1)), r2.cod() <= r1.cod()))


def boolean_terms(alphabet: syntax.Alphabet = ALPHABET):
    leaves = [st.just(syntax.ZERO), st.just(syntax.ONE)]
    leaves += [st.just(syntax.Test(b)) for b in alphabet.tests]
    return st.recursive(
        st.one_of(*leaves),
        lambda kids: st.one_of(
            st.builds(syntax.Not, kids),
            st.builds(syntax.Plus, kids, kids),
            st.builds(syntax.Dot, kids, kids)),
        max_leaves=6)


def terms(alphabet: syntax.Alphabet = ALPHABET, allow_top: bool = False):
    leaves = [st.just(syntax.ZERO), st.just(syntax.ONE)]
    leaves += [st.just(syntax.Act(a)) for a in alphabet.actions]
    leaves += [st.just(syntax.Test(b)) for b in alphabet.tests]
    if allow_top:
        leaves.append(st.just(syntax.TOP))
    return st.recursive(
        st.one_of(*leaves),
        lambda kids: st.one_of(
            st.builds(syntax.Plus, kids, kids),
            st.builds(syntax.Dot, kids, kids),
            st.builds(syntax.Star, kids),
            st.builds(syntax.Not, boolean_terms(alphabet))),
        max_leaves=10)
