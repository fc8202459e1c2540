"""Every value class shares one set of value semantics, README's library
quick tour runs, and importing the CLI generates no code."""

import ast
import copy
import inspect
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from topkat import cli, decide, domain, logic, reduction, relmodel, semantics, syntax
from topkat.syntax import Value, parse

AL = syntax.Alphabet(("p", "q"), ("b",))


def samples() -> list[Value]:
    p, q, b = parse("p", AL), parse("q", AL), parse("b", AL)
    witness = decide.equivalent(p, q, AL)
    relation = relmodel.Relation.from_pairs(2, [(0, 1)])
    interp = relmodel.RelInterpretation(2, {"p": relation}, {"b": relmodel.Relation(2, 1)})
    return [
        AL,
        witness.string,
        witness,
        decide.Equivalent(),
        domain.Provable(),
        domain.cod_geq(p, q, AL),
        relation,
        interp,
        relmodel.SearchBudget(exhaustive=False, samples=5, seed=1),
        relmodel.SearchHit(interp, (0, 1), None),
        logic.Triple("hoare", b, p, b),
        reduction.ExtendedAlphabet(AL),
        cli.COMMANDS["lang"],
    ]


def field_names(value) -> tuple[str, ...]:
    return type(value).__match_args__


@pytest.mark.parametrize("value", samples(), ids=lambda value: type(value).__name__)
def test_value_semantics(value):
    names = field_names(value)
    fields = tuple(getattr(value, name) for name in names)
    again = type(value)(*fields)
    assert again == value and not again != value
    assert type(value)(**dict(zip(names, fields))) == value
    try:
        hash(fields)
    except TypeError:  # a field holds a dict
        pass
    else:
        assert hash(again) == hash(value)
    name = names[0] if names else "anything"
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{type(value).__name__}({shown})"


def test_samples_cover_every_value_class():
    # the interned ones (terms, atoms) and private bases are tested elsewhere
    found, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls is not syntax.Interned:
                found.add(cls)
                todo.append(cls)
    public = {cls for cls in found if not cls.__name__.startswith("_")}
    assert {type(value) for value in samples()} == public and len(public) == 13


def test_values_of_different_classes_differ():
    assert decide.Equivalent() != domain.Provable()
    assert decide.Equivalent() == decide.Equivalent()
    assert repr(relmodel.Relation(2, 5)) == "Relation(n=2, mask=5)"
    assert repr(AL) == "Alphabet(actions=('p', 'q'), tests=('b',))"


def test_a_bad_field_count_is_a_type_error():
    with pytest.raises(TypeError):
        relmodel.Relation(2)
    with pytest.raises(TypeError):
        syntax.Act("p", "q")


def test_trailing_fields_may_be_given_by_name():
    assert relmodel.Relation(2, mask=5) == relmodel.Relation(2, 5)
    with pytest.raises(TypeError, match="misses field 'mask'"):
        relmodel.Relation(n=2)
    with pytest.raises(TypeError, match="no further field 'n'"):
        relmodel.Relation(2, n=2, mask=5)
    with pytest.raises(TypeError, match="no further field 'size'"):
        relmodel.Relation(2, 5, size=3)


def test_terms_and_atoms_are_built_positionally_only():
    # a lookup takes its fields as a tuple, with no dict of keywords
    assert not syntax.Interned.__new__.__code__.co_flags & inspect.CO_VARKEYWORDS
    with pytest.raises(TypeError, match="unexpected keyword argument 'name'"):
        syntax.Act(name="p")
    with pytest.raises(TypeError, match="unexpected keyword argument 'bits'"):
        semantics.Atom(("b",), bits=(True,))
    assert semantics.Atom(("b",), (True,)) is semantics.Atom(("b",), (True,))


def readme_quick_tour() -> str:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    tour = readme.read_text(encoding="utf-8").split("## Library quick tour")[1]
    return tour.split("```python\n")[1].split("```")[0]


def test_readme_quick_tour_runs_as_documented():
    """Each expression of the quick tour gives what its comment's first
    word says its repr starts with."""
    source = readme_quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = lines[statement.end_lineno - 1].split("#", 1)[1]
        assert repr(value).startswith(re.match(r"\s*(\w+)", comment)[1]), (code, value)
        checked += 1
    assert checked == 4


def test_importing_the_cli_generates_no_code():
    # -S: what site-packages' .pth files import is not topkat's doing; json
    # and random wait for a --json call and a sampled search
    code = ("import sys, topkat.cli; topkat.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect', 'json', 'random'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
