"""Atoms, guarded strings, and the bounded-language oracle.

`lang_bounded` computes guarded-string languages by direct set
computation up to an action-count bound.  It is the independent oracle
backing the derivative-based decision procedure and must stay free of
any dependency on it.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Callable, Iterable

from .errors import ParseError, ResourceLimitError, SortError, TopNotAllowedError
from .syntax import (
    IDENT_RE, Act, Alphabet, Dot, Interned, Not, One, Plus, Star, Term, Test, Value, Zero,
    check_over, postorder,
)

ATOM_CAP = 10
# The most guarded strings any set built by `lang_bounded` may hold.
STRING_CAP = 250_000


class Atom(Interned):
    """A total truth assignment to the test alphabet, in declared order:
    `tests` names the tests and `bits` gives one polarity per test."""

    __slots__ = ("tests", "bits")

    def _check(self) -> None:
        if len(self.tests) != len(self.bits):
            raise ValueError("one polarity per declared test")

    def value(self, name: str) -> bool:
        try:
            return self.bits[self.tests.index(name)]
        except ValueError:
            raise SortError(f"atom does not assign {name!r}") from None

    def render(self) -> str:
        lits = [(name if bit else "!" + name) for name, bit in zip(self.tests, self.bits)]
        return "[" + "&".join(lits) + "]"


class GuardedString(Value):
    """Alternating atoms and actions: atoms[0] acts[0] atoms[1] ... atoms[-1]."""

    __slots__ = ("atoms", "acts")

    def _check(self) -> None:
        if len(self.atoms) != len(self.acts) + 1:
            raise ValueError("need exactly one more atom than actions")

    @property
    def last_atom(self) -> Atom:
        return self.atoms[-1]

    @property
    def num_actions(self) -> int:
        return len(self.acts)

    def render(self) -> str:
        return _joined(self, Atom.render)


def _joined(s: GuardedString, atom_text: Callable[[Atom], str]) -> str:
    return atom_text(s.atoms[0]) + "".join(f" {act} {atom_text(atom)}"
                                           for act, atom in zip(s.acts, s.atoms[1:]))


def all_atoms(alphabet: Alphabet) -> tuple[Atom, ...]:
    """All 2^|tests| atoms, lexicographic in bit order (negative first)."""
    if len(alphabet.tests) > ATOM_CAP:
        raise ResourceLimitError(
            f"{len(alphabet.tests)} tests exceed the atom cap of {ATOM_CAP} "
            f"(2^{len(alphabet.tests)} atoms)")
    return _atoms(tuple(alphabet.tests))


@functools.lru_cache(maxsize=16)
def _atoms(tests: tuple[str, ...]) -> tuple[Atom, ...]:
    return tuple(Atom(tests, bits)
                 for bits in itertools.product((False, True), repeat=len(tests)))


def gs_sort_key(alphabet: Alphabet) -> Callable[[GuardedString], tuple]:
    """The key of the canonical order: length, then atom bits and action
    order interleaved.  The action order is indexed once per key."""
    act_index = {name: i for i, name in enumerate(alphabet.actions)}

    def key(s: GuardedString) -> tuple:
        flat: list = [s.atoms[0].bits]
        for act, atom in zip(s.acts, s.atoms[1:]):
            flat += (act_index[act], atom.bits)
        return (len(s.acts), tuple(flat))
    return key


def render_sorted(strings: Iterable[GuardedString], alphabet: Alphabet) -> list[str]:
    """The strings rendered, in `gs_sort_key` order; each distinct atom is
    rendered once."""
    ordered = sorted(strings, key=gs_sort_key(alphabet))
    texts = {atom: atom.render() for atom in {a for s in ordered for a in s.atoms}}
    return [_joined(s, texts.__getitem__) for s in ordered]


# ---------------------------------------------------------------------------
# Bounded languages.  Internally a string is a pair (atom indices, action
# names); GuardedString objects are built only at the boundary.

_Raw = tuple[tuple[int, ...], tuple[str, ...]]


def _check_count(count: int) -> None:
    if count > STRING_CAP:
        raise ResourceLimitError(f"more than {STRING_CAP} guarded strings "
                                 "within the action bound")


def _fuse_sets(left: Iterable[_Raw], right: Iterable[_Raw], max_actions: int) -> set[_Raw]:
    by_first: dict[int, list[_Raw]] = {}
    for s in right:
        by_first.setdefault(s[0][0], []).append(s)
    out: set[_Raw] = set()
    for atoms1, acts1 in left:
        budget = max_actions - len(acts1)
        for atoms2, acts2 in by_first.get(atoms1[-1], ()):
            if len(acts2) <= budget:
                out.add((atoms1 + atoms2[1:], acts1 + acts2))
                _check_count(len(out))
    return out


def lang_bounded(t: Term, alphabet: Alphabet, max_actions: int) -> frozenset[GuardedString]:
    """Exactly the guarded strings of t's language with <= max_actions actions;
    ResourceLimitError once any set built on the way exceeds STRING_CAP."""
    if t.has_top:
        raise TopNotAllowedError("the bounded language is defined for top-free terms")
    check_over(t, alphabet)
    if max_actions < 0:
        raise ValueError("max_actions must be >= 0")
    atoms = all_atoms(alphabet)
    ones = frozenset(((i,), ()) for i in range(len(atoms)))
    lang: dict[Term, frozenset[_Raw]] = {}
    for s in postorder(t):
        match s:
            case Zero():
                result = frozenset()
            case One():
                result = ones
            case Test(name):
                result = frozenset(((i,), ()) for i, a in enumerate(atoms) if a.value(name))
            case Not(arg):
                result = ones - lang[arg]
            case Act(name):
                ends = range(len(atoms) if max_actions >= 1 else 0)
                _check_count(len(ends) ** 2)
                result = frozenset(((i, j), (name,)) for i in ends for j in ends)
            case Plus(left, right):
                result = lang[left] | lang[right]
            case Dot(left, right):
                result = frozenset(_fuse_sets(lang[left], lang[right], max_actions))
            case Star(arg):
                acc, frontier = set(ones), set(ones)
                while frontier:
                    frontier = _fuse_sets(frontier, lang[arg], max_actions) - acc
                    acc |= frontier
                    _check_count(len(acc))
                result = frozenset(acc)
        _check_count(len(result))
        lang[s] = result
    return frozenset(GuardedString(tuple(atoms[i] for i in idxs), acts)
                     for idxs, acts in lang[t])


# ---------------------------------------------------------------------------
# Textual guarded strings: `[b&!c] p [b&c]`, with `[]` for an empty test set.

# As in `syntax._TOKEN_RE`, the last alternative takes any other character.
_GS_TOKEN = re.compile(
    rf"\s*(?:(?P<atom>\[[^\]]*\])|(?P<act>{IDENT_RE.pattern})|(?P<bad>\S))")


def _parse_atom(text: str, alphabet: Alphabet, pos: int) -> Atom:
    inner = text[1:-1].strip()
    assigned: dict[str, bool] = {}
    if inner:
        for lit in inner.split("&"):
            lit = lit.strip()
            value = not lit.startswith("!")
            name = lit[1:].strip() if not value else lit
            if name not in alphabet.tests:
                raise ParseError(f"undeclared test {name!r} in atom", pos)
            if name in assigned:
                raise ParseError(f"test {name!r} assigned twice in atom", pos)
            assigned[name] = value
    missing = [t for t in alphabet.tests if t not in assigned]
    if missing:
        raise ParseError(f"atom does not assign {missing[0]!r}", pos)
    return Atom(alphabet.tests, tuple(assigned[t] for t in alphabet.tests))


def parse_guarded_string(text: str, alphabet: Alphabet) -> GuardedString:
    """Parse the textual form; atoms must assign every declared test.  An
    atom is due when there are as many atoms as actions so far."""
    atoms: list[Atom] = []
    acts: list[str] = []
    for m in _GS_TOKEN.finditer(text):
        kind = m.lastgroup
        token, pos = m[kind], m.start(kind)
        if kind == "bad":
            raise ParseError("unexpected character in guarded string", pos)
        if kind == "atom":
            if len(atoms) > len(acts):
                raise ParseError("expected an action, found an atom", pos)
            atoms.append(_parse_atom(token, alphabet, pos))
        else:
            if len(atoms) == len(acts):
                raise ParseError(f"expected an atom, found {token!r}", pos)
            if token not in alphabet.actions:
                raise ParseError(f"undeclared action {token!r}", pos)
            acts.append(token)
    if len(atoms) != len(acts) + 1:
        raise ParseError("guarded string must alternate atoms and actions, "
                         "starting and ending with an atom", len(text))
    return GuardedString(tuple(atoms), tuple(acts))
