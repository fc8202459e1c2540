"""Alphabets, term abstract syntax, traversals (reversal, rebuilding,
alphabet pruning), parsing, and printing.

Terms are immutable trees.  The grammar (precedence `!` > `*` > sequence
> `+`, sequence left-associative, juxtaposition means sequence):

    term    := sum
    sum     := seq ("+" seq)*
    seq     := star ((";" | ".")? star)*
    star    := atomexp "*"*
    atomexp := "0" | "1" | "T" | ident | "!" atomexp | "(" term ")"
    ident   := [A-Za-z_][A-Za-z0-9_]*   (excluding the reserved "T")

Negation is restricted to test-only subterms: no actions, no T and no
star may occur beneath `!`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import ParseError, SortError, UndeclaredIdentifierError

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Alphabet:
    """Declared primitive actions and tests; order is fixed and canonical.

    The declared order drives atom bit layout, canonical sums and witness
    ordering, so it is part of the semantics of every downstream call.
    """

    actions: tuple[str, ...] = ()
    tests: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in self.actions + self.tests:
            if not IDENT_RE.fullmatch(name) or name == "T":
                raise ValueError(f"invalid identifier {name!r}")
        seen = self.actions + self.tests
        if len(set(seen)) != len(seen):
            raise ValueError("actions and tests must be disjoint and duplicate-free")

    def sort_of(self, name: str) -> str | None:
        if name in self.actions:
            return "action"
        if name in self.tests:
            return "test"
        return None


def declare_alphabet(actions: tuple[str, ...] | list[str],
                     tests: tuple[str, ...] | list[str]) -> Alphabet:
    """Build an alphabet from user declarations.

    Rejects ``__``-prefixed names so user identifiers can never collide
    with reserved internal actions.
    """
    for name in tuple(actions) + tuple(tests):
        if name.startswith("__"):
            raise ValueError(f"identifiers starting with '__' are reserved: {name!r}")
    return Alphabet(tuple(actions), tuple(tests))


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Top(Term):
    pass


@dataclass(frozen=True)
class Act(Term):
    name: str


@dataclass(frozen=True)
class Test(Term):
    name: str


@dataclass(frozen=True)
class Not(Term):
    arg: Term

    def __post_init__(self) -> None:
        if not is_test_only(self.arg):
            raise SortError(f"negation requires a test-only term, got {render(self.arg)!r}")


@dataclass(frozen=True)
class Plus(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Dot(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Star(Term):
    arg: Term


ZERO = Zero()
ONE = One()
TOP = Top()


def is_test_only(t: Term) -> bool:
    """True iff t is built from 0, 1, tests, !, + and sequence only."""
    return all(isinstance(s, (Zero, One, Test, Not, Plus, Dot)) for s in subterms(t))


def subterms(t: Term) -> Iterator[Term]:
    """Every subterm of t, t itself first, in pre-order, left before right."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        match node:
            case Not(arg) | Star(arg):
                stack.append(arg)
            case Plus(left, right) | Dot(left, right):
                stack.append(right)
                stack.append(left)


def contains_top(t: Term) -> bool:
    return any(isinstance(s, Top) for s in subterms(t))


def rebuild(t: Term, leaf: Callable[[Term], Term], flip: bool = False) -> Term:
    """Copy t bottom-up with every leaf s replaced by leaf(s); with flip,
    the operands of every sequential composition are swapped too."""

    def go(t: Term) -> Term:
        match t:
            case Dot(left, right):
                return Dot(go(right), go(left)) if flip else Dot(go(left), go(right))
            case Plus(left, right):
                return Plus(go(left), go(right))
            case Star(arg):
                return Star(go(arg))
            case Not(arg):
                return Not(go(arg))
            case _:
                return leaf(t)

    return go(t)


def reverse(t: Term) -> Term:
    """Flip every sequential composition, recursively; an involution."""
    return rebuild(t, lambda s: s, flip=True)


def occurring(t: Term) -> tuple[frozenset[str], frozenset[str]]:
    """The sets of primitive action and test names occurring in t."""
    subs = list(subterms(t))
    return (frozenset(s.name for s in subs if isinstance(s, Act)),
            frozenset(s.name for s in subs if isinstance(s, Test)))


def prune_alphabet(alphabet: Alphabet, *terms: Term) -> Alphabet:
    """Drop primitives that occur in none of the terms, keeping order."""
    acts: frozenset[str] = frozenset()
    tsts: frozenset[str] = frozenset()
    for t in terms:
        a, b = occurring(t)
        acts |= a
        tsts |= b
    return Alphabet(tuple(n for n in alphabet.actions if n in acts),
                    tuple(n for n in alphabet.tests if n in tsts))


def check_over(t: Term, alphabet: Alphabet) -> None:
    """Raise unless every identifier in t is declared with its sort."""
    for s in subterms(t):
        match s:
            case Act(name):
                if name not in alphabet.actions:
                    raise UndeclaredIdentifierError(f"undeclared action {name!r}")
            case Test(name):
                if name not in alphabet.tests:
                    raise UndeclaredIdentifierError(f"undeclared test {name!r}")
            case _:
                pass


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[01T!*+;.()]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.lastgroup == "ident":
            name = m.group("ident")
            kind = "top" if name == "T" else "ident"
            tokens.append((kind, name, m.start("ident")))
        else:
            op = m.group("op")
            kind = {"0": "zero", "1": "one", "T": "top"}.get(op, op)
            tokens.append((kind, op, m.start("op")))
        pos = m.end()
    return tokens


_ATOM_STARTERS = {"zero", "one", "top", "ident", "!", "("}


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], alphabet: Alphabet, length: int):
        self.tokens = tokens
        self.alphabet = alphabet
        self.i = 0
        self.length = length

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input", self.length)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def sum(self) -> Term:
        t = self.seq()
        while self.peek() == "+":
            self.next()
            t = Plus(t, self.seq())
        return t

    def seq(self) -> Term:
        t = self.star()
        while True:
            kind = self.peek()
            if kind in (";", "."):
                self.next()
                t = Dot(t, self.star())
            elif kind in _ATOM_STARTERS:
                t = Dot(t, self.star())
            else:
                return t

    def star(self) -> Term:
        t = self.atomexp()
        while self.peek() == "*":
            self.next()
            t = Star(t)
        return t

    def atomexp(self) -> Term:
        kind, text, pos = self.next()
        if kind == "zero":
            return ZERO
        if kind == "one":
            return ONE
        if kind == "top":
            return TOP
        if kind == "ident":
            sort = self.alphabet.sort_of(text)
            if sort == "action":
                return Act(text)
            if sort == "test":
                return Test(text)
            raise ParseError(f"undeclared identifier {text!r}", pos)
        if kind == "!":
            arg = self.atomexp()
            if not is_test_only(arg):
                raise ParseError(f"negation of non-test {render(arg)!r}", pos)
            return Not(arg)
        if kind == "(":
            t = self.sum()
            k, _, p = self.next()
            if k != ")":
                raise ParseError("expected ')'", p)
            return t
        raise ParseError(f"unexpected {text!r}", pos)


def parse(text: str, alphabet: Alphabet) -> Term:
    """Parse a term over the given alphabet; round-trips with render."""
    parser = _Parser(_tokenize(text), alphabet, len(text))
    t = parser.sum()
    if parser.i < len(parser.tokens):
        _, text_, pos = parser.tokens[parser.i]
        raise ParseError(f"trailing input {text_!r}", pos)
    return t


def scan_identifiers(text: str) -> tuple[str, ...]:
    """All identifiers in term or guarded-string text, in first-occurrence
    order, with the reserved "T" excluded.  Purely lexical; used to infer
    undeclared actions before real parsing."""
    out: list[str] = []
    for m in IDENT_RE.finditer(text):
        name = m.group()
        if name != "T" and name not in out:
            out.append(name)
    return tuple(out)


# ---------------------------------------------------------------------------
# Printing

_PREC_PLUS, _PREC_DOT, _PREC_STAR = 0, 1, 2


def _prec(t: Term) -> int:
    match t:
        case Plus():
            return _PREC_PLUS
        case Dot():
            return _PREC_DOT
        case Star():
            return _PREC_STAR
        case _:
            return 3


def _wrap(t: Term, minimum: int) -> str:
    text = render(t)
    return text if _prec(t) >= minimum else f"({text})"


def render(t: Term) -> str:
    """Deterministic minimal-parenthesis rendering; parse(render(t)) == t."""
    match t:
        case Zero():
            return "0"
        case One():
            return "1"
        case Top():
            return "T"
        case Act(name) | Test(name):
            return name
        case Not(arg):
            return "!" + _wrap(arg, 3)
        case Star(arg):
            # x** is grammatical, so a star operand needs no parentheses
            return _wrap(arg, _PREC_STAR) + "*"
        case Plus(left, right):
            return _wrap(left, _PREC_PLUS) + " + " + _wrap(right, _PREC_DOT)
        case Dot(left, right):
            return _wrap(left, _PREC_DOT) + " " + _wrap(right, _PREC_STAR)
    raise TypeError(f"not a term: {t!r}")
