"""Hoare and incorrectness triples, and refutation of proof-rule instances.

A Hoare triple {b} p {c} becomes the equation b p !c = 0.  An
incorrectness triple [b] p [c] asserts that every c-state is reachable
from some b-state through p, i.e. the codomain inclusion T c <= T (b p);
refutations therefore come back as verified relational countermodels.
The printed-direction encoding T (b p) <= T c is available behind a flag.
"""

from __future__ import annotations

import re
from typing import Sequence, Union

from .decide import Verdict, equivalent
from .domain import ComparisonVerdict, cod_geq
from .errors import ParseError, SortError, TopNotAllowedError
from .relmodel import SearchBudget, falsify_implication
from .syntax import Alphabet, Dot, Not, Plus, Term, TOP, Value, ZERO, contains_top, is_test_only

DIRECTIONS = ("under", "as-printed")


class Triple(Value):
    """A "hoare" or "incorrectness" triple (`kind`): test, program, test."""

    __slots__ = ("kind", "pre", "prog", "post")

    def _check(self) -> None:
        if self.kind not in ("hoare", "incorrectness"):
            raise ValueError(f"unknown triple kind {self.kind!r}")
        for side, t in (("precondition", self.pre), ("postcondition", self.post)):
            if not is_test_only(t):
                raise SortError(f"{side} must be a test-only term")
        if contains_top(self.prog):
            raise TopNotAllowedError("triple programs must be top-free")


class EncodedEquation(Value):
    """Decide with `equivalent(left, right)`."""

    __slots__ = ("left", "right")


class EncodedInequality(Value):
    """Decide with `topkat_leq(smaller, larger)`."""

    __slots__ = ("smaller", "larger")


def encode(tr: Triple, direction: str = "under") -> EncodedEquation | EncodedInequality:
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    if tr.kind == "hoare":
        return EncodedEquation(Dot(Dot(tr.pre, tr.prog), Not(tr.post)), ZERO)
    reach = Dot(TOP, Dot(tr.pre, tr.prog))
    claim = Dot(TOP, tr.post)
    if direction == "under":
        return EncodedInequality(claim, reach)
    return EncodedInequality(reach, claim)


def check_triple(tr: Triple, alphabet: Alphabet,
                 direction: str = "under") -> Union[Verdict, ComparisonVerdict]:
    """Hoare triples via the equational decision; incorrectness triples via
    the codomain comparison, so refutations carry relational countermodels.
    An encoded inequality T u <= T v is `cod_geq(v, u)`."""
    enc = encode(tr, direction)
    if isinstance(enc, EncodedEquation):
        return equivalent(enc.left, enc.right, alphabet)
    return cod_geq(enc.larger.right, enc.smaller.right, alphabet)


# ---------------------------------------------------------------------------
# Proof-rule instances as hypothesis implications between top-inequalities.

RULES: dict[str, tuple[str, ...]] = {
    # [a] p [b]   [b] q [c]   =>   [a] p q [c]
    "sequencing": ("a", "b", "c", "p", "q"),
    # [a] p [b]   [a] q [b]   =>   [a] p + q [b]
    "choice": ("a", "b", "p", "q"),
    # a' <= a   [a] p [b]   b <= b'   =>   [a'] p [b']
    "consequence": ("a_weak", "a", "b", "b_weak", "p"),
}


class RuleReport(Value):
    """One-sided refutation outcome: absence of a hit proves nothing."""

    __slots__ = ("rule", "hyps", "goal", "hit", "budget")

    @property
    def refuted(self) -> bool:
        return self.hit is not None


def rule_instance(rule: str, terms: Sequence[Term]) -> tuple[
        tuple[tuple[Term, Term], ...], tuple[Term, Term]]:
    """Hypotheses and goal for a named rule, each pair read as T u <= T v."""
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {sorted(RULES)}")
    params = RULES[rule]
    if len(terms) != len(params):
        raise ValueError(f"rule {rule!r} takes {len(params)} terms "
                         f"({', '.join(params)}), got {len(terms)}")
    binding = dict(zip(params, terms))
    for name in params:
        if name.startswith(("a", "b", "c")) and not is_test_only(binding[name]):
            raise SortError(f"rule parameter {name!r} must be a test-only term")
        if contains_top(binding[name]):
            raise TopNotAllowedError("rule parameters must be top-free")
    if rule == "sequencing":
        a, b, c, p, q = (binding[x] for x in params)
        return ((Dot(a, p), b), (Dot(b, q), c)), (Dot(Dot(a, p), q), c)
    if rule == "choice":
        a, b, p, q = (binding[x] for x in params)
        return ((Dot(a, p), b), (Dot(a, q), b)), (Dot(a, Plus(p, q)), b)
    a_weak, a, b, b_weak, p = (binding[x] for x in params)
    return ((a_weak, a), (Dot(a, p), b), (b, b_weak)), (Dot(a_weak, p), b_weak)


def check_rule_instance(rule: str, terms: Sequence[Term], alphabet: Alphabet,
                        max_n: int, budget: SearchBudget) -> RuleReport:
    """Search for a relational refutation of the instantiated rule."""
    hyps, goal = rule_instance(rule, terms)
    hit = falsify_implication(hyps, goal, alphabet, max_n, budget)
    return RuleReport(rule, hyps, goal, hit, budget.describe(max_n))


# ---------------------------------------------------------------------------
# Triple files: one triple per line, `hoare {b} p;q {c}` or
# `incorrectness [b] p;q [c]`.  Blank lines and #-comments are skipped.

_HOARE_RE = re.compile(r"^\s*hoare\s*\{(?P<pre>[^}]*)\}(?P<prog>.*)\{(?P<post>[^}]*)\}\s*$")
_INCOR_RE = re.compile(r"^\s*incorrectness\s*\[(?P<pre>[^\]]*)\](?P<prog>.*)\[(?P<post>[^\]]*)\]\s*$")


def split_triple_line(line: str) -> tuple[str, str, str, str]:
    """Split a triple line into (kind, pre text, prog text, post text)."""
    m = _HOARE_RE.match(line)
    kind = "hoare"
    if m is None:
        m = _INCOR_RE.match(line)
        kind = "incorrectness"
    if m is None:
        raise ParseError(f"not a triple: {line.strip()!r}")
    return kind, m.group("pre"), m.group("prog"), m.group("post")


def split_triple_file(text: str) -> list[tuple[int, str]]:
    """The triple lines of a file's text, numbered from 1."""
    return [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.lstrip().startswith("#")]
