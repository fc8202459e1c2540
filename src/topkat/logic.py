"""Hoare and incorrectness triples, and the instances of proof rules.

A Hoare triple {b} p {c} becomes the equation b p !c = 0.  An
incorrectness triple [b] p [c] asserts that every c-state is reachable
from some b-state through p: the inclusion T c <= T (b p), which TopKAT
decides completely, so the decider's verdict is the answer.  A rule
instance's hypotheses and goal go to `falsify_implication` to refute.
"""

from __future__ import annotations

import re
from typing import Sequence

from .decide import Verdict
from .errors import ParseError, SortError, TopNotAllowedError
from .reduction import topkat_equivalent, topkat_leq
from .syntax import Alphabet, Dot, Not, Plus, Term, TOP, Value, ZERO


class Triple(Value):
    """A "hoare" or "incorrectness" triple (`kind`): test, program, test."""

    __slots__ = ("kind", "pre", "prog", "post")

    def _check(self) -> None:
        if self.kind not in _TRIPLE_LINES:
            raise ValueError(f"unknown triple kind {self.kind!r}")
        for side, t in (("precondition", self.pre), ("postcondition", self.post)):
            if not t.test_only:
                raise SortError(f"{side} must be a test-only term")
        if self.prog.has_top:
            raise TopNotAllowedError("triple programs must be top-free")


def check_triple(tr: Triple, alphabet: Alphabet) -> Verdict:
    """A Hoare triple {b} p {c} is the equation b p !c = 0, decided by
    `topkat_equivalent`; an incorrectness triple [b] p [c] is T c <=
    T (b p), decided by `topkat_leq` as c <= T (b p), which has the same
    verdict and least witness (1 <= T = T T).  Both prune the alphabet to
    the names that occur, so a witness's atoms assign only those tests.
    For a relational countermodel to an incorrectness line, call
    `domain.cod_geq(b p, c)`, whose `witness` is this verdict's string."""
    reach = Dot(tr.pre, tr.prog)
    if tr.kind == "hoare":
        return topkat_equivalent(Dot(reach, Not(tr.post)), ZERO, alphabet)
    return topkat_leq(tr.post, Dot(TOP, reach), alphabet)


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
        if name.startswith(("a", "b", "c")) and not binding[name].test_only:
            raise SortError(f"rule parameter {name!r} must be a test-only term")
        if binding[name].has_top:
            raise TopNotAllowedError("rule parameters must be top-free")
    if rule == "sequencing":
        a, b, c, p, q = (binding[x] for x in params)
        return ((Dot(a, p), b), (Dot(b, q), c)), (Dot(Dot(a, p), q), c)
    if rule == "choice":
        a, b, p, q = (binding[x] for x in params)
        return ((Dot(a, p), b), (Dot(a, q), b)), (Dot(a, Plus(p, q)), b)
    a_weak, a, b, b_weak, p = (binding[x] for x in params)
    return ((a_weak, a), (Dot(a, p), b), (b, b_weak)), (Dot(a_weak, p), b_weak)


# ---------------------------------------------------------------------------
# Triple lines: `hoare {b} p;q {c}` or `incorrectness [b] p;q [c]`.

# The triple kinds, each with the pattern of its lines.
_TRIPLE_LINES = {
    "hoare": re.compile(r"\s*hoare\s*\{(?P<pre>[^}]*)\}(?P<prog>.*)\{(?P<post>[^}]*)\}\s*$"),
    "incorrectness": re.compile(
        r"\s*incorrectness\s*\[(?P<pre>[^\]]*)\](?P<prog>.*)\[(?P<post>[^\]]*)\]\s*$"),
}


def split_triple_line(line: str) -> tuple[str, str, str, str]:
    """Split a triple line into (kind, pre text, prog text, post text)."""
    for kind, pattern in _TRIPLE_LINES.items():
        if m := pattern.match(line):
            return kind, m["pre"], m["prog"], m["post"]
    raise ParseError(f"not a triple: {line.strip()!r}")

