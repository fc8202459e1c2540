"""Finite relational models: evaluation, (co)domain, and search.

Relations over a carrier {0..n-1} are stored as n*n bitmasks.  A search
compiles its terms once into a flat program and runs it on blocks: many
interpretations of one carrier size side by side in one int, one n*n-bit
lane each, so one pass evaluates them all.  `evaluate` runs the same
program on a block of one.  T evaluates to the complete relation (the
relational-TopKAT reading).

Searches are sound refuters only: a countermodel disproves the property,
absence of one proves nothing beyond the explored budget.
"""

from __future__ import annotations

import functools
import random
import re
from typing import Sequence

from .errors import ResourceLimitError, TopNotAllowedError, UndeclaredIdentifierError
from .syntax import (
    ONE, TOP, ZERO, Act, Alphabet, Dot, Plus, Star, Term, Test, Value, postorder, prune_alphabet,
)


class Relation(Value):
    """A relation over {0..n-1}; bit i*n+j set iff (i,j) is related.  Searches
    work on bare masks; `evaluate` of 0, 1, T, p + q, p q and p* gives the
    empty, identity, complete, union, composite and star relations."""

    __slots__ = ("n", "mask")

    def _check(self) -> None:
        if self.n < 0:
            raise ValueError("carrier size must be >= 0")
        if self.mask < 0 or self.mask >= 1 << (self.n * self.n):
            raise ValueError("relation mask out of range for carrier size")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> Relation:
        mask = 0
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i},{j}) outside carrier of size {n}")
            mask |= 1 << (i * n + j)
        return cls(n, mask)

    @classmethod
    def diagonal(cls, n: int, bits: int) -> Relation:
        """The sub-identity holding at every i whose bit i is set in bits."""
        if bits < 0 or bits >> n:
            raise ValueError("diagonal bits out of range for carrier size")
        return cls(n, _diagonal(n, bits))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        # the set bits, lowest first, found by one C scan of the binary digits;
        # shifting the mask once per bit would cost time quartic in n
        return tuple(divmod(m.start(), self.n) for m in re.finditer("1", bin(self.mask)[:1:-1]))

    def dom(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.pairs)

    def cod(self) -> frozenset[int]:
        return frozenset(j for _, j in self.pairs)


class RelInterpretation(Value):
    """Relations for every primitive; test relations are sub-identity."""

    __slots__ = ("n", "action_map", "test_map")

    def _check(self) -> None:
        for rel in list(self.action_map.values()) + list(self.test_map.values()):
            if rel.n != self.n:
                raise ValueError("relation carrier size mismatch")
        ident = _block(self.n)[3]
        for name, rel in self.test_map.items():
            if rel.mask & ~ident:
                raise ValueError(f"test {name!r} is not a sub-identity relation")


# Relations as n*n-bit masks: row i is bits i*n .. i*n+n-1.  A block packs
# interpretations of one size side by side, one n*n-bit lane each, the
# first in the lowest lane; a single relation is a block of one lane.

@functools.lru_cache(maxsize=16)  # a few (size, lanes) pairs per block: five ints each
def _block(n: int, lanes: int = 1) -> tuple[int, int, int, int, int]:
    """Masks repeated in each of `lanes` lanes: bit 0, column 0 (bit i*n for
    every i < n), row 0 (bits 0 .. n-1), the identity and the complete
    relation."""
    width = n * n
    full = (1 << lanes * width) - 1
    bit0 = full // ((1 << width) - 1 or 1)
    column = ((1 << width) - 1) // ((1 << n) - 1 or 1)
    ident = ((1 << width + n) - 1) // ((1 << n + 1) - 1)  # bit i*(n+1), i < n
    return bit0, column * bit0, ((1 << n) - 1) * bit0, ident * bit0, full


def _diagonal(n: int, bits: int, lanes: int = 1) -> int:
    """The low n bits of each lane copied into every row, cut down to the
    diagonal."""
    _, _, rows, ident, _ = _block(n, lanes)
    return (bits & rows) * _block(n)[1] & ident


def _compose(n: int, cols: int, rows: int, a: int, b: int) -> int:
    """Per lane, row j of b lands in every row i with (i, j) in a.  Column j
    of a, moved to column 0, times row 0's mask fills each such row i; row
    j of b, moved to row 0, times one lane's column 0 fills every row.  Each
    product's copies are disjoint and stay inside the lane: no carry."""
    row, column = (1 << n) - 1, _block(n)[1]
    out = 0
    for j in range(n):
        if left := a >> j & cols:
            out |= left * row & (b >> j * n & rows) * column
    return out


def _fold(mask: int, unit: int, count: int) -> int:
    """Bit p set iff mask has one of bits p, p+unit, ..., p+(count-1)*unit:
    copies shifted by 1, 2, 4, ... units while the span stays within count,
    then one shift that makes the span exactly count."""
    span = 1
    while span * 2 <= count:
        mask |= mask >> span * unit
        span *= 2
    return mask | mask >> (count - span) * unit


def _escaped(kind: str, n: int, cols: int, rows: int, r1: int, r2: int) -> int:
    """Per lane, what violates `kind`: the pairs in r1 and not in r2 (or in
    just one of them, for equality), or the non-empty rows (dom_geq, at
    bit i*n) or columns (cod_geq, at bit j) of r2 that are empty in r1."""
    if kind == "dom_geq":
        return _fold(r2, 1, n) & ~_fold(r1, 1, n) & cols
    if kind == "cod_geq":
        return _fold(r2, n, n) & ~_fold(r1, n, n) & rows
    return r1 ^ r2 if kind == "equality" else r1 & ~r2


# A compiled `postorder` list.  Slots 0, 1 and 2 hold the empty, identity and
# complete relations, then come the primitives (actions, then tests), then
# one slot per compound term, computed by one (node class, slot, slot) entry
# from its children's slots (a unary node names its child twice).

def _compile(order: list[Term], actions: Sequence[str],
             tests: Sequence[str]) -> tuple[list[tuple[type, int, int]], dict[Term, int]]:
    """The program computing every term of `order`, and each term's slot."""
    leaves = (ZERO, ONE, TOP, *map(Act, actions), *map(Test, tests))
    slot = {t: i for i, t in enumerate(leaves)}
    program: list[tuple[type, int, int]] = []
    for t in order:
        if t in slot:
            continue
        if not t.kids:  # an action or test without a relation
            sort = "action" if isinstance(t, Act) else "test"
            raise UndeclaredIdentifierError(f"no relation for {sort} {t.name!r}")
        program.append((type(t), slot[t.kids[0]], slot[t.kids[-1]]))
        slot[t] = len(slot)
    return program, slot


def _run(program: list[tuple[type, int, int]], n: int, lanes: int,
         leaves: Sequence[int]) -> list[int]:
    """Every slot's masks for a block of `lanes` interpretations, from the
    primitives' masks in `leaves`.  Union, complement within the identity
    and composition act on each lane alone, so every lane is what a block
    of just that interpretation would give."""
    _, cols, rows, ident, full = _block(n, lanes)
    values = [0, ident, full, *leaves]
    for op, x, y in program:
        if op is Dot:
            values.append(_compose(n, cols, rows, values[x], values[y]))
        elif op is Plus:
            values.append(values[x] | values[y])
        elif op is Star:
            # closure holds 1, so squaring only grows it: paths up to 2, 4, 8, ...
            closure = ident | values[x]
            while (grown := _compose(n, cols, rows, closure, closure)) != closure:
                closure = grown
            values.append(closure)
        else:  # Not
            values.append(ident & ~values[x])
    return values


def evaluate(t: Term, interp: RelInterpretation) -> Relation:
    """Compositional relational value of t; T is the complete relation."""
    tables = (interp.action_map, interp.test_map)
    program, slot = _compile(postorder(t), *map(tuple, tables))
    masks = [rel.mask for table in tables for rel in table.values()]
    return Relation(interp.n, _run(program, interp.n, 1, masks)[slot[t]])


# ---------------------------------------------------------------------------
# Countermodel search

ENUM_CEILING = 10_000_000

# Any search refuses a max_n whose relations have more bits than this: a
# block of one lane at 1024 points holds 128 KiB per primitive and slot.
RELATION_CAP = 1 << 20

KINDS = ("equality", "leq", "dom_geq", "cod_geq")


class SearchBudget(Value):
    """Either exhaustive enumeration up to max_n, refused when it would
    enumerate more than `ceiling` interpretations, or seeded sampling."""

    __slots__ = ("exhaustive", "samples", "seed", "ceiling")

    def __init__(self, exhaustive: bool = True, samples: int | None = None,
                 seed: int | None = None, ceiling: int = ENUM_CEILING) -> None:
        super().__init__(exhaustive, samples, seed, ceiling)

    def _check(self) -> None:
        if not self.exhaustive and (self.samples is None or self.seed is None):
            raise ValueError("random search needs both samples and seed")
        if self.exhaustive and (self.samples is not None or self.seed is not None):
            raise ValueError("exhaustive search takes neither samples nor seed")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.ceiling < 0:
            raise ValueError("ceiling must be >= 0")


class SearchHit(Value):
    """A violating interpretation, with its least violating pair or point."""

    __slots__ = ("interp", "violating_pair", "violating_point")


def _violation(kind: str, n: int, r1: int, r2: int) -> tuple | None:
    """(least violating pair, None) or (None, least violating point), else
    None.  Bit i*n+j rises with (i, j): the lowest set bit is the least pair,
    or sits in the least row (dom_geq) or column (cod_geq)."""
    _, column, row, _, _ = _block(n)
    escaped = _escaped(kind, n, column, row, r1, r2)
    if not escaped:
        return None
    low = (escaped & -escaped).bit_length() - 1
    if kind == "dom_geq":
        return None, low // n
    return (None, low) if kind == "cod_geq" else (divmod(low, n), None)


def _pack(width: int, masks: Sequence[int]) -> int:
    """The masks side by side, one width-bit lane each, the first lowest."""
    packed = 0
    for mask in reversed(masks):
        packed = packed << width | mask
    return packed


def _flags(kind: str, n: int, lanes: int, r1: int, r2: int) -> int:
    """Bit 0 of each lane set iff that lane's pair violates `kind`."""
    bit0, cols, rows, _, _ = _block(n, lanes)
    return _fold(_fold(_escaped(kind, n, cols, rows, r1, r2), 1, n), n, n) & bit0


def _interpretations(actions: int, tests: int, max_n: int, bits: int) -> int | None:
    """How many interpretations carrier sizes 1..max_n have, size n having
    2^(n*n*actions + n*tests); None when the largest size alone has 2^bits
    or more, so no oversized count is built."""
    top = max_n * max_n * actions + max_n * tests
    if top >= bits:
        return None
    # exponents rise with n unless both counts are 0: one model per size
    return sum(1 << n * n * actions + n * tests for n in range(1, max_n + 1)) if top else max_n


def _check_ceiling(actions: int, tests: int, max_n: int, ceiling: int) -> None:
    """Refuse an exhaustive search over more than `ceiling` interpretations.
    When the largest size alone has over 2^64 times the ceiling, the
    exponent decides, so no oversized count is built or printed."""
    total = _interpretations(actions, tests, max_n, ceiling.bit_length() + 64)
    if total is None:
        count = f"at least 2^{max_n * max_n * actions + max_n * tests}"
    elif total > ceiling:
        count = str(total)
    else:
        return
    raise ResourceLimitError(f"exhaustive search would enumerate {count} "
                             f"interpretations, over the ceiling of {ceiling}")


# Exhaustive mode numbers the interpretations of size n in `itertools.product`
# order: number i is its primitives' fields concatenated, n*n bits per
# action, then n bits per test as a bare row, the first field highest.  In
# an aligned block of 2^m numbers the lane numbers own the low m bits, so
# each field of lane j is that field of the block's start plus that of j.

@functools.lru_cache(maxsize=32)  # a few (size, lanes) pairs per search
def _lane_fields(n: int, lanes: int, fields: tuple[tuple[int, int], ...]) -> list[int]:
    """Per (shift, width) field, that field's bits of each lane number j, in
    lane j.  Bit b of j is set in a run of 2^b lanes every 2^(b+1) lanes."""
    width, top, full = n * n, lanes.bit_length() - 1, _block(n, lanes)[4]
    bits = [full // ((1 << (width << b + 1)) - 1) * _block(n, 1 << b)[0] << (width << b)
            for b in range(top)]
    return [sum(bits[b] << b - shift for b in range(shift, min(shift + w, top)))
            for shift, w in fields]


# A block holds at most as many lanes of its largest size as fit in
# _BLOCK_BITS (at least one): an early hit stays cheap, and no block is
# wider than _BLOCK_BITS or than one lane.
_BLOCK_BITS = 4096


def _product_blocks(actions: int, tests: int, sizes: Sequence[int]):
    """Exhaustive mode's blocks, one group each: every interpretation of
    each of `sizes` in turn, in numbering order, the lanes of a block 1, 1,
    2, 4, ... up to as many as fit in _BLOCK_BITS, rounded down to a power
    of two."""
    for n in sizes:
        cap = 1 << max(1, _BLOCK_BITS // (n * n)).bit_length() - 1
        widths = (n * n,) * actions + (n,) * tests
        fields = tuple((sum(widths[k + 1:]), w) for k, w in enumerate(widths))
        start, end = 0, 1 << sum(widths)
        while start < end:
            lanes = min(max(start, 1), cap)
            repunit = _block(n, lanes)[0]
            yield [(n, range(lanes), [(start >> shift & (1 << w) - 1) * repunit + lane_field
                                      for (shift, w), lane_field in
                                      zip(fields, _lane_fields(n, lanes, fields))])]
            start += lanes


def _draw_blocks(seed: int, samples: int, max_n: int, actions: int, tests: int,
                 skip: set[int]):
    """Sampled mode's `samples` seeded draws in blocks of 1, 2, 4, ... draws,
    up to as many max_n-point lanes as fit in _BLOCK_BITS: each size's
    draws side by side, with their places in the block.  A draw is n =
    randint(1, max_n), then n*n bits per action and n bits per test, each a
    bare field (a test's is not yet a diagonal).  The draws of the sizes in
    `skip` are made, so the stream goes on as before, and left out.

    n is drawn the way CPython's `randint` (through `randrange` and
    `_randbelow_with_getrandbits`) draws it: getrandbits(k) for k =
    max_n.bit_length(), again while that is max_n or more, plus 1.  So the
    generator makes the same calls and gets the same draws, without three
    Python frames per draw.  getrandbits(k) takes k/32 words of 32 bits
    from the stream, rounded up, so a skipped draw's fields are taken by
    one call for all their words.
    """
    getrandbits = random.Random(seed).getrandbits
    k = max_n.bit_length()
    sizes = []
    for n in range(1, max_n + 1):
        widths = [n * n] * actions + [n] * tests
        sizes.append((n, widths, 32 * sum(-(-w // 32) for w in widths) if n in skip else None))
    size, cap, step = 1, max(1, _BLOCK_BITS // (max_n * max_n)), actions + tests
    while samples:
        count = min(size, samples)
        samples -= count
        size = min(2 * size, cap)
        groups: dict[int, tuple[list[int], list[int]]] = {}  # n: its places, its draws' fields
        for position in range(count):
            r = getrandbits(k)
            while r >= max_n:
                r = getrandbits(k)
            n, widths, skipped = sizes[r]
            if skipped is not None:
                getrandbits(skipped)
                continue
            positions, fields = groups.get(n) or groups.setdefault(n, ([], []))
            positions.append(position)
            fields += map(getrandbits, widths)
        yield [(n, positions, [_pack(n * n, fields[f::step]) for f in range(step)])
               for n, (positions, fields) in groups.items()]


def _scan(kind: str, program: list[tuple[type, int, int]], checks: Sequence[tuple[int, int]],
          goal: tuple[int, int], tests: range, blocks) -> tuple | None:
    """The first interpretation of `blocks` in which every slot pair of
    `checks` holds and the slot pair `goal` violates `kind`, as (n, its
    lane, its group's values); None if there is none.  A block is a list of
    groups (n, positions, leaves): interpretations of size n side by side,
    one lane each, at `positions` in the block's order, with the
    primitives' masks in `leaves`; those at `tests` are bare test rows,
    spread to diagonals here.

    Every lane holds its own interpretation's values, so the least hit in
    the first block that has one is the first hit: every interpretation
    before it was evaluated, in that block or an earlier one, and the lanes
    after it are dropped.
    """
    left, right = goal
    for block in blocks:
        hits = []
        for n, positions, leaves in block:
            lanes = len(positions)
            for i in tests:
                leaves[i] = _diagonal(n, leaves[i], lanes)
            values = _run(program, n, lanes, leaves)
            held = _flags(kind, n, lanes, values[left], values[right])
            for a, b in checks:
                held &= ~_flags(kind, n, lanes, values[a], values[b])
            if held:
                lane = ((held & -held).bit_length() - 1) // (n * n)
                hits.append((positions[lane], n, lane, values))
        if hits:
            return min(hits)[1:]
    return None


def _first_hit(kind: str, hyps: Sequence[tuple[Term, Term]], goal: tuple[Term, Term],
               alphabet: Alphabet, max_n: int, budget: SearchBudget) -> SearchHit | None:
    """The first interpretation in which every hypothesis pair holds and the
    goal pair violates `kind`, each pair read as `_violation` reads it; its
    violating pair or point is `_violation`'s reading of its lane.

    Exhaustive mode evaluates every interpretation, in product order.
    Sampled mode first searches whole each carrier size n such that sizes
    1..n have at most `samples` interpretations in all, in product order,
    up to that size's first hit.  The ceiling does not apply: this
    evaluates no more interpretations than the draws would.  A size with
    no hit holds no drawn hit, so its draws are made, to keep the stream,
    and skipped.  If every size is skipped the answer is None, and nothing
    is drawn.  Otherwise the draws run, and every draw of a size not
    skipped is evaluated, so the hit reported is the first drawn hit.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    every = [t for pair in [*hyps, goal] for t in pair]
    pruned = prune_alphabet(alphabet, *every)
    actions, tests = pruned.actions, pruned.tests
    counts = len(actions), len(tests)
    if budget.exhaustive:
        _check_ceiling(*counts, max_n, budget.ceiling)
    if max_n * max_n > RELATION_CAP:
        raise ResourceLimitError(f"a relation on {max_n} points has {max_n * max_n} bits, "
                                 f"over the cap of {RELATION_CAP}")
    program, slot = _compile(postorder(*every), actions, tests)
    # both sources hold each test as its bare row
    scan = functools.partial(_scan, kind, program, [(slot[a], slot[b]) for a, b in hyps],
                             (slot[goal[0]], slot[goal[1]]), range(counts[0], sum(counts)))
    if budget.exhaustive:
        found = scan(_product_blocks(*counts, range(1, max_n + 1)))
    else:
        skip = set()
        for n in range(1, max_n + 1):
            total = _interpretations(*counts, n, budget.samples.bit_length())
            if total is None or total > budget.samples:
                break
            if scan(_product_blocks(*counts, [n])) is None:
                skip.add(n)
        found = None if len(skip) == max_n else scan(_draw_blocks(
            budget.seed, budget.samples, max_n, *counts, skip))
    if found is None:
        return None
    n, lane, values = found
    shift, full = lane * n * n, _block(n)[4]
    r1, r2, *masks = (values[slot[t]] >> shift & full
                      for t in [*goal, *map(Act, actions), *map(Test, tests)])
    rels = [Relation(n, mask) for mask in masks]
    interp = RelInterpretation(n, dict(zip(actions, rels)), dict(zip(tests, rels[len(actions):])))
    return SearchHit(interp, *_violation(kind, n, r1, r2))


def search_countermodel(kind: str, t1: Term, t2: Term, alphabet: Alphabet,
                        max_n: int, budget: SearchBudget) -> SearchHit | None:
    """First interpretation violating the stated comparison, else None.

    Enumeration order is fixed (carrier size, then actions in declared
    order, then tests, each mask ascending), so "first" is deterministic.
    Exhaustive search evaluates every interpretation in that order.
    Sampled search first searches whole, whatever the ceiling, each
    carrier size whose interpretations, with those of the smaller sizes,
    are no more than the samples.  A size where none is a hit can hold no
    drawn hit: its draws still count against the budget, but are not
    evaluated, and when every size is such a size the answer is None
    without drawing.  Otherwise it returns the first drawn hit.  Either
    mode refuses, with ResourceLimitError, a max_n whose relations would
    have more than RELATION_CAP bits.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    return _first_hit(kind, [], (t1, t2), alphabet, max_n, budget)


def falsify_implication(hyps: Sequence[tuple[Term, Term]], goal: tuple[Term, Term],
                        alphabet: Alphabet, max_n: int,
                        budget: SearchBudget) -> SearchHit | None:
    """Search for a model of all hypotheses violating the goal.

    Hypotheses and goal are pairs (u, v) read as `T u <= T v`, i.e. as the
    codomain inclusion cod(u) <= cod(v).  Sound refuter only.
    """
    if any(t.has_top for pair in [*hyps, goal] for t in pair):
        raise TopNotAllowedError("comparison sides must be top-free")
    # cod_geq(r1, r2) is violated when cod(r2) escapes cod(r1)
    return _first_hit("cod_geq", [(v, u) for u, v in hyps], (goal[1], goal[0]),
                      alphabet, max_n, budget)
