"""Alphabets, term abstract syntax, traversals (postorder, alphabet
pruning), parsing, and printing.

Terms are immutable, hash-consed trees: equal terms are the same object.
The grammar (precedence `!` > `*` > sequence > `+`, sequence
left-associative, juxtaposition means sequence):

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
import threading
import weakref

from _weakref import _remove_dead_weakref

from .errors import ParseError, SortError, UndeclaredIdentifierError

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_INTERN_LOCK = threading.Lock()
# Each name's bit in the name masks of terms and alphabets, numbered in
# order of first use and never dropped; written under _INTERN_LOCK.
_NAME_BITS: dict[str, int] = {}


def _bit(name: str) -> int:
    """The name's mask bit, numbering a new name; call under _INTERN_LOCK."""
    bit = _NAME_BITS.get(name)
    if bit is None:
        bit = _NAME_BITS[name] = 1 << len(_NAME_BITS)
    return bit


class Value:
    """An immutable value.  A subclass lists its fields in `__slots__`,
    which are also its `__match_args__`.  A value is built from its fields
    in that order, the trailing ones also by name, except that terms and
    atoms (`Interned`) are built positionally only.  `_build` sets the
    fields through the slots' own setters, then `_check` validates the
    value and fills in what is derived from its fields, in the slots of a
    base class.  Two values are equal when their classes and fields are;
    pickling and copying rebuild a value from its fields."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        # the slots' own setters: quicker than object.__setattr__
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __init__(self, *fields, **named) -> None:
        names = self.__slots__
        if named:
            try:
                fields += tuple(map(named.pop, names[len(fields):]))
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__} misses field {exc}") from None
            if named:
                raise TypeError(f"{type(self).__name__} has no further field {min(named)!r}")
        _build(self, fields)

    def _check(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((type(self), *self._fields()))

    def __setattr__(self, *_) -> None:
        raise AttributeError(f"{type(self).__name__} values are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        """`Cls(field=...)`, written from a stack of the pieces still to
        write, last first: text, or a value, so any depth prints."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            pieces = [f"{type(item).__name__}("]
            for i, name in enumerate(item.__slots__):
                field = getattr(item, name)
                pieces += [", " * bool(i) + name + "=",
                           field if isinstance(field, Value) else repr(field)]
            stack += reversed(pieces + [")"])
        return "".join(out)


def _build(value: Value, fields: tuple) -> None:
    """Set a new value's fields, given in the order of its `__slots__`,
    then run its `_check`: the one build step of every value."""
    setters = value._setters
    if len(fields) != len(setters):
        raise TypeError(f"{type(value).__name__} takes {len(setters)} fields, "
                        f"got {len(fields)}")
    for set_field, field in zip(setters, fields):
        set_field(value, field)
    value._check()


class _Masks(Value):  # an alphabet's name masks: derived, not fields, so not compared
    __slots__ = ("act_mask", "test_mask")


class Alphabet(_Masks):
    """Declared primitive actions and tests; order is fixed and canonical.

    The declared order drives atom bit layout, canonical sums and witness
    ordering, so it is part of the semantics of every downstream call.
    `act_mask` and `test_mask` are the name masks of the actions and the
    tests, to compare with a term's `acts` and `tests`.
    """

    __slots__ = ("actions", "tests")

    def _check(self) -> None:
        if not (isinstance(self.actions, tuple) and isinstance(self.tests, tuple)):
            raise TypeError("actions and tests must be tuples of names")
        for name in self.actions + self.tests:
            if not IDENT_RE.fullmatch(name) or name == "T":
                raise ValueError(f"invalid identifier {name!r}")
        if len(set(self.actions + self.tests)) != len(self.actions) + len(self.tests):
            raise ValueError("actions and tests must be disjoint and duplicate-free")
        set_act_mask, set_test_mask = _Masks._setters
        with _INTERN_LOCK:  # unlike an Interned value's, this check runs unlocked
            set_act_mask(self, sum(map(_bit, self.actions)))
            set_test_mask(self, sum(map(_bit, self.tests)))

    def sort_of(self, name: str) -> str | None:
        bit = _NAME_BITS.get(name, 0)
        return "action" if bit & self.act_mask else "test" if bit & self.test_mask else None


def declare_alphabet(actions: tuple[str, ...] | list[str],
                     tests: tuple[str, ...] | list[str]) -> Alphabet:
    """Build an alphabet from user declarations.

    Rejects ``__``-prefixed names so user identifiers can never collide
    with reserved internal actions, and a bare string, whose letters would
    each be declared.
    """
    if isinstance(actions, str) or isinstance(tests, str):
        raise TypeError("actions and tests must be sequences of names, not strings")
    for name in tuple(actions) + tuple(tests):
        if name.startswith("__"):
            raise ValueError(f"identifiers starting with '__' are reserved: {name!r}")
    return Alphabet(tuple(actions), tuple(tests))


# ---------------------------------------------------------------------------
# Terms


class _KeyedRef(weakref.ref):
    """`weakref.KeyedRef` without its Python `__new__` and `__init__`: the
    intern table key is set after the reference is made."""

    __slots__ = ("key",)


# (class, *fields) -> a weak reference to the live value.  A dead value's
# reference removes its entry, unless a new value has taken the key since.
_INTERNED: dict[tuple, _KeyedRef] = {}


def _forget(dead: _KeyedRef, _table=_INTERNED, _remove=_remove_dead_weakref) -> None:
    # defaults, as in WeakValueDictionary: the callback may run while the
    # interpreter shuts down
    _remove(_table, dead.key)


class Interned(Value):
    """A hash-consed value: one live object per class and field values, so
    equality and hashing are object identity.  The intern table holds weak
    references, so a value lives as long as its users do, and pickling and
    copying give back the interned object.  Its fields are given by
    position only, so a lookup builds no dict of keywords.  A value not in
    the table is built in one step under `_INTERN_LOCK`: `_build` sets its
    fields and runs `_check`, once per object, and a `_KeyedRef` enters it
    in the table.  A build that raises enters nothing."""

    __slots__ = ("__weakref__",)
    # object's C slots: identity, and no Python-level __init__ on every lookup
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __deepcopy__(self, memo=None):  # an immutable value is its own copy
        return self

    __copy__ = __deepcopy__

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _INTERNED.get(key)
        node = ref() if ref is not None else None
        if node is None:
            with _INTERN_LOCK:  # threads racing on one value must get one object
                ref = _INTERNED.get(key)
                node = ref() if ref is not None else None
                if node is None:
                    node = object.__new__(cls)
                    _build(node, fields)
                    ref = _KeyedRef(node, _forget)
                    ref.key = key
                    _INTERNED[key] = ref
        return node


class Term(Interned):
    """A term node.  Besides its fields, a node holds five facts, which
    `_check` computes in the step that builds it: `kids`, its fields that
    are terms, in `__slots__` order; `test_only`, true iff the node is
    built from 0, 1, tests, `!`, `+` and sequence only; `has_top`, true iff
    T occurs; `acts` and `tests`, the name masks of the actions and of the
    tests that occur.  A name mask has one bit per name, numbered in one
    index for the whole process, so whether a term's names are declared,
    or which of them occur, takes a mask test instead of a walk."""

    __slots__ = ("kids", "test_only", "has_top", "acts", "tests")
    _test_like = True  # may be test-only: false for actions, T and star

    def __reduce__(self):
        # flat, so any depth pickles: each node as (class, *fields), a
        # child term by its index in the list
        order = postorder(self)
        index = {t: i for i, t in enumerate(order)}
        return _unflatten, (tuple((type(t), *(index[f] if isinstance(f, Term) else f
                                              for f in t._fields())) for t in order),)

    def _check(self) -> None:
        test_only, has_top = self._test_like, type(self) is Top
        acts = tests = 0
        kids = []
        for kid in map(self.__getattribute__, self.__slots__):
            if isinstance(kid, Term):
                kids.append(kid)
                test_only = test_only and kid.test_only
                has_top = has_top or kid.has_top
                acts |= kid.acts
                tests |= kid.tests
        set_children, set_test_only, set_has_top, set_acts, set_tests = Term._setters
        set_children(self, tuple(kids))
        set_test_only(self, test_only)
        set_has_top(self, has_top)
        set_acts(self, _bit(self.name) if type(self) is Act else acts)
        set_tests(self, _bit(self.name) if type(self) is Test else tests)


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class Top(Term):
    __slots__ = ()
    _test_like = False


class Act(Term):
    __slots__ = ("name",)
    _test_like = False


class Test(Term):
    __slots__ = ("name",)


class Not(Term):
    __slots__ = ("arg",)

    def _check(self) -> None:
        super()._check()
        if not self.arg.test_only:
            raise SortError(f"negation requires a test-only term, got {render(self.arg)!r}")


class Plus(Term):
    __slots__ = ("left", "right")


class Dot(Term):
    __slots__ = ("left", "right")


class Star(Term):
    __slots__ = ("arg",)
    _test_like = False


def _unflatten(nodes: tuple) -> Term:
    """The last node of a flat `Term.__reduce__` list, built first to last."""
    built: list[Term] = []
    for cls, *fields in nodes:
        built.append(cls(*(built[f] if type(f) is int else f for f in fields)))
    return built[-1]


ZERO = Zero()
ONE = One()
TOP = Top()


def contains_top(t: Term) -> bool:
    return t.has_top


def postorder(*terms: Term) -> list[Term]:
    """The distinct subterms of the terms, each after its children, the
    children left before right.  Every pass over a term is one loop over
    this list with one result per node, so no pass recurses.  On the
    stack, a 1-tuple marks a node whose children are all done."""
    done: dict[Term, None] = {}
    stack: list = list(reversed(terms))
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            done[node[0]] = None
        elif node not in done:
            if node.kids:
                stack.append((node,))
                stack.extend(reversed(node.kids))
            else:
                done[node] = None
    return list(done)


def prune_alphabet(alphabet: Alphabet, *terms: Term) -> Alphabet:
    """Drop primitives that occur in none of the terms, keeping order."""
    acts = tests = 0
    for t in terms:
        acts |= t.acts
        tests |= t.tests
    if acts & alphabet.act_mask == alphabet.act_mask \
            and tests & alphabet.test_mask == alphabet.test_mask:
        return alphabet
    bits = _NAME_BITS
    return Alphabet(tuple(n for n in alphabet.actions if acts & bits[n]),
                    tuple(n for n in alphabet.tests if tests & bits[n]))


def check_over(t: Term, alphabet: Alphabet) -> None:
    """Raise unless every identifier in t is declared with its sort.  The
    masks answer when it is; otherwise a walk finds the first offending
    node."""
    if not (t.acts & ~alphabet.act_mask or t.tests & ~alphabet.test_mask):
        return
    for s in postorder(t):
        if isinstance(s, Act) and alphabet.sort_of(s.name) != "action":
            raise UndeclaredIdentifierError(f"undeclared action {s.name!r}")
        if isinstance(s, Test) and alphabet.sort_of(s.name) != "test":
            raise UndeclaredIdentifierError(f"undeclared test {s.name!r}")


# ---------------------------------------------------------------------------
# Parsing

# The last alternative takes any other character, so matches are
# contiguous and the first bad character is where the scan fails.
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<ident>{IDENT_RE.pattern})|(?P<op>[01!*+;.()])|(?P<bad>\S))")
_LEAVES = {"0": ZERO, "1": ONE, "T": TOP}
_LEAF_TEXT = {t: text for text, t in _LEAVES.items()}
_ATOM_STARTERS = {*_LEAVES, "ident", "!", "("}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token: the kind of an operator, 0, 1 or T
    is its text, and of any other identifier "ident"."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        pos = m.end() - len(value)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        tokens.append(("ident" if kind == "ident" and value != "T" else value, value, pos))
    return tokens


def parse(text: str, alphabet: Alphabet) -> Term:
    """Parse a term over the given alphabet; round-trips with render.

    One loop reads an operand (its `!`s and `(`s, then a leaf), then closes
    what it completes: negations, stars, a sequence, a sum and, at `)`, a
    parenthesis.  Open `(`s and `!`s and the left operands of `+` and of
    sequences wait on one stack, so any nesting depth parses."""
    tokens = _tokenize(text) + [("end", "", len(text))]
    stack: list[tuple[str, object]] = []
    i = 0
    while True:
        kind, name, pos = tokens[i]
        i += 1
        if kind in ("!", "("):
            stack.append((kind, pos))
            continue
        if kind in _LEAVES:
            t = _LEAVES[kind]
        elif kind == "ident":
            sort = alphabet.sort_of(name)
            if sort is None:
                raise ParseError(f"undeclared identifier {name!r}", pos)
            t = Act(name) if sort == "action" else Test(name)
        else:
            raise ParseError("unexpected end of input" if kind == "end"
                             else f"unexpected {name!r}", pos)
        while True:  # t is a complete atomexp
            while stack and stack[-1][0] == "!":
                if not t.test_only:
                    raise ParseError(f"negation of non-test {render(t)!r}", stack[-1][1])
                stack.pop()
                t = Not(t)
            while tokens[i][0] == "*":
                i += 1
                t = Star(t)
            if stack and stack[-1][0] == ";":
                t = Dot(stack.pop()[1], t)
            kind = tokens[i][0]
            if kind in (";", "."):
                i += 1
            if kind in (";", ".") or kind in _ATOM_STARTERS:
                stack.append((";", t))
                break
            if stack and stack[-1][0] == "+":
                t = Plus(stack.pop()[1], t)
            if kind == "+":
                i += 1
                stack.append(("+", t))
                break
            if not stack:
                if kind != "end":
                    raise ParseError(f"trailing input {tokens[i][1]!r}", tokens[i][2])
                return t
            if kind != ")":
                raise ParseError("unexpected end of input" if kind == "end"
                                 else "expected ')'", tokens[i][2])
            i += 1
            stack.pop()


def scan_identifiers(text: str) -> tuple[str, ...]:
    """All identifiers in term or guarded-string text, in first-occurrence
    order, with the reserved "T" excluded.  Purely lexical; used to infer
    undeclared actions before real parsing."""
    return tuple(dict.fromkeys(name for name in IDENT_RE.findall(text) if name != "T"))


# ---------------------------------------------------------------------------
# Printing

_PREC_PLUS, _PREC_DOT, _PREC_STAR = 0, 1, 2
_PREC = {Plus: _PREC_PLUS, Dot: _PREC_DOT, Star: _PREC_STAR}  # other terms: 3


def render(t: Term, top: str = "T") -> str:
    """Deterministic minimal-parenthesis rendering; parse(render(t)) == t.
    T prints as `top`, which stands as a leaf: T never lies under `!`, so
    text that prints at star precedence needs no parentheses for it.
    The stack holds the pieces still to print, last first: text, or a term
    and the least precedence it prints at without parentheses."""
    out: list[str] = []
    stack: list = [(t, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, minimum = item
        if _PREC.get(type(t), 3) < minimum:
            out.append("(")
            stack += [")", (t, 0)]
            continue
        match t:
            case Zero() | One() | Top():
                out.append(top if t is TOP else _LEAF_TEXT[t])
            case Act(name) | Test(name):
                out.append(name)
            case Not(arg):
                out.append("!")
                stack.append((arg, 3))
            case Star(arg):
                # x** is grammatical, so a star operand needs no parentheses
                stack += ["*", (arg, _PREC_STAR)]
            case Plus(left, right):
                stack += [(right, _PREC_DOT), " + ", (left, _PREC_PLUS)]
            case Dot(left, right):
                stack += [(right, _PREC_STAR), " ", (left, _PREC_DOT)]
            case _:
                raise TypeError(f"not a term: {t!r}")
    return "".join(out)
