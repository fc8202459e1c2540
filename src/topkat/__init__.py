"""Decision procedures for KAT and TopKAT terms over guarded-string
languages, (co)domain comparison of top-free terms, and extraction of
finite relational countermodels."""

from .decide import TOP_ACTION, Equivalent, Verdict, Witness, equivalent, leq, member
from .domain import ComparisonVerdict, Provable, RelCountermodel, cod_geq, dom_geq
from .errors import (
    ParseError, ResourceLimitError, SortError, TopNotAllowedError, TopkatError,
    UndeclaredIdentifierError,
)
from .logic import Triple, check_triple
from .reduction import topkat_equivalent, topkat_leq
from .relmodel import (
    Relation, RelInterpretation, SearchBudget, evaluate,
    falsify_implication, search_countermodel,
)
from .semantics import (
    Atom, GuardedString, all_atoms, lang_bounded,
)
from .syntax import (
    Act, Alphabet, Dot, Not, One, Plus, Star, Term, Test, Top, Zero,
    contains_top, declare_alphabet, parse, render,
)

__version__ = "0.1.0"
