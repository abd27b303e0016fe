"""circmatch: approximate circular string matching.

Finds all factors of a text within edit distance k of any rotation of a
pattern, with a q-gram filtration index for sublinear average-case
scanning and bit-parallel verification of the candidates.  The reference
implementations that check the search live in `circmatch.reference`, and
the benchmark driver in `circmatch.bench`; importing the package loads
neither.
"""

from .alphabet import Alphabet, AlphabetError, build_alphabet
from .qgramindex import IndexBudgetError, QGramIndex, build_index
from .searcher import PlanError, SearchPlan, SearchStats, plan, search
from .verifier import Occurrence

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetError",
    "IndexBudgetError",
    "Occurrence",
    "PlanError",
    "QGramIndex",
    "SearchPlan",
    "SearchStats",
    "build_alphabet",
    "build_index",
    "plan",
    "search",
    "__version__",
]
