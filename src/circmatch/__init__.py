"""circmatch: approximate circular string matching.

Finds all factors of a text within edit distance k of any rotation of a
pattern, with a q-gram filtration index for sublinear average-case
scanning and block verification for candidates.  Brute-force reference
implementations of both the index and the search are included for
validation.
"""

from .alphabet import (
    Alphabet,
    AlphabetError,
    build_alphabet,
    decode_qgram,
    encode_qgram,
    enumerate_qgrams,
)
from .bench import BenchRow, Experiment, format_table, run_experiment
from .editcore import (
    DPMatrix,
    WaveSet,
    WorkTally,
    banded_edit_distance,
    full_edit_distance,
    occurrence_scan,
    waves_drop_text_prefix,
    waves_from_scratch,
    waves_rotate_pattern,
)
from .qgramindex import (
    IndexBudgetError,
    QGramIndex,
    brute_force_index,
    build_doubled,
    build_index,
)
from .searcher import (
    PlanError,
    SearchPlan,
    SearchStats,
    oracle_search,
    plan,
    search,
    search_chunked,
)
from .verifier import Block, Occurrence, dedup_occurrences, rotate, verify_block

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetError",
    "BenchRow",
    "Block",
    "DPMatrix",
    "Experiment",
    "IndexBudgetError",
    "Occurrence",
    "PlanError",
    "QGramIndex",
    "SearchPlan",
    "SearchStats",
    "WaveSet",
    "WorkTally",
    "banded_edit_distance",
    "brute_force_index",
    "build_alphabet",
    "build_doubled",
    "build_index",
    "decode_qgram",
    "dedup_occurrences",
    "encode_qgram",
    "enumerate_qgrams",
    "format_table",
    "full_edit_distance",
    "occurrence_scan",
    "oracle_search",
    "plan",
    "rotate",
    "run_experiment",
    "search",
    "search_chunked",
    "verify_block",
    "waves_drop_text_prefix",
    "waves_from_scratch",
    "waves_rotate_pattern",
    "__version__",
]
