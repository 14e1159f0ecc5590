"""Antisquare-free and power-bounded binary words.

An antisquare is a word u·v where v is the letterwise complement of u; a
binary word is good when its only antisquare factors are 01 and 10.  This
package bundles exact repetition machinery, antisquare inventories,
morphism-based constructions with their verification procedures, exhaustive
constrained search, transfer-matrix enumeration, and Fibonacci-structure
analysis of the extremal good word.
"""

from .antisquares import (
    AntisquareInventory,
    antisquare_order,
    characterized_minimal,
    complement_pair_bound,
    inventory,
    is_antisquare,
    is_good,
    is_minimal_antisquare,
    minimal_antisquares,
    pansiot_decode,
    pansiot_encode,
)
from .repetitions import (
    PowerBound,
    Repetition,
    critical_exponent,
    exponent,
    maximal_repetitions,
    satisfies,
    smallest_period,
)
from .search import ConstraintSet, SearchOutcome, check_word, count_by_length, longest_word
from .words import Word, complement

__version__ = "0.1.0"

__all__ = [
    "AntisquareInventory",
    "ConstraintSet",
    "PowerBound",
    "Repetition",
    "SearchOutcome",
    "Word",
    "antisquare_order",
    "characterized_minimal",
    "check_word",
    "complement",
    "complement_pair_bound",
    "count_by_length",
    "critical_exponent",
    "exponent",
    "inventory",
    "is_antisquare",
    "is_good",
    "is_minimal_antisquare",
    "longest_word",
    "maximal_repetitions",
    "minimal_antisquares",
    "pansiot_decode",
    "pansiot_encode",
    "satisfies",
    "smallest_period",
    "__version__",
]
