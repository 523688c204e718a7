"""Online net-frequency indexing over append-only text.

The index keeps an implicit suffix tree current after every appended
symbol; its active point spells the longest suffix of the text that
recurs, and the suffixes of that one are all the repeated suffixes
(OnlineBuilder.repeated_suffixes lists them with their loci). On top of
that it answers two queries at any moment: the net frequency of a given
string, and the set of all strings whose net frequency is positive.
"""

from .index import NetFrequencyIndex
from .nf_query import (
    NfReport,
    offline_single_nf_breakdown,
    online_all_nf,
    online_single_nf,
)
from .nf_oracle import (
    naive_implicit_tree,
    oracle_all_nf,
    oracle_nf,
    oracle_repeated_suffixes,
)
from .online_builder import CLASS_COINCIDING, CLASS_EXTERNAL, CLASS_INTERNAL, OnlineBuilder
from .suffix_tree import Locus, SuffixTree
from .text_store import Occurrence, TextStore, as_symbols

__version__ = "0.1.0"

__all__ = [
    "CLASS_COINCIDING",
    "CLASS_EXTERNAL",
    "CLASS_INTERNAL",
    "Locus",
    "NetFrequencyIndex",
    "NfReport",
    "Occurrence",
    "OnlineBuilder",
    "SuffixTree",
    "TextStore",
    "as_symbols",
    "naive_implicit_tree",
    "offline_single_nf_breakdown",
    "online_all_nf",
    "online_single_nf",
    "oracle_all_nf",
    "oracle_nf",
    "oracle_repeated_suffixes",
    "__version__",
]
