"""Online net-frequency indexing over append-only text.

The index keeps an implicit suffix tree current after every appended
symbol and tracks which suffixes of the text recur inside it. On top of
that it answers two queries at any moment: the net frequency of a given
string, and the set of all strings whose net frequency is positive.
"""

from .implicit_registry import (
    CLASS_COINCIDING,
    CLASS_EXTERNAL,
    CLASS_INTERNAL,
    ImplicitRegistry,
)
from .index import NetFrequencyIndex
from .nf_offline import (
    NfReport,
    offline_all_nf,
    offline_single_nf,
    offline_single_nf_breakdown,
)
from .nf_online import (
    implicit_weiner_links,
    online_all_nf,
    online_single_nf,
    rho,
)
from .nf_oracle import (
    naive_implicit_tree,
    oracle_all_nf,
    oracle_nf,
    oracle_repeated_suffixes,
)
from .online_builder import OnlineBuilder
from .suffix_tree import Locus, SuffixTree
from .text_store import Occurrence, TextStore, as_symbols

__version__ = "0.1.0"

__all__ = [
    "CLASS_COINCIDING",
    "CLASS_EXTERNAL",
    "CLASS_INTERNAL",
    "ImplicitRegistry",
    "Locus",
    "NetFrequencyIndex",
    "NfReport",
    "Occurrence",
    "OnlineBuilder",
    "SuffixTree",
    "TextStore",
    "as_symbols",
    "implicit_weiner_links",
    "naive_implicit_tree",
    "offline_all_nf",
    "offline_single_nf",
    "offline_single_nf_breakdown",
    "online_all_nf",
    "online_single_nf",
    "oracle_all_nf",
    "oracle_nf",
    "oracle_repeated_suffixes",
    "rho",
    "__version__",
]
