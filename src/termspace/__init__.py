"""Deterministic search engine model over a local corpus.

Event-space queries with exact or bias-perturbed hit counts, snippet
windows, an exact word-weight calculus, word relation graphs with
threshold micro-clusters, strongest-relation spanning trees, and
normalized shade vectors. Everything is a pure function of the corpus
bytes and the configuration.
"""

from types import ModuleType as _ModuleType

from .engine import (
    BIAS_MODES,
    BiasConfig,
    EventSet,
    Index,
    Term,
    build_index,
    doubleton,
    hit_count,
    load_corpus,
    load_corpus_dir,
    load_corpus_jsonl,
    occurrence_positions,
    singleton,
    tokenize,
)
from .microcluster import (
    MEASURES,
    MicroCluster,
    MirrorShade,
    ShadeEntry,
    TreeCluster,
    WordGraph,
    build_word_graph,
    graph_to_dict,
    graph_to_dot,
    micro_cluster,
    mirror_shade,
    optimal_micro_cluster,
    shade_to_dict,
    tree_to_dict,
    tree_to_dot,
    verify_theorem,
)
from .snippets import MAX_WINDOW, Snippet, SnippetList, extract_snippets, snippets_to_dict
from .triplet import (
    Context,
    WordStat,
    build_context,
    context_to_dict,
    p_list_word,
    p_snippet_word,
    p_term_list,
    p_term_snippet,
    p_term_word,
    word_weight,
)

__version__ = "0.1.0"

# Every public, non-module name bound above: the imports are the one list of the API.
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType))
