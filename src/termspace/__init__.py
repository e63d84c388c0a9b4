"""Deterministic search engine model over a local corpus.

Event-space queries with exact or bias-perturbed hit counts, snippet
windows, an exact word-weight calculus, word relation graphs with
threshold micro-clusters, strongest-relation spanning trees, and
normalized shade vectors. Everything is a pure function of the corpus
bytes and the configuration.
"""

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

__all__ = [
    "BIAS_MODES",
    "MAX_WINDOW",
    "MEASURES",
    "BiasConfig",
    "Context",
    "EventSet",
    "Index",
    "MicroCluster",
    "MirrorShade",
    "ShadeEntry",
    "Snippet",
    "SnippetList",
    "Term",
    "TreeCluster",
    "WordGraph",
    "WordStat",
    "build_context",
    "build_index",
    "build_word_graph",
    "context_to_dict",
    "doubleton",
    "extract_snippets",
    "graph_to_dict",
    "graph_to_dot",
    "hit_count",
    "load_corpus",
    "load_corpus_dir",
    "load_corpus_jsonl",
    "micro_cluster",
    "mirror_shade",
    "occurrence_positions",
    "optimal_micro_cluster",
    "p_list_word",
    "p_snippet_word",
    "p_term_list",
    "p_term_snippet",
    "p_term_word",
    "shade_to_dict",
    "singleton",
    "snippets_to_dict",
    "tokenize",
    "tree_to_dict",
    "tree_to_dot",
    "verify_theorem",
    "word_weight",
]
