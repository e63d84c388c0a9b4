"""Word relation graphs, threshold clusters, spanning trees, and shade vectors.

The complete graph on a context's words carries one relation weight per
pair, computed from the index event spaces. Filtering by a weight
threshold gives a micro-cluster; keeping only the strongest relations
until no cycle remains gives the optimal micro-cluster (a maximum-weight
spanning forest); the vector of per-word document counts, normalized by
its maximum, is the cluster's mirror shade.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .engine import Index, Term
from .jsonio import rational_str
from .triplet import Context

MEASURES = ("doubleton_count", "jaccard")

Edge = tuple[str, str, Fraction]


@dataclass(frozen=True)
class WordGraph:
    """Undirected complete graph on a word set with rational edge weights.

    Vertices are the words themselves (the word-to-vertex bijection is the
    identity). ``weights`` is keyed by the sorted word pair.

    Validation makes no set of pairs: mapping keys are unique, so a
    mapping with ``n(n-1)/2`` keys that holds every sorted vertex pair
    holds nothing else. The sign of a rational weight is read from its
    numerator, which avoids one ``Fraction`` comparison per edge.
    """

    vertices: tuple[str, ...]
    weights: Mapping[tuple[str, str], Fraction]

    def __post_init__(self) -> None:
        vertices = tuple(sorted(self.vertices))
        object.__setattr__(self, "vertices", vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("graph vertices must be unique")
        n = len(vertices)
        if len(self.weights) != n * (n - 1) // 2 or not all(
            map(self.weights.__contains__, combinations(vertices, 2))
        ):
            raise ValueError("graph must carry exactly one weight per sorted vertex pair")
        # A weight without a numerator (a float) stands for its own sign.
        values = self.weights.values()
        if min(map(getattr, values, repeat("numerator"), values), default=0) < 0:
            raise ValueError("edge weights must be non-negative")

    def weight(self, a: str, b: str) -> Fraction:
        return self.weights[(a, b) if a < b else (b, a)]

    def edges(self) -> list[Edge]:
        """Edges as (a, b, weight) triples in lexicographic order.

        The rows of the sorted vertex tuple give the sorted pair order, so
        nothing is sorted.
        """
        vertices, weights = self.vertices, self.weights
        return [(a, b, weights[a, b]) for i, a in enumerate(vertices) for b in vertices[i + 1 :]]


@dataclass(frozen=True)
class MicroCluster:
    """The words whose weight clears a threshold, with their induced graph.

    ``words`` keeps the weight-descending order of the parent context. An
    empty cluster (threshold above every weight) is a valid, flagged result.
    """

    graph: WordGraph
    words: tuple[str, ...]
    alpha: Fraction

    @property
    def is_empty(self) -> bool:
        return not self.words


@dataclass(frozen=True)
class TreeCluster:
    """Acyclic strongest-relation subgraph spanning a micro-cluster.

    One tree per connected component; edges are stored in the order they
    were kept (weight descending).
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    words: tuple[str, ...]

    @property
    def component_count(self) -> int:
        return len(self.vertices) - len(self.edges)


@dataclass(frozen=True)
class ShadeEntry:
    word: str
    raw: int
    normalized: Fraction


@dataclass(frozen=True)
class MirrorShade:
    """Per-word document counts in input order, normalized by the maximum ``z``."""

    entries: tuple[ShadeEntry, ...]
    z: int


def _doc_bitsets(words: Sequence[str], index: Index) -> list[int]:
    # One int per word with bit i set when the word occurs in the index's
    # i-th document (insertion order); built for the given words only.
    ordinals = {doc_id: i for i, doc_id in enumerate(index.documents)}
    width = (len(ordinals) + 7) // 8
    bitsets = []
    for w in words:
        buf = bytearray(width)
        for doc_id in index.postings.get(w, ()):
            i = ordinals[doc_id]
            buf[i >> 3] |= 1 << (i & 7)
        bitsets.append(int.from_bytes(buf, "little"))
    return bitsets


def build_word_graph(ctx: Context, index: Index, measure: str = "jaccard") -> WordGraph:
    """Complete relation graph on the context words.

    Edge weight is the doubleton count of the word pair, or its Jaccard
    ratio over the two singleton events (0 when the union is empty).
    Counts are always exact; no bias is applied.

    Each vertex's document set is one ``int`` bitset over document
    ordinals, so a pair costs one ``&`` and one ``bit_count`` of
    ``documents / 64`` machine words, and the union size follows from the
    two set sizes. Weights are shared between pairs with the same
    ``(intersection, union)`` sizes, so at most one ``Fraction`` is made
    per distinct pair of sizes (``Fraction`` is immutable).
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    if not ctx.words:
        raise ValueError("cannot build a graph from an empty context")
    vertices = tuple(sorted(ctx.words))
    bitsets = _doc_bitsets(vertices, index)
    sizes = [b.bit_count() for b in bitsets]
    jaccard = measure == "jaccard"
    memo: dict[tuple[int, int], Fraction] = {}
    weights: dict[tuple[str, str], Fraction] = {}
    for i, a in enumerate(vertices):
        bits_a, size_a = bitsets[i], sizes[i]
        for j in range(i + 1, len(vertices)):
            inter = (bits_a & bitsets[j]).bit_count()
            # A doubleton count is the intersection size over 1.
            union = size_a + sizes[j] - inter if jaccard else 1
            weight = memo.get((inter, union))
            if weight is None:
                weight = memo[(inter, union)] = Fraction(inter, union) if union else Fraction(0)
            weights[(a, vertices[j])] = weight
    return WordGraph(vertices=vertices, weights=weights)


def micro_cluster(graph: WordGraph, ctx: Context, alpha: Fraction | int | float | str) -> MicroCluster:
    """Retain the context words whose weight is at least ``alpha``.

    The retained words induce a complete subgraph of ``graph``, whose
    weights are looked up pair by pair among the retained words only. A
    threshold above every weight yields an empty cluster rather than an
    error.
    """
    threshold = Fraction(alpha)
    if threshold < 0:
        raise ValueError("alpha must be non-negative")
    retained = tuple(w for w in ctx.nu_order if ctx.words[w].nu >= threshold)
    sub_vertices = tuple(sorted(retained))
    weights = graph.weights
    # A pair the graph lacks is left out, so ``WordGraph`` rejects it.
    sub_weights = {pair: weights[pair] for pair in combinations(sub_vertices, 2) if pair in weights}
    sub = WordGraph(vertices=sub_vertices, weights=sub_weights)
    return MicroCluster(graph=sub, words=retained, alpha=threshold)


def _forest(vertices: Iterable[str], edges: Iterable[Edge]) -> list[Edge]:
    """The edges Kruskal's rule keeps, in order: each joins two components of those kept before it."""
    root = {v: v for v in vertices}

    def find(v: str) -> str:
        while root[v] != v:
            root[v] = v = root[root[v]]  # path halving
        return v

    kept = []
    for edge in edges:
        a, b = find(edge[0]), find(edge[1])
        if a != b:
            root[b] = a
            kept.append(edge)
    return kept


def optimal_micro_cluster(mc: MicroCluster) -> TreeCluster:
    """Keep the strongest relations of a micro-cluster until no cycle remains.

    Edges are considered in descending weight, ties broken
    lexicographically on the sorted endpoint pair; an edge survives only
    when it joins two different components. The result spans every vertex
    and is a maximum-weight spanning forest.
    """
    if mc.is_empty:
        raise ValueError("optimal_micro_cluster needs at least one vertex")
    # ``edges()`` is in lexicographic order and the sort is stable (also
    # with ``reverse``), so equal weights keep that order.
    ordered = sorted(mc.graph.edges(), key=itemgetter(2), reverse=True)
    kept = tuple(_forest(mc.graph.vertices, ordered))
    return TreeCluster(vertices=mc.graph.vertices, edges=kept, words=mc.words)


def mirror_shade(words: Sequence[str], index: Index) -> MirrorShade:
    """Document counts for a word list, normalized into [0, 1] by the maximum.

    A count is the number of documents in the word's postings, as for a
    context's ``mu``; a word no index can hold is rejected, never counted
    as 0. Input order is preserved and words must be unique so the
    word-to-entry map stays one-one. When every count is zero the
    normalized vector is defined as all zeros.
    """
    words = tuple(words)
    if not words:
        raise ValueError("mirror_shade needs at least one word")
    if len(set(words)) != len(words):
        raise ValueError("mirror_shade words must be unique")
    for w in words:
        Term((w,))  # raises for a word no index can hold
    raws = [len(index.postings.get(w, ())) for w in words]
    z = max(raws)
    entries = tuple(
        ShadeEntry(word=w, raw=r, normalized=Fraction(r, z) if z else Fraction(0))
        for w, r in zip(words, raws)
    )
    return MirrorShade(entries=entries, z=z)


def verify_theorem(tree: TreeCluster, full: MicroCluster, index: Index) -> bool:
    """Check that a tree spans its words and its shade restricts its cluster's shade.

    The tree spans its words when they are its vertices, joined by
    ``len(vertices) - 1`` edges without a cycle. Each tree word's raw count
    is compared with its entry in the full cluster's shade; normalized
    values are not, since each shade renormalizes by its own maximum. True
    for every tree :func:`optimal_micro_cluster` builds from ``full`` or
    from a cluster of a subset of its words. A tree word missing from the
    cluster, or a duplicated one, raises ``ValueError``.
    """
    if not set(tree.words) <= set(full.words):
        missing = sorted(set(tree.words) - set(full.words))
        raise ValueError(f"tree words not in the cluster: {missing}")
    vertices = set(tree.vertices)
    if (
        set(tree.words) != vertices
        or len(tree.edges) != len(tree.vertices) - 1
        or not all(a in vertices and b in vertices for a, b, _ in tree.edges)
        or len(_forest(vertices, tree.edges)) != len(tree.edges)
    ):
        return False
    full_raw = {e.word: e.raw for e in mirror_shade(full.words, index).entries}
    return all(e.raw == full_raw[e.word] for e in mirror_shade(tree.words, index).entries)


def _dot(vertices: Sequence[str], edges: Sequence[Edge]) -> str:
    # ``edges`` come in lexicographic order. Many edges share one weight
    # object, so each object's label is formatted once; keying the cache by
    # ``id`` is safe because ``edges`` keeps every weight alive.
    labels: dict[int, str] = {}
    lines = ["graph {"]
    lines += [f'  "{v}";' for v in vertices]
    for a, b, w in edges:
        label = labels.get(id(w))
        if label is None:
            label = labels[id(w)] = f"{float(w):.6f}"
        lines.append(f'  "{a}" -- "{b}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(graph: WordGraph) -> str:
    """DOT text with edge weights as labels, 6 decimal places.

    Edges are listed in the lexicographic pair order of
    :meth:`WordGraph.edges`, and each distinct weight object's label is
    formatted once per call.
    """
    return _dot(graph.vertices, graph.edges())


def tree_to_dot(tree: TreeCluster) -> str:
    return _dot(tree.vertices, sorted(tree.edges, key=itemgetter(0, 1)))


def _edges_dict(vertices: Sequence[str], edges: Sequence[Edge]) -> dict:
    # ``edges`` come in lexicographic order, as for ``_dot``.
    return {
        "vertices": list(vertices),
        "edges": [{"a": a, "b": b, "weight": rational_str(w)} for a, b, w in edges],
    }


def graph_to_dict(graph: WordGraph) -> dict:
    """JSON-ready view: ``{vertices, edges: [{a, b, weight}]}``."""
    return _edges_dict(graph.vertices, graph.edges())


def tree_to_dict(tree: TreeCluster) -> dict:
    return _edges_dict(tree.vertices, sorted(tree.edges, key=itemgetter(0, 1)))


def shade_to_dict(shade: MirrorShade) -> dict:
    """JSON-ready view: ``{entries: [{word, raw, normalized}], z}``."""
    return {
        "entries": [
            {"word": e.word, "raw": e.raw, "normalized": rational_str(e.normalized)}
            for e in shade.entries
        ],
        "z": shade.z,
    }
