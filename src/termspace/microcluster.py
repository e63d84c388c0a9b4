"""Word relation graphs, threshold clusters, spanning trees, and shade vectors.

The complete graph on a context's words carries one relation weight per
pair, computed from the index event spaces. Filtering by a weight
threshold gives a micro-cluster; keeping only the strongest relations
until no cycle remains gives the optimal micro-cluster (a maximum-weight
spanning tree, since the graph is complete); the vector of per-word
document counts, normalized by its maximum, is the cluster's mirror shade.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations, compress, repeat
from math import copysign, inf, nan
from operator import add, itemgetter

from .engine import Index, Term
from .jsonio import RATIONAL_SPEC, rational_str
from .triplet import Context

MEASURES = ("doubleton_count", "jaccard")

Edge = tuple[str, str, Fraction]
_OUT_OF_RANGE = "edge weights must be 0 or within float range, 5e-324 to 1.8e308"


class _Ratios(dict):
    """Weights by code ``p * base + q``, ``base`` past every ``q``; a code's ``Fraction`` is made when first read."""

    def __init__(self, base: int) -> None:  # the dict starts empty: ``dict.__init__`` would only add items
        self.base = base

    def __missing__(self, code: int) -> Fraction:  # code 0 is the empty union, whose weight is 0
        return self.setdefault(code, Fraction(*divmod(code, self.base)) if code else Fraction(0))

    def floats(self, codes: Iterable[int]) -> list[float]:  # correctly rounded, so ``float`` of each ``Fraction``
        return [p / q if q else 0.0 for p, q in map(divmod, codes, repeat(self.base))]


class _PairWeights(Mapping):
    """Read-only weights keyed by sorted vertex 2-tuple: ``table[code]``, ``rows[i]`` the codes of pairs (i, j > i)."""

    def __init__(self, vertices: tuple[str, ...], rows: Sequence[Sequence[int]], table: _Ratios) -> None:
        self.vertices, self.rows, self.table = vertices, rows, table
        self.ordinal = {v: i for i, v in enumerate(vertices)}

    def __getitem__(self, pair: tuple[str, str]) -> Fraction:
        i, j = map(self.ordinal.get, pair) if isinstance(pair, tuple) and len(pair) == 2 else (None, None)
        if i is None or j is None or i >= j:
            raise KeyError(pair)
        return self.table[self.rows[i][j - i - 1]]

    def __len__(self) -> int:
        return sum(map(len, self.rows))

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return combinations(self.vertices, 2)


def _ratio(weight: object) -> tuple[int, int]:  # a hand-built weight as ``p/q`` in lowest terms
    try:  # its float, which reports print, first: a ``Decimal`` such as 1e-999999999 is gigabytes as a ratio
        ratio, x = weight.as_integer_ratio, float(weight)
    except AttributeError:
        raise ValueError(f"edge weights must be numbers, got {type(weight).__name__}") from None
    except (OverflowError, ValueError) as exc:  # an int or Fraction past the largest float, or a signalling NaN
        x = inf if isinstance(exc, OverflowError) else nan
    if not (abs(x) < inf and (x or not weight)):  # NaN fails ``<``, and a report would print a tiny weight as 0
        raise ValueError("edge weights must not be NaN" if x != x else _OUT_OF_RANGE)
    return ratio()


@dataclass(frozen=True)
class WordGraph:
    """Undirected complete graph on a word set with rational edge weights.

    Vertices are the words themselves (the word-to-vertex bijection is the
    identity). ``weights`` is a read-only mapping keyed by the sorted word
    pair; its values are ``Fraction``s, and equal weights share one object.

    A mapping with ``n(n-1)/2`` keys that holds every sorted vertex pair holds
    nothing else, as keys are unique, so no set of pairs is made. NaN, a
    non-number, a weight outside float range other than 0, and then a negative
    one are rejected as its weights become rows of codes over one table. Rows
    built or cut by this module, checked when they were made, are not read again.
    """

    vertices: tuple[str, ...]
    weights: Mapping[tuple[str, str], Fraction]

    def __post_init__(self) -> None:
        vertices = tuple(sorted(self.vertices))
        object.__setattr__(self, "vertices", vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("graph vertices must be unique")
        n, weights = len(vertices), self.weights
        if isinstance(weights, _PairWeights) and weights.vertices == vertices:  # rows built or cut here, checked then
            return
        if len(weights) != n * (n - 1) // 2 or not all(map(weights.__contains__, combinations(vertices, 2))):
            raise ValueError("graph must carry exactly one weight per sorted vertex pair")
        ratios = [[_ratio(weights[a, b]) for b in vertices[i + 1 :]] for i, a in enumerate(vertices)]
        table = _Ratios(1 + max((q for row in ratios for _, q in row), default=1))
        rows = [[p * table.base + q for p, q in row] for row in ratios]
        if min(map(min, filter(None, rows)), default=0) < 0:  # a code has its weight's sign
            raise ValueError("edge weights must be non-negative")
        object.__setattr__(self, "weights", _PairWeights(vertices, rows, table))

    def weight(self, a: str, b: str) -> Fraction:
        return self.weights[(a, b) if a < b else (b, a)]

    def edges(self) -> list[Edge]:
        """Edges as (a, b, weight) triples in lexicographic order.

        Row i holds the pairs of vertex i with each vertex after it, and the
        vertex tuple is sorted, so nothing is sorted.
        """
        vertices, table = self.vertices, self.weights.table
        rows = enumerate(zip(vertices, self.weights.rows))
        return [e for i, (a, row) in rows for e in zip(repeat(a), vertices[i + 1 :], map(table.__getitem__, row))]


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

    Edges are stored in the order they were kept (weight descending).
    ``component_count`` counts the components the edges leave on the
    vertices and every endpoint: 1 for a tree :func:`optimal_micro_cluster`
    builds, as a ``WordGraph`` is complete; a hand-built tree may have more.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    words: tuple[str, ...]

    def __post_init__(self) -> None:  # every reader unpacks an edge as ``a, b, w``
        if bad := [e for e in self.edges if not (isinstance(e, tuple) and len(e) == 3)]:
            raise ValueError(f"tree edges must be (a, b, weight) triples, got {bad[0]!r}")

    @property
    def component_count(self) -> int:
        nodes = {*self.vertices, *(v for a, b, _ in self.edges for v in (a, b))}
        return len(nodes) - len(_forest(nodes, self.edges))


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


def build_word_graph(ctx: Context, index: Index, measure: str = "jaccard") -> WordGraph:
    """Complete relation graph on the context words.

    Edge weight is the doubleton count of the word pair, or its Jaccard
    ratio over the two singleton events (0 when the union is empty).
    Counts are always exact; no bias is applied.

    Each vertex's document set is the index's cached bitset of the word
    (:meth:`Index.bitset`), so a pair costs one ``&`` and one
    ``bit_count`` of ``documents / 64`` machine words, and the union size
    follows from the two set sizes.
    A pair is held as the code ``intersection * (documents + 1) + union``,
    so pairs with equal codes share one ``Fraction`` (it is immutable).
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    if not ctx.words:
        raise ValueError("cannot build a graph from an empty context")
    vertices = tuple(sorted(ctx.words))
    documents = len(index.documents)
    bitsets = list(map(index.bitset, vertices))
    sizes = [b.bit_count() for b in bitsets]
    rows: list[list[int]] = []
    for i, bits in enumerate(bitsets):
        inters = map(int.bit_count, map(bits.__and__, bitsets[i + 1 :]))
        if measure == "jaccard":  # inter * (documents + 1) + size_a + size_b - inter
            rows.append(list(map(add, map(documents.__mul__, inters), map(sizes[i].__add__, sizes[i + 1 :]))))
        else:  # a doubleton count is the intersection size over 1
            rows.append(list(map(add, map((documents + 1).__mul__, inters), repeat(1))))
    return WordGraph(vertices=vertices, weights=_PairWeights(vertices, rows, _Ratios(documents + 1)))


def _threshold(alpha: Fraction | int | float | str) -> Fraction:
    """``alpha`` as a ``Fraction`` that reports print as itself: 0, or up to the largest float, never rounded to 0.

    An ``int`` or ``Fraction`` is taken as it is, anything else read from its
    ``str`` (the float ``0.1`` is 1/10). ``p/q`` is two integers as ``int``
    spells them, each within ``int``'s digit limit. Any other text must be a
    decimal as ``float`` spells it, and ``float`` places it in float range at
    once, so ``1e999999999`` builds no ``10 ** 999999999``; a value inside
    that range is read exactly by ``Decimal``.
    """
    exact = isinstance(alpha, (int, Fraction)) and not isinstance(alpha, bool)
    got = "" if exact else f", got {alpha!r}"  # the repr of a huge int or Fraction raises past int's digit limit
    text = "" if exact else str(alpha)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 where int has no digit limit
    if "/" in text and 0 < limit < max(sum(map(str.isdecimal, side)) for side in text.split("/")):
        raise ValueError(f"alpha must be p/q with at most {limit} digits on each side, int's digit limit")
    try:
        if exact:
            value = alpha
        elif "/" in text:
            p, q = text.split("/")
            value = Fraction(int(p), int(q))
        elif not any(map(str.isdecimal, text)):  # NaN, or an infinity spelled by name
            raise ValueError
        elif (number := float(text)) and abs(number) != inf:
            value = Fraction(Decimal(text))  # compared with floats below, which would flag the caller's decimal context
        else:  # 0 if every digit before the exponent is 0; else past float range, and its sign is all that counts
            value = copysign(inf, number) if Decimal(text.lower().partition("e")[0]) else 0
    except (ArithmeticError, ValueError):
        raise ValueError(f"alpha must be a finite number{got}") from None
    if value < 0:
        raise ValueError(f"alpha must be non-negative{got}")
    if value and not (value <= sys.float_info.max and float(value)):
        raise ValueError(f"alpha must be 0 or within float range, 5e-324 to 1.8e308{got}")
    return Fraction(value)


def _retained(ctx: Context, threshold: Fraction) -> tuple[str, ...]:  # a cluster's words, all its shade reads
    return tuple(w for w in ctx.nu_order if ctx.words[w].nu >= threshold)


def micro_cluster(graph: WordGraph, ctx: Context, alpha: Fraction | int | float | str) -> MicroCluster:
    """Retain the context words whose weight is at least ``alpha``.

    The retained words induce a complete subgraph of ``graph`` that shares
    its weight table; a retained word that is not a vertex of ``graph``
    raises ``ValueError``. A threshold above every weight yields an empty
    cluster rather than an error. ``alpha`` is read by the rule ``--alpha``
    follows: ``0.1`` is 1/10, and 1e400 is rejected.
    """
    threshold = _threshold(alpha)
    retained = _retained(ctx, threshold)
    if missing := sorted(set(retained).difference(graph.vertices)):
        raise ValueError(f"cluster words {missing} are not graph vertices; the graph must hold each sorted vertex pair")
    weights, keep = graph.weights, list(map(set(retained).__contains__, graph.vertices))
    rows = [list(compress(row, keep[i + 1 :])) for i, row in compress(enumerate(weights.rows), keep)]
    sub_vertices = tuple(compress(graph.vertices, keep))
    graph = WordGraph(vertices=sub_vertices, weights=_PairWeights(sub_vertices, rows, weights.table))
    return MicroCluster(graph=graph, words=retained, alpha=threshold)


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
    when it joins two different components. The graph is complete, so the
    result is one maximum-weight spanning tree on every vertex.
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

    The tree spans its words when they are its vertices, distinct and
    joined by ``len(vertices) - 1`` edges into one component. Each tree
    word's raw count is compared with its entry in the full cluster's
    shade; normalized values are not, since each shade renormalizes by its
    own maximum. True for every tree :func:`optimal_micro_cluster` builds
    from ``full`` or from a cluster of a subset of its words. A tree word
    missing from the cluster, or a duplicated one, raises ``ValueError``.
    """
    if missing := sorted(set(tree.words).difference(full.words)):
        raise ValueError(f"tree words not in the cluster: {missing}")
    vertices = set(tree.vertices)
    sized = len(tree.edges) + 1 == len(vertices) == len(tree.vertices)  # distinct vertices, one edge fewer
    if set(tree.words) != vertices or not sized or tree.component_count != 1:  # a cycle or stray endpoint makes it 2+
        return False
    full_raw = {e.word: e.raw for e in mirror_shade(full.words, index).entries}
    return all(e.raw == full_raw[e.word] for e in mirror_shade(tree.words, index).entries)


def graph_to_dot(graph: WordGraph) -> str:
    """DOT text with edge weights as labels, 6 decimal places.

    Edges follow :meth:`WordGraph.edges`, a row of codes at a time.
    """
    vertices, labels = graph.vertices, _labels(graph.weights, ".6f", '"];\n')
    tails, lines = [f'"{v}" [label="' for v in vertices], []
    for i, (a, row) in enumerate(zip(vertices[:-1], graph.weights.rows)):  # the last vertex's row is empty
        head = f'  "{a}" -- '  # a piece of its own: ``head + head.join(...)`` would copy the row once more
        lines += head, head.join(map(str.__add__, tails[i + 1 :], map(labels.__getitem__, row)))
    return _dot(vertices, lines)


def tree_to_dot(tree: TreeCluster) -> str:
    lines = [f'  "{a}" -- "{b}" [label="{float(w):.6f}"];\n' for a, b, w in sorted(tree.edges, key=itemgetter(0, 1))]
    return _dot(tree.vertices, lines, (v for a, b, _ in tree.edges for v in (a, b)))


def _dot(vertices: Sequence[str], edge_lines: Iterable[str], endpoints: Iterable[str] = ()) -> str:
    if bad := [v for v in map(str, chain(vertices, endpoints)) if '"' in v or "\\" in v]:  # they end or escape a quote
        raise ValueError(f"DOT cannot quote the name {bad[0]!r}: it holds '\"' or '\\'")
    return "".join(["graph {\n", *(f'  "{v}";\n' for v in vertices), *edge_lines, "}\n"])


def _labels(weights: _PairWeights, spec: str, end: str = "") -> dict[int, str]:
    """Each distinct code's float in the format ``spec``, then ``end``: made once per code, and no ``Fraction``."""
    distinct = list(set().union(*weights.rows))
    return dict(zip(distinct, [f"{x:{spec}}{end}" for x in weights.table.floats(distinct)]))


def graph_to_dict(graph: WordGraph) -> dict:
    """JSON-ready view: ``{vertices, edges: [{a, b, weight}]}`` in the pair order of :meth:`WordGraph.edges`."""
    vertices, labels = graph.vertices, _labels(graph.weights, RATIONAL_SPEC)
    rows = enumerate(zip(vertices, graph.weights.rows))
    edges = [{"a": a, "b": b, "weight": labels[c]} for i, (a, row) in rows for b, c in zip(vertices[i + 1 :], row)]
    return {"vertices": list(vertices), "edges": edges}


def tree_to_dict(tree: TreeCluster) -> dict:
    edges = [{"a": a, "b": b, "weight": rational_str(w)} for a, b, w in sorted(tree.edges, key=itemgetter(0, 1))]
    return {"vertices": list(tree.vertices), "edges": edges}


def shade_to_dict(shade: MirrorShade) -> dict:
    """JSON-ready view: ``{entries: [{word, raw, normalized}], z}``."""
    return {
        "entries": [
            {"word": e.word, "raw": e.raw, "normalized": rational_str(e.normalized)}
            for e in shade.entries
        ],
        "z": shade.z,
    }
