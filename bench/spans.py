"""Span tracing from outside the program, and the reducer that turns spans
into per-layer self times.

The tracer swaps a timing wrapper into every module namespace where a
public ``termspace`` function is looked up at call time, so a call from
inside the library (``triplet.build_context`` calling ``singleton``) is
traced the same way as a call from the benchmark. Nothing under ``src/``
changes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import termspace
from termspace import cli, engine, jsonio, microcluster, snippets, triplet

NAMESPACES = (termspace, engine, snippets, triplet, microcluster, jsonio, cli)

_tokenize = engine.tokenize  # untraced, for counters that need a term's tokens


def _count_index(add, index, args) -> None:
    add("engine.tokens", index.total_tokens)
    add("engine.postings", sum(len(docs) for docs in index.postings.values()))


def _count_singleton(add, event, args) -> None:
    add("engine.singleton_calls", 1)
    index, term = args[0], args[1]
    tokens = term.tokens if isinstance(term, engine.Term) else tuple(_tokenize(term))
    if len(tokens) > 1:
        add("engine.phrase_candidates", len(index.postings.get(tokens[0], ())))
        add("engine.phrase_hits", event.cardinality)


def _count_snippets(add, snippet_list, args) -> None:
    add("snippets.count", snippet_list.n)
    add("snippets.words", sum(s.length for s in snippet_list.snippets))


def _count_context(add, ctx, args) -> None:
    add("triplet.context_words", len(ctx.words))


def _count_graph(add, graph, args) -> None:
    add("microcluster.edges", len(graph.weights))


def _count_cluster(add, mc, args) -> None:
    add("microcluster.retained_words", len(mc.words))
    add("microcluster.retained_edges", len(mc.graph.weights))


def _count_tree(add, tree, args) -> None:
    add("microcluster.tree_edges", len(tree.edges))


def _count_dot(add, text, args) -> None:
    add("microcluster.dot_bytes", len(text.encode("utf-8")))


def _count_dump(add, text, args) -> None:
    add("jsonio.bytes", len(text.encode("utf-8")))


# (defining module, function) -> (span name, counter or None).
TRACED = {
    (engine, "load_corpus"): ("engine.load", None),
    (engine, "tokenize"): ("engine.tokenize", None),
    (engine, "build_index"): ("engine.index", _count_index),
    (engine, "singleton"): ("engine.singleton", _count_singleton),
    (engine, "doubleton"): ("engine.doubleton", None),
    (engine, "hit_count"): ("engine.hit_count", None),
    (snippets, "extract_snippets"): ("snippets.extract", _count_snippets),
    (snippets, "snippets_to_dict"): ("jsonio.to_dict", None),
    (triplet, "build_context"): ("triplet.context", _count_context),
    (triplet, "context_to_dict"): ("jsonio.to_dict", None),
    (microcluster, "build_word_graph"): ("microcluster.graph", _count_graph),
    (microcluster, "micro_cluster"): ("microcluster.cluster", _count_cluster),
    (microcluster, "optimal_micro_cluster"): ("microcluster.tree", _count_tree),
    (microcluster, "mirror_shade"): ("microcluster.shade", None),
    (microcluster, "verify_theorem"): ("microcluster.theorem", None),
    (microcluster, "graph_to_dot"): ("microcluster.dot", _count_dot),
    (microcluster, "tree_to_dot"): ("microcluster.dot", _count_dot),
    (microcluster, "graph_to_dict"): ("jsonio.to_dict", None),
    (microcluster, "tree_to_dict"): ("jsonio.to_dict", None),
    (microcluster, "shade_to_dict"): ("jsonio.to_dict", None),
    (jsonio, "dump_json"): ("jsonio.dump", _count_dump),
    (cli, "run_pipeline"): ("cli.pipeline_self", None),
    (cli, "cmd_pipeline"): ("cli.write", None),
}


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op]``: ``parent`` is the index
    of the enclosing span in :attr:`spans` (-1 for an op's root span) and
    ``op`` is the id of the benchmark operation it belongs to. Counters
    are kept per op.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, op: str | None = None) -> None:
        if op is not None:
            self._op = op
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, self._stack[-2] if len(self._stack) > 1 else -1, self._op])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def add(self, name: str, value: int) -> None:
        self.counts[self._op][name] += value

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter is not None:
                # The count is the benchmark's work, not the caller's layer.
                self.begin("bench.count")
                try:
                    counter(self.add, result, args)
                finally:
                    self.end()
            return result

        return traced

    def install(self) -> None:
        """Swap a wrapper into every namespace that holds a traced function."""
        for (module, attr), (name, counter) in TRACED.items():
            original = getattr(module, attr)
            traced = self.wrap(name, original, counter)
            for ns in NAMESPACES:
                if getattr(ns, attr, None) is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, traced)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def per_op(spans: list[list]) -> dict[str, dict[str, float]]:
    """Self time by op id, then by span name."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        out[span[4]][span[0]] += own
    return out


def op_walls(spans: list[list]) -> dict[str, float]:
    """Wall time of each op: the summed duration of its root spans."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent < 0:
            out[op] += end - start
    return out
