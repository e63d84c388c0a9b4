"""Relation graphs, threshold clusters, spanning trees, and shade vectors."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from termspace import (
    Context,
    MicroCluster,
    Term,
    TreeCluster,
    WordGraph,
    WordStat,
    build_context,
    build_index,
    build_word_graph,
    extract_snippets,
    graph_to_dot,
    micro_cluster,
    mirror_shade,
    optimal_micro_cluster,
    tree_to_dot,
    verify_theorem,
)

from conftest import random_corpus, random_present_term
from oracles import (
    brute_jaccard,
    brute_singleton,
    dot_text,
    has_cycle,
    kruskal_edges,
    max_spanning_total,
)


def context_of(stats_by_word):
    """Context from {word: (nu, mu)} with the sort orders derived."""
    stats = {w: WordStat(w, Fraction(nu), mu) for w, (nu, mu) in stats_by_word.items()}
    nu_order = tuple(sorted(stats, key=lambda w: (-stats[w].nu, w)))
    mu_order = tuple(sorted(stats, key=lambda w: (-stats[w].mu, w)))
    return Context(term=Term(("q",)), words=stats, nu_order=nu_order, mu_order=mu_order)


def graph_of(weights):
    vertices = tuple(sorted({v for pair in weights for v in pair}))
    return WordGraph(vertices=vertices, weights={k: Fraction(v) for k, v in weights.items()})


def pipeline_context(corpus, term, window=3):
    index = build_index(corpus)
    lst = extract_snippets(index, term, window=window)
    return index, build_context(lst, index)


class TestBuildWordGraph:
    def test_single_word_context(self):
        index, ctx = pipeline_context([("D1", "solo")], "solo")
        graph = build_word_graph(ctx, index)
        assert graph.vertices == ("solo",)
        assert graph.edges() == []

    def test_jaccard_weight(self):
        corpus = [("D1", "p q"), ("D2", "p"), ("D3", "q r")]
        index, ctx = pipeline_context(corpus, "p")
        graph = build_word_graph(ctx, index, measure="jaccard")
        assert graph.weight("p", "q") == Fraction(1, 3)

    def test_doubleton_count_weight(self):
        corpus = [("D1", "p q"), ("D2", "p"), ("D3", "q r")]
        index, ctx = pipeline_context(corpus, "p")
        graph = build_word_graph(ctx, index, measure="doubleton_count")
        assert graph.weight("p", "q") == 1

    def test_weight_symmetry(self):
        corpus = [("D1", "p q"), ("D2", "p q"), ("D3", "q")]
        index, ctx = pipeline_context(corpus, "p")
        graph = build_word_graph(ctx, index)
        assert graph.weight("p", "q") == graph.weight("q", "p")

    def test_empty_union_weight_is_zero(self):
        ctx = context_of({"ghost": (Fraction(1, 4), 0), "wraith": (Fraction(1, 4), 0)})
        index = build_index([("D1", "real words only")])
        graph = build_word_graph(ctx, index)
        assert graph.weight("ghost", "wraith") == 0

    def test_unknown_measure_rejected(self, tiny_index):
        _, ctx = pipeline_context([("D1", "p q")], "p")
        with pytest.raises(ValueError, match="measure"):
            build_word_graph(ctx, tiny_index, measure="cosine")

    def test_vertex_order_normalizes(self):
        graph = WordGraph(vertices=("b", "a"), weights={("a", "b"): Fraction(1)})
        assert graph.vertices == ("a", "b")
        with pytest.raises(ValueError, match="unique"):
            WordGraph(vertices=("a", "a"), weights={})
        with pytest.raises(ValueError, match="sorted vertex pair"):
            WordGraph(vertices=("a", "b"), weights={("b", "a"): Fraction(1)})

    def test_matches_set_algebra_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            corpus = random_corpus(rng)
            term_tokens = random_present_term(rng, corpus, max_len=1)
            if term_tokens is None:
                continue
            index = build_index(corpus)
            lst = extract_snippets(index, Term(tuple(term_tokens)), window=3)
            if lst.n == 0:
                continue
            ctx = build_context(lst, index)
            graph = build_word_graph(ctx, index, measure="jaccard")
            for a, b, w in graph.edges():
                assert w == brute_jaccard(corpus, a, b)
            counts = build_word_graph(ctx, index, measure="doubleton_count")
            for a, b, w in counts.edges():
                assert w == len(brute_singleton(corpus, [a]) & brute_singleton(corpus, [b]))

    def test_both_measures_equal_set_oracles_exactly(self):
        # More documents than one byte of bitset, indexed in shuffled id
        # order, with stopwords removed from the context.
        rng = random.Random(2024)
        alphabet = tuple(f"w{i}" for i in range(14))
        checked = 0
        for _ in range(15):
            corpus = random_corpus(rng, max_docs=40, max_tokens=25, alphabet=alphabet, min_docs=9)
            rng.shuffle(corpus)
            term_tokens = random_present_term(rng, corpus)
            if term_tokens is None:
                continue
            index = build_index(corpus)
            lst = extract_snippets(index, Term(tuple(term_tokens)), window=rng.randint(1, 5))
            stopwords = set(rng.sample(alphabet, rng.randint(0, 4))) - set(term_tokens)
            ctx = build_context(lst, index, stopwords)
            docs = {w: brute_singleton(corpus, [w]) for w in ctx.words}
            jaccard = build_word_graph(ctx, index, measure="jaccard")
            counts = build_word_graph(ctx, index, measure="doubleton_count")
            assert jaccard.vertices == counts.vertices == tuple(sorted(ctx.words))
            for a, b, w in jaccard.edges():
                assert w == brute_jaccard(corpus, a, b)
            for a, b, w in counts.edges():
                assert w == len(docs[a] & docs[b])
            checked += 1
        assert checked >= 10


class TestMicroCluster:
    CTX = {"high": (Fraction(1, 2), 5), "mid": (Fraction(3, 10), 2), "low": (Fraction(1, 10), 7)}

    def make(self, alpha):
        ctx = context_of(self.CTX)
        graph = graph_of({("high", "low"): 1, ("high", "mid"): 2, ("low", "mid"): 3})
        return micro_cluster(graph, ctx, alpha)

    def test_zero_threshold_keeps_everything(self):
        assert set(self.make(0).words) == {"high", "mid", "low"}

    def test_threshold_above_max_empties_cluster(self):
        mc = self.make(1)
        assert mc.is_empty
        assert mc.words == ()

    def test_quarter_threshold_keeps_two(self):
        mc = self.make(Fraction(1, 4))
        assert mc.words == ("high", "mid")

    def test_retained_words_keep_weight_order(self):
        assert self.make(0).words == ("high", "mid", "low")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            self.make(-1)

    def test_induced_graph_is_complete_on_retained_words(self):
        mc = self.make(Fraction(1, 4))
        assert mc.graph.vertices == ("high", "mid")
        assert set(mc.graph.weights) == {("high", "mid")}

    def test_threshold_monotonicity(self):
        rng = random.Random(41)
        for _ in range(10):
            corpus = random_corpus(rng)
            term_tokens = random_present_term(rng, corpus, max_len=1)
            if term_tokens is None:
                continue
            index = build_index(corpus)
            lst = extract_snippets(index, Term(tuple(term_tokens)), window=3)
            if lst.n == 0:
                continue
            ctx = build_context(lst, index)
            graph = build_word_graph(ctx, index)
            grid = sorted(rng.random() / 2 for _ in range(5))
            retained = [set(micro_cluster(graph, ctx, Fraction(str(a))).words) for a in grid]
            for bigger, smaller in zip(retained, retained[1:]):
                assert smaller <= bigger


class TestOptimalMicroCluster:
    def test_single_vertex_tree(self):
        index, ctx = pipeline_context([("D1", "solo")], "solo")
        mc = micro_cluster(build_word_graph(ctx, index), ctx, 0)
        tree = optimal_micro_cluster(mc)
        assert tree.vertices == ("solo",)
        assert tree.edges == ()
        assert tree.component_count == 1

    def test_triangle_drops_weakest_edge(self):
        graph = graph_of({("a", "b"): 3, ("b", "c"): 2, ("a", "c"): 1})
        mc = MicroCluster(graph=graph, words=("a", "b", "c"), alpha=Fraction(0))
        tree = optimal_micro_cluster(mc)
        assert {(a, b) for a, b, _ in tree.edges} == {("a", "b"), ("b", "c")}

    def test_equal_weights_resolved_lexicographically(self):
        graph = graph_of({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
        mc = MicroCluster(graph=graph, words=("a", "b", "c"), alpha=Fraction(0))
        tree = optimal_micro_cluster(mc)
        assert [(a, b) for a, b, _ in tree.edges] == [("a", "b"), ("a", "c")]

    def test_empty_cluster_rejected(self):
        graph = WordGraph(vertices=(), weights={})
        mc = MicroCluster(graph=graph, words=(), alpha=Fraction(1))
        with pytest.raises(ValueError, match="vertex"):
            optimal_micro_cluster(mc)

    def test_total_weight_matches_exhaustive_enumeration(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(4, 6)
            vertices = tuple(f"v{i}" for i in range(n))
            values = rng.sample(range(1, 10_000), n * (n - 1) // 2)
            weights = {}
            for i in range(n):
                for j in range(i + 1, n):
                    weights[(vertices[i], vertices[j])] = Fraction(values.pop(), 100)
            graph = WordGraph(vertices=vertices, weights=weights)
            mc = MicroCluster(graph=graph, words=vertices, alpha=Fraction(0))
            tree = optimal_micro_cluster(mc)
            total = sum((w for _, _, w in tree.edges), Fraction(0))
            assert total == max_spanning_total(vertices, graph.weight)

    def test_tree_is_acyclic_and_spanning(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(2, 8)
            vertices = tuple(f"v{i}" for i in range(n))
            weights = {}
            for i in range(n):
                for j in range(i + 1, n):
                    weights[(vertices[i], vertices[j])] = Fraction(rng.randint(0, 3))
            graph = WordGraph(vertices=vertices, weights=weights)
            mc = MicroCluster(graph=graph, words=vertices, alpha=Fraction(0))
            tree = optimal_micro_cluster(mc)
            assert not has_cycle(tree.vertices, [(a, b) for a, b, _ in tree.edges])
            assert len(tree.edges) == n - 1
            assert tree.component_count == 1
            for a, b, w in tree.edges:
                assert graph.weight(a, b) == w


class TestMirrorShade:
    def test_all_zero_counts(self):
        index = build_index([("D1", "real")])
        shade = mirror_shade(["ghost", "wraith"], index)
        assert shade.z == 0
        assert [e.normalized for e in shade.entries] == [0, 0]

    def test_four_two_one(self):
        corpus = [("d1", "a b c"), ("d2", "a b"), ("d3", "a"), ("d4", "a")]
        shade = mirror_shade(["a", "b", "c"], build_index(corpus))
        assert [e.raw for e in shade.entries] == [4, 2, 1]
        assert [e.normalized for e in shade.entries] == [1, Fraction(1, 2), Fraction(1, 4)]
        assert shade.z == 4

    def test_single_word_self_normalizes(self):
        corpus = [(f"d{i}", "lone word") for i in range(7)]
        shade = mirror_shade(["lone"], build_index(corpus))
        assert [e.raw for e in shade.entries] == [7]
        assert [e.normalized for e in shade.entries] == [1]

    def test_input_order_preserved(self):
        corpus = [("d1", "a b c")]
        shade = mirror_shade(["c", "a", "b"], build_index(corpus))
        assert [e.word for e in shade.entries] == ["c", "a", "b"]

    def test_word_to_entry_map_is_one_one(self):
        corpus = [("d1", "a b c")]
        shade = mirror_shade(["b", "c", "a"], build_index(corpus))
        assert len({e.word for e in shade.entries}) == len(shade.entries) == 3

    def test_duplicates_rejected(self, tiny_index):
        with pytest.raises(ValueError, match="unique"):
            mirror_shade(["alpha", "alpha"], tiny_index)

    def test_empty_word_list_rejected(self, tiny_index):
        with pytest.raises(ValueError, match="at least one"):
            mirror_shade([], tiny_index)

    def test_unique_maximum_normalizes_to_single_one(self):
        corpus = [("d1", "a b"), ("d2", "a")]
        shade = mirror_shade(["a", "b"], build_index(corpus))
        assert sum(1 for e in shade.entries if e.normalized == 1) == 1
        assert all(0 <= e.normalized <= 1 for e in shade.entries)

    def test_raw_counts_equal_context_mu_and_oracle(self):
        rng = random.Random(59)
        for _ in range(15):
            corpus = random_corpus(rng)
            term_tokens = random_present_term(rng, corpus, max_len=2)
            if term_tokens is None:
                continue
            index = build_index(corpus)
            ctx = build_context(extract_snippets(index, Term(tuple(term_tokens)), window=3), index)
            words = list(ctx.words) + ["absent"]
            raws = {e.word: e.raw for e in mirror_shade(words, index).entries}
            assert raws == {**{w: stat.mu for w, stat in ctx.words.items()}, "absent": 0}
            assert raws == {w: len(brute_singleton(corpus, [w])) for w in words}

    @pytest.mark.parametrize("word", ["Alpha", "alpha beta", "", "a-b"])
    def test_word_no_index_can_hold_is_rejected(self, tiny_index, word):
        with pytest.raises(ValueError, match="term"):
            mirror_shade(["beta", word], tiny_index)

    def test_restriction_commutes_with_computation(self):
        rng = random.Random(53)
        for _ in range(15):
            corpus = random_corpus(rng)
            index = build_index(corpus)
            words = sorted({w for _, text in corpus for w in text.split()})
            if len(words) < 2:
                continue
            subset = rng.sample(words, rng.randint(1, len(words) - 1))
            full_raw = {e.word: e.raw for e in mirror_shade(words, index).entries}
            sub_raw = {e.word: e.raw for e in mirror_shade(subset, index).entries}
            assert sub_raw == {w: full_raw[w] for w in subset}


class TestVerifyTheorem:
    def chain(self, corpus, term, alpha):
        index = build_index(corpus)
        lst = extract_snippets(index, term, window=3)
        ctx = build_context(lst, index)
        graph = build_word_graph(ctx, index)
        mc = micro_cluster(graph, ctx, alpha)
        return index, ctx, mc

    def test_tree_spanning_full_cluster(self):
        index, _, mc = self.chain([("D1", "p q r"), ("D2", "q r")], "q", 0)
        tree = optimal_micro_cluster(mc)
        assert verify_theorem(tree, mc, index) is True

    def test_proper_subset_restriction(self):
        corpus = [("D1", "p q r s"), ("D2", "q r"), ("D3", "q")]
        index, ctx, full = self.chain(corpus, "q", 0)
        nus = sorted({stat.nu for stat in ctx.words.values()})
        if len(nus) > 1:
            graph = build_word_graph(ctx, index)
            filtered = micro_cluster(graph, ctx, nus[-1])
            assert 0 < len(filtered.words) < len(full.words)
            tree = optimal_micro_cluster(filtered)
            assert verify_theorem(tree, full, index) is True

    def test_foreign_word_rejected(self):
        index, _, mc = self.chain([("D1", "p q")], "q", 0)
        bogus = TreeCluster(vertices=("zebra",), edges=(), words=("zebra",))
        with pytest.raises(ValueError, match="not in the cluster"):
            verify_theorem(bogus, mc, index)

    def test_duplicated_tree_word_rejected(self):
        index, _, mc = self.chain([("D1", "p q r"), ("D2", "q r")], "q", 0)
        tree = optimal_micro_cluster(mc)
        doubled = TreeCluster(vertices=tree.vertices, edges=tree.edges, words=tree.words + tree.words[:1])
        with pytest.raises(ValueError, match="unique"):
            verify_theorem(doubled, mc, index)

    def spanning_tree(self):
        corpus = [("D1", "p q r s"), ("D2", "q r"), ("D3", "q s")]
        index, _, mc = self.chain(corpus, "q", 0)
        tree = optimal_micro_cluster(mc)
        assert tree.vertices == ("p", "q", "r", "s") and len(tree.edges) == 3
        assert verify_theorem(tree, mc, index) is True
        return index, mc, tree

    def test_dropped_word_fails(self):
        index, mc, tree = self.spanning_tree()
        dropped = TreeCluster(vertices=tree.vertices, edges=tree.edges, words=tree.words[:-1])
        assert verify_theorem(dropped, mc, index) is False

    def test_dropped_edge_fails(self):
        index, mc, tree = self.spanning_tree()
        split = TreeCluster(vertices=tree.vertices, edges=tree.edges[:-1], words=tree.words)
        assert split.component_count == 2
        assert verify_theorem(split, mc, index) is False

    def test_extra_edge_closing_a_cycle_fails(self):
        index, mc, tree = self.spanning_tree()
        kept = {(a, b) for a, b, _ in tree.edges}
        a, b = next(pair for pair in combinations(tree.vertices, 2) if pair not in kept)
        extra = tree.edges + ((a, b, mc.graph.weight(a, b)),)
        cyclic = TreeCluster(vertices=tree.vertices, edges=extra, words=tree.words)
        assert verify_theorem(cyclic, mc, index) is False

    def test_cycle_with_a_tree_s_edge_count_fails(self):
        # q-r, q-s, r-s close a cycle and leave p out, in three edges.
        index, mc, _ = self.spanning_tree()
        edges = tuple((a, b, mc.graph.weight(a, b)) for a, b in [("q", "r"), ("q", "s"), ("r", "s")])
        cyclic = TreeCluster(vertices=("p", "q", "r", "s"), edges=edges, words=("q", "r", "s", "p"))
        assert verify_theorem(cyclic, mc, index) is False

    def test_edge_to_a_non_vertex_fails(self):
        index, mc, tree = self.spanning_tree()
        a, _, w = tree.edges[-1]
        stray = TreeCluster(vertices=tree.vertices, edges=tree.edges[:-1] + ((a, "zebra", w),), words=tree.words)
        assert verify_theorem(stray, mc, index) is False

    def test_random_campaign(self):
        rng = random.Random(67)
        checked = 0
        while checked < 10:
            corpus = random_corpus(rng)
            term_tokens = random_present_term(rng, corpus, max_len=1)
            if term_tokens is None:
                continue
            index = build_index(corpus)
            lst = extract_snippets(index, Term(tuple(term_tokens)), window=3)
            if lst.n == 0:
                continue
            ctx = build_context(lst, index)
            graph = build_word_graph(ctx, index)
            max_nu = max(stat.nu for stat in ctx.words.values())
            alpha = max_nu * Fraction(rng.randint(0, 10), 10)
            mc = micro_cluster(graph, ctx, alpha)
            if mc.is_empty:
                continue
            tree = optimal_micro_cluster(mc)
            assert verify_theorem(tree, mc, index) is True
            checked += 1


def built_graphs(seed, count):
    """Relation graphs of random corpora, both measures, as the pipeline builds them."""
    rng = random.Random(seed)
    alphabet = tuple(f"w{i}" for i in range(12))
    graphs = []
    while len(graphs) < count:
        corpus = random_corpus(rng, max_docs=20, alphabet=alphabet)
        term_tokens = random_present_term(rng, corpus, max_len=1)
        if term_tokens is None:
            continue
        index = build_index(corpus)
        lst = extract_snippets(index, Term(tuple(term_tokens)), window=rng.randint(1, 4))
        ctx = build_context(lst, index)
        measure = rng.choice(["jaccard", "doubleton_count"])
        graphs.append((ctx, build_word_graph(ctx, index, measure)))
    return graphs


def hand_built_weights(rng, vertices, values):
    """Weights on every sorted pair, each a fresh object drawn from ``values``.

    Equal values are distinct objects, and the mapping is filled in a
    shuffled pair order.
    """
    ordered = sorted(vertices)
    pairs = [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1 :]]
    rng.shuffle(pairs)
    return {pair: rng.choice(values)() for pair in pairs}


TIE_VALUES = (
    lambda: Fraction(1, 3),
    lambda: Fraction(2, 6),
    lambda: Fraction(0),
    lambda: Fraction(7, 5),
    lambda: 1,
    lambda: 0,
)


class TestWordGraphValidation:
    PAIR = "graph must carry exactly one weight per sorted vertex pair"
    SIGN = "edge weights must be non-negative"

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({("a", "b"): Fraction(1), ("a", "c"): Fraction(1)}, PAIR),
            ({("a", "b"): Fraction(1), ("a", "c"): Fraction(1), ("c", "b"): Fraction(1)}, PAIR),
            ({("a", "b"): Fraction(1), ("a", "c"): Fraction(1), ("a", "z"): Fraction(1)}, PAIR),
            ({("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1, ("a", "z"): 1}, PAIR),
            ({("a", "b"): Fraction(1), ("a", "c"): Fraction(-1, 2), ("b", "c"): Fraction(0)}, SIGN),
            ({("a", "b"): 0, ("a", "c"): -1, ("b", "c"): 2}, SIGN),
            ({("a", "b"): 0.5, ("a", "c"): Fraction(1), ("b", "c"): -0.25}, SIGN),
        ],
        ids=[
            "missing-pair", "reversed-pair", "unknown-vertex", "extra-pair",
            "negative", "negative-int", "negative-float",
        ],
    )
    def test_bad_input_rejected_with_its_message(self, weights, message):
        with pytest.raises(ValueError) as info:
            WordGraph(vertices=("c", "a", "b"), weights=weights)
        assert str(info.value) == message

    def test_non_negative_float_weights_accepted(self):
        graph = WordGraph(vertices=("a", "b", "c"), weights={("a", "b"): 0.5, ("a", "c"): 0.0, ("b", "c"): 2})
        assert graph.edges() == [("a", "b", 0.5), ("a", "c", 0.0), ("b", "c", 2)]

    def test_key_that_is_not_a_pair_rejected(self):
        with pytest.raises(ValueError, match="sorted vertex pair"):
            WordGraph(vertices=("a", "b"), weights={"ab": Fraction(1)})

    def test_cluster_of_words_missing_from_graph_rejected(self):
        ctx = context_of({"high": (Fraction(1, 2), 5), "ghost": (Fraction(1, 2), 1)})
        graph = graph_of({("high", "low"): 1})
        with pytest.raises(ValueError, match="sorted vertex pair"):
            micro_cluster(graph, ctx, 0)


class TestEdgeOrderAndDot:
    def test_built_graphs_render_as_reference_dot(self):
        for ctx, graph in built_graphs(71, 25):
            edges = [(a, b, w) for (a, b), w in graph.weights.items()]
            assert graph.edges() == sorted(edges, key=lambda e: (e[0], e[1]))
            assert graph_to_dot(graph) == dot_text(graph.vertices, edges)
            mc = micro_cluster(graph, ctx, 0)
            tree = optimal_micro_cluster(mc)
            assert tree_to_dot(tree) == dot_text(tree.vertices, tree.edges)

    def test_hand_built_graphs_with_distinct_equal_weights_render_as_reference_dot(self):
        rng = random.Random(83)
        for n in range(1, 9):
            vertices = tuple(f"v{i}" for i in rng.sample(range(20), n))
            weights = hand_built_weights(rng, vertices, TIE_VALUES)
            graph = WordGraph(vertices=vertices, weights=weights)
            edges = list(weights.items())
            assert graph.edges() == sorted((a, b, w) for (a, b), w in edges)
            assert graph_to_dot(graph) == dot_text(sorted(vertices), [(a, b, w) for (a, b), w in edges])
            tree = optimal_micro_cluster(MicroCluster(graph=graph, words=vertices, alpha=Fraction(0)))
            assert tree_to_dot(tree) == dot_text(tree.vertices, tree.edges)

    def test_induced_graph_holds_the_parent_weight_objects(self):
        for ctx, graph in built_graphs(89, 15):
            nus = sorted({stat.nu for stat in ctx.words.values()})
            mc = micro_cluster(graph, ctx, nus[len(nus) // 2])
            kept = set(mc.words)
            expected = {pair: w for pair, w in graph.weights.items() if pair[0] in kept and pair[1] in kept}
            assert mc.graph.weights == expected
            assert all(mc.graph.weights[pair] is w for pair, w in expected.items())


class TestTreeOrderMatchesReference:
    def test_distinct_tie_objects_keep_reference_order(self):
        rng = random.Random(97)
        for _ in range(40):
            vertices = tuple(f"v{i}" for i in range(rng.randint(1, 9)))
            weights = hand_built_weights(rng, vertices, TIE_VALUES)
            graph = WordGraph(vertices=vertices, weights=weights)
            tree = optimal_micro_cluster(MicroCluster(graph=graph, words=vertices, alpha=Fraction(0)))
            assert list(tree.edges) == kruskal_edges(vertices, weights)

    def test_built_graphs_keep_reference_order(self):
        for ctx, graph in built_graphs(101, 25):
            mc = micro_cluster(graph, ctx, 0)
            assert list(optimal_micro_cluster(mc).edges) == kruskal_edges(mc.graph.vertices, mc.graph.weights)
