"""Relation graphs, threshold clusters, spanning trees, and shade vectors."""

from __future__ import annotations

import decimal
import json
import random
import re
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations
from math import inf

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
    graph_to_dict,
    graph_to_dot,
    micro_cluster,
    mirror_shade,
    optimal_micro_cluster,
    tree_to_dot,
    verify_theorem,
)

from termspace.jsonio import rational_str
from termspace.microcluster import MEASURES, _PairWeights, _Ratios

from conftest import random_corpus, random_present_term
from oracles import (
    brute_jaccard,
    brute_singleton,
    count_components,
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

    def test_empty_context_rejected(self, tiny_index):
        with pytest.raises(ValueError, match="empty context"):
            build_word_graph(context_of({}), tiny_index)

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

    def test_document_sets_wider_than_a_machine_word(self):
        # 130 documents: "z" sits on bit 63 alone, "y" on bits 64..129, "x" on bits 0 and 129.
        n = 130
        corpus = []
        for i in range(n):
            words = ["x"] * (i in (0, n - 1)) + ["y"] * (i >= n - 66) + ["z"] * (i == 63)
            corpus.append((f"d{i:03d}", " ".join(words) or "filler"))
        index = build_index(corpus)
        ctx = context_of({"x": (Fraction(1, 2), 2), "y": (Fraction(1, 3), 66), "z": (Fraction(1, 4), 1)})
        jaccard = build_word_graph(ctx, index, measure="jaccard")
        counts = build_word_graph(ctx, index, measure="doubleton_count")
        assert jaccard.weight("x", "y") == Fraction(1, 67)
        for a, b, w in jaccard.edges():
            assert w == brute_jaccard(corpus, a, b)
        for a, b, w in counts.edges():
            assert w == len(brute_singleton(corpus, [a]) & brute_singleton(corpus, [b]))


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

    @pytest.mark.parametrize("alpha", ["abc", "1/0", True, float("inf"), float("nan")])
    def test_malformed_threshold_error_names_alpha(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must be a finite number, got "):
            self.make(alpha)

    @pytest.mark.parametrize(
        "alpha",
        [Fraction(1, 10**5000), Fraction(10**5000), 10**400, "1e400", "1e-400", "1/1" + "0" * 400,
         "1e10000000", "1e999999999", "1e-999999999", "2.47e-324", "1.7976931348623158e308"],
        ids=["tiny-fraction", "huge-fraction", "huge-int", "1e400", "1e-400", "1/10**400",
             "1e10000000", "1e999999999", "1e-999999999",
             "rounds-to-zero", "above-largest-float-rounding-down-to-it"],
    )
    def test_threshold_outside_float_range_is_rejected_at_once(self, alpha):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^alpha must be 0 or within float range, 5e-324 to 1\.8e308"):
            self.make(alpha)
        assert time.perf_counter() - start < 1  # no integer of the exponent's size is built

    @pytest.mark.parametrize(
        "alpha, exact",
        [("0e999999999", 0), ("1e308", 10**308), ("2.471e-324", Fraction(2471, 10**327)),
         (sys.float_info.max, Fraction("1.7976931348623157e308")),
         (int(sys.float_info.max), Fraction(sys.float_info.max)), (Fraction(sys.float_info.max), sys.float_info.max)],
        ids=["zero-huge-exponent", "1e308", "rounds-up-to-smallest", "largest-float",
             "largest-float-as-int", "largest-float-as-fraction"],
    )
    def test_threshold_inside_float_range_is_kept_exactly(self, alpha, exact):
        assert self.make(alpha).alpha == exact

    # Exponents past ``Decimal``'s own limit, which it rejects as it rejects malformed text.
    @pytest.mark.parametrize(
        "alpha, message",
        [("1e99999999999999999999999", "0 or within float range"), ("-1e99999999999999999999999", "non-negative"),
         ("1e-99999999999999999999999", "0 or within float range"),
         ("-1e-99999999999999999999999", "non-negative")],
    )
    def test_threshold_past_the_decimal_exponent_limit_is_judged_by_its_value(self, alpha, message):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^alpha must be {message}"):
            self.make(alpha)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("alpha", ["0e99999999999999999999999", "-0e99999999999999999999999", "0e-99999999999999999999999"])
    def test_zero_past_the_decimal_exponent_limit_is_zero(self, alpha):
        assert self.make(alpha).alpha == 0

    # One grammar reads every alpha string: a decimal as ``float`` spells it, ``p/q`` as two ``int``s.
    @pytest.mark.parametrize(
        "alpha, message",
        [("1_0e99999999999999999999999", "0 or within float range, 5e-324 to 1.8e308"),
         ("-1_0e99999999999999999999999", "non-negative"),
         ("1/-3", "non-negative")]
        + [(alpha, "a finite number") for alpha in ("1__0", "_1", "1_", "1_.5", "INF", "-Infinity", "+nan")],
    )
    def test_threshold_grammar_rejects(self, alpha, message):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^" + re.escape(f"alpha must be {message}, got {alpha!r}") + "$"):
            self.make(alpha)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "alpha, exact",
        [("0_0e99999999999999999999999", 0), ("1 / 4", Fraction(1, 4)), ("1_0/3", Fraction(10, 3)),
         ("-1/-3", Fraction(1, 3)), ("1_000.5", Fraction(2001, 2)),
         ("1" * 4400 + "e-4400", Fraction((10**4400 - 1) // 9, 10**4400))],
        ids=["zero-underscored-huge-exponent", "spaced-fraction", "underscored-fraction", "two-signs",
             "underscored-decimal", "4400-digit-mantissa"],
    )
    def test_threshold_grammar_reads_exactly(self, alpha, exact):
        start = time.perf_counter()
        assert self.make(alpha).alpha == exact
        assert time.perf_counter() - start < 1

    def test_threshold_p_over_q_past_ints_digit_limit_is_named(self):
        # 1 over itself, one digit past the limit on each side; as a decimal, or at the limit, it reads as 1.
        start = time.perf_counter()
        limit = sys.get_int_max_str_digits()
        message = f"alpha must be p/q with at most {limit} digits on each side, int's digit limit"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            self.make("1" + "0" * limit + "/1" + "0" * limit)
        assert self.make("1" + "0" * limit + f"e-{limit}").alpha == 1
        assert self.make("1" + "0" * (limit - 1) + "/1" + "0" * (limit - 1)).alpha == 1
        assert time.perf_counter() - start < 1

    def test_threshold_p_over_q_is_read_exactly_with_no_int_digit_limit(self):
        # 0 lifts the limit; on a Python with no limit (before 3.10.7) the test runs as it is.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
        set_limit(0)
        try:
            p, q = "7" * 5000, "3" + "0" * 4999
            assert self.make(f"{p}/{q}").alpha == Fraction(int(p), int(q))
        finally:
            set_limit(limit)

    def test_threshold_leaves_the_callers_decimal_context_alone(self):
        with decimal.localcontext() as context:
            context.traps[decimal.FloatOperation] = True
            assert self.make("0.5").alpha == Fraction(1, 2)
            assert not any(context.flags.values())

    def test_float_threshold_means_its_shortest_repr(self):
        # Every word scores exactly 1/10; the binary float 0.1 is a little above that.
        index, ctx = pipeline_context([("D1", "pivot a b c d")], "pivot", window=4)
        assert {stat.nu for stat in ctx.words.values()} == {Fraction(1, 10)}
        graph = build_word_graph(ctx, index)
        clusters = [micro_cluster(graph, ctx, alpha) for alpha in (0.1, "0.1", "1/10", Fraction(1, 10))]
        assert clusters[0].words == ("a", "b", "c", "d", "pivot")
        assert all(mc == clusters[0] for mc in clusters)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3])
    def test_float_threshold_equals_its_string_form(self, alpha):
        # Word weights equal to each float's shortest repr, on both sides of the binary value.
        ctx = context_of({"a": (Fraction(3, 10), 1), "b": (Fraction(1, 10), 1), "c": (Fraction(1, 20), 1)})
        graph = graph_of({("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 3})
        mc = micro_cluster(graph, ctx, alpha)
        assert mc == micro_cluster(graph, ctx, str(alpha))
        assert mc.alpha == Fraction(str(alpha))
        assert mc.words == tuple(w for w in "abc" if ctx.words[w].nu >= Fraction(str(alpha)))
        with pytest.raises(ValueError, match="alpha"):
            micro_cluster(graph, ctx, -alpha)

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
        assert mirror_shade(iter(["c", "a", "b"]), build_index(corpus)) == shade  # a one-shot iterator too

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

    @pytest.mark.parametrize("edge", [("p", "q"), ("p", "q", Fraction(1), 0), ["p", "q", Fraction(1)], "pq1", None])
    def test_edge_that_is_not_a_triple_is_rejected_by_name(self, edge):
        _, _, tree = self.spanning_tree()
        assert TreeCluster(tree.vertices, tree.edges, tree.words).edges is tree.edges  # a valid tree is kept as given
        with pytest.raises(ValueError, match=re.escape(f"tree edges must be (a, b, weight) triples, got {edge!r}")):
            TreeCluster(vertices=tree.vertices, edges=tree.edges[:1] + (edge,) + tree.edges[1:], words=tree.words)

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


def hand_built_trees(rng, words, weight):
    """Random hand-built trees over ``words`` and the stray word ``zebra``.

    Each starts as a tree on a random subset of the words, none for the
    empty tree, and may then lose edges (a forest), gain edges (a cycle, a
    repeated edge or a loop), trade an edge for another (a cycle beside an
    isolated vertex), move an endpoint to ``zebra``, repeat a vertex, or
    have its words dropped, repeated or joined by ``zebra``.
    """
    while True:
        vertices = rng.sample(words, rng.randint(0, len(words)))
        pairs = [(v, rng.choice(vertices[:i])) for i, v in enumerate(vertices) if i]
        nodes = vertices + ["zebra"] * (rng.random() < 0.2)
        if pairs and rng.random() < 0.3:
            start = rng.randrange(len(pairs))
            del pairs[start : start + rng.randint(1, 2)]
        if vertices and rng.random() < 0.4:
            pairs += [(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(1, 2))]
        if pairs and rng.random() < 0.2:
            pairs[rng.randrange(len(pairs))] = (rng.choice(nodes), rng.choice(nodes))
        if pairs and rng.random() < 0.2:
            pairs.append(rng.choice(pairs))
        if pairs and rng.random() < 0.15:
            a, _ = pairs.pop(rng.randrange(len(pairs)))
            pairs.append((a, "zebra"))
        tree_words = list(vertices)
        if vertices and rng.random() < 0.2:
            vertices.append(rng.choice(vertices))
        if tree_words and rng.random() < 0.1:
            tree_words.pop(rng.randrange(len(tree_words)))
        if tree_words and rng.random() < 0.1:
            tree_words.append(rng.choice(tree_words))
        if rng.random() < 0.05:
            tree_words.append("zebra")
        rng.shuffle(tree_words)
        edges = tuple((a, b, weight(a, b)) for a, b in pairs)
        yield TreeCluster(vertices=tuple(vertices), edges=edges, words=tuple(tree_words))


def four_part_verdict(tree, cluster_words):
    """``verify_theorem``'s verdict by the four-part rule, cycles found by ``has_cycle``.

    The tree spans its words when they are its vertices, its edges number
    ``len(vertices) - 1``, every endpoint is a vertex and no edge closes a
    cycle. Past that only an error can make it False: a tree word's raw
    count and its entry in the cluster's shade are the same word's count
    in the same index.
    """
    missing = sorted(set(tree.words) - set(cluster_words))
    if missing:
        raise ValueError(f"tree words not in the cluster: {missing}")
    vertices = set(tree.vertices)
    pairs = [(a, b) for a, b, _ in tree.edges]
    if (
        set(tree.words) != vertices
        or len(pairs) != len(tree.vertices) - 1
        or not all(a in vertices and b in vertices for a, b in pairs)
        or has_cycle(vertices, pairs)
    ):
        return False
    if len(set(tree.words)) != len(tree.words):
        raise ValueError("mirror_shade words must be unique")
    return True


def outcome(check, *args):
    try:
        return True, check(*args)
    except ValueError as exc:
        return False, str(exc)


class TestHandBuiltTrees:
    """``component_count`` and ``verify_theorem`` on hand-built trees that may be no tree at all."""

    def trees(self, count):
        corpus = [("D1", "p q r s"), ("D2", "q r"), ("D3", "q s")]
        index = build_index(corpus)
        ctx = build_context(extract_snippets(index, "q", window=3), index)
        mc = micro_cluster(build_word_graph(ctx, index), ctx, 0)
        assert sorted(mc.words) == ["p", "q", "r", "s"]

        def weight(a, b):
            return mc.graph.weight(a, b) if a != b and {a, b} <= set(mc.words) else Fraction(1)

        fixed = [  # a cycle beside an isolated vertex, 5 edges on 4 vertices, a repeated vertex, the empty tree
            (("p", "q", "r", "s"), [("q", "r"), ("q", "s"), ("r", "s")], ("q", "r", "s", "p")),
            (("p", "q", "r", "s"), [("p", "q"), ("q", "r"), ("r", "s"), ("s", "p"), ("p", "r")], ("p", "q", "r", "s")),
            (("p", "p", "q"), [("p", "q"), ("q", "p")], ("p", "q")),
            ((), [], ()),
        ]
        trees = [TreeCluster(v, tuple((a, b, weight(a, b)) for a, b in e), w) for v, e, w in fixed]
        generated = hand_built_trees(random.Random(131), list(mc.words), weight)
        trees += [next(generated) for _ in range(count)]
        return index, mc, trees

    def test_component_count_equals_a_breadth_first_count(self):
        _, _, trees = self.trees(3000)
        assert [t.component_count for t in trees[:4]] == [2, 1, 1, 0]
        kinds = dict.fromkeys(["forest", "cycle", "repeated edge", "zebra", "repeated vertex", "empty"], 0)
        for tree in trees:
            pairs = [(a, b) for a, b, _ in tree.edges]
            count = count_components(tree.vertices, pairs)
            assert tree.component_count == count, tree
            cyclic = has_cycle({*tree.vertices, *(v for pair in pairs for v in pair)}, pairs)
            kinds["forest"] += count > 1 and not cyclic
            kinds["cycle"] += cyclic
            kinds["repeated edge"] += len({frozenset(pair) for pair in pairs}) < len(pairs)
            kinds["zebra"] += any("zebra" in pair for pair in pairs)
            kinds["repeated vertex"] += len(set(tree.vertices)) < len(tree.vertices)
            kinds["empty"] += not tree.vertices and not tree.edges
        assert min(kinds.values()) >= 1 and kinds["empty"] >= 2, kinds

    def test_verify_theorem_gives_the_four_part_verdict(self):
        index, mc, trees = self.trees(3000)
        verdicts = {}
        for tree in trees:
            expected = outcome(four_part_verdict, tree, mc.words)
            assert outcome(verify_theorem, tree, mc, index) == expected, tree
            verdicts[expected] = verdicts.get(expected, 0) + 1
        # The repeated-vertex tree: 2 edges join its 2 distinct vertices into one component.
        assert outcome(verify_theorem, trees[2], mc, index) == (True, False)
        assert verdicts[(True, True)] >= 100 and verdicts[(True, False)] >= 100, verdicts
        errors = {message for ok, message in verdicts if not ok}
        assert errors == {"tree words not in the cluster: ['zebra']", "mirror_shade words must be unique"}


def built_graphs(seed, count, measures=("jaccard", "doubleton_count")):
    """Relation graphs of random corpora, each under a measure drawn from ``measures``, as the pipeline builds them."""
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
        measure = rng.choice(measures)
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

# Other numbers a hand-built weight may be: each is read exactly, and 5e-324 renders as 0.
DOT_VALUES = TIE_VALUES + (lambda: Decimal("0.1"), lambda: True, lambda: 5e-324)
# The graph JSON prints 12 significant digits, so the largest power of two below float's limit is one more case.
JSON_VALUES = DOT_VALUES + (lambda: 2.0**1023,)


class TestWordGraphValidation:
    PAIR = "graph must carry exactly one weight per sorted vertex pair"
    SIGN = "edge weights must be non-negative"
    RANGE = "edge weights must be 0 or within float range, 5e-324 to 1.8e308"

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
            ({("a", "b"): 0, ("a", "c"): inf, ("b", "c"): 1}, RANGE),
            ({("a", "b"): -inf, ("a", "c"): 1, ("b", "c"): 1}, RANGE),
            ({("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 10**400}, RANGE),
            ({("a", "b"): Fraction(10**400, 3), ("a", "c"): 1, ("b", "c"): 1}, RANGE),
            ({("a", "b"): 1, ("a", "c"): -(10**400), ("b", "c"): 1}, RANGE),
            ({("a", "b"): Fraction(1, 10**400), ("a", "c"): 1, ("b", "c"): 1}, RANGE),
            # Read by its float first: as an integer ratio it would take gigabytes.
            ({("a", "b"): 1, ("a", "c"): Decimal("1e-999999999"), ("b", "c"): 1}, RANGE),
            ({("a", "b"): 1, ("a", "c"): Decimal("1e999999999"), ("b", "c"): 1}, RANGE),
            ({("a", "b"): 1, ("a", "c"): 1, ("b", "c"): Decimal("sNaN")}, "edge weights must not be NaN"),
            # Every weight is read as a ratio before any sign is checked, so a NaN after a negative weight names the NaN.
            ({("a", "b"): -1, ("a", "c"): 1, ("b", "c"): float("nan")}, "edge weights must not be NaN"),
            ({("a", "b"): 1, ("a", "c"): "0.5", ("b", "c"): 1}, "edge weights must be numbers, got str"),
            ({("a", "b"): 1, ("a", "c"): 1, ("b", "c"): None}, "edge weights must be numbers, got NoneType"),
        ],
        ids=[
            "missing-pair", "reversed-pair", "unknown-vertex", "extra-pair",
            "negative", "negative-int", "negative-float",
            "inf", "negative-inf", "int-past-float", "fraction-past-float", "negative-int-past-float",
            "fraction-below-float", "decimal-below-float", "decimal-past-float", "signalling-nan", "negative-then-nan",
            "str", "none",
        ],
    )
    def test_bad_input_rejected_with_its_message(self, weights, message):
        with pytest.raises(ValueError) as info:
            WordGraph(vertices=("c", "a", "b"), weights=weights)
        assert str(info.value) == message

    @pytest.mark.parametrize("pair", [("a", "b"), ("a", "c"), ("b", "c")])
    def test_nan_weight_rejected_in_every_pair_position(self, pair):
        # A NaN compares false with everything, so it could hide from a sign check by minimum.
        weights = {("a", "b"): Fraction(1, 2), ("a", "c"): Fraction(1, 3), ("b", "c"): Fraction(1)}
        weights[pair] = float("nan")
        with pytest.raises(ValueError) as info:
            WordGraph(vertices=("c", "a", "b"), weights=weights)
        assert str(info.value) == "edge weights must not be NaN"

    def test_non_negative_float_weights_accepted(self):
        graph = WordGraph(vertices=("a", "b", "c"), weights={("a", "b"): 0.5, ("a", "c"): 0.0, ("b", "c"): 2})
        assert graph.edges() == [("a", "b", 0.5), ("a", "c", 0.0), ("b", "c", 2)]

    def test_equal_weights_read_back_as_one_fraction(self):
        weights = {("a", "b"): Fraction(1, 3), ("a", "c"): Fraction(2, 6), ("b", "c"): Decimal("0.5"), ("a", "d"): 0.5}
        weights.update({("b", "d"): True, ("c", "d"): Fraction(1)})
        graph = WordGraph(vertices=("d", "c", "b", "a"), weights=weights)
        assert all(type(w) is Fraction for w in graph.weights.values())
        assert graph.weights["a", "b"] is graph.weights["a", "c"] == Fraction(1, 3)
        assert graph.weights["b", "c"] is graph.weights["a", "d"] == Fraction(1, 2)
        assert graph.weights["b", "d"] is graph.weights["c", "d"] == 1
        assert isinstance(graph.weights.table, _Ratios)
        assert all(type(code) is int for code in chain.from_iterable(graph.weights.rows))

    def test_key_that_is_not_a_pair_rejected(self):
        with pytest.raises(ValueError, match="sorted vertex pair"):
            WordGraph(vertices=("a", "b"), weights={"ab": Fraction(1)})

    def test_cluster_of_words_missing_from_graph_rejected(self):
        ctx = context_of({"high": (Fraction(1, 2), 5), "ghost": (Fraction(1, 2), 1)})
        graph = graph_of({("high", "low"): 1})
        with pytest.raises(ValueError, match="sorted vertex pair"):
            micro_cluster(graph, ctx, 0)

    def test_one_retained_word_missing_from_graph_rejected(self):
        corpus = [("d1", "rock face rock"), ("d2", "rain on rock"), ("d3", "sun")]
        index, rock = pipeline_context(corpus, "rock", window=2)
        _, sun = pipeline_context(corpus, "sun", window=2)
        with pytest.raises(ValueError, match=r"\['rock'\].*sorted vertex pair"):
            micro_cluster(build_word_graph(sun, index), rock, Fraction(5, 6))


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
            weights = hand_built_weights(rng, vertices, DOT_VALUES)
            graph = WordGraph(vertices=vertices, weights=weights)
            edges = list(weights.items())
            assert graph.edges() == sorted((a, b, w) for (a, b), w in edges)
            assert graph_to_dot(graph) == dot_text(sorted(vertices), [(a, b, w) for (a, b), w in edges])
            tree = optimal_micro_cluster(MicroCluster(graph=graph, words=vertices, alpha=Fraction(0)))
            assert tree_to_dot(tree) == dot_text(tree.vertices, tree.edges)

    @pytest.mark.parametrize("name", ['a"b', "a\\", '\\"', '"'])
    def test_a_name_dot_cannot_quote_is_rejected_by_name(self, name):
        message = re.escape(repr(name))
        with pytest.raises(ValueError, match=message):
            graph_to_dot(WordGraph(vertices=("a", name), weights={tuple(sorted(("a", name))): 1}))
        with pytest.raises(ValueError, match=message):
            tree_to_dot(TreeCluster(vertices=(name,), edges=(), words=(name,)))
        with pytest.raises(ValueError, match=message):  # an edge endpoint that is no vertex
            tree_to_dot(TreeCluster(vertices=("a", "b"), edges=(("a", name, Fraction(1)),), words=("a", "b")))

    def test_other_punctuation_renders_as_reference_dot(self):
        vertices = ("a b", "a'b", "a-b", "{x}", "é", "a;b", "a/b")
        graph = WordGraph(vertices=vertices, weights={pair: 1 for pair in combinations(sorted(vertices), 2)})
        assert graph_to_dot(graph) == dot_text(graph.vertices, graph.edges())
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


# Ties across types and the closest unequal neighbours a float or ``Decimal`` weight brings: 1/10 and the
# float 0.1 differ by 2**-55 / 10, and a table over such denominators has a base past 2**1074.
EXACT_VALUES = TIE_VALUES + (
    lambda: 0.5,
    lambda: Decimal("0.5"),
    lambda: Fraction(1, 10),
    lambda: 0.1,
    lambda: Decimal("0.1"),
    lambda: Decimal("0.1000000000000000000001"),
    lambda: 5e-324,
    lambda: 2.0**1023,
)


def assert_tree_matches_references(graph):
    """The tree of the whole graph keeps Kruskal's edges in order, of the largest total when the graph is small."""
    tree = optimal_micro_cluster(MicroCluster(graph=graph, words=graph.vertices, alpha=Fraction(0)))
    weights = {pair: Fraction(w) for pair, w in graph.weights.items()}
    assert list(tree.edges) == kruskal_edges(graph.vertices, weights)
    if 1 < len(graph.vertices) <= 6:
        assert sum((w for _, _, w in tree.edges), Fraction(0)) == max_spanning_total(graph.vertices, graph.weight)


class TestTreeOrderMatchesReference:
    def test_distinct_tie_objects_keep_reference_order(self):
        rng = random.Random(97)
        for values in (TIE_VALUES, EXACT_VALUES):
            for _ in range(40):
                vertices = tuple(f"v{i}" for i in range(rng.randint(1, 9)))
                weights = hand_built_weights(rng, vertices, values)
                assert_tree_matches_references(WordGraph(vertices=vertices, weights=weights))

    def test_built_graphs_keep_reference_order(self):
        for ctx, graph in built_graphs(101, 25):
            mc = micro_cluster(graph, ctx, 0)
            assert list(optimal_micro_cluster(mc).edges) == kruskal_edges(mc.graph.vertices, mc.graph.weights)
            assert_tree_matches_references(mc.graph)

    def test_equal_weights_of_different_codes_and_the_closest_unequal_ones(self):
        # Over 400 documents, 1/2 is the code of (1, 2) and of (200, 400), two objects of one value.
        # 199/399 and 200/399, and 398/399 and 399/400, are the closest unequal weights: 1/399**2 and
        # 1/(399 * 400) apart, where the tree's key must still tell them apart.
        base = 401
        pairs = [(1, 2), (200, 400), (199, 399), (200, 399), (398, 399), (399, 400), (0, 0)]
        rng = random.Random(103)
        for _ in range(60):
            vertices = tuple(f"v{i}" for i in range(rng.randint(2, 6)))
            rows = [[p * base + q for p, q in rng.choices(pairs, k=len(vertices) - i - 1)] for i in range(len(vertices))]
            graph = WordGraph(vertices=vertices, weights=_PairWeights(vertices, rows, _Ratios(base)))
            assert_tree_matches_references(graph)
        halves = _Ratios(base)
        assert halves[1 * base + 2] == halves[200 * base + 400] and halves[1 * base + 2] is not halves[200 * base + 400]


def every_code_up_to_400_documents():
    """Each ``(inter, union)`` a graph over 400 documents can hold, and the floats of their codes, then code 0's."""
    # A code is inter * (documents + 1) + union; code 0 is the empty union, and a
    # doubleton count is its intersection over a union of 1.
    base = 401
    pairs = [(inter, union) for union in range(1, base) for inter in range(union + 1)]
    pairs += [(inter, 1) for inter in range(2, base)]
    return pairs, _Ratios(base).floats([inter * base + union for inter, union in pairs] + [0])


class TestLabelsFromCodes:
    def test_label_of_every_code_up_to_400_documents_equals_its_fraction_label(self):
        pairs, floats = every_code_up_to_400_documents()
        assert f"{floats.pop():.6f}" == "0.000000"
        for (inter, union), x in zip(pairs, floats, strict=True):
            assert f"{x:.6f}" == f"{float(Fraction(inter, union)):.6f}"

    def test_json_label_of_every_code_up_to_400_documents_equals_its_fraction_label(self):
        pairs, floats = every_code_up_to_400_documents()
        assert rational_str(floats.pop()) == "0"
        for (inter, union), x in zip(pairs, floats, strict=True):
            assert rational_str(x) == rational_str(Fraction(inter, union))

    @pytest.mark.parametrize("measure", ["jaccard", "doubleton_count"])
    def test_graphs_over_301_documents_render_as_reference_dot(self, measure):
        # "all" and "every" are in every document, so their code is the largest a row can hold,
        # and "even" and "odd" split the documents: a union of every document over no intersection.
        rng = random.Random(307)
        documents = 301
        corpus = []
        for i in range(documents):
            words = ["all", "every", "even" if i % 2 == 0 else "odd"]
            words += [f"w{k}" for k in range(12) if rng.random() < (k + 1) / 13]
            corpus.append((f"d{i:03d}", " ".join(words)))
        index = build_index(corpus)
        ctx = context_of({w: (Fraction(1, 2), 1) for w in ["all", "every", "even", "odd", *(f"w{k}" for k in range(12))]})
        graph = build_word_graph(ctx, index, measure)
        top = documents * (documents + 1) + (documents if measure == "jaccard" else 1)
        assert max(chain.from_iterable(graph.weights.rows)) == top
        assert graph.weight("all", "every") == (1 if measure == "jaccard" else documents)
        assert graph.weight("even", "odd") == 0
        assert graph_to_dot(graph) == dot_text(graph.vertices, graph.edges())
        mc = micro_cluster(graph, ctx, 0)
        assert graph_to_dot(mc.graph) == dot_text(mc.graph.vertices, mc.graph.edges())
        assert graph_to_dict(graph) == graph_dict_pair_by_pair(graph)


def test_graph_over_20000_documents_reads_the_index_bitsets_in_little_memory():
    # One bitset per vertex, not a power of two per document: N ints of up to N bits peak near 28 MB here.
    words = ["w0", "w1", "w2", "w3", "w4"]
    corpus = [(f"d{i:05d}", " ".join(w for k, w in enumerate(words) if i % (k + 2) == 0) + " pad") for i in range(20000)]
    index = build_index(corpus)
    ctx = context_of({w: (Fraction(1, 2), 1) for w in words})
    tracemalloc.start()
    try:
        graph = build_word_graph(ctx, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    halves, thirds = set(range(0, 20000, 2)), set(range(0, 20000, 3))
    assert graph.weight("w0", "w1") == Fraction(len(halves & thirds), len(halves | thirds))
    assert graph_to_dot(graph) == dot_text(graph.vertices, graph.edges())


class TestWeightsView:
    def graphs(self):
        index, ctx = pipeline_context([("D1", "a b c"), ("D2", "a c"), ("D3", "b")], "a", window=2)
        built = build_word_graph(ctx, index)
        hand = WordGraph(vertices=("c", "a", "b"), weights={("a", "b"): 1, ("a", "c"): Fraction(1, 2), ("b", "c"): 0.5})
        assert built.vertices == hand.vertices == ("a", "b", "c")
        return built, hand

    @pytest.mark.parametrize("key", ["ab", ("b", "a"), ("a", "zz"), ("zz", "a"), ("a", "a"), ("a", "b", "c"), ("a",), 0])
    def test_only_a_sorted_pair_of_vertices_is_a_key(self, key):
        for graph in self.graphs():
            assert key not in graph.weights
            assert graph.weights.get(key) is None
            with pytest.raises(KeyError):
                graph.weights[key]

    def test_len_and_iteration_follow_combinations(self):
        for graph in self.graphs() + tuple(g for _, g in built_graphs(113, 10)):
            pairs = list(combinations(graph.vertices, 2))
            assert list(graph.weights) == list(graph.weights.keys()) == pairs
            assert len(graph.weights) == len(pairs)
            assert [w for _, _, w in graph.edges()] == list(graph.weights.values()) == [graph.weights[p] for p in pairs]

    def test_mapping_equality_and_dict(self):
        built, hand = self.graphs()
        assert dict(hand.weights) == {("a", "b"): 1, ("a", "c"): Fraction(1, 2), ("b", "c"): 0.5}
        assert hand.weights == dict(hand.weights) and built.weights == dict(built.weights)
        assert built == WordGraph(vertices=built.vertices, weights=dict(built.weights))
        assert built.weights != hand.weights
        with pytest.raises(TypeError):
            hand.weights[("a", "b")] = 2

    def test_one_vertex_graph_has_no_pairs_and_renders_its_vertex(self):
        index, ctx = pipeline_context([("D1", "solo")], "solo")
        for graph in (build_word_graph(ctx, index), WordGraph(vertices=("solo",), weights={})):
            assert len(graph.weights) == 0 and list(graph.weights) == [] and graph.edges() == []
            assert graph_to_dot(graph) == 'graph {\n  "solo";\n}\n' == dot_text(("solo",), [])

    def test_a_built_graph_and_its_clusters_hand_back_one_object_per_pair(self):
        for k, (ctx, graph) in enumerate(built_graphs(127, 20)):
            nus = sorted({stat.nu for stat in ctx.words.values()})
            mc = micro_cluster(graph, ctx, nus[len(nus) // 2])
            pairs = list(mc.graph.weights)
            # Read the cluster first on half the graphs, the parent first on the rest.
            first, second = (mc.graph, graph) if k % 2 else (graph, mc.graph)
            assert [first.weights[p] for p in pairs] == [second.weights[p] for p in pairs]
            assert all(first.weights[p] is second.weights[p] for p in pairs)
            full = micro_cluster(graph, ctx, 0)
            assert full.graph == graph and all(full.graph.weights[p] is graph.weights[p] for p in graph.weights)

    def test_rows_made_here_are_not_read_again(self):
        # Rows a graph build or a cut hands over were checked when made: a graph on their own vertices takes them as
        # they are, so rows whose iteration raises make a graph.
        class Unread(tuple):
            def __iter__(self):
                raise AssertionError("a row of codes was read")

        vertices = ("a", "b", "c")
        weights = _PairWeights(vertices, Unread([Unread([1, 2]), Unread([3]), Unread()]), _Ratios(4))
        graph = WordGraph(vertices=("c", "b", "a"), weights=weights)
        assert graph.vertices == vertices and graph.weights is weights

    def test_weights_of_a_graph_on_other_vertices_rejected(self):
        other = WordGraph(vertices=("a", "b"), weights={("a", "b"): Fraction(1)})
        with pytest.raises(ValueError, match="^graph must carry exactly one weight per sorted vertex pair$"):
            WordGraph(vertices=("x", "y"), weights=other.weights)


def kept_subsets(rng, vertices):
    """Vertex subsets a cluster may keep: all, none, one, the first, the last, every other one, and random ones."""
    subsets = [vertices, (), (rng.choice(vertices),), vertices[:1], vertices[-1:], vertices[::2], vertices[1::2]]
    return subsets + [tuple(v for v in vertices if rng.random() < p) for p in (0.2, 0.5, 0.8)]


def cut(graph, kept):
    """The graph of the cluster that keeps the vertices ``kept`` of ``graph``."""
    return micro_cluster(graph, context_of({v: (int(v in kept), 1) for v in graph.vertices}), 1).graph


class TestClusterRows:
    """A cluster's graph is cut from its parent's rows of codes: every kept pair keeps its parent's weight object."""

    def assert_cut(self, graph, kept):
        sub = cut(graph, kept)
        pairs = list(combinations(sorted(kept), 2))
        assert sub.vertices == tuple(sorted(kept)) and list(sub.weights) == pairs
        got, want = list(sub.weights.values()), [graph.weights[p] for p in pairs]
        assert got == want and all(a is b for a, b in zip(got, want))

    def test_built_graphs(self):
        rng = random.Random(131)
        for _, graph in built_graphs(131, 30):
            for kept in kept_subsets(rng, graph.vertices):
                self.assert_cut(graph, kept)

    def test_the_cut_reads_each_kept_row_and_nothing_more(self):
        # A cut that also walked the dropped rows would give the same cluster; only this count of the
        # rows iterated, with their lengths, shows that it reads codes for nothing.
        class Row(list):
            def __iter__(self):
                read.append(len(self))
                return super().__iter__()

        rng, read = random.Random(139), []
        for _, built in built_graphs(139, 10):
            vertices, weights = built.vertices, built.weights
            graph = WordGraph(vertices=vertices, weights=_PairWeights(vertices, list(map(Row, weights.rows)), weights.table))
            for kept in kept_subsets(rng, vertices):
                read.clear()
                self.assert_cut(graph, kept)
                assert read == [len(vertices) - 1 - vertices.index(v) for v in sorted(kept)]

    @pytest.mark.parametrize("values", ["ties", "spread"])
    def test_hand_built_graphs(self, values):
        rng = random.Random(137)
        spread = (lambda: Fraction(rng.randint(0, 60), rng.randint(1, 7)),)
        for n in list(range(1, 10)) * 3:
            vertices = tuple(f"v{i}" for i in range(n))
            weights = hand_built_weights(rng, vertices, TIE_VALUES if values == "ties" else spread)
            graph = WordGraph(vertices=vertices, weights=weights)
            for kept in kept_subsets(rng, graph.vertices):
                self.assert_cut(graph, kept)


def assert_rows(graph):
    """Row i of a graph's codes holds one code for each of the n - 1 - i vertices after vertex i."""
    n = len(graph.vertices)
    assert [len(row) for row in graph.weights.rows] == list(range(n - 1, -1, -1))


class TestRowShape:
    @pytest.mark.parametrize("measure", MEASURES)
    def test_built_graphs_and_their_cuts(self, measure):
        rng = random.Random(149)
        for _, graph in built_graphs(149, 15, (measure,)):
            assert_rows(graph)
            for kept in kept_subsets(rng, graph.vertices):
                assert_rows(cut(graph, kept))

    def test_hand_built_graphs(self):
        rng = random.Random(151)
        for n in range(10):  # from the empty graph and the one-vertex graph up
            vertices = tuple(f"v{i}" for i in range(n))
            graph = WordGraph(vertices=vertices, weights=hand_built_weights(rng, vertices, TIE_VALUES))
            assert_rows(graph)
            for kept in kept_subsets(rng, vertices) if n else ():
                assert_rows(cut(graph, kept))


def graph_dict_pair_by_pair(graph):
    """The graph JSON as each pair's ``Fraction`` gives it: one ``rational_str`` per edge."""
    edges = [{"a": a, "b": b, "weight": rational_str(w)} for a, b, w in graph.edges()]
    return {"vertices": list(graph.vertices), "edges": edges}


class TestGraphJson:
    """The graph JSON labels each distinct code once, and prints what one label per pair printed."""

    @pytest.mark.parametrize("measure", MEASURES)
    def test_built_graphs_and_their_cuts(self, measure):
        rng = random.Random(157)
        for _, graph in built_graphs(157, 15, (measure,)):
            for sub in [graph, *(cut(graph, kept) for kept in kept_subsets(rng, graph.vertices))]:
                assert json.dumps(graph_to_dict(sub)) == json.dumps(graph_dict_pair_by_pair(sub))

    def test_hand_built_graphs(self):
        values = [Fraction(1, 3), Fraction(2, 6), 5e-324, 2.0**1023, Decimal("0.1"), True, 0, Fraction(7, 5), 1, 0.5]
        vertices = ("a", "b", "c", "d", "e")
        graph = WordGraph(vertices=vertices, weights=dict(zip(combinations(vertices, 2), values, strict=True)))
        assert [e["weight"] for e in graph_to_dict(graph)["edges"]] == [
            "0.333333333333", "0.333333333333", "4.94065645841e-324", "8.98846567431e+307", "0.1", "1", "0", "1.4", "1", "0.5"
        ]
        rng = random.Random(163)
        for n in list(range(10)) * 3:
            vertices = tuple(f"v{i}" for i in rng.sample(range(20), n))
            graph = WordGraph(vertices=vertices, weights=hand_built_weights(rng, vertices, JSON_VALUES))
            assert json.dumps(graph_to_dict(graph)) == json.dumps(graph_dict_pair_by_pair(graph))
