"""The probability calculus and context construction, checked against
count-and-divide oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termspace import (
    Context,
    Snippet,
    SnippetList,
    Term,
    WordStat,
    build_context,
    build_index,
    doubleton,
    extract_snippets,
    occurrence_positions,
    p_list_word,
    p_snippet_word,
    p_term_list,
    p_term_snippet,
    p_term_word,
    singleton,
    word_weight,
)

from conftest import random_corpus, random_present_term
from oracles import brute_context, brute_singleton, window_snippets

HALF = Fraction(1, 2)
WORDS = st.sampled_from([f"w{i}" for i in range(8)])


def make_list(term_text, *word_tuples):
    """Snippet list for a term, spans computed from the words themselves."""
    term = Term.parse(term_text)
    snippets = []
    for i, words in enumerate(word_tuples):
        words = tuple(words)
        spans = tuple(
            (s, s + len(term.tokens)) for s in occurrence_positions(words, term.tokens)
        )
        snippets.append(Snippet(doc_id=f"D{i}", words=words, term_spans=spans))
    return SnippetList(term=term, snippets=tuple(snippets))


@st.composite
def random_snippets(draw):
    words = tuple(draw(st.lists(WORDS, min_size=1, max_size=12)))
    term = Term((words[0],))
    spans = tuple((s, s + 1) for s in occurrence_positions(words, term.tokens))
    return term, Snippet(doc_id="D0", words=words, term_spans=spans)


class TestTermSnippet:
    def test_present_term_scores_half(self):
        snippet = make_list("t", ("a", "t", "b")).snippets[0]
        assert p_term_snippet("t", snippet) == HALF

    def test_absent_term_scores_zero(self):
        snippet = make_list("t", ("a", "t", "b")).snippets[0]
        assert p_term_snippet("missing", snippet) == 0

    def test_every_extracted_snippet_scores_half(self, tiny_index):
        result = extract_snippets(tiny_index, "beta", window=2)
        assert result.n > 0
        assert all(p_term_snippet("beta", s) == HALF for s in result.snippets)


class TestTermList:
    def test_all_snippets_containing_term(self):
        lst = make_list("t", ("t", "a"), ("t", "b"), ("t", "c"), ("t", "d"))
        assert p_term_list("t", lst) == HALF

    def test_term_in_one_of_two(self):
        lst = make_list("b", ("b", "c"), ("b", "d"))
        assert p_term_list("c", lst) == Fraction(1, 4)

    def test_single_snippet(self):
        lst = make_list("t", ("t",))
        assert p_term_list("t", lst) == HALF

    def test_empty_list_rejected(self):
        lst = SnippetList(term=Term(("t",)), snippets=())
        with pytest.raises(ValueError, match="empty"):
            p_term_list("t", lst)


class TestSnippetWord:
    def test_absent_word(self):
        snippet = make_list("c", ("b", "c", "b")).snippets[0]
        assert p_snippet_word("zz", snippet) == 0

    def test_two_of_three(self):
        snippet = make_list("c", ("b", "c", "b")).snippets[0]
        assert p_snippet_word("b", snippet) == Fraction(2, 3)

    def test_single_word_snippet(self):
        snippet = make_list("z", ("z",)).snippets[0]
        assert p_snippet_word("z", snippet) == 1

    @given(random_snippets())
    @settings(max_examples=80)
    def test_partition_over_unique_words(self, term_and_snippet):
        _, snippet = term_and_snippet
        total = sum(p_snippet_word(w, snippet) for w in set(snippet.words))
        assert total == 1


class TestListWord:
    def test_absent_word(self):
        lst = make_list("c", ("b", "c", "x"), ("c", "b", "y"))
        assert p_list_word("zz", lst) == 0

    def test_two_thirds(self):
        lst = make_list("c", ("b", "c", "x"), ("c", "b", "y"))
        assert p_list_word("b", lst) == Fraction(2, 3)

    def test_word_filling_every_snippet_sums_to_n(self):
        lst = make_list("z", ("z",), ("z",), ("z",))
        assert p_list_word("z", lst) == lst.n == 3


class TestTermWord:
    def test_term_absent(self):
        snippet = make_list("t", ("w", "t", "w", "u")).snippets[0]
        assert p_term_word("missing", "w", snippet) == 0

    def test_half_of_snippet_word(self):
        snippet = make_list("t", ("w", "t", "w", "u")).snippets[0]
        assert p_term_word("t", "w", snippet) == Fraction(1, 4)

    def test_word_absent(self):
        snippet = make_list("t", ("w", "t", "w", "u")).snippets[0]
        assert p_term_word("t", "zz", snippet) == 0


class TestWordWeight:
    def test_absent_word(self):
        lst = make_list("t", ("t", "a"), ("t", "b"))
        assert word_weight("zz", lst) == 0

    def test_one_in_ten(self):
        lst = make_list("t", ("t", "v", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8"))
        assert word_weight("v", lst) == Fraction(1, 20)

    def test_half_of_list_word_on_extraction_output(self, tiny_index):
        lst = extract_snippets(tiny_index, "beta", window=2)
        for w in {"alpha", "beta", "gamma"}:
            assert word_weight(w, lst) == p_list_word(w, lst) / 2

    def test_sum_of_term_word_values_on_extraction_output(self, tiny_index):
        lst = extract_snippets(tiny_index, "alpha", window=2)
        for w in {"alpha", "beta"}:
            summed = sum(p_term_word("alpha", w, s) for s in lst.snippets)
            assert word_weight(w, lst) == summed


@given(random_snippets(), WORDS)
@settings(max_examples=80)
def test_value_ranges(term_and_snippet, word):
    term, snippet = term_and_snippet
    lst = SnippetList(term=term, snippets=(snippet,))
    assert p_term_snippet(term, snippet) in (Fraction(0), HALF)
    assert 0 <= p_term_list(term, lst) <= HALF
    assert 0 <= p_snippet_word(word, snippet) <= 1
    assert 0 <= p_term_word(term, word, snippet) <= HALF
    assert word_weight(word, lst) >= 0


class TestBuildContext:
    def test_two_word_snippet_weights(self):
        index = build_index([("D1", "x y")])
        lst = extract_snippets(index, "x", window=1)
        ctx = build_context(lst, index)
        assert set(ctx.words) == {"x", "y"}
        assert ctx.words["x"].nu == Fraction(1, 4)
        assert ctx.words["y"].nu == Fraction(1, 4)
        assert ctx.words["x"].mu == ctx.words["y"].mu == 1

    def test_all_words_stopworded_rejected(self):
        index = build_index([("D1", "x y")])
        lst = extract_snippets(index, "x", window=1)
        with pytest.raises(ValueError, match="stopword"):
            build_context(lst, index, stopwords={"x", "y"})

    def test_empty_snippet_list_rejected(self, tiny_index):
        lst = SnippetList(term=Term(("alpha",)), snippets=())
        with pytest.raises(ValueError, match="empty"):
            build_context(lst, tiny_index)

    @pytest.mark.parametrize(
        "nu_order, mu_order, message",
        [
            (("a",), ("a", "b"), "permutations"),
            (("a", "a", "b"), ("b", "a"), "permutations"),
            (("a", "b"), ("b", "a", "b"), "permutations"),
            (("b", "a"), ("a", "b"), "nu_order must be non-increasing"),
            (("a", "b"), ("a", "b"), "mu_order must be non-increasing"),
            (("a", "a"), ("b", "a"), "permutations"),
        ],
    )
    def test_orders_that_break_the_invariant_rejected(self, nu_order, mu_order, message):
        # "a" outweighs "b" in nu; "b" is in more documents.
        words = {"a": WordStat("a", Fraction(1, 2), 1), "b": WordStat("b", Fraction(1, 4), 2)}
        with pytest.raises(ValueError, match=message):
            Context(term=Term(("a",)), words=words, nu_order=nu_order, mu_order=mu_order)

    def test_orders_are_permutations(self, tiny_index):
        lst = extract_snippets(tiny_index, "beta", window=2)
        ctx = build_context(lst, tiny_index)
        assert sorted(ctx.nu_order) == sorted(ctx.mu_order) == sorted(ctx.words)

    def test_orders_descend(self, tiny_index):
        lst = extract_snippets(tiny_index, "beta", window=2)
        ctx = build_context(lst, tiny_index)
        nus = [ctx.words[w].nu for w in ctx.nu_order]
        mus = [ctx.words[w].mu for w in ctx.mu_order]
        assert nus == sorted(nus, reverse=True)
        assert mus == sorted(mus, reverse=True)

    def test_every_context_word_has_positive_weight(self, tiny_index):
        lst = extract_snippets(tiny_index, "beta", window=2)
        ctx = build_context(lst, tiny_index)
        assert all(stat.nu > 0 for stat in ctx.words.values())

    def test_weight_vector_always_populated(self, tiny_index):
        # At least one vector space exists whenever construction succeeds.
        lst = extract_snippets(tiny_index, "beta", window=2)
        ctx = build_context(lst, tiny_index)
        assert len(ctx.nu_order) >= 1

    def test_matches_brute_force_recomputation(self):
        rng = random.Random(71)
        for _ in range(30):
            corpus = random_corpus(rng)
            index = build_index(corpus)
            term_tokens = random_present_term(rng, corpus)
            if term_tokens is None:
                continue
            window = rng.randint(1, 5)
            lst = extract_snippets(index, Term(tuple(term_tokens)), window)
            if lst.n == 0:
                continue
            ctx = build_context(lst, index)
            expected = brute_context(corpus, term_tokens, window, 3)
            assert sorted(ctx.words) == sorted(expected)
            for w, (weight, count) in expected.items():
                assert abs(float(ctx.words[w].nu) - weight) <= 1e-12
                assert ctx.words[w].mu == count

    def test_weights_and_counts_equal_exact_oracles(self):
        # Exact Fraction equality against the rescanning reference
        # ``word_weight`` and a sum over the oracle's own snippet windows;
        # documents are indexed in shuffled id order and stopwords vary.
        rng = random.Random(1303)
        alphabet = tuple(f"w{i}" for i in range(12))
        checked = 0
        for _ in range(40):
            corpus = random_corpus(rng, max_docs=25, max_tokens=40, alphabet=alphabet)
            rng.shuffle(corpus)
            term_tokens = random_present_term(rng, corpus)
            if term_tokens is None:
                continue
            stopwords = set(rng.sample(alphabet, rng.randint(0, 6)))
            window, limit = rng.randint(1, 6), rng.randint(1, 3)
            index = build_index(corpus)
            lst = extract_snippets(index, Term(tuple(term_tokens)), window, limit)
            word_lists = [ws for _, ws in window_snippets(corpus, term_tokens, window, limit)]
            vocabulary = {w for ws in word_lists for w in ws} - stopwords
            if not vocabulary:
                with pytest.raises(ValueError, match="stopword"):
                    build_context(lst, index, stopwords)
                continue
            ctx = build_context(lst, index, stopwords)
            assert set(ctx.words) == vocabulary
            for w, stat in ctx.words.items():
                assert stat.nu == word_weight(w, lst)
                assert stat.nu == sum(
                    (Fraction(ws.count(w), 2 * len(ws)) for ws in word_lists), Fraction(0)
                )
                assert stat.mu == len(brute_singleton(corpus, [w]))
            checked += 1
        assert checked >= 20

    def test_context_words_are_queryable_terms(self):
        # Every context word round-trips through the engine, alone and in pairs.
        corpus = [("D1", "sun moon star"), ("D2", "moon star"), ("D3", "sun sun")]
        index = build_index(corpus)
        lst = extract_snippets(index, "moon", window=2)
        ctx = build_context(lst, index)
        words = sorted(ctx.words)
        for w in words:
            event = singleton(index, Term((w,)))
            assert event.cardinality == ctx.words[w].mu
            assert event.doc_ids == frozenset(brute_singleton(corpus, [w]))
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                both = doubleton(index, Term((a,)), Term((b,)))
                assert both.doc_ids == frozenset(
                    brute_singleton(corpus, [a]) & brute_singleton(corpus, [b])
                )


def test_snippet_list_rejects_spans_that_miss_the_term():
    with pytest.raises(ValueError, match="does not cover"):
        SnippetList(
            term=Term(("t",)),
            snippets=(Snippet(doc_id="D0", words=("a", "b"), term_spans=((0, 1),)),),
        )
