"""Snippet extraction: window shapes, ordering, caps, and oracle agreement."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termspace import (
    Snippet,
    SnippetList,
    Term,
    build_index,
    doubleton,
    extract_snippets,
    occurrence_positions,
    singleton,
)

from conftest import random_corpus, random_present_term
from oracles import brute_doubleton, brute_singleton, window_snippets

WORDS = st.sampled_from([f"w{i}" for i in range(8)])
CORPORA = st.lists(st.lists(WORDS, max_size=30).map(" ".join), min_size=1, max_size=10).map(
    lambda texts: [(f"d{i:03d}", t) for i, t in enumerate(texts)]
)


def test_absent_term_yields_empty_list():
    index = build_index([("D1", "only these words")])
    assert extract_snippets(index, "missing", window=5).n == 0


def test_window_of_one_around_middle_occurrence():
    index = build_index([("D1", "a b c d e")])
    result = extract_snippets(index, "c", window=1)
    assert result.n == 1
    snippet = result.snippets[0]
    assert snippet.words == ("b", "c", "d")
    assert snippet.length == 3
    assert snippet.term_spans == ((1, 2),)


def test_window_truncated_at_document_start():
    index = build_index([("D1", "hit b c d e")])
    result = extract_snippets(index, "hit", window=50)
    assert result.snippets[0].words == ("hit", "b", "c", "d", "e")


def test_window_bounds_enforced():
    index = build_index([("D1", "a")])
    with pytest.raises(ValueError, match="50"):
        extract_snippets(index, "a", window=51)
    with pytest.raises(ValueError, match="between 1 and"):
        extract_snippets(index, "a", window=0)
    with pytest.raises(ValueError, match="per_doc_limit"):
        extract_snippets(index, "a", window=1, per_doc_limit=0)


def test_order_is_doc_id_then_position():
    index = build_index([("D2", "x pad x"), ("D1", "pad x pad")])
    result = extract_snippets(index, "x", window=1)
    keys = [(s.doc_id, s.term_spans) for s in result.snippets]
    assert [k[0] for k in keys] == ["D1", "D2", "D2"]


def test_per_doc_limit_keeps_first_occurrences():
    index = build_index([("D1", "x a x b x c x")])
    result = extract_snippets(index, "x", window=1, per_doc_limit=2)
    assert result.n == 2
    assert result.snippets[0].words == ("x", "a")
    assert result.snippets[1].words == ("a", "x", "b")


def test_nearby_occurrences_emerge_as_independent_snippets():
    index = build_index([("D1", "x x")])
    result = extract_snippets(index, "x", window=1)
    assert result.n == 2
    # Both occurrences visible in both windows, so each snippet carries two spans.
    assert all(len(s.term_spans) == 2 for s in result.snippets)


def test_multi_token_term_spans():
    index = build_index([("D1", "p alpha beta q")])
    result = extract_snippets(index, "alpha beta", window=1)
    assert result.snippets[0].words == ("p", "alpha", "beta", "q")
    assert result.snippets[0].term_spans == ((1, 3),)


def test_empty_snippet_construction_rejected():
    with pytest.raises(ValueError, match=r"term span \(0, 1\) out of range"):
        Snippet(doc_id="D1", words=(), term_spans=((0, 1),))
    with pytest.raises(ValueError, match="must contain the term"):
        Snippet(doc_id="D1", words=(), term_spans=())
    with pytest.raises(ValueError):
        Snippet(doc_id="D1", words=("a",), term_spans=())
    with pytest.raises(ValueError, match="out of range"):
        Snippet(doc_id="D1", words=("a",), term_spans=((0, 2),))
    with pytest.raises(ValueError, match=r"term span \(1, 1\) out of range"):  # a span holds at least one word
        Snippet(doc_id="D1", words=("a", "b"), term_spans=((1, 1),))


def test_lists_are_stored_as_tuples():
    snippet = Snippet(doc_id="D1", words=["a", "b"], term_spans=[[1, 2]])
    assert (snippet.words, snippet.term_spans) == (("a", "b"), ((1, 2),))
    snippets = SnippetList(term=Term(("b",)), snippets=[snippet])
    assert snippets.snippets == (snippet,)
    assert hash(snippets) == hash(SnippetList(term=Term(("b",)), snippets=(snippet,)))


def test_matches_reference_extractor():
    rng = random.Random(7)
    for _ in range(40):
        corpus = random_corpus(rng)
        index = build_index(corpus)
        term_tokens = random_present_term(rng, corpus) or ["w0"]
        window = rng.randint(1, 6)
        limit = rng.randint(1, 4)
        got = extract_snippets(index, Term(tuple(term_tokens)), window, limit)
        expected = window_snippets(corpus, term_tokens, window, limit)
        assert [(s.doc_id, list(s.words)) for s in got.snippets] == expected


@given(CORPORA, st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_snippet_invariants(corpus, window, limit):
    index = build_index(corpus)
    term = Term(("w0",))
    result = extract_snippets(index, term, window, limit)
    event = singleton(index, term)
    assert result.n <= limit * event.cardinality
    for snippet in result.snippets:
        assert occurrence_positions(snippet.words, term.tokens)
        assert snippet.length <= 2 * window + len(term.tokens)
        for start, end in snippet.term_spans:
            assert snippet.words[start:end] == term.tokens


def test_extraction_is_stable_under_rerun():
    corpus = [("D1", "x y x"), ("D2", "y x y x y")]
    index = build_index(corpus)
    first = extract_snippets(index, "x", window=2)
    second = extract_snippets(index, "x", window=2)
    assert first == second


def spans_by_rescan(snippet, tokens):
    """Every occurrence of ``tokens`` inside the snippet's words, found by scanning."""
    m = len(tokens)
    return tuple((s, s + m) for s in occurrence_positions(snippet.words, tokens))


def test_spans_list_every_occurrence_in_the_window():
    # A three-word alphabet makes repeated and overlapping phrases common.
    rng = random.Random(113)
    alphabet = ("a", "b", "c")
    for _ in range(300):
        corpus = random_corpus(rng, max_docs=6, max_tokens=20, alphabet=alphabet)
        tokens = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        window, limit = rng.randint(1, 6), rng.randint(1, 3)
        result = extract_snippets(build_index(corpus), Term(tokens), window, limit)
        expected = window_snippets(corpus, list(tokens), window, limit)
        assert [(s.doc_id, list(s.words)) for s in result.snippets] == expected
        for snippet in result.snippets:
            assert snippet.term_spans == spans_by_rescan(snippet, tokens)


def test_long_documents_match_oracles():
    # Documents of 60-2000 tokens put positions far past bit 63 of a postings
    # mask. A skewed three-word alphabet makes repeated tokens common and the
    # longer phrases rare, and half the documents end in a phrase.
    rng = random.Random(2113)
    alphabet = ("w0", "w1", "w2")
    phrases = [("w0",), ("w2",), ("w0", "w0"), ("w1", "w2"), ("w0", "w1", "w0"),
               ("w2", "w0", "w2"), ("w1", "w1", "w1"), ("w0", "w0", "w0", "w0"), ("w2", "w2", "w1", "w2")]
    ending = 0
    for _ in range(12):
        corpus = []
        for i in range(rng.randint(1, 5)):
            tokens = rng.choices(alphabet, weights=(8, 3, 1), k=rng.randint(60, 2000))
            if rng.random() < 0.5:
                phrase = rng.choice(phrases)
                tokens[-len(phrase):] = phrase
            corpus.append((f"d{i:03d}", " ".join(tokens)))
        index = build_index(corpus)
        for tokens in phrases:
            ending += sum(text.split()[-len(tokens):] == list(tokens) for _, text in corpus)
            assert singleton(index, Term(tokens)).doc_ids == brute_singleton(corpus, list(tokens))
            window, limit = rng.randint(1, 6), rng.randint(1, 3)
            result = extract_snippets(index, Term(tokens), window, limit)
            expected = window_snippets(corpus, list(tokens), window, limit)
            assert [(s.doc_id, list(s.words)) for s in result.snippets] == expected
            for snippet in result.snippets:
                assert snippet.term_spans == spans_by_rescan(snippet, tokens)
        x, y = rng.sample(phrases, 2)
        assert doubleton(index, Term(x), Term(y)).doc_ids == brute_doubleton(corpus, list(x), list(y))
    assert ending > 20  # phrases that match at a document's last position


@pytest.mark.parametrize(
    "text, term, window, limit, expected",
    [
        # Overlapping occurrences: both windows hold both.
        ("a a a", "a a", 1, 3, [(("a", "a", "a"), ((0, 2), (1, 3)))] * 2),
        # The second occurrence is cut off by the first window's end, the
        # first by the second window's start.
        ("a b a b", "a b", 1, 3, [(("a", "b", "a"), ((0, 2),)), (("b", "a", "b"), ((1, 3),))]),
        # Windows truncated at the document's end.
        ("p q a", "a", 3, 3, [(("p", "q", "a"), ((2, 3),))]),
        ("p a b", "a b", 2, 3, [(("p", "a", "b"), ((1, 3),))]),
        # The limit caps snippets, not the spans inside one.
        ("x x x x", "x", 3, 1, [(("x", "x", "x", "x"), ((0, 1), (1, 2), (2, 3), (3, 4)))]),
    ],
)
def test_spans_hand_cases(text, term, window, limit, expected):
    result = extract_snippets(build_index([("D1", text)]), term, window, limit)
    assert [(s.words, s.term_spans) for s in result.snippets] == expected
