"""Tokenization, index construction, and event-space query tests."""

from __future__ import annotations

import gc
import json
import os
import random
import string
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termspace import engine
from termspace import (
    BiasConfig,
    EventSet,
    Index,
    Term,
    build_index,
    doubleton,
    extract_snippets,
    hit_count,
    singleton,
    tokenize,
)

from oracles import (
    biased_count,
    brute_doubleton,
    brute_index,
    brute_singleton,
    loop_tokenize,
    scan_tokenize,
    window_snippets,
)

WORDS = st.sampled_from([f"w{i}" for i in range(8)])
# w8 occurs in no corpus, so some terms hold an absent token.
TERMS = st.lists(st.sampled_from([f"w{i}" for i in range(9)]), min_size=1, max_size=3).map(tuple)
DOC_TEXTS = st.lists(WORDS, max_size=30).map(" ".join)
CORPORA = st.lists(DOC_TEXTS, min_size=1, max_size=10).map(
    lambda texts: [(f"d{i:03d}", t) for i, t in enumerate(texts)]
)
# Texts that mix every whitespace character with ones that split a run (``_``, ``-``, ``.``, a combining
# accent), one that lowercases to two characters, a lowercase letter with no one-letter uppercase and a
# digit that is not decimal.
WHITESPACE = "".join(ch for ch in map(chr, range(0x110000)) if ch.isspace())
SPLIT_TEXTS = st.text(alphabet=WHITESPACE + "_-.\u0301İß²" + string.ascii_letters + string.digits, max_size=80)
# ASCII text takes tokenize's translate-and-split path; KELVIN SIGN (U+212A) is the one non-ASCII
# code point whose lowercase ("k") is ASCII, so text holding it takes that path too.
ASCII_TEXTS = st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=200)
KELVIN_TEXTS = st.text(alphabet=st.one_of(st.characters(max_codepoint=0x7F), st.just("\u212a")), max_size=80)
TEXTS = st.one_of(st.text(max_size=200), SPLIT_TEXTS, ASCII_TEXTS, KELVIN_TEXTS)


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("") == []

    def test_splits_on_punctuation_and_lowercases(self):
        assert tokenize("Web-pages, indexed!") == ["web", "pages", "indexed"]

    def test_paragraph_matches_reference_scan(self):
        text = (
            "The model counts pages. Counting stays exact; nothing is ranked. "
            "Three sentences are enough for a check."
        )
        expected = [
            "the", "model", "counts", "pages", "counting", "stays", "exact",
            "nothing", "is", "ranked", "three", "sentences", "are", "enough",
            "for", "a", "check",
        ]
        assert tokenize(text) == expected
        assert scan_tokenize(text) == expected

    @given(TEXTS)
    @settings(max_examples=200)
    def test_agrees_with_reference_scan(self, text):
        assert tokenize(text) == scan_tokenize(text)

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    def test_every_code_point_matches_character_loop(self):
        mismatched = [cp for cp in range(0x110000) if tokenize(chr(cp)) != loop_tokenize(chr(cp))]
        assert mismatched == []

    @given(TEXTS)
    @settings(max_examples=300)
    def test_agrees_with_character_loop(self, text):
        assert tokenize(text) == loop_tokenize(text)

    def test_every_ascii_pair_matches_character_loop(self):
        texts = [chr(a) + chr(b) + "x" + chr(a) for a in range(128) for b in range(128)]
        assert [t for t in texts if tokenize(t) != loop_tokenize(t)] == []


class TestTerm:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Term(())

    def test_whitespace_token_rejected(self):
        with pytest.raises(ValueError):
            Term(("alpha beta",))

    def test_list_of_tokens_is_stored_as_a_tuple(self):
        term = Term(["alpha", "beta"])
        assert term.tokens == ("alpha", "beta") and hash(term) == hash(Term(("alpha", "beta")))

    @pytest.mark.parametrize("token", ["x y", "a\tb", "X", "X-y", "x-y", "a_b", "x.y", "e\u0301", "-", ""])
    def test_token_that_is_not_a_tokenize_fixed_point_rejected_by_name(self, token):
        assert tokenize(token) != [token]
        with pytest.raises(ValueError) as info:
            Term((token,))
        assert str(info.value) == f"term tokens must be single lowercase alphanumeric words: {token!r}"

    def test_one_character_token_accepted_exactly_when_tokenize_keeps_it(self):
        accepted, fixed = set(), set()
        for ch in map(chr, [*range(0xD800), *range(0xE000, 0x10000)]):  # the BMP without surrogates
            if tokenize(ch) == [ch]:
                fixed.add(ch)
            try:
                Term((ch,))
            except ValueError:
                continue
            accepted.add(ch)
        assert accepted == fixed

    @given(st.text(max_size=60))
    @settings(max_examples=200)
    def test_tokens_of_any_text_make_a_term(self, text):
        tokens = tuple(tokenize(text))
        if tokens:
            assert Term(tokens).tokens == tokens

    def test_parse_tokenizes(self):
        assert Term.parse("Alpha, beta!").tokens == ("alpha", "beta")

    def test_duplicate_tokens_allowed(self):
        assert Term(("go", "go")).tokens == ("go", "go")


def mask_positions(mask):
    """The positions a postings mask holds, ascending: bit ``p`` is position ``p``."""
    return tuple(pos for pos, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


class TestBuildIndex:
    def test_empty_corpus(self):
        index = build_index([])
        assert len(index.documents) == 0
        assert index.postings == {}

    def test_postings_positions(self):
        index = build_index([("D1", "a b"), ("D2", "b")])
        assert {d: mask_positions(m) for d, m in index.postings["a"].items()} == {"D1": (0,)}
        assert {d: mask_positions(m) for d, m in index.postings["b"].items()} == {"D1": (1,), "D2": (0,)}

    def test_documents_holds_every_document(self):
        corpus = [(f"doc{i}", "filler text") for i in range(1000)]
        assert len(build_index(corpus).documents) == 1000

    def test_duplicate_id_rejected_by_name(self):
        with pytest.raises(ValueError, match="dup"):
            build_index([("dup", "a"), ("dup", "b")])

    def test_positions_index_into_documents(self):
        rng = random.Random(11)
        from conftest import random_corpus

        for _ in range(20):
            corpus = random_corpus(rng)
            index = build_index(corpus)
            visited = 0
            for token, docs in index.postings.items():
                for doc_id, mask in docs.items():
                    for pos in mask_positions(mask):
                        assert index.documents[doc_id][pos] == token
                        visited += 1
            assert visited == index.total_tokens


def as_brute_index(index):
    """``index`` in the shape of :func:`oracles.brute_index`: ordered lists, masks decoded to position lists."""
    documents = [(doc_id, list(tokens)) for doc_id, tokens in index.documents.items()]
    postings = [
        (tok, [(doc_id, list(mask_positions(mask))) for doc_id, mask in docs.items()])
        for tok, docs in index.postings.items()
    ]
    return documents, postings


class TestIndexOracle:
    """``build_index`` against the definition, key and document order included."""

    def assert_matches_oracle(self, corpus):
        index = build_index(corpus)
        assert as_brute_index(index) == brute_index(corpus)
        for docs in index.postings.values():
            assert all(type(mask) is int for mask in docs.values())

    def test_random_corpora_match_oracle(self):
        rng = random.Random(41)
        from conftest import random_corpus

        for _ in range(60):
            self.assert_matches_oracle(random_corpus(rng, min_docs=0))

    def test_documents_either_side_of_the_in_place_limit_match_oracle(self):
        # ``build_index`` ORs positions in place up to ``_OR_IN_PLACE`` tokens and
        # writes masks as bytes past it; both must give the oracle's positions. In
        # place, a first occurrence below the table's end takes its shared ``1 << p``.
        rng = random.Random(47)
        alphabet = tuple(f"w{i}" for i in range(12))
        table, limit = len(engine._SHARED_BITS), engine._OR_IN_PLACE
        corpus = [
            (f"d{n}", " ".join(rng.choices(alphabet, weights=range(12, 0, -1), k=n)))
            for n in (table - 1, table, table + 1, limit - 1, limit, limit + 1, 2 * limit + 9)
        ]
        corpus.append(("past-table", " ".join(["w0"] * table + ["w11"])))  # w11's one bit is the first past the table
        corpus.append(("rare", " ".join(["w0"] * (limit + 7) + ["w11"])))  # one bit past the limit
        self.assert_matches_oracle(corpus)

    def test_a_token_alone_at_one_position_has_one_shared_mask(self):
        # Bit 300 is past the ints CPython caches, so equal masks are one object only when the index shares it.
        text = " ".join(["w0"] * 300 + ["solo", "w0", "pair", "pair"])
        first, second = build_index([("a", text), ("b", text)]), build_index([("c", text)])
        assert first.postings["solo"]["a"] is first.postings["solo"]["b"] is second.postings["solo"]["c"]
        assert first.postings["solo"]["a"] == 1 << 300
        assert first.postings["pair"]["a"] == first.postings["pair"]["b"] == 0b11 << 302

    def test_random_mixed_case_and_non_ascii_corpora_match_oracle(self):
        rng = random.Random(43)
        from conftest import random_corpus

        alphabet = ("w0", "W0", "café", "ÉTÉ", "x-y", "日本", "αθηνα", "42", "a_b")
        for _ in range(40):
            self.assert_matches_oracle(random_corpus(rng, alphabet=alphabet))

    def test_document_without_tokens_is_in_documents_only(self):
        corpus = [("a", "x y"), ("blank", " ,.; -- "), ("b", "y")]
        index = build_index(corpus)
        assert list(index.documents) == ["a", "blank", "b"]
        assert index.documents["blank"] == ()
        assert all("blank" not in docs for docs in index.postings.values())
        self.assert_matches_oracle(corpus)

    def test_token_repeated_within_a_document(self):
        corpus = [("d1", "go stop go go"), ("d2", "stop go")]
        index = build_index(corpus)
        assert {d: mask_positions(m) for d, m in index.postings["go"].items()} == {"d1": (0, 2, 3), "d2": (1,)}
        assert list(index.postings) == ["go", "stop"]
        self.assert_matches_oracle(corpus)

    def test_non_ascii_token(self):
        corpus = [("d1", "Émile ate CRÊPES"), ("d2", "crêpes à Paris")]
        index = build_index(corpus)
        assert {d: mask_positions(m) for d, m in index.postings["crêpes"].items()} == {"d1": (2,), "d2": (0,)}
        assert list(index.postings) == ["émile", "ate", "crêpes", "à", "paris"]
        self.assert_matches_oracle(corpus)

    def test_equal_tokens_share_the_string_that_keys_their_postings(self):
        rng = random.Random(53)
        from conftest import random_corpus

        alphabet = ("w0", "W0", "café", "x-y", "日本", "42", "a_b")
        for _ in range(20):
            corpus = random_corpus(rng, alphabet=alphabet)
            index = build_index(corpus)
            keys = {tok: tok for tok in index.postings}
            for tokens in index.documents.values():
                assert all(tok is keys[tok] for tok in tokens)
            # Tokens in order of first occurrence, each token's documents in corpus order.
            self.assert_matches_oracle(corpus)
            # An index of the oracle's strings, one object an occurrence, compares equal.
            documents, postings = brute_index(corpus)
            assert index == Index(
                documents={doc_id: tuple(tokens) for doc_id, tokens in documents},
                postings={tok: {d: sum(1 << p for p in where) for d, where in docs} for tok, docs in postings},
            )


@pytest.fixture(params=[True, False], ids=["collector_enabled", "collector_disabled"])
def collector(request):
    """Set the cyclic garbage collector from the param for the test; re-enable it after."""
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    gc.enable()


def failing_corpus():
    yield ("a", "x y")
    yield ("b", "y z")
    raise RuntimeError("corpus read failed")


class TestCollectorState:
    """``build_index`` leaves the cyclic collector's setting as it found it, also when it raises."""

    def test_restored_after_build(self, collector):
        build_index([("a", "x y"), ("b", "y z")])
        assert gc.isenabled() is collector

    def test_restored_after_duplicate_id_in_third_document(self, collector):
        with pytest.raises(ValueError, match="duplicate document id: 'a'"):
            build_index([("a", "x"), ("b", "y"), ("a", "z")])
        assert gc.isenabled() is collector

    def test_restored_after_corpus_raises_part_way(self, collector):
        with pytest.raises(RuntimeError, match="corpus read failed"):
            build_index(failing_corpus())
        assert gc.isenabled() is collector


def test_conftest_guard_fails_a_test_that_leaves_the_collector_disabled(tmp_path):
    (tmp_path / "test_leak.py").write_text(
        "import gc\n"
        "def test_leaves_collector_disabled():\n"
        "    gc.disable()\n"
        "def test_runs_after_with_collector_enabled():\n"
        "    assert gc.isenabled()\n",
        encoding="utf-8",
    )
    tests_dir = Path(__file__).parent
    src_dir = Path(build_index.__code__.co_filename).parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), str(tmp_path / "test_leak.py")],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tests_dir), str(src_dir)])},
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "2 passed, 1 error" in result.stdout
    assert "left the cyclic garbage collector disabled" in result.stdout


class TestSingleton:
    def test_empty_index(self):
        index = build_index([])
        assert singleton(index, "anything").cardinality == 0

    def test_single_token_term(self, tiny_index):
        assert singleton(tiny_index, "alpha").doc_ids == frozenset({"D1", "D3"})

    def test_phrase_term(self, tiny_index):
        assert singleton(tiny_index, "alpha beta").doc_ids == frozenset({"D1"})

    def test_phrase_requires_contiguity(self):
        index = build_index([("D1", "alpha x beta")])
        assert singleton(index, "alpha beta").cardinality == 0

    def test_empty_documents_never_match(self):
        index = build_index([("D1", ""), ("D2", "alpha")])
        assert singleton(index, "alpha").doc_ids == frozenset({"D2"})

    def test_matches_brute_force_scan(self):
        rng = random.Random(23)
        from conftest import random_corpus, random_present_term

        for _ in range(50):
            corpus = random_corpus(rng)
            index = build_index(corpus)
            term_tokens = random_present_term(rng, corpus) or ["w0"]
            got = singleton(index, Term(tuple(term_tokens))).doc_ids
            assert got == brute_singleton(corpus, term_tokens)

    def test_identical_corpus_gives_identical_events(self):
        corpus = [("a", "x y z"), ("b", "y z x y")]
        first = singleton(build_index(corpus), "y z")
        second = singleton(build_index(list(corpus)), "y z")
        assert first == second


class TestDoubleton:
    def test_disjoint_terms(self):
        index = build_index([("D1", "left"), ("D2", "right")])
        assert doubleton(index, "left", "right").cardinality == 0

    def test_shared_document(self, tiny_index):
        assert doubleton(tiny_index, "alpha", "beta").doc_ids == frozenset({"D1"})

    def test_identical_terms_rejected(self, tiny_index):
        with pytest.raises(ValueError, match="distinct"):
            doubleton(tiny_index, "alpha", "alpha")

    @given(CORPORA)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, corpus):
        index = build_index(corpus)
        assert doubleton(index, "w0", "w1") == doubleton(index, "w1", "w0")

    @given(CORPORA)
    @settings(max_examples=60, deadline=None)
    def test_count_chain(self, corpus):
        index = build_index(corpus)
        x = singleton(index, "w0")
        y = singleton(index, "w1")
        both = doubleton(index, "w0", "w1")
        assert 0 <= both.cardinality <= min(x.cardinality, y.cardinality) <= len(index.documents)

    def test_matches_brute_force_intersection(self):
        rng = random.Random(37)
        from conftest import random_corpus

        for _ in range(30):
            corpus = random_corpus(rng)
            index = build_index(corpus)
            got = doubleton(index, "w0", "w1").doc_ids
            assert got == brute_doubleton(corpus, ["w0"], ["w1"])


@pytest.mark.parametrize("haystack", [(), ("a",), ("a", "b")])
def test_empty_needle_occurs_nowhere(haystack):
    assert engine.occurrence_positions(haystack, ()) == []


def test_phrases_with_repeated_and_absent_tokens_match_oracles():
    # Three words make repeated-token phrases (w0 w0, w0 w1 w0) common;
    # w9 never occurs, so some phrases hold an absent token.
    rng = random.Random(53)
    from conftest import random_corpus

    def phrase():
        return [rng.choice(("w0", "w1", "w2", "w0", "w1", "w2", "w9")) for _ in range(rng.randint(1, 4))]

    for _ in range(60):
        corpus = random_corpus(rng, max_tokens=40, alphabet=("w0", "w1", "w2"))
        index = build_index(corpus)
        for _ in range(8):
            tokens = phrase()
            term = Term(tuple(tokens))
            assert singleton(index, term).doc_ids == brute_singleton(corpus, tokens)
            window, limit = rng.randint(1, 4), rng.randint(1, 3)
            got = extract_snippets(index, term, window, limit)
            assert [(s.doc_id, list(s.words)) for s in got.snippets] == window_snippets(corpus, tokens, window, limit)
            # The phrase paired with one of its own tokens, and with another phrase.
            for other in ([rng.choice(tokens)], phrase()):
                if other != tokens:
                    got = doubleton(index, term, Term(tuple(other))).doc_ids
                    assert got == brute_doubleton(corpus, tokens, other)


def test_phrases_read_through_the_bitset_store_match_oracles():
    # Each term is asked on a fresh index, again on the same index, and after
    # over 1024 other tokens have been read: they empty the store and fill it to
    # one short of full, so the term's own reads empty it again part way.
    # The ids' sorted order is not their corpus order, and holds quotes and non-ASCII.
    rng = random.Random(61)
    from conftest import random_corpus

    awkward = ["z", 'q"', "a b", '"', "ß", "Ä", "日本", "d'1", "\\", "\u00e9", "0", "e\u0301"]
    others = [f"x{i}" for i in range(2047)]  # absent from every corpus

    def phrase():
        return [rng.choice(("w0", "w1", "w2", "w9")) for _ in range(rng.randint(1, 3))]

    for _ in range(30):
        texts = random_corpus(rng, alphabet=("w0", "w1", "w2"))
        ids = rng.sample(awkward, len(texts))
        if ids == sorted(ids):
            ids.reverse()
        corpus = [(doc_id, text) for doc_id, (_, text) in zip(ids, texts)]
        terms = [phrase() for _ in range(5)] + [["w0", "w0"], ["w2", "w9"]]
        for tokens in terms:
            term, other = Term(tuple(tokens)), rng.choice([t for t in terms if t != tokens])
            window, limit = rng.randint(1, 4), rng.randint(1, 3)
            index = build_index(corpus)
            for ask in ("fresh", "again", "after the store emptied"):
                if ask == "after the store emptied":
                    for tok in others[: 2047 - len(index._bitsets)]:
                        index.bitset(tok)
                    assert len(index._bitsets) == 1023 and not index._bitsets.keys() & {*tokens, *other}
                assert singleton(index, term).doc_ids == brute_singleton(corpus, tokens), ask
                got = doubleton(index, term, Term(tuple(other))).doc_ids
                assert got == brute_doubleton(corpus, tokens, other), ask
                got = [(s.doc_id, list(s.words)) for s in extract_snippets(index, term, window, limit).snippets]
                assert got == window_snippets(corpus, tokens, window, limit), ask


class TestEventSet:
    def test_index_built_and_hand_built_events_compare_and_hash_equal(self, tiny_index):
        built = singleton(tiny_index, "alpha")
        hand = EventSet(frozenset({"D1", "D3"}))
        assert built == hand and hand == built
        assert hash(built) == hash(hand) == hash(frozenset({"D1", "D3"}))
        assert built != EventSet(frozenset({"D1"}))
        assert doubleton(tiny_index, "alpha", "beta") == EventSet({"D1"})
        assert repr(hand) == repr(built) == f"EventSet(doc_ids={frozenset({'D1', 'D3'})!r})"
        assert (EventSet(["a"]) == 5) is False and (EventSet(["a"]) != "a") is True  # other types: NotImplemented

    def test_doc_ids_is_a_frozenset(self, tiny_index):
        for event in (singleton(tiny_index, "alpha"), singleton(tiny_index, "absent"), EventSet(["x"])):
            assert type(event.doc_ids) is frozenset
        assert EventSet(frozenset()).doc_ids == singleton(tiny_index, "absent").doc_ids == frozenset()

    def test_repeated_ids_are_counted_once(self):
        event = EventSet(["b", "a", "b", "a", "c"])
        assert event.cardinality == 3
        assert event.doc_ids == frozenset("abc")
        assert event == EventSet(iter("cab"))

    def test_events_of_two_indexes_compare_by_their_ids(self):
        small = build_index([("a", "rock"), ("b", "sun")])
        large = build_index([("x", "rock"), ("a", "rock"), ("b", "sun"), ("c", "")])
        shifted = build_index([("0", "rock"), ("a", "sun")])  # bit 0 is "0" here, "a" in small
        assert singleton(small, "sun") == singleton(large, "sun")
        assert singleton(small, "rock") != singleton(large, "rock")
        assert singleton(small, "rock").bits == singleton(shifted, "rock").bits
        assert singleton(small, "rock") != singleton(shifted, "rock")
        assert singleton(small, "absent") == singleton(large, "absent") == EventSet(())
        assert {singleton(small, "sun"), singleton(large, "sun")} == {EventSet({"b"})}

    def test_event_is_immutable(self, tiny_index):
        import dataclasses

        event = singleton(tiny_index, "alpha")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.bits = 0
        assert event.cardinality == 2

    def test_replace_takes_doc_ids_alone(self, tiny_index):
        import dataclasses

        event = singleton(tiny_index, "alpha")
        assert dataclasses.replace(event, doc_ids={"D2"}) == EventSet({"D2"})
        for name in ("table", "bits"):
            with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
                dataclasses.replace(event, **{name: 0})
        with pytest.raises(TypeError, match="doc_ids"):
            dataclasses.replace(event)

    def test_index_keeps_at_most_1024_token_bitsets(self):
        words = [f"w{i}" for i in range(1100)]
        index = build_index([("a", " ".join(words)), ("b", "w7 w1099")])
        for w in words + words[:50]:
            assert index.bitset(w) == (0b11 if w in ("w7", "w1099") else 0b01)
            assert len(index._bitsets) <= 1024
        assert index.bitset("absent") == 0
        assert singleton(index, "w1099").doc_ids == frozenset("ab")

    def test_threads_sharing_an_index_read_the_right_bitsets(self):
        import threading

        words = [f"w{i}" for i in range(1100)]
        index = build_index([("a", " ".join(words)), ("b", " ".join(words[::3]))])
        expected = {w: 0b11 if i % 3 == 0 else 0b01 for i, w in enumerate(words)}
        wrong: list[str] = []

        def reader(seed: int) -> None:
            for w in random.Random(seed).sample(words, len(words)):
                if index.bitset(w) != expected[w] or singleton(index, w).cardinality != expected[w].bit_count():
                    wrong.append(w)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(index._bitsets) <= 1024 + len(threads)  # a fill may land just after another thread's emptying

    @given(CORPORA, TERMS, TERMS)
    @settings(max_examples=150, deadline=None)
    def test_singletons_and_doubletons_of_phrases_match_oracles(self, corpus, x, y):
        index = build_index(corpus)
        sx, sy = singleton(index, Term(x)), singleton(index, Term(y))
        assert sx.doc_ids == brute_singleton(corpus, list(x))
        assert sx.cardinality == len(sx.doc_ids)
        if x != y:
            both = doubleton(index, Term(x), Term(y))
            assert both.doc_ids == brute_doubleton(corpus, list(x), list(y))
            assert both.cardinality == len(both.doc_ids)
        else:
            assert sx == sy


class TestBiasDigest:
    """Every biased count equals the reference draw over ``json.dumps`` of its settings and sorted ids."""

    IDS = ['say "hi"', "back\\slash", "caf\u00e9", "\u96e8", "lone \ud800", "tab\there", "plain", "a, b"]
    BIASES = [(mode, magnitude, seed) for mode in ("additive", "multiplicative") for magnitude in (0.5, 7.25) for seed in range(12)]

    def test_awkward_ids_draw_the_reference_count(self):
        rng = random.Random(409)
        for mode, magnitude, seed in self.BIASES:
            ids = rng.sample(self.IDS, rng.randint(1, len(self.IDS)))
            got = hit_count(EventSet(frozenset(ids)), BiasConfig(mode, magnitude, seed))
            assert got == biased_count(ids, mode, magnitude, seed)

    def test_empty_events_draw_the_reference_count(self):
        index = build_index([("d0", "rock")])
        for mode, magnitude, seed in self.BIASES:
            expected = biased_count([], mode, magnitude, seed)
            for event in (EventSet(frozenset()), singleton(index, "absent"), singleton(index, "rock rock")):
                assert hit_count(event, BiasConfig(mode, magnitude, seed)) == expected

    def test_index_built_and_hand_built_events_draw_alike(self):
        corpus = [(doc_id, "rock sun" if i % 3 else "sun") for i, doc_id in enumerate(self.IDS)]
        corpus += [(f"d{i:03d}", "rock rain") for i in range(40)]
        index = build_index(corpus)
        events = [singleton(index, "rock"), singleton(index, "sun rock"), doubleton(index, "rock", "sun")]
        for mode, magnitude, seed in self.BIASES:
            bias = BiasConfig(mode, magnitude, seed)
            for event in events:
                ids = sorted(event.doc_ids)
                expected = biased_count(ids, mode, magnitude, seed)
                assert hit_count(event, bias) == hit_count(EventSet(frozenset(ids)), bias) == expected


class TestCorpusLoaders:
    def test_txt_dir_uses_file_stems(self, tmp_path):
        from termspace import load_corpus_dir

        (tmp_path / "b.txt").write_text("beta", encoding="utf-8")
        (tmp_path / "a.txt").write_text("alpha", encoding="utf-8")
        (tmp_path / "ignored.md").write_text("nope", encoding="utf-8")
        assert load_corpus_dir(tmp_path) == [("a", "alpha"), ("b", "beta")]

    def test_missing_dir_rejected(self, tmp_path):
        from termspace import load_corpus_dir

        with pytest.raises(ValueError, match="not found"):
            load_corpus_dir(tmp_path / "nowhere")

    def test_jsonl_roundtrip(self, tmp_path):
        from termspace import load_corpus_jsonl

        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"id": "D1", "text": "alpha beta"}\n\n{"id": "D2", "text": "gamma"}\n',
            encoding="utf-8",
        )
        assert load_corpus_jsonl(path) == [("D1", "alpha beta"), ("D2", "gamma")]

    def test_jsonl_repeated_id_reports_both_lines(self, tmp_path):
        from termspace import load_corpus_jsonl

        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "D1", "text": "a"}\n{"id": "D1", "text": "b"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"docs.jsonl:2: duplicate document id 'D1' \(first on line 1\)"):
            load_corpus_jsonl(path)

    def test_unknown_format_rejected_by_name(self, tmp_path):
        from termspace import load_corpus

        with pytest.raises(ValueError, match="unknown corpus format: 'csv'"):
            load_corpus(tmp_path, "csv")

    def test_jsonl_malformed_line_reports_line_number(self, tmp_path):
        from termspace import load_corpus_jsonl

        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "D1", "text": "ok"}\n{broken\n', encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_corpus_jsonl(path)
        # The decoder's reason alone: its own position counts within the line, not the file.
        assert str(info.value) == f"{path}:2: invalid JSON: Expecting property name enclosed in double quotes"

    def test_jsonl_undecodable_line_reports_line_number(self, tmp_path):
        from termspace import load_corpus_jsonl

        # Past a text-mode reader's first buffer, whose offsets would not locate the byte.
        path = tmp_path / "docs.jsonl"
        path.write_bytes(b'{"id": "D1", "text": "ok"}\n' * 2000 + b'{"id": "D2", "text": "\xfe"}\n')
        with pytest.raises(ValueError, match="docs.jsonl:2001: corpus file is not UTF-8"):
            load_corpus_jsonl(path)

    def test_jsonl_missing_field_reports_line_number(self, tmp_path):
        from termspace import load_corpus_jsonl

        path = tmp_path / "docs.jsonl"
        for line in ('{"id": "D1"}', '{"text": "x"}', "3", "null", '"id text"'):
            path.write_text(line + "\n", encoding="utf-8")
            with pytest.raises(ValueError) as info:
                load_corpus_jsonl(path)
            assert str(info.value) == f'{path}:1: expected an object with "id" and "text"', line

    # ``\r\n`` and a lone ``\r`` end a line, as in a text-mode read; U+2028 and
    # U+0085, which ``str.splitlines`` would also split at, stay inside a record.
    MIXED_ENDINGS = (
        b'{"id": "D1", "text": "alpha\xe2\x80\xa8beta\xc2\x85gamma"}\r\n'
        b"\r\n"
        b" \t \r\n"
        b'{"id": "D2", "text": "delta"}\r'
        b"\xe2\x80\xa8\n"
        b'{"id": "D\xc2\x853", "text": "epsilon"}\n'
    )

    def test_jsonl_line_endings_and_unicode_separators(self, tmp_path):
        from termspace import load_corpus_jsonl

        path = tmp_path / "docs.jsonl"
        path.write_bytes(self.MIXED_ENDINGS)
        assert load_corpus_jsonl(path) == [
            ("D1", "alpha\u2028beta\x85gamma"),
            ("D2", "delta"),
            ("D\x853", "epsilon"),
        ]

    def test_jsonl_malformed_line_after_mixed_endings_reports_line_number(self, tmp_path):
        from termspace import load_corpus_jsonl

        path = tmp_path / "docs.jsonl"
        path.write_bytes(self.MIXED_ENDINGS + b"\r{broken\r\n")
        with pytest.raises(ValueError, match=r"docs\.jsonl:8: invalid JSON: "):
            load_corpus_jsonl(path)

    def test_txt_dir_reads_crlf_and_lone_cr_as_newlines(self, tmp_path):
        from termspace import load_corpus_dir

        (tmp_path / "a.txt").write_bytes(b"one two\r\nthree\rfour\xe2\x80\xa8five\r\n")
        assert load_corpus_dir(tmp_path) == [("a", "one two\nthree\nfour\u2028five\n")]

    @pytest.mark.parametrize("key", ["id", "text"])
    @pytest.mark.parametrize("value", [None, 7, True, ["rock"], {"rock": "trail"}])
    def test_jsonl_value_that_is_not_a_string_rejected_by_line_and_key(self, tmp_path, key, value):
        from termspace import load_corpus_jsonl

        path = tmp_path / "docs.jsonl"
        record = {"id": "D2", "text": "rock", key: value}
        path.write_text('{"id": "D1", "text": "ok"}\n' + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_corpus_jsonl(path)
        assert str(info.value) == f'{path}:2: "{key}" must be a string, got {json.dumps(value)}'

    def test_jsonl_undecodable_byte_after_a_leading_newline_reports_line_two(self, tmp_path):
        from termspace import load_corpus_jsonl

        path = tmp_path / "docs.jsonl"
        path.write_bytes(b"\n\xff")
        with pytest.raises(ValueError) as info:
            load_corpus_jsonl(path)
        assert str(info.value) == f"{path}:2: corpus file is not UTF-8 (invalid start byte at byte 1)"

    def test_txt_undecodable_byte_past_first_buffer_reports_line_number(self, tmp_path):
        from termspace import load_corpus_dir

        path = tmp_path / "bad.txt"
        path.write_bytes(b"rock gravel\n" * 1000 + b"trail \xff\n")
        message = f"{path}:1001: corpus file is not UTF-8 (invalid start byte at byte 12006)"
        with pytest.raises(ValueError) as info:
            load_corpus_dir(tmp_path)
        assert str(info.value) == message


class TestHitCount:
    def test_empty_event_passthrough(self):
        assert hit_count(EventSet(frozenset())) == 0

    def test_exact_cardinality_passthrough(self):
        event = EventSet(frozenset({"a", "b", "c", "d", "e"}))
        assert hit_count(event, BiasConfig(mode="none")) == 5
        count = hit_count(event, BiasConfig("none", 5.0))  # "none" ignores its magnitude
        assert type(count) is int and count == 5

    def test_additive_range_and_reproducibility(self):
        event = EventSet(frozenset({"a", "b", "c", "d", "e"}))
        bias = BiasConfig(mode="additive", magnitude=2, seed=99)
        first = hit_count(event, bias)
        assert 5 <= first <= 7
        assert hit_count(event, bias) == first

    def test_multiplicative_floor_and_reproducibility(self):
        event = EventSet(frozenset({"a"}))
        bias = BiasConfig(mode="multiplicative", magnitude=5, seed=1)
        values = {hit_count(event, BiasConfig(mode="multiplicative", magnitude=5, seed=s)) for s in range(40)}
        assert all(v >= 0 for v in values)
        assert hit_count(event, bias) == hit_count(event, bias)

    def test_seed_changes_additive_draw(self):
        event = EventSet(frozenset({"a", "b", "c"}))
        draws = {
            hit_count(event, BiasConfig(mode="additive", magnitude=10, seed=s))
            for s in range(25)
        }
        assert len(draws) > 1

    def test_default_seed_is_zero_and_draws_as_seed_zero(self):
        event = EventSet(frozenset({"a", "b", "c"}))
        assert BiasConfig().seed == 0
        assert BiasConfig() == BiasConfig(seed=0)
        draws = [hit_count(event, BiasConfig("additive", 1000, seed)) for seed in (0, 1)]
        assert draws[0] != draws[1]  # so a default seed other than 0 would draw otherwise
        assert hit_count(event, BiasConfig("additive", 1000)) == draws[0]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            BiasConfig(mode="wild")

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            BiasConfig(mode="additive", magnitude=-1)

    @pytest.mark.parametrize("magnitude", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("mode", ["none", "additive", "multiplicative"])
    def test_non_finite_magnitude_rejected_by_value(self, mode, magnitude):
        with pytest.raises(ValueError, match=f"finite, got {magnitude!r}"):
            BiasConfig(mode=mode, magnitude=magnitude)

    @pytest.mark.parametrize("mode", ["none", "additive", "multiplicative"])
    def test_zero_magnitude_returns_exact_int_count(self, mode):
        event = EventSet(frozenset({"a", "b"}))
        for seed in range(5):
            count = hit_count(event, BiasConfig(mode=mode, magnitude=0, seed=seed))
            assert type(count) is int
            assert count == 2

    # Each pair compares equal, so each must draw the same count.
    @pytest.mark.parametrize(
        "first, second",
        [((1, 3), (1.0, 3)), ((0.5, True), (0.5, 1)), ((Fraction(1, 2), 1), (0.5, 1))],
        ids=["int-magnitude", "bool-seed", "fraction-magnitude"],
    )
    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_equal_configs_draw_equal_counts(self, mode, first, second):
        event = singleton(build_index([(f"d{i}", "a b c" if i % 2 else "a") for i in range(50)]), "a")
        biases = [BiasConfig(mode, magnitude, seed) for magnitude, seed in (first, second)]
        assert biases[0] == biases[1]
        assert hit_count(event, biases[0]) == hit_count(event, biases[1])
        assert (type(biases[0].magnitude), type(biases[0].seed)) == (float, int)

    @pytest.mark.parametrize(
        "magnitude", ["abc", None, 10**400, Fraction(10**400)], ids=["text", "none", "huge-int", "huge-fraction"]
    )
    def test_magnitude_that_is_not_a_float_rejected_naming_it(self, magnitude):
        with pytest.raises(ValueError, match="^bias magnitude must be "):
            BiasConfig("additive", magnitude)

    def test_overflowing_multiplicative_count_rejected_by_magnitude(self):
        event = EventSet(frozenset(f"d{i}" for i in range(50)))
        for seed in range(5):
            with pytest.raises(ValueError, match="bias magnitude 1e\\+308 overflows"):
                hit_count(event, BiasConfig(mode="multiplicative", magnitude=1e308, seed=seed))
