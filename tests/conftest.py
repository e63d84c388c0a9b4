"""Shared fixtures and corpus generators."""

from __future__ import annotations

import gc
import random

import pytest

from termspace import build_index

ALPHABET = tuple(f"w{i}" for i in range(8))


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test after which the cyclic garbage collector is disabled, and re-enable it.

    Later tests would still pass with it disabled, only slower, so a leak
    would otherwise go unnoticed.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


def random_corpus(rng: random.Random, max_docs=10, max_tokens=30, alphabet=ALPHABET, min_docs=1):
    """Synthetic (doc_id, text) pairs over a small closed vocabulary."""
    n_docs = rng.randint(min_docs, max_docs)
    corpus = []
    for i in range(n_docs):
        n_tokens = rng.randint(0, max_tokens)
        corpus.append((f"d{i:03d}", " ".join(rng.choice(alphabet) for _ in range(n_tokens))))
    return corpus


def random_present_term(rng: random.Random, corpus, max_len=2):
    """Token list of a term that occurs somewhere in the corpus, or None."""
    token_lists = [text.split() for _, text in corpus if text.split()]
    if not token_lists:
        return None
    tokens = rng.choice(token_lists)
    start = rng.randrange(len(tokens))
    length = rng.randint(1, max_len)
    return tokens[start : start + length] or None


@pytest.fixture
def tiny_corpus():
    return [("D1", "alpha beta"), ("D2", "beta gamma"), ("D3", "alpha")]


@pytest.fixture
def tiny_index(tiny_corpus):
    return build_index(tiny_corpus)
