"""Seeded synthetic corpora and op lists for the benchmark workloads.

Every corpus draws its tokens from a Zipf(1.0) law over a vocabulary
whose word names are shuffled by the seed, so the word of a given
frequency rank changes from seed to seed while the shape of the
frequency curve does not. Query and snippet terms are taken at fixed
ranks for the same reason: a seed changes which word answers a query,
not how much work the query does, which keeps run-to-run spread small.
Nothing here imports ``termspace``.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# Per workload and scale: corpus shape plus the workload's own settings.
SCALES = {
    "full": {
        "pipeline-zipf": {"docs": 300, "tokens": 200, "vocab": 300, "plants": [20, 30, 45, 65, 90]},
        "query-mix": {"docs": 5000, "tokens": 200, "vocab": 5000},
        "ingest-snippets": {"docs": 12000, "tokens": 100, "vocab": 20000},
    },
    "tiny": {
        "pipeline-zipf": {"docs": 40, "tokens": 40, "vocab": 60, "plants": [4, 8]},
        "query-mix": {"docs": 80, "tokens": 40, "vocab": 200},
        "ingest-snippets": {"docs": 120, "tokens": 30, "vocab": 400},
    },
}

WORKLOADS = tuple(SCALES["full"])

# Five terms of rising document frequency make the costliest one a fifth
# of the ops, so the 90th-percentile op is that term's median run, not a
# point in the tail of its runs.
PLANTED_TERMS = ("pivot", "anchor", "harbor", "beacon", "summit")
PLANTS_PER_DOC = 3
WINDOW = 10
PER_DOC_LIMIT = 3
PIPELINE_ALPHA = "0.3"

# Frequency ranks the terms are taken from. They are fixed, so a seed
# changes which word has a rank but not how often it occurs, and every
# seed gives the same work; ranks past the vocabulary are clipped.
QUERY_RANKS = (0, 1, 2, 3, 5, 8, 12, 20, 30, 50, 80, 120, 200, 300, 500, 800, 1200, 2000, 3000, 4500)
PHRASE_RANKS = (0, 1, 2, 3, 4, 6, 8, 11, 15, 20, 30, 45, 70, 100, 150, 220, 330, 500, 750, 1100)
FOLLOWER_RANKS = (0, 3, 10, 30, 100)
# Five neighbouring ranks sit in the middle of the snippet list, so the
# median snippet op is one of many ops of about the same cost.
SNIPPET_RANKS = (2, 4, 10, 20, 35, 100, 200, 300, 320, 340, 360, 380, 1000, 2000, 5000, 12000, 18000)
# Indices into SNIPPET_RANKS whose answers the oracle re-checks: head to tail.
SNIPPET_SAMPLE = (1, 4, 9, 13, 16)

# A query-mix op is what the `termspace query` command (``cli.cmd_query``)
# computes once its index is loaded. One term: ``hit_count(singleton(t))``.
# Two terms: ``doubleton(a, b)`` and the ``hit_count`` of ``singleton(a)``,
# ``singleton(b)`` and the doubleton, all under one bias setting.
# The shares are an assumption, not a measured traffic mix (there is no
# query log to take one from). The command's two forms get equal shares.
# A one-term query is a word or a corpus bigram, in equal shares. A
# two-term query is a word pair, the relation the word graph weighs. The
# bias modes take turns. A round asks every word of QUERY_RANKS and every
# phrase of PHRASE_RANKS once as a one-term query, and every pair of words
# PAIR_STEPS apart in QUERY_RANKS once, so no term of a kind is asked more
# often than another.
PAIR_STEPS = (1, 7)
QUERY_KINDS = ("word", "phrase", "pair")
BIASES = (("none", 0.0), ("additive", 5.0), ("multiplicative", 0.2))
ORACLE_SAMPLES_PER_KIND = 2


def zipf_docs(rng: random.Random, n_docs: int, n_tokens: int, vocab: int):
    """Return ``(ranked_words, token_lists)``; ``ranked_words[r]`` has rank ``r``."""
    width = len(str(vocab - 1))
    ranked = [f"w{i:0{width}d}" for i in range(vocab)]
    rng.shuffle(ranked)
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(vocab)))
    docs = [rng.choices(ranked, cum_weights=cum, k=n_tokens) for _ in range(n_docs)]
    return ranked, docs


def _word(ranked: list[str], rank: int) -> str:
    return ranked[min(rank, len(ranked) - 1)]


def _bigrams(docs: list[list[str]], ranked: list[str], first_ranks, second_ranks) -> list[str]:
    """Two-word phrases that occur in the corpus, one per entry of ``first_ranks``.

    The first word has the given rank. Of the words that follow it
    somewhere in the corpus, the second is the one whose rank is nearest
    the matching entry of ``second_ranks``. A first word that is never
    followed by anything is replaced by the word of the next lower rank.
    """
    rank_of = {w: r for r, w in enumerate(ranked)}
    followers: dict[str, set[str]] = {_word(ranked, r): set() for r in range(max(first_ranks) + 1)}
    for tokens in docs:
        for a, b in zip(tokens, tokens[1:]):
            if a in followers:
                followers[a].add(b)
    phrases = []
    for r, target in zip(first_ranks, second_ranks):
        r = min(r, len(ranked) - 1)
        while not followers[ranked[r]]:
            r -= 1
        second = min(followers[ranked[r]], key=lambda w: (abs(rank_of[w] - target), rank_of[w]))
        phrases.append(f"{ranked[r]} {second}")
    return phrases


def _doc_id(i: int) -> str:
    return f"d{i:05d}"


def pipeline_spec(rng: random.Random, shape: dict) -> tuple[list[list[str]], dict]:
    _, docs = zipf_docs(rng, shape["docs"], shape["tokens"], shape["vocab"])
    terms = []
    planted: dict[int, set[int]] = {}
    for term, df in zip(PLANTED_TERMS, shape["plants"]):
        for d in rng.sample(range(len(docs)), df):
            taken = planted.setdefault(d, set())
            free = [pos for pos in range(len(docs[d])) if pos not in taken]
            for pos in rng.sample(free, PLANTS_PER_DOC):
                docs[d][pos] = term
                taken.add(pos)
        terms.append({"term": term, "snippets": df * PLANTS_PER_DOC})
    return docs, {"pipeline": {"terms": terms, "window": WINDOW, "limit": PER_DOC_LIMIT, "alpha": PIPELINE_ALPHA}}


def query_spec(rng: random.Random, shape: dict) -> tuple[list[list[str]], dict]:
    ranked, docs = zipf_docs(rng, shape["docs"], shape["tokens"], shape["vocab"])
    words = [_word(ranked, r) for r in QUERY_RANKS]
    phrases = _bigrams(docs, ranked, PHRASE_RANKS, itertools.cycle(FOLLOWER_RANKS))
    terms = [("word", [w]) for w in words] + [("phrase", [p]) for p in phrases]
    for step in PAIR_STEPS:
        for k, word in enumerate(words):
            other = words[(k + step) % len(words)]
            if other == word:  # only where ranks were clipped to a small vocabulary
                other = ranked[0] if word != ranked[0] else ranked[1]
            terms.append(("pair", [word, other]))
    queries = []
    for j, (kind, query_terms) in enumerate(terms):
        mode, magnitude = BIASES[j % len(BIASES)]
        bias = {"mode": mode, "magnitude": magnitude, "seed": rng.randrange(1000)}
        queries.append({"kind": kind, "terms": query_terms, "bias": bias})
    rng.shuffle(queries)
    sample: list[int] = []
    for kind in QUERY_KINDS:
        sample += [i for i, q in enumerate(queries) if q["kind"] == kind][:ORACLE_SAMPLES_PER_KIND]
    return docs, {"queries": queries, "sample": sorted(sample)}


def ingest_spec(rng: random.Random, shape: dict) -> tuple[list[list[str]], dict]:
    ranked, docs = zipf_docs(rng, shape["docs"], shape["tokens"], shape["vocab"])
    terms = list(dict.fromkeys(_word(ranked, r) for r in SNIPPET_RANKS))
    sample = sorted({min(i, len(terms) - 1) for i in SNIPPET_SAMPLE})
    return docs, {"snippets": {"terms": terms, "window": WINDOW, "limit": PER_DOC_LIMIT}, "sample": sample}


BUILDERS = {"pipeline-zipf": pipeline_spec, "query-mix": query_spec, "ingest-snippets": ingest_spec}


def generate(workload: str, seed: int, scale: str, path: Path) -> tuple[list[tuple[str, str]], dict]:
    """Write the workload's corpus as JSON lines to ``path``.

    Returns the ``(doc_id, text)`` pairs written and the workload's part
    of the spec: its op list under ``pipeline``, ``queries`` or
    ``snippets``, and the op indices the oracle re-checks under ``sample``.
    The same seed gives the same bytes.
    """
    rng = random.Random(f"{workload}:{seed}")
    docs, spec = BUILDERS[workload](rng, SCALES[scale][workload])
    pairs = [(_doc_id(i), " ".join(tokens)) for i, tokens in enumerate(docs)]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for doc_id, text in pairs:
            fh.write(json.dumps({"id": doc_id, "text": text}) + "\n")
    return pairs, spec
