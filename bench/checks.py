"""Oracle checks of the answers a workload process sampled.

The references are the repository's own brute-force oracles in
``tests/oracles.py``, which recompute every answer from the raw corpus
text without importing ``termspace``. A sampled answer that disagrees
fails every execution of that op that returned the same answer.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
from pathlib import Path


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    # The oracles re-tokenize the whole corpus on every call. Memoizing
    # their own tokenizer keeps each check to one pass over the text; the
    # cached lists are only read, never mutated, by the oracle functions.
    oracles.scan_tokenize = functools.lru_cache(maxsize=None)(oracles.scan_tokenize)
    return oracles


def _count_ok(got, exact: int, bias: dict) -> bool:
    mode, magnitude = bias["mode"], bias["magnitude"]
    if mode == "none":
        return got == exact
    if mode == "additive":
        return isinstance(got, int) and exact <= got <= exact + math.ceil(magnitude)
    return got >= 0 and abs(got - exact) <= exact * magnitude * (1 + 1e-12)


def query_mismatches(oracles, corpus, spec: dict, answers: dict) -> list[tuple[int, str]]:
    out = []
    for key, got in answers.items():
        i = int(key)
        q = spec["queries"][i]
        tokens = [oracles.scan_tokenize(t) for t in q["terms"]]
        expected = [oracles.brute_singleton(corpus, t) for t in tokens]
        if len(tokens) == 2:
            expected.append(oracles.brute_doubleton(corpus, tokens[0], tokens[1]))
        ok = got["events"] == [sorted(e) for e in expected] and len(got["counts"]) == len(expected)
        ok = ok and all(_count_ok(c, len(e), q["bias"]) for c, e in zip(got["counts"], expected))
        if not ok:
            out.append((i, f"{q['kind']} {q['terms']}: answer disagrees with the oracle"))
    return out


def snippet_mismatches(oracles, corpus, spec: dict, answers: dict) -> list[tuple[int, str]]:
    s = spec["snippets"]
    out = []
    for key, text in answers.items():
        i = int(key)
        term = s["terms"][i]
        got = json.loads(text)
        expected = oracles.window_snippets(corpus, oracles.scan_tokenize(term), s["window"], s["limit"])
        windows = [(item["doc_id"], item["words"]) for item in got["snippets"]]
        if got["term"] != term or windows != expected:
            out.append((i, f"snippets {term!r}: windows disagree with the oracle"))
    return out


CHECKS = {"query-mix": query_mismatches, "ingest-snippets": snippet_mismatches}


def oracle_failures(root: Path, workload: str, corpus, spec: dict, result: dict) -> tuple[int, list[str]]:
    """Failed op count and messages from re-checking the sampled answers."""
    check = CHECKS.get(workload)
    if check is None:
        return 0, []
    mismatches = check(load_oracles(root), corpus, spec, result["answers"])
    failed = sum(result["same_as_first"].get(str(i), 0) for i, _ in mismatches)
    return failed, [message for _, message in mismatches]
