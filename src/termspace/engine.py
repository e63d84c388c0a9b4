"""Deterministic in-memory search engine over a local document corpus.

Provides tokenization, index construction, and the two event-space queries
the rest of the library is built on: the set of documents matching one
term (singleton) and the set matching two distinct terms (doubleton).
Hit counts are exact by default; an optional bias configuration injects a
seeded, reproducible perturbation to mimic the unreliable counts reported
by real search engines.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

BIAS_MODES = ("none", "additive", "multiplicative")

# A run of characters for which ``str.isalnum`` holds: in a ``str``
# pattern ``\w`` is exactly ``isalnum`` plus the underscore, which the
# class removes again.
_TOKEN = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it on runs of non-alphanumeric characters.

    A token is a maximal run of characters of the lowercased text for
    which ``str.isalnum`` is true; the regular expression agrees with
    ``str.isalnum`` on every code point. Empty tokens are dropped and
    order is preserved. The empty string yields an empty list.
    """
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Term:
    """An ordered word pattern used as a query.

    ``tokens`` is the word sequence. Matching is positional: a document
    matches when the tokens appear as a contiguous subsequence.
    Every token must be a fixed point of :func:`tokenize` (one lowercase
    alphanumeric word), since no other token can occur in an index.
    """

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("a term needs at least one token")
        for tok in self.tokens:
            if not tok or any(ch.isspace() for ch in tok):
                raise ValueError(f"invalid term token: {tok!r}")
            if tok != tok.lower():
                raise ValueError(f"term tokens must be lowercase: {tok!r}")
            # For a lowercase token this is ``tokenize(tok) == [tok]``.
            if not _TOKEN.fullmatch(tok):
                raise ValueError(f"term tokens must be single alphanumeric words: {tok!r}")

    @classmethod
    def parse(cls, text: str) -> "Term":
        """Build a term by tokenizing ``text``."""
        return cls(tuple(tokenize(text)))

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class Document:
    """One indexed page: a unique id and its token sequence (may be empty)."""

    id: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Index:
    """Immutable inverted index: the document universe plus positional postings.

    ``postings`` maps each token to the documents containing it and the
    positions at which it occurs. Built once by :func:`build_index`; all
    queries are read-only, so an index is safe to share across threads.
    """

    documents: Mapping[str, Document]
    postings: Mapping[str, Mapping[str, tuple[int, ...]]]

    @property
    def universe_size(self) -> int:
        return len(self.documents)

    @property
    def total_tokens(self) -> int:
        return sum(len(doc.tokens) for doc in self.documents.values())


@dataclass(frozen=True)
class EventSet:
    """A query result: a subset of the indexed document ids."""

    doc_ids: frozenset[str]

    @property
    def cardinality(self) -> int:
        return len(self.doc_ids)


@dataclass(frozen=True)
class BiasConfig:
    """Optional perturbation applied to hit counts.

    ``none`` passes counts through unchanged. ``additive`` adds
    ``round(magnitude * u)`` with ``u`` uniform in [0, 1]; ``multiplicative``
    scales by ``1 + magnitude * u`` with ``u`` uniform in [-1, 1], floored
    at zero. A zero magnitude leaves counts exact in every mode, and the
    magnitude must be finite. The draw is a pure function of (seed, mode,
    magnitude, event), so identical inputs always produce identical outputs.
    """

    mode: str = "none"
    magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in BIAS_MODES:
            raise ValueError(f"bias mode must be one of {BIAS_MODES}, got {self.mode!r}")
        if not math.isfinite(self.magnitude):
            raise ValueError(f"bias magnitude must be finite, got {self.magnitude!r}")
        if self.magnitude < 0:
            raise ValueError("bias magnitude must be non-negative")


def build_index(corpus: Iterable[tuple[str, str]]) -> Index:
    """Index a corpus of ``(id, raw text)`` pairs.

    Ids must be unique; a duplicate is rejected by name. Documents are
    tokenized with :func:`tokenize` and postings record every occurrence
    position.
    """
    documents: dict[str, Document] = {}
    postings: dict[str, dict[str, list[int]]] = {}
    for doc_id, text in corpus:
        if doc_id in documents:
            raise ValueError(f"duplicate document id: {doc_id!r}")
        tokens = tuple(tokenize(text))
        documents[doc_id] = Document(doc_id, tokens)
        for pos, tok in enumerate(tokens):
            postings.setdefault(tok, {}).setdefault(doc_id, []).append(pos)
    frozen = {
        tok: {doc_id: tuple(positions) for doc_id, positions in docs.items()}
        for tok, docs in postings.items()
    }
    return Index(documents=documents, postings=frozen)


def occurrence_positions(haystack: Sequence[str], needle: Sequence[str]) -> list[int]:
    """Start positions of ``needle`` as a contiguous subsequence of ``haystack``."""
    n, m = len(haystack), len(needle)
    if m == 0 or m > n:
        return []
    target = tuple(needle)
    return [i for i in range(n - m + 1) if tuple(haystack[i : i + m]) == target]


def contains_phrase(haystack: Sequence[str], needle: Sequence[str]) -> bool:
    """True when ``needle`` occurs contiguously inside ``haystack``."""
    return bool(occurrence_positions(haystack, needle))


def _coerce_term(term: Term | str) -> Term:
    return term if isinstance(term, Term) else Term.parse(term)


def _phrase_starts(postings: Sequence[Mapping[str, tuple[int, ...]]], doc_id: str) -> set[int]:
    """Positions ``s`` in ``doc_id`` with token ``k`` of ``postings`` at ``s + k``, for every ``k``."""
    starts = set(postings[0][doc_id])
    for k in range(1, len(postings)):
        starts.intersection_update(map(k.__rsub__, postings[k][doc_id]))
    return starts


def singleton(index: Index, term: Term | str) -> EventSet:
    """Documents containing ``term`` as a contiguous phrase.

    A phrase matches where every token occurs with the positions lined up
    (a positional intersect). A term absent everywhere yields an empty set.
    """
    t = _coerce_term(term)
    postings = [index.postings.get(tok) for tok in t.tokens]
    if None in postings:
        return EventSet(frozenset())
    if len(postings) == 1:
        return EventSet(frozenset(postings[0]))
    candidates = postings[0].keys() & postings[1].keys()
    for docs in postings[2:]:
        candidates &= docs.keys()
    *head, last = postings
    shift = len(head).__rsub__
    # ``isdisjoint`` stops at the first aligned position of the last token.
    hits = [d for d in candidates if not _phrase_starts(head, d).isdisjoint(map(shift, last[d]))]
    return EventSet(frozenset(hits))


def doubleton(index: Index, tx: Term | str, ty: Term | str) -> EventSet:
    """Documents containing both of two distinct terms.

    The terms must differ as token sequences; an identical pair is rejected.
    """
    a, b = _coerce_term(tx), _coerce_term(ty)
    if a.tokens == b.tokens:
        raise ValueError(f"doubleton requires two distinct terms, got {a.text!r} twice")
    return EventSet(singleton(index, a).doc_ids & singleton(index, b).doc_ids)


def _seeded_uniform(bias: BiasConfig, doc_ids: Iterable[str], lo: float, hi: float) -> float:
    # Stable digest over the full input so repeated calls agree across runs
    # and platforms regardless of hash randomization.
    payload = json.dumps(
        {
            "mode": bias.mode,
            "magnitude": bias.magnitude,
            "seed": bias.seed,
            "docs": sorted(doc_ids),
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return lo + (hi - lo) * rng.random()


def hit_count(event: EventSet, bias: BiasConfig | None = None) -> int | float:
    """Report the size of an event, optionally perturbed per ``bias``.

    A multiplicative perturbation that leaves the float range is rejected
    with a ``ValueError`` naming the magnitude, never returned as ``inf``.
    """
    count = event.cardinality
    if bias is None or bias.mode == "none" or bias.magnitude == 0:
        return count
    if bias.mode == "additive":
        return count + round(bias.magnitude * _seeded_uniform(bias, event.doc_ids, 0.0, 1.0))
    noisy = count * (1.0 + bias.magnitude * _seeded_uniform(bias, event.doc_ids, -1.0, 1.0))
    if not math.isfinite(noisy):
        raise ValueError(f"bias magnitude {bias.magnitude!r} overflows the perturbed count")
    return max(0.0, noisy)


def _read_text(path: Path) -> str:
    """A corpus file's UTF-8 text, with ``\\r\\n`` and ``\\r`` read as ``\\n`` as text mode reads them.

    A file that is not UTF-8 is rejected by name and by the line of its first bad byte.
    """
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: corpus file is not UTF-8 ({exc.reason} at byte {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_corpus_dir(path: str | Path) -> list[tuple[str, str]]:
    """Read a corpus from a directory of UTF-8 ``.txt`` files.

    The file stem becomes the document id. Files are taken in sorted name
    order so the resulting index is a pure function of the directory
    contents. A file that is not UTF-8 is rejected by name and line.
    """
    p = Path(path)
    if not p.is_dir():
        raise ValueError(f"corpus directory not found: {p}")
    return [(f.stem, _read_text(f)) for f in sorted(p.glob("*.txt"))]


def load_corpus_jsonl(path: str | Path) -> list[tuple[str, str]]:
    """Read a corpus from a JSON-lines file of ``{"id": ..., "text": ...}`` objects.

    Both values must be JSON strings. Blank lines are skipped. A line that
    is malformed, too deeply nested or not UTF-8 is rejected with its line number.
    """
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"corpus file not found: {p}")
    pairs: list[tuple[str, str]] = []
    # Not ``splitlines``: it also splits at U+2028, U+0085 and more, which a JSON string may hold raw.
    for lineno, line in enumerate(_read_text(p).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too deep a nesting, or too many digits in a number
            reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            raise ValueError(f"{p}:{lineno}: invalid JSON: {reason}") from exc
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise ValueError(f'{p}:{lineno}: expected an object with "id" and "text"')
        for key in ("id", "text"):
            if type(obj[key]) is not str:
                raise ValueError(f'{p}:{lineno}: "{key}" must be a string, got {json.dumps(obj[key])}')
        pairs.append((obj["id"], obj["text"]))
    return pairs


def load_corpus(path: str | Path, corpus_format: str) -> list[tuple[str, str]]:
    """Dispatch to the txt-directory or JSON-lines loader."""
    if corpus_format == "txt_dir":
        return load_corpus_dir(path)
    if corpus_format == "jsonl":
        return load_corpus_jsonl(path)
    raise ValueError(f"unknown corpus format: {corpus_format!r}")
