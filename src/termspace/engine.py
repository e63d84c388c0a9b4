"""Deterministic in-memory search engine over a local document corpus.

Provides tokenization, index construction, and the two event-space queries
the rest of the library is built on: the set of documents matching one
term (singleton) and the set matching two distinct terms (doubleton).
An event is a bitset over the sorted document ids: a term's is the AND of its
tokens' bitsets, narrowed for a phrase by a shift-and of position masks; a
doubleton is one ``&``, a count one ``bit_count``. Hit counts are exact by
default; an optional bias configuration injects a seeded, reproducible
perturbation to mimic the unreliable counts reported by real search engines.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress
from operator import and_
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

BIAS_MODES = ("none", "additive", "multiplicative")

# A run of characters for which ``str.isalnum`` holds: in a ``str``
# pattern ``\w`` is exactly ``isalnum`` plus the underscore, which the
# class removes again.
_TOKEN = re.compile(r"[^\W_]+")
_ASCII_SPLIT = {c: " " for c in range(128) if not chr(c).isalnum()}  # ASCII separators to spaces, for ``str.translate``
_BITS = bytes.maketrans(b"01", b"\0\1")  # ``bin`` digits as selectors for ``compress``
_OR_IN_PLACE = 1 << 14  # document length past which byte rows build masks faster than ORs (English text)
_SHARED_BITS = tuple(1 << p for p in range(1024))  # one-position masks, 105 KB: n of them hold n**2 / 16 bytes of bits


def _select(items: Sequence, bits: int) -> Iterator:  # items[i] for each set bit i of bits, lowest first
    return compress(items, bin(bits)[:1:-1].encode().translate(_BITS))


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it on runs of non-alphanumeric characters.

    A token is a maximal run of characters for which ``str.isalnum`` holds.
    ASCII text is split by one ``str.translate`` and ``str.split``, 3x as
    fast (``BENCH_27.json``), other text by a regular expression that agrees
    with ``str.isalnum`` on every code point; both give the same tokens. Empty
    tokens are dropped, order is kept, and the empty string yields no token.
    """
    text = text.lower()
    return text.translate(_ASCII_SPLIT).split() if text.isascii() else _TOKEN.findall(text)


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
            if tokenize(tok) != [tok]:
                raise ValueError(f"term tokens must be single lowercase alphanumeric words: {tok!r}")

    @classmethod
    def parse(cls, text: str) -> "Term":
        """Build a term by tokenizing ``text``."""
        return cls(tuple(tokenize(text)))

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


class _IdTable(tuple):
    """Document ids in sorted order; each id's place and ``json.dumps`` text are made when first read."""

    @cached_property
    def place(self) -> dict[str, int]:
        return dict(zip(self, range(len(self))))

    @cached_property
    def texts(self) -> tuple[str, ...]:
        return tuple(map(json.dumps, self))

    def bits(self, ids: Iterable[str]) -> int:  # bit i for each self[i] in ids
        # One "0"/"1" digit per id read as one base-2 int: linear, where a sum of 1 << i grows per id.
        mask = bytearray(b"0") * len(self)
        for i in map(self.place.__getitem__, ids):
            mask[i] = 49  # b"1"
        return int(mask[::-1] or b"0", 2)


@dataclass(frozen=True)
class Index:
    """Immutable inverted index: the document universe plus postings.

    ``documents`` maps each document id to its tokens (maybe none), and
    ``postings`` each token to the ids of the documents holding it, in corpus
    order. The sorted ``table`` of ids, each token's :meth:`bitset` over it,
    each token's :meth:`masks` and a document's masks, which exist only for
    the documents read, are made when first read and kept. Each is stored
    once complete, every fill stores the same value and no mask changes once
    made, so an index is safe to share across threads.
    """

    documents: Mapping[str, tuple[str, ...]]
    postings: Mapping[str, tuple[str, ...]]
    _bitsets: dict[str, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _masks: dict[str, dict[str, int]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _doc_masks: dict[str, dict[str, int]] = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def table(self) -> _IdTable:
        return _IdTable(sorted(self.documents))

    def bitset(self, token: str) -> int:
        """The documents holding ``token`` as a bitset over ``table`` (0 if none); up to 1024 tokens' are kept,
        words' and phrase tokens' alike: a phrase's candidates are the AND of its tokens' bitsets."""
        bits = self._bitsets.get(token)
        if bits is None:  # a warm token is one dict read (BENCH_20.json store_reuse)
            if len(self._bitsets) >= 1024:
                self._bitsets.clear()
            bits = self._bitsets[token] = self.table.bits(self.postings.get(token, ()))
        return bits

    def masks(self, token: str) -> dict[str, int]:
        """Each document of ``postings[token]``, in that order, mapped to the token's position mask there, bit ``p``
        for position ``p``. A document's masks are built by :func:`_position_masks` when a token of it is first read."""
        masks = self._masks.get(token)
        if masks is None and token in self.postings:  # an absent token's empty dict is not kept
            masks = self._masks[token] = {  # a document's dict is never empty: it holds ``token``
                d: (self._doc_masks.get(d) or self._doc_masks.setdefault(d, _position_masks(self.documents[d])))[token]
                for d in self.postings[token]
            }
        return masks or {}

    @property
    def total_tokens(self) -> int:
        return sum(map(len, self.documents.values()))


@dataclass(frozen=True)
class EventSet:
    """A query result: document ids as ``bits`` over a ``table`` of sorted ids, bit ``i`` for ``table[i]``.

    ``EventSet(doc_ids)`` is over a table of its own ids, a query result over
    its index's. ``doc_ids`` is made on each read; events compare and hash by it.
    ``dataclasses.replace`` takes ``doc_ids`` alone, as the constructor does.
    """

    table: _IdTable = field(init=False)
    bits: int = field(init=False)

    def __init__(self, doc_ids: Iterable[str]) -> None:
        table = _IdTable(sorted(set(doc_ids)))
        self.__dict__.update(table=table, bits=(1 << len(table)) - 1)

    @classmethod
    def _of(cls, table: _IdTable, bits: int) -> EventSet:
        event = cls.__new__(cls)
        event.__dict__.update(table=table, bits=bits)
        return event

    @property
    def doc_ids(self) -> frozenset[str]:
        return frozenset(_select(self.table, self.bits))

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventSet):
            return NotImplemented
        return self.doc_ids == other.doc_ids

    def __hash__(self) -> int:
        return hash(self.doc_ids)

    def __repr__(self) -> str:
        return f"EventSet(doc_ids={self.doc_ids!r})"


@dataclass(frozen=True)
class BiasConfig:
    """Optional perturbation applied to hit counts.

    ``none`` passes counts through unchanged. ``additive`` adds
    ``round(magnitude * u)`` with ``u`` uniform in [0, 1]; ``multiplicative``
    scales by ``1 + magnitude * u`` with ``u`` uniform in [-1, 1], floored
    at zero. A zero magnitude leaves counts exact in every mode, and the
    magnitude must be finite. The magnitude is held as a ``float`` and the
    seed as an ``int``, so two configs that compare equal draw alike. The
    draw is a pure function of (seed, mode, magnitude, event), so identical
    inputs always produce identical outputs.
    """

    mode: str = "none"
    magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in BIAS_MODES:
            raise ValueError(f"bias mode must be one of {BIAS_MODES}, got {self.mode!r}")
        try:
            object.__setattr__(self, "magnitude", float(self.magnitude))
        except OverflowError:  # an int or Fraction past float range, whose repr may itself raise
            raise ValueError("bias magnitude must be finite, got a number beyond float range") from None
        except (TypeError, ValueError):
            raise ValueError(f"bias magnitude must be a number, got {self.magnitude!r}") from None
        object.__setattr__(self, "seed", int(self.seed))
        if not math.isfinite(self.magnitude):
            raise ValueError(f"bias magnitude must be finite, got {self.magnitude!r}")
        if self.magnitude < 0:
            raise ValueError("bias magnitude must be non-negative")


def build_index(corpus: Iterable[tuple[str, str]]) -> Index:
    """Index a corpus of ``(id, raw text)`` pairs.

    Ids must be unique; a duplicate is rejected by name. Documents are
    tokenized with :func:`tokenize`, and each token's postings are the ids
    of the documents holding it, as one tuple. Tokens keep their order of
    first occurrence and documents their corpus order. The documents'
    tokens and the postings' keys share one ``str`` per distinct token, so
    a document's tuple costs one pointer a token. No position is recorded
    here: :meth:`Index.masks` builds a document's masks when it is first
    read, and a read document costs about (distinct tokens x length / 2)
    bits, against 36 bytes a token as tuples.
    """
    documents: dict[str, tuple[str, ...]] = {}
    postings: defaultdict[str, list[str]] = defaultdict(list)
    words: dict[str, str] = {}  # each token's first ``str``; not ``sys.intern``, whose strings may never be freed
    for doc_id, text in corpus:
        if doc_id in documents:
            raise ValueError(f"duplicate document id: {doc_id!r}")
        found = tokenize(text)
        tokens = documents[doc_id] = tuple(map(words.setdefault, found, found))
        for tok in dict.fromkeys(tokens):
            postings[tok].append(doc_id)
    return Index(documents=documents, postings={tok: tuple(ids) for tok, ids in postings.items()})


def _position_masks(tokens: Sequence[str]) -> dict[str, int]:
    """Each token's position mask, bit ``p`` for position ``p``, in order of first occurrence; built in place
    (up to ``_OR_IN_PLACE`` tokens), a mask of one position below 1024 is the shared ``_SHARED_BITS[p]``."""
    masks: dict[str, int] = {}
    if len(tokens) <= _OR_IN_PLACE:  # fastest while masks are short, but each OR copies its mask
        for pos, tok in enumerate(tokens):
            mask = masks.get(tok)  # None at a first occurrence
            masks[tok] = mask | 1 << pos if mask is not None else _SHARED_BITS[pos] if pos < 1024 else 1 << pos
        return masks
    positions: dict[str, list[int]] = {}  # past it, each mask is written once, as bytes: linear work
    for pos, tok in enumerate(tokens):
        positions.setdefault(tok, []).append(pos)
    for tok, where in positions.items():
        row = bytearray(where[-1] // 8 + 1)
        for pos in where:
            row[pos >> 3] |= 1 << (pos & 7)
        masks[tok] = int.from_bytes(row, "little")
    return masks


def occurrence_positions(haystack: Sequence[str], needle: Sequence[str]) -> list[int]:
    """Start positions of ``needle`` as a contiguous subsequence of ``haystack``."""
    n, m = len(haystack), len(needle)
    if m == 0:
        return []
    target = tuple(needle)
    return [i for i in range(n - m + 1) if tuple(haystack[i : i + m]) == target]


def _coerce_term(term: Term | str) -> Term:
    return term if isinstance(term, Term) else Term.parse(term)


def _phrase_masks(index: Index, tokens: Sequence[str], bits: int) -> dict[str, int]:
    """Each document of ``bits`` whose mask of phrase starts is not 0, mapped to that mask, in table order.

    Bit ``s`` of a start mask is set when ``tokens[k]`` is at ``s + k`` for every ``k``: the shift-and
    ``m0 & (m1 >> 1) & … & (mk >> k)`` of the document's position masks. Every document of ``bits``,
    a bitset over ``index.table`` such as the AND of the tokens' bitsets, must hold every token.
    """
    docs = _select(index.table, bits)
    first, *rest = map(index.masks, tokens)
    if not rest:
        return {d: first[d] for d in docs}
    second = rest[0]  # the first two tokens in one pass: no dict of the first token's masks is built
    live = {d: m for d in docs if (m := first[d] & second[d] >> 1)}
    for k, masks in enumerate(rest[1:], 2):
        live = {d: m for d, m0 in live.items() if (m := m0 & masks[d] >> k)}
    return live


def singleton(index: Index, term: Term | str) -> EventSet:
    """Documents containing ``term`` as a contiguous phrase.

    The candidates are the AND of the tokens' bitsets, 0 if a token is absent; a phrase
    keeps those where its tokens' positions line up (a shift-and of position masks).
    """
    t = _coerce_term(term)
    bits = reduce(and_, map(index.bitset, t.tokens))
    if len(t.tokens) > 1:  # a word's event is its bitset: 0.8 us where the shift-and takes 94 (BENCH_28.json)
        bits = index.table.bits(_phrase_masks(index, t.tokens, bits))
    return EventSet._of(index.table, bits)


def doubleton(index: Index, tx: Term | str, ty: Term | str) -> EventSet:
    """Documents containing both of two distinct terms.

    The terms must differ as token sequences; an identical pair is rejected.
    """
    a, b = _coerce_term(tx), _coerce_term(ty)
    if a.tokens == b.tokens:
        raise ValueError(f"doubleton requires two distinct terms, got {a.text!r} twice")
    return EventSet._of(index.table, singleton(index, a).bits & singleton(index, b).bits)


def _seeded_uniform(bias: BiasConfig, event: EventSet, lo: float, hi: float) -> float:
    # Stable digest over the full input so repeated calls agree across runs
    # and platforms regardless of hash randomization: ``json.dumps`` of the
    # settings and sorted ids, keys sorted, so the ids' texts come first.
    rest = json.dumps({"magnitude": bias.magnitude, "mode": bias.mode, "seed": bias.seed}, sort_keys=True)
    docs = ", ".join(_select(event.table.texts, event.bits))
    payload = '{"docs": [' + docs + "], " + rest[1:]
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
        return count + round(bias.magnitude * _seeded_uniform(bias, event, 0.0, 1.0))
    noisy = count * (1.0 + bias.magnitude * _seeded_uniform(bias, event, -1.0, 1.0))
    if not math.isfinite(noisy):
        raise ValueError(f"bias magnitude {bias.magnitude!r} overflows the perturbed count")
    return max(0.0, noisy)


def _read_text(path: Path, kind: str) -> str:
    """An input file's UTF-8 text, with ``\\r\\n`` and ``\\r`` read as ``\\n`` as text mode reads them.

    ``kind`` names the file in each rejection: missing, a directory, unreadable, or not UTF-8 (with the line).
    """
    try:
        data = path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        raise ValueError(f"{kind} not found: {path}") from None
    except IsADirectoryError:
        raise ValueError(f"{kind} is a directory: {path}") from None
    except OSError as exc:  # a symlink loop, say, or a file without read permission
        raise ValueError(f"{kind} cannot be read: {path} ({exc.strerror})") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: {kind} is not UTF-8 ({exc.reason} at byte {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_corpus_dir(path: str | Path) -> list[tuple[str, str]]:
    """Read a corpus from a directory of UTF-8 ``.txt`` files.

    The file stem becomes the document id. Files are taken in sorted name
    order so the resulting index is a pure function of the directory
    contents. Only a regular file is a document, so a subdirectory or a
    FIFO is skipped; a broken link or a link loop is read and rejected by
    name, as is a file that is not UTF-8, by name and line.
    """
    p = Path(path)
    if not p.is_dir():
        raise ValueError(f"corpus directory not found: {p}")
    return [(f.stem, _read_text(f, "corpus file")) for f in sorted(p.glob("*.txt")) if f.is_file() or not f.exists()]


def load_corpus_jsonl(path: str | Path) -> list[tuple[str, str]]:
    """Read a corpus from a JSON-lines file of ``{"id": ..., "text": ...}`` objects.

    Both values must be JSON strings. Blank lines are skipped. A line that
    is malformed, too deeply nested or not UTF-8 is rejected with its line
    number, and a repeated id with its line and the line of its first use.
    """
    p = Path(path)
    docs: dict[str, tuple[int, str]] = {}  # id -> (line, text)
    # Not ``splitlines``: it also splits at U+2028, U+0085 and more, which a JSON string may hold raw.
    for lineno, line in enumerate(_read_text(p, "corpus file").split("\n"), start=1):
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
        doc_id = obj["id"]
        if doc_id in docs:
            raise ValueError(f"{p}:{lineno}: duplicate document id {doc_id!r} (first on line {docs[doc_id][0]})")
        docs[doc_id] = (lineno, obj["text"])
    return [(doc_id, text) for doc_id, (_, text) in docs.items()]


def load_corpus(path: str | Path, corpus_format: str) -> list[tuple[str, str]]:
    """Dispatch to the txt-directory or JSON-lines loader."""
    if corpus_format == "txt_dir":
        return load_corpus_dir(path)
    if corpus_format == "jsonl":
        return load_corpus_jsonl(path)
    raise ValueError(f"unknown corpus format: {corpus_format!r}")
