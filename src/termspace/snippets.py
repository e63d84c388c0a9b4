"""Bounded word windows around term occurrences in matching documents.

A snippet carries up to ``window`` words on each side of an occurrence,
truncated at document boundaries. One snippet is emitted per occurrence,
in document-id order then position order, capped per document.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Index, Term, _coerce_term, _phrase_masks, _select, singleton

MAX_WINDOW = 50


@dataclass(frozen=True)
class Snippet:
    """A window of document words containing at least one term occurrence.

    ``term_spans`` lists every contiguous occurrence of the term inside
    ``words`` as half-open ``(start, end)`` pairs.
    """

    doc_id: str
    words: tuple[str, ...]
    term_spans: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "term_spans", tuple(tuple(s) for s in self.term_spans))
        if not self.term_spans:
            raise ValueError("a snippet must contain the term it was extracted for")
        for start, end in self.term_spans:
            if not 0 <= start < end <= len(self.words):
                raise ValueError(f"term span ({start}, {end}) out of range")

    @property
    def length(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class SnippetList:
    """All snippets extracted for one term, in deterministic order."""

    term: Term
    snippets: tuple[Snippet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "snippets", tuple(self.snippets))
        for snippet in self.snippets:
            for start, end in snippet.term_spans:
                if snippet.words[start:end] != self.term.tokens:
                    raise ValueError(
                        f"span ({start}, {end}) of snippet {snippet.doc_id!r} "
                        f"does not cover the term {self.term.text!r}"
                    )

    @property
    def n(self) -> int:
        return len(self.snippets)


def extract_snippets(
    index: Index,
    term: Term | str,
    window: int,
    per_doc_limit: int = 3,
) -> SnippetList:
    """Extract word windows around each occurrence of ``term``.

    Args:
        index: Index to search.
        window: Words kept on each side of an occurrence, between 1 and 50.
        per_doc_limit: Maximum snippets per document, first occurrences win.

    Returns:
        A snippet list ordered by document id ascending, then occurrence
        position ascending. Absent terms yield an empty list.
    """
    if not 1 <= window <= MAX_WINDOW:
        raise ValueError(f"window must be between 1 and {MAX_WINDOW}, got {window}")
    if per_doc_limit < 1:
        raise ValueError(f"per_doc_limit must be at least 1, got {per_doc_limit}")
    t = _coerce_term(term)
    m = len(t.tokens)
    collected: list[Snippet] = []
    for doc_id, mask in _phrase_masks(index, t.tokens, singleton(index, t).bits).items():
        doc_tokens = index.documents[doc_id]
        starts = list(_select(range(len(doc_tokens)), mask))
        for pos in starts[:per_doc_limit]:
            start = max(0, pos - window)
            end = min(len(doc_tokens), pos + m + window)
            spans = tuple((s - start, s - start + m) for s in starts if start <= s <= end - m)
            collected.append(Snippet(doc_id=doc_id, words=doc_tokens[start:end], term_spans=spans))
    return SnippetList(term=t, snippets=tuple(collected))


def snippets_to_dict(snippet_list: SnippetList) -> dict:
    """JSON-ready view: ``{term, snippets: [{doc_id, words, term_spans}]}``."""
    return {
        "term": snippet_list.term.text,
        "snippets": [
            {
                "doc_id": s.doc_id,
                "words": list(s.words),
                "term_spans": [list(span) for span in s.term_spans],
            }
            for s in snippet_list.snippets
        ],
    }
