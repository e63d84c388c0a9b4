"""Probability calculus over the term, snippet, word mixture.

All values are exact ``fractions.Fraction`` instances. The per-snippet
denominator is always that snippet's own word count after boundary
truncation, so sums over a list stay exact.

The calculus, for a term t, snippet S of max words, and word w occurring
m times in S:

    p_term_snippet(t, S)   = 1/2 if t occurs in S else 0
    p_term_list(t, L)      = (sum of p_term_snippet over L) / n
    p_snippet_word(w, S)   = m / max
    p_list_word(w, L)      = sum of m_i / max_i over L  (may exceed 1)
    p_term_word(t, w, S)   = (m / max) / 2 if t occurs in S else 0
    word_weight(w, L)      = sum of m_i / (2 * max_i) over L

``word_weight`` is the weight function that maps each unique word of a
snippet list into the reals; a context pairs those weights with the
per-word document counts from the index.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Mapping

from .engine import Index, Term, _coerce_term, contains_phrase
from .jsonio import rational_str
from .snippets import Snippet, SnippetList

HALF = Fraction(1, 2)


def p_term_snippet(term: Term | str, snippet: Snippet) -> Fraction:
    """1/2 when the term occurs in the snippet, else 0."""
    t = _coerce_term(term)
    return HALF if contains_phrase(snippet.words, t.tokens) else Fraction(0)


def p_term_list(term: Term | str, snippet_list: SnippetList) -> Fraction:
    """Mean of :func:`p_term_snippet` over a non-empty snippet list."""
    if snippet_list.n == 0:
        raise ValueError("p_term_list is undefined for an empty snippet list")
    total = sum(p_term_snippet(term, s) for s in snippet_list.snippets)
    return Fraction(total, snippet_list.n)


def p_snippet_word(word: str, snippet: Snippet) -> Fraction:
    """Occurrence count of ``word`` in the snippet over the snippet length.

    Snippets are non-empty by construction, so the denominator is positive.
    """
    m = snippet.words.count(word)
    return Fraction(m, snippet.length)


def p_list_word(word: str, snippet_list: SnippetList) -> Fraction:
    """Sum of :func:`p_snippet_word` over the list. Can exceed 1 for large lists."""
    return sum((p_snippet_word(word, s) for s in snippet_list.snippets), Fraction(0))


def p_term_word(term: Term | str, word: str, snippet: Snippet) -> Fraction:
    """Half the snippet-word value when the term occurs in the snippet, else 0."""
    t = _coerce_term(term)
    if not contains_phrase(snippet.words, t.tokens):
        return Fraction(0)
    return p_snippet_word(word, snippet) / 2


def word_weight(word: str, snippet_list: SnippetList) -> Fraction:
    """The word's weight over a snippet list: sum of m_i / (2 * max_i)."""
    return sum(
        (Fraction(s.words.count(word), 2 * s.length) for s in snippet_list.snippets),
        Fraction(0),
    )


@dataclass(frozen=True)
class WordStat:
    """Per-word statistics inside a context.

    ``nu`` is the snippet-derived weight from :func:`word_weight`; ``mu``
    is the number of indexed documents containing the word.
    """

    word: str
    nu: Fraction
    mu: int


@dataclass(frozen=True)
class Context:
    """The unique words of a snippet list with both descending sort orders.

    ``nu_order`` sorts by snippet weight, ``mu_order`` by document count;
    both are permutations of the same word set, ties broken
    lexicographically so every run is reproducible.
    """

    term: Term
    words: Mapping[str, WordStat]
    nu_order: tuple[str, ...]
    mu_order: tuple[str, ...]

    def __post_init__(self) -> None:
        word_set = set(self.words)
        if set(self.nu_order) != word_set or set(self.mu_order) != word_set:
            raise ValueError("sort orders must be permutations of the context words")
        nus = [self.words[w].nu for w in self.nu_order]
        mus = [self.words[w].mu for w in self.mu_order]
        if any(a < b for a, b in zip(nus, nus[1:])):
            raise ValueError("nu_order must be non-increasing in nu")
        if any(a < b for a, b in zip(mus, mus[1:])):
            raise ValueError("mu_order must be non-increasing in mu")


def build_context(
    snippet_list: SnippetList,
    index: Index,
    stopwords: AbstractSet[str] = frozenset(),
) -> Context:
    """Collect the unique non-stopword tokens of a snippet list into a context.

    Each word gets its snippet weight and its document count from the
    index (every word is itself queryable as a one-token term). Rejects
    an empty snippet list and a word set that stopword removal emptied.

    The weights take one pass over the snippet words: each snippet's words
    are counted into one ``Counter`` per snippet length, and each word's
    weight is then a single exact ``Fraction`` over the least common
    multiple of the ``2 * length`` denominators. The cost is linear in the
    snippet words plus words times distinct lengths, and the result equals
    :func:`word_weight`, which rescans every snippet for every word. The
    document count is the size of the word's postings map.
    """
    if snippet_list.n == 0:
        raise ValueError("cannot build a context from an empty snippet list")
    counts_by_length: dict[int, Counter[str]] = {}
    for s in snippet_list.snippets:
        counts_by_length.setdefault(s.length, Counter()).update(s.words)
    denominator = math.lcm(*(2 * length for length in counts_by_length))
    numerators: Counter[str] = Counter()
    for length, counts in counts_by_length.items():
        scale = denominator // (2 * length)
        for w, m in counts.items():
            numerators[w] += m * scale
    vocabulary = set(numerators) - set(stopwords)
    if not vocabulary:
        raise ValueError("no words left after stopword removal")
    stats = {
        w: WordStat(word=w, nu=Fraction(numerators[w], denominator), mu=len(index.postings.get(w, ())))
        for w in sorted(vocabulary)
    }
    nu_order = tuple(sorted(stats, key=lambda w: (-stats[w].nu, w)))
    mu_order = tuple(sorted(stats, key=lambda w: (-stats[w].mu, w)))
    return Context(term=snippet_list.term, words=stats, nu_order=nu_order, mu_order=mu_order)


def context_to_dict(context: Context) -> dict:
    """JSON-ready view: ``{term, words: [{word, nu, mu}], nu_order, mu_order}``.

    Rationals are rendered as decimal strings with 12 significant digits.
    """
    return {
        "term": context.term.text,
        "words": [
            {"word": w, "nu": rational_str(stat.nu), "mu": stat.mu}
            for w, stat in sorted(context.words.items())
        ],
        "nu_order": list(context.nu_order),
        "mu_order": list(context.mu_order),
    }
