"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes results from first principles with plain
scans, counting, and exhaustive enumeration. Nothing imports the package
under test, so agreement between the two is meaningful.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import random
from collections import defaultdict, deque
from fractions import Fraction


def scan_tokenize(text):
    """Reference tokenizer: blank out non-alphanumerics, then split."""
    lowered = text.lower()
    return "".join(ch if ch.isalnum() else " " for ch in lowered).split()


def loop_tokenize(text):
    """Reference tokenizer: a character loop over ``str.isalnum``."""
    tokens = []
    current = []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


def phrase_match(tokens, term_tokens):
    """Contiguous subsequence test by explicit window comparison."""
    k = len(term_tokens)
    if k == 0 or k > len(tokens):
        return False
    return any(list(tokens[i : i + k]) == list(term_tokens) for i in range(len(tokens) - k + 1))


def brute_singleton(corpus, term_tokens):
    """Per-document scan. ``corpus`` is a list of (doc_id, raw_text) pairs."""
    return {doc_id for doc_id, text in corpus if phrase_match(scan_tokenize(text), term_tokens)}


def brute_doubleton(corpus, tx_tokens, ty_tokens):
    return brute_singleton(corpus, tx_tokens) & brute_singleton(corpus, ty_tokens)


def digest_payload(mode, magnitude, seed, doc_ids):
    """Reference bytes a biased count digests: the settings and sorted ids as one JSON object, keys sorted."""
    payload = {"mode": mode, "magnitude": magnitude, "seed": seed, "docs": sorted(doc_ids)}
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def biased_count(doc_ids, mode, magnitude, seed):
    """Reference biased hit count of a document set under an ``additive`` or ``multiplicative`` bias.

    The draw ``u`` is uniform in [0, 1) from a generator seeded with the
    first 8 bytes of the payload's SHA-256; ``additive`` adds
    ``round(magnitude * u)``, ``multiplicative`` scales by
    ``1 + magnitude * (2u - 1)``, floored at 0. ``magnitude`` is a float.
    """
    digest = hashlib.sha256(digest_payload(mode, magnitude, seed, doc_ids)).digest()
    u = random.Random(int.from_bytes(digest[:8], "big")).random()
    count = len(set(doc_ids))
    if mode == "additive":
        return count + round(magnitude * u)
    return max(0.0, count * (1.0 + magnitude * (-1.0 + 2.0 * u)))


def brute_index(corpus):
    """Reference positional index: ``(documents, postings)`` as ordered lists.

    ``documents`` lists ``(doc_id, tokens)`` in corpus order. ``postings``
    lists every token in order of its first occurrence in the corpus, each
    with the documents that hold it, in corpus order, and for each document
    the ascending positions at which the token occurs.
    """
    documents = [(doc_id, scan_tokenize(text)) for doc_id, text in corpus]
    vocabulary = dict.fromkeys(tok for _, tokens in documents for tok in tokens)
    postings = [
        (
            tok,
            [
                (doc_id, [pos for pos, t in enumerate(tokens) if t == tok])
                for doc_id, tokens in documents
                if tok in tokens
            ],
        )
        for tok in vocabulary
    ]
    return documents, postings


def window_snippets(corpus, term_tokens, window, per_doc_limit):
    """Reference snippet extraction: (doc_id, word list) pairs in output order."""
    out = []
    k = len(term_tokens)
    for doc_id, text in sorted(corpus, key=lambda pair: pair[0]):
        tokens = scan_tokenize(text)
        starts = [
            i for i in range(len(tokens) - k + 1) if tokens[i : i + k] == list(term_tokens)
        ]
        for pos in starts[:per_doc_limit]:
            lo = max(0, pos - window)
            hi = min(len(tokens), pos + k + window)
            out.append((doc_id, tokens[lo:hi]))
    return out


# Count-and-divide probability oracles, all plain floats.

def prob_term_snippet(term_tokens, words):
    return 0.5 if phrase_match(words, term_tokens) else 0.0


def prob_term_list(term_tokens, word_lists):
    return sum(prob_term_snippet(term_tokens, ws) for ws in word_lists) / len(word_lists)


def prob_snippet_word(word, words):
    return list(words).count(word) / len(words)


def prob_list_word(word, word_lists):
    return sum(prob_snippet_word(word, ws) for ws in word_lists)


def prob_term_word(term_tokens, word, words):
    if not phrase_match(words, term_tokens):
        return 0.0
    return prob_snippet_word(word, words) / 2


def weight_of_word(word, word_lists):
    return sum(list(ws).count(word) / (2 * len(ws)) for ws in word_lists)


def exact_weight_of_word(word, word_lists):
    """:func:`weight_of_word` in exact ``Fraction``s: the word's count over twice each list's length, summed."""
    return sum((Fraction(list(ws).count(word), 2 * len(ws)) for ws in word_lists), Fraction(0))


def brute_context(corpus, term_tokens, window, per_doc_limit, stopwords=()):
    """Recompute a context from raw text: word -> (weight, document count)."""
    word_lists = [ws for _, ws in window_snippets(corpus, term_tokens, window, per_doc_limit)]
    vocabulary = sorted({w for ws in word_lists for w in ws} - set(stopwords))
    return {
        w: (weight_of_word(w, word_lists), len(brute_singleton(corpus, [w])))
        for w in vocabulary
    }


def brute_jaccard(corpus, word_a, word_b):
    a = brute_singleton(corpus, [word_a])
    b = brute_singleton(corpus, [word_b])
    union = a | b
    return Fraction(len(a & b), len(union)) if union else Fraction(0)


def decode_labeled_tree(seq, n):
    """Edges of the labeled tree on 0..n-1 encoded by ``seq`` (length n-2)."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def max_spanning_total(vertices, weight_fn):
    """Maximum spanning-tree weight by enumerating all n^(n-2) labeled trees."""
    n = len(vertices)
    if n == 1:
        return Fraction(0)
    best = None
    for seq in itertools.product(range(n), repeat=n - 2):
        total = sum(
            (weight_fn(vertices[i], vertices[j]) for i, j in decode_labeled_tree(seq, n)),
            Fraction(0),
        )
        if best is None or total > best:
            best = total
    return best


def has_cycle(vertices, edge_pairs):
    """Undirected cycle scan by depth-first search with parent tracking."""
    adjacency = defaultdict(list)
    for a, b in edge_pairs:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = set()
    for start in vertices:
        if start in seen:
            continue
        stack = [(start, None)]
        seen.add(start)
        while stack:
            node, parent = stack.pop()
            skipped_parent = False
            for nbr in adjacency[node]:
                if nbr == parent and not skipped_parent:
                    skipped_parent = True
                    continue
                if nbr in seen:
                    return True
                seen.add(nbr)
                stack.append((nbr, node))
    return False


def count_components(vertices, edge_pairs):
    """Connected components of the vertices and every edge endpoint, by breadth-first search."""
    adjacency = defaultdict(set)
    for a, b in edge_pairs:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    count = 0
    for start in [*vertices, *adjacency]:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for nbr in adjacency[queue.popleft()]:
                if nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
    return count


def dot_text(vertices, edges):
    """Reference DOT rendering: edges sorted by pair, one float label per edge.

    ``edges`` holds ``(a, b, weight)`` triples in any order.
    """
    lines = ["graph {"]
    for v in vertices:
        lines.append(f'  "{v}";')
    for a, b, w in sorted(edges, key=lambda e: (e[0], e[1])):
        lines.append(f'  "{a}" -- "{b}" [label="{float(w):.6f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def kruskal_edges(vertices, weights):
    """Edges Kruskal keeps, taken in ``(-weight, a, b)`` order.

    ``weights`` maps sorted pairs to weights. Components are tracked as
    explicit vertex sets and merged by relabelling.
    """
    component = {v: {v} for v in vertices}
    kept = []
    for a, b, w in sorted(((a, b, w) for (a, b), w in weights.items()), key=lambda e: (-e[2], e[0], e[1])):
        if component[a] is component[b]:
            continue
        merged = component[a] | component[b]
        for v in merged:
            component[v] = merged
        kept.append((a, b, w))
    return kept


def twelve_digits(value):
    """A rational as the JSON files print it: its float to 12 significant digits."""
    return format(float(value), ".12g")


def json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def pipeline_bundle(corpus, term_tokens, window, per_doc_limit, measure, alpha):
    """Reference ``pipeline`` bundle without stopwords: each file's name and text.

    A word's ``nu`` is its exact weight over the snippet windows and its
    ``mu`` its document count; the cluster keeps the words whose ``nu`` is
    at least ``alpha``, in ``nu`` order, and its tree is Kruskal's.
    """
    term = list(term_tokens)
    k, text = len(term), " ".join(term)
    found = window_snippets(corpus, term, window, per_doc_limit)
    snippets = [
        {"doc_id": doc_id, "words": ws, "term_spans": [[i, i + k] for i in range(len(ws)) if ws[i : i + k] == term]}
        for doc_id, ws in found
    ]
    bundle = {"snippets.json": json_text({"term": text, "snippets": snippets})}
    word_lists = [ws for _, ws in found]
    words = sorted({w for ws in word_lists for w in ws})
    nu = {w: exact_weight_of_word(w, word_lists) for w in words}
    mu = {w: len(brute_singleton(corpus, [w])) for w in words}
    retained = [w for w in sorted(words, key=lambda w: (-nu[w], w)) if nu[w] >= alpha]
    if words:
        bundle["context.json"] = json_text({
            "term": text,
            "words": [{"word": w, "nu": twelve_digits(nu[w]), "mu": mu[w]} for w in words],
            "nu_order": sorted(words, key=lambda w: (-nu[w], w)),
            "mu_order": sorted(words, key=lambda w: (-mu[w], w)),
        })
        pairs = list(itertools.combinations(words, 2))
        if measure == "jaccard":
            weights = {(a, b): brute_jaccard(corpus, a, b) for a, b in pairs}
        else:
            weights = {(a, b): Fraction(len(brute_doubleton(corpus, [a], [b]))) for a, b in pairs}
        bundle["graph.dot"] = dot_text(words, [(a, b, w) for (a, b), w in weights.items()])
    tree = shade = None
    if retained:
        edges = kruskal_edges(retained, {pair: w for pair, w in weights.items() if set(pair) <= set(retained)})
        bundle["tree.dot"] = dot_text(sorted(retained), edges)
        z = max(mu[w] for w in retained)
        entries = [{"word": w, "raw": mu[w], "normalized": twelve_digits(Fraction(mu[w], z))} for w in retained]
        shade = {"entries": entries, "z": z}
        bundle["shade.json"] = json_text({"cluster": shade, "tree": shade})
        components = count_components(retained, [(a, b) for a, b, _ in edges])
        tree = {"vertices": len(retained), "edges": len(edges), "components": components}
    bundle["report.json"] = json_text({
        "term": text,
        "config": {"window": window, "per_doc_limit": per_doc_limit, "alpha": twelve_digits(alpha), "measure": measure},
        "stages": {
            "snippets": {"count": len(found), "empty": not found},
            "context": {"words": len(words), "empty": not words},
            "cluster": {"retained": len(retained), "empty": not retained},
            "tree": tree,
            "shade": None if shade is None else {"z": shade["z"]},
        },
        "theorem_check": None if tree is None else tree["edges"] + 1 == tree["vertices"] and tree["components"] == 1,
        "artifacts": sorted(bundle) + ["report.json"],
    })
    return bundle


def query_text(corpus, terms, mode, magnitude, seed):
    """Reference ``query`` output for one term or two distinct ones under a bias of non-zero ``magnitude``."""
    def shown(doc_ids):
        count = biased_count(doc_ids, mode, magnitude, seed)
        return count if isinstance(count, int) else twelve_digits(count)

    events = [brute_singleton(corpus, term) for term in terms]
    texts = [" ".join(term) for term in terms]
    if len(terms) == 1:
        return json_text({"term": texts[0], "count": shown(events[0])})
    return json_text({"terms": texts, "counts": [shown(e) for e in events], "doubleton": shown(events[0] & events[1])})
