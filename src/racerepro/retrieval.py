"""TF-IDF vector-space retrieval and the two file-ranking schemes.

The variant is pinned for reproducibility: raw term frequency, idf =
ln(N / df), L2-normalized document vectors, cosine similarity.  Queries are
weighted with the same idf; terms absent from the corpus vocabulary are
skipped.  Zero vectors (empty docs, all-shared vocabulary) score 0.

An index keeps integer term counts and one norm per document, not the
normalized vectors (the layout of Zobel & Moffat, "Inverted files for text
search engines", 2006); a document weight ``count * idf / norm`` is
computed where a score needs it.  A ``SourceIndex`` carries the four field
indexes of its tree, built once by ``build_field_indexes``.  Every sum adds
left to right from int 0, not through ``sum`` (which compensates float
rounding since Python 3.12), so scores keep their bits on every Python.

Two rankers sit on top:

* ``rank_basic`` treats the whole report as one query against whole-file
  token streams (the ``full_text_with_comments`` index, one search per
  file);
* ``rank_structured`` runs 12 searches (3 queries x 4 source fields, each
  field with its own index) and averages with a fixed divisor of 12.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .reports import MODE_C_SOURCE, BugReport, TokenStream, preprocess, preprocess_tokens

if TYPE_CHECKING:
    from .catalog import KeySystemCalls
    from .csource import SourceDoc, SourceIndex

QUERY_NAMES = ("subject", "body", "syscalls")
FIELD_NAMES = ("file_name", "function_names", "variable_names", "full_text_with_comments")

#: Number of (query, field) searches averaged by the structured ranker.
#: The divisor stays fixed even when a query is empty.
STRUCTURED_SEARCH_COUNT = len(QUERY_NAMES) * len(FIELD_NAMES)

#: Files kept for downstream instrumentation-point location.
DEFAULT_TOP_FILES = 10


# --- index ------------------------------------------------------------------

@dataclass
class TfIdfIndex:
    idf: dict[str, float]
    #: raw term counts per document, terms in first-occurrence order
    counts: dict[str, Counter[str]]
    #: L2 norm of each document's tf-idf vector (0.0 for a zero vector)
    norms: dict[str, float]


def _l2_norm(weights: Iterable[float]) -> float:
    total = 0
    for w in weights:
        total += w * w
    return math.sqrt(total)


def _normalize(vec: dict[str, float]) -> dict[str, float]:
    norm = _l2_norm(vec.values())
    if norm == 0.0:
        return {}
    return {term: w / norm for term, w in vec.items()}


def build_index(docs: list[tuple[str, TokenStream]]) -> TfIdfIndex:
    """Build a TF-IDF index over (doc id, token stream) pairs."""
    if not docs:
        raise ValueError("cannot build an index over an empty corpus")
    n_docs = len(docs)
    df: Counter[str] = Counter()
    term_counts: dict[str, Counter[str]] = {}
    for doc_id, tokens in docs:
        if doc_id in term_counts:
            raise ValueError(f"duplicate document id: {doc_id!r}")
        counts = Counter(tokens)
        term_counts[doc_id] = counts
        df.update(counts.keys())

    idf = {term: math.log(n_docs / count) for term, count in df.items()}
    norms = {
        doc_id: _l2_norm(c * idf[t] for t, c in counts.items())
        for doc_id, counts in term_counts.items()
    }
    return TfIdfIndex(idf=idf, counts=term_counts, norms=norms)


def build_field_indexes(docs: list[SourceDoc]) -> dict[str, TfIdfIndex]:
    """One index per source field, over the same documents."""
    return {
        fname: build_index([(d.path, d.fields[fname]) for d in docs])
        for fname in FIELD_NAMES
    }


def _query_vector(index: TfIdfIndex, query: TokenStream) -> dict[str, float]:
    counts = Counter(t for t in query if t in index.idf)
    return _normalize({t: c * index.idf[t] for t, c in counts.items()})


def _cosine(
    qvec: dict[str, float], counts: Counter[str], norm: float, idf: dict[str, float]
) -> float:
    """Dot product of the normalized query and document vectors.

    Summed over the smaller vector in its insertion order (a zero-norm
    document is empty), so the additions, and the float result, are those
    of a dot product between two normalized dicts.
    """
    if not qvec or norm == 0.0:
        return 0.0
    total = 0
    if len(qvec) > len(counts):
        for t, c in counts.items():
            if t in qvec:
                total += c * idf[t] / norm * qvec[t]
    else:
        for t, w in qvec.items():
            if t in counts:
                total += w * (counts[t] * idf[t] / norm)
    return total


def similarity(index: TfIdfIndex, query: TokenStream, doc_id: str) -> float:
    """Cosine similarity between the query and one document, in [0, 1]."""
    if doc_id not in index.counts:
        raise KeyError(f"unknown document id: {doc_id!r}")
    return _cosine(
        _query_vector(index, query), index.counts[doc_id], index.norms[doc_id], index.idf
    )


def _scores(index: TfIdfIndex, query: TokenStream) -> dict[str, float]:
    """Every document's similarity to the query, with one query vector."""
    qvec = _query_vector(index, query)
    idf, norms = index.idf, index.norms
    return {
        doc_id: _cosine(qvec, counts, norms[doc_id], idf)
        for doc_id, counts in index.counts.items()
    }


def rank(index: TfIdfIndex, query: TokenStream) -> list[tuple[str, float]]:
    """All documents scored against the query, best first, ties by doc id."""
    scored = list(_scores(index, query).items())
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored


# --- file ranking -----------------------------------------------------------

@dataclass
class RankedFiles:
    """Ordered (path, score) list; scores non-increasing, ties lexicographic."""

    entries: list[tuple[str, float]]
    scheme: str
    #: per-file, per-search score breakdown ("<query>:<field>" -> cosine);
    #: populated by the structured ranker for auditability.
    breakdown: dict[str, dict[str, float]] = field(default_factory=dict)

    def rank_of(self, path: str) -> int | None:
        """1-based rank of a path, or None if absent."""
        for pos, (entry_path, _) in enumerate(self.entries, start=1):
            if entry_path == path:
                return pos
        return None

    def top(self, k: int) -> list[str]:
        return [path for path, _ in self.entries[:k]]


def _report_query(report: BugReport) -> TokenStream:
    return preprocess(report.subject + "\n" + report.body)


def rank_basic(report: BugReport, source: SourceIndex) -> RankedFiles:
    """BasicIR baseline: whole report vs whole-file token streams."""
    index = source.field_indexes["full_text_with_comments"]
    entries = rank(index, _report_query(report))
    return RankedFiles(entries=entries, scheme="basic")


def _syscall_query(keys: KeySystemCalls) -> TokenStream:
    names: list[str] = []
    for entry in keys.entries:
        names.extend([entry.name] * entry.count)
    return preprocess_tokens(names, MODE_C_SOURCE)


def rank_structured(
    report: BugReport, key_syscalls: KeySystemCalls, source: SourceIndex
) -> RankedFiles:
    """Structured ranker: 12 field-scoped searches averaged per file.

    Queries are the subject, the body, and the extracted syscall names (with
    multiplicity); each is run against four per-field indexes.  An empty
    query scores 0 everywhere but still counts in the divisor.
    """
    indexes = source.field_indexes
    queries: dict[str, TokenStream] = {
        "subject": preprocess(report.subject),
        "body": preprocess(report.body),
        "syscalls": _syscall_query(key_syscalls),
    }
    breakdown: dict[str, dict[str, float]] = {path: {} for path in indexes["file_name"].counts}
    totals = dict.fromkeys(breakdown, 0.0)
    for qname in QUERY_NAMES:
        for fname in FIELD_NAMES:
            search = f"{qname}:{fname}"
            for path, score in _scores(indexes[fname], queries[qname]).items():
                breakdown[path][search] = score
                totals[path] += score

    entries = [(path, total / STRUCTURED_SEARCH_COUNT) for path, total in totals.items()]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return RankedFiles(entries=entries, scheme="structured", breakdown=breakdown)
