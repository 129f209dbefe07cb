"""TF-IDF retrieval oracles: hand arithmetic, S_avg matrix, independent ranker."""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racerepro.catalog import KeyEntry, KeySystemCalls
from racerepro.csource import CallGraph, SourceDoc, SourceIndex, index_tree
from racerepro.reports import BugReport, preprocess
from racerepro.retrieval import (
    STRUCTURED_SEARCH_COUNT,
    build_field_indexes,
    build_index,
    rank,
    rank_basic,
    rank_structured,
    similarity,
)

TOL = 1e-9


# --- index basics ---------------------------------------------------------------

def test_shared_vocabulary_gives_zero_vectors():
    index = build_index([("d1", ["alpha", "beta"]), ("d2", ["alpha", "beta"])])
    assert index.idf == {"alpha": 0.0, "beta": 0.0}
    assert index.norms == {"d1": 0.0, "d2": 0.0}
    assert similarity(index, ["alpha"], "d1") == 0.0


def test_single_doc_zero_vector():
    index = build_index([("only", ["alpha", "beta"])])
    assert index.counts["only"] == {"alpha": 1, "beta": 1}
    assert index.norms["only"] == 0.0
    assert similarity(index, ["alpha", "beta"], "only") == 0.0


def test_empty_corpus_error():
    with pytest.raises(ValueError):
        build_index([])


def test_duplicate_doc_id_error():
    with pytest.raises(ValueError):
        build_index([("d", ["a"]), ("d", ["b"])])


def test_disjoint_vocabulary():
    index = build_index([("d1", ["unlink", "rename"]), ("d2", ["read", "write"])])
    assert similarity(index, ["unlink"], "d1") > similarity(index, ["unlink"], "d2") == 0.0


def test_unknown_doc_id_error():
    index = build_index([("d1", ["a", "b"]), ("d2", ["c"])])
    with pytest.raises(KeyError):
        similarity(index, ["a"], "nope")


def test_self_similarity_is_one():
    index = build_index([("d1", ["unlink", "rename"]), ("d2", ["read"])])
    assert similarity(index, ["unlink", "rename"], "d1") == pytest.approx(1.0, abs=TOL)


def test_unit_norm_doc_vectors():
    """Counts are raw and in first-occurrence order; count * idf / norm has unit length."""
    index = build_index(
        [("d1", ["a", "a", "b"]), ("d2", ["b", "c"]), ("d3", ["c", "c", "d"])]
    )
    assert list(index.counts["d1"].items()) == [("a", 2), ("b", 1)]
    assert list(index.counts["d3"].items()) == [("c", 2), ("d", 1)]
    for doc_id, counts in index.counts.items():
        norm = index.norms[doc_id]
        assert norm > 0.0
        weights = [c * index.idf[t] / norm for t, c in counts.items()]
        assert math.sqrt(sum(w * w for w in weights)) == pytest.approx(1.0, abs=TOL)


# --- counts and norms score exactly as normalized vectors did ----------------------

def _left_to_right_sum(values) -> float:
    """The order the scorer adds in: from int 0, one term at a time (``sum``
    compensates float rounding since Python 3.12)."""
    return functools.reduce(operator.add, values, 0)


def _normalize_oracle(vec: dict[str, float]) -> dict[str, float]:
    norm = math.sqrt(_left_to_right_sum(w * w for w in vec.values()))
    if norm == 0.0:
        return {}
    return {term: w / norm for term, w in vec.items()}


def _normalized_dict_scores(docs, query) -> dict[str, float]:
    """The scorer that kept one normalized {term: weight} dict per document,
    kept as the oracle: every score must equal it bit for bit."""
    df = Counter()
    counts = {}
    for doc_id, tokens in docs:
        counts[doc_id] = Counter(tokens)
        df.update(counts[doc_id].keys())
    idf = {t: math.log(len(docs) / n) for t, n in df.items()}
    dvecs = {
        doc_id: _normalize_oracle({t: c * idf[t] for t, c in tc.items()})
        for doc_id, tc in counts.items()
    }
    qcounts = Counter(t for t in query if t in idf)
    qvec = _normalize_oracle({t: c * idf[t] for t, c in qcounts.items()})

    def cosine(a, b):
        if not a or not b:
            return 0.0
        if len(a) > len(b):
            a, b = b, a
        return _left_to_right_sum(w * b[t] for t, w in a.items() if t in b)

    return {doc_id: cosine(qvec, dvec) for doc_id, dvec in dvecs.items()}


_TERMS = st.sampled_from(["open", "close", "read", "link", "renam", "unlink", "stat"])
_CORPUS = st.lists(st.lists(_TERMS, max_size=14), min_size=1, max_size=6).map(
    lambda streams: [(f"d{i}", tokens) for i, tokens in enumerate(streams)]
)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(docs=_CORPUS, query=st.lists(_TERMS, max_size=12))
# four terms shared between query and d0, three of them also in d1
@example(
    docs=[("d0", ["open", "read", "link", "stat", "read", "open", "open"]),
          ("d1", ["read", "link", "stat", "close"]), ("d2", ["unlink"])],
    query=["stat", "link", "read", "open", "open", "close"],
)
# zero vectors: every term in every document, and an empty document
@example(docs=[("d0", ["open", "read"]), ("d1", ["read", "open"]), ("d2", [])],
         query=["open", "read"])
def test_counts_and_norms_score_equals_normalized_dict_oracle(docs, query):
    index = build_index(docs)
    want = _normalized_dict_scores(docs, query)
    for doc_id, _tokens in docs:
        assert similarity(index, query, doc_id) == want[doc_id]
    assert rank(index, query) == sorted(want.items(), key=lambda e: (-e[1], e[0]))


# --- hand-computed 3-document oracle ----------------------------------------------

def test_three_doc_cosine_matches_hand_arithmetic():
    """Corpus: d1 = unlink rename, d2 = rename rename close, d3 = open close.

    N=3; df(unlink)=1, df(rename)=2, df(close)=2, df(open)=1, so
    idf(unlink)=idf(open)=ln 3 and idf(rename)=idf(close)=ln(3/2).
    Query [unlink, rename] has the same direction as d1.
    """
    index = build_index(
        [
            ("d1", ["unlink", "rename"]),
            ("d2", ["rename", "rename", "close"]),
            ("d3", ["open", "close"]),
        ]
    )
    ln3 = math.log(3.0)
    ln15 = math.log(1.5)

    q_norm = math.sqrt(ln3 * ln3 + ln15 * ln15)
    # d2 vector: rename 2*ln15, close ln15 -> norm = ln15 * sqrt(5)
    d2_norm = ln15 * math.sqrt(5.0)
    want_d1 = 1.0
    want_d2 = (ln15 / q_norm) * (2.0 * ln15 / d2_norm)
    want_d3 = 0.0

    query = ["unlink", "rename"]
    assert similarity(index, query, "d1") == pytest.approx(want_d1, abs=TOL)
    assert similarity(index, query, "d2") == pytest.approx(want_d2, abs=TOL)
    assert similarity(index, query, "d3") == pytest.approx(want_d3, abs=TOL)

    ranked = rank(index, query)
    assert [doc for doc, _ in ranked] == ["d1", "d2", "d3"]


def test_rank_ties_break_lexicographically():
    index = build_index([("b", ["x"]), ("a", ["x"]), ("c", ["y", "z"])])
    ranked = rank(index, ["q"])  # q unknown: all scores 0
    assert [doc for doc, _ in ranked] == ["a", "b", "c"]


# --- structured ranking: 2-file 12-score matrix -------------------------------------

def _doc(path: str, fname: str, func: str, var: str) -> SourceDoc:
    return SourceDoc(
        path=path,
        fields={
            "file_name": [fname],
            "function_names": [func],
            "variable_names": [var],
            "full_text_with_comments": [fname, func, var],
        },
    )


def _source_index(docs: list[SourceDoc]) -> SourceIndex:
    """An index over hand-built docs: their field indexes, no functions."""
    return SourceIndex(
        docs=docs, field_indexes=build_field_indexes(docs), functions=[], graph=CallGraph()
    )


def test_s_avg_equals_mean_of_twelve_searches():
    """Hand-built matrix: every one of A's non-zero searches is 1 or 1/sqrt(3).

    Per-field indexes over two docs give idf = ln 2 to every term (each term
    lives in exactly one doc).  Query alpha against A's file_name field is a
    perfect match (cosine 1); against the three-term full text it is 1/sqrt(3);
    all other (query, field) combinations are 0.  Twelve searches, three each
    worth 1 and 1/sqrt(3) for A, everything 0 for B:
    S_avg(A) = (3 + 3/sqrt(3)) / 12 = (3 + sqrt(3)) / 12, S_avg(B) = 0.
    """
    docs = [
        _doc("a.c", "alpha", "beta", "gamma"),
        _doc("b.c", "delta", "epsilon", "zeta"),
    ]
    report = BugReport("t", "alpha", "beta")
    keys = KeySystemCalls(entries=[KeyEntry("gamma", 1, "direct")], path="direct")

    ranked = rank_structured(report, keys, _source_index(docs))
    want_a = (3.0 + math.sqrt(3.0)) / 12.0
    assert ranked.entries[0][0] == "a.c"
    assert ranked.entries[0][1] == pytest.approx(want_a, abs=TOL)
    assert ranked.entries[1] == ("b.c", 0.0)

    # the per-search breakdown reproduces the hand matrix cell by cell
    third = 1.0 / math.sqrt(3.0)
    want_matrix = {
        "subject:file_name": 1.0,
        "subject:full_text_with_comments": third,
        "body:function_names": 1.0,
        "body:full_text_with_comments": third,
        "syscalls:variable_names": 1.0,
        "syscalls:full_text_with_comments": third,
    }
    breakdown_a = ranked.breakdown["a.c"]
    assert len(breakdown_a) == STRUCTURED_SEARCH_COUNT == 12
    for cell, score in breakdown_a.items():
        assert score == pytest.approx(want_matrix.get(cell, 0.0), abs=TOL), cell
    assert all(
        score == pytest.approx(0.0, abs=TOL)
        for score in ranked.breakdown["b.c"].values()
    )
    # S_avg is exactly the mean of the twelve recorded scores
    assert sum(breakdown_a.values()) / 12.0 == pytest.approx(ranked.entries[0][1], abs=TOL)


def test_structured_divisor_fixed_when_query_empty():
    docs = [_doc("a.c", "alpha", "beta", "gamma"), _doc("b.c", "delta", "epsilon", "zeta")]
    report = BugReport("t", "alpha", "")  # empty body query
    keys = KeySystemCalls(entries=[], path="derived")  # empty syscalls query
    ranked = rank_structured(report, keys, _source_index(docs))
    # only subject searches can score: 1 + 1/sqrt(3) over the fixed 12
    want = (1.0 + 1.0 / math.sqrt(3.0)) / 12.0
    assert ranked.entries[0] == ("a.c", pytest.approx(want, abs=TOL))


@pytest.mark.parametrize("name", ["mv", "gzip"])
def test_ranking_from_source_index_equals_ranking_from_its_docs(request, name):
    index = request.getfixturevalue(f"{name}_index")
    report = request.getfixturevalue(f"{name}_report")
    keys = request.getfixturevalue(f"{name}_keys")
    docs_only = _source_index(list(index.docs))
    from_index = rank_structured(report, keys, index)
    from_docs = rank_structured(report, keys, docs_only)
    assert from_index.entries == from_docs.entries
    assert from_index.breakdown == from_docs.breakdown
    assert rank_basic(report, index).entries == rank_basic(report, docs_only).entries


def test_source_index_carries_its_field_indexes(mv_index):
    assert mv_index.field_indexes == build_field_indexes(mv_index.docs)


def test_structured_invariant_under_doc_permutation(mv_report, mv_keys, mv_index):
    forward = rank_structured(mv_report, mv_keys, _source_index(mv_index.docs))
    backward = rank_structured(mv_report, mv_keys, _source_index(list(reversed(mv_index.docs))))
    assert forward.entries == backward.entries


# --- rank_basic vs an independent oracle ---------------------------------------------

def _numpy_basic_oracle(report: BugReport, docs: list[SourceDoc]) -> list[tuple[str, float]]:
    """From-scratch TF-IDF cosine on a dense matrix; separate code path."""
    streams = {d.path: d.fields["full_text_with_comments"] for d in docs}
    vocab = sorted({t for tokens in streams.values() for t in tokens})
    t2i = {t: i for i, t in enumerate(vocab)}
    tf = np.zeros((len(docs), len(vocab)))
    for row, d in enumerate(docs):
        for tok in streams[d.path]:
            tf[row, t2i[tok]] += 1.0
    df = (tf > 0).sum(axis=0)
    idf = np.log(len(docs) / df)
    mat = tf * idf
    norms = np.linalg.norm(mat, axis=1)
    mat[norms > 0] /= norms[norms > 0, None]

    qtf = np.zeros(len(vocab))
    for tok in preprocess(report.subject + "\n" + report.body):
        if tok in t2i:
            qtf[t2i[tok]] += 1.0
    qvec = qtf * idf
    qnorm = np.linalg.norm(qvec)
    if qnorm > 0:
        qvec /= qnorm
    scores = mat @ qvec
    pairs = [(d.path, float(scores[i])) for i, d in enumerate(docs)]
    pairs.sort(key=lambda e: (-e[1], e[0]))
    return pairs


@pytest.mark.parametrize("fixture_name", ["mv_index", "gzip_index"])
def test_rank_basic_matches_numpy_oracle(request, fixture_name):
    index = request.getfixturevalue(fixture_name)
    report = request.getfixturevalue(
        "mv_report" if fixture_name == "mv_index" else "gzip_report"
    )
    got = rank_basic(report, index)
    want = _numpy_basic_oracle(report, index.docs)
    assert [p for p, _ in got.entries] == [p for p, _ in want]
    for (_, g), (_, w) in zip(got.entries, want):
        assert g == pytest.approx(w, abs=TOL)


def test_mv_fixture_copy_c_first_in_both_schemes(mv_report, mv_keys, mv_index):
    basic = rank_basic(mv_report, mv_index)
    structured = rank_structured(mv_report, mv_keys, mv_index)
    assert basic.entries[0][0] == "copy.c"
    assert structured.entries[0][0] == "copy.c"
    # scores non-increasing
    for ranked in (basic, structured):
        scores = [s for _, s in ranked.entries]
        assert scores == sorted(scores, reverse=True)


def test_rank_of_and_top(mv_report, mv_keys, mv_index):
    ranked = rank_structured(mv_report, mv_keys, mv_index)
    assert ranked.rank_of("copy.c") == 1
    assert ranked.rank_of("missing.c") is None
    assert ranked.top(3) == [p for p, _ in ranked.entries[:3]]


def test_rank_equals_sorted_per_document_similarity(mv_report, mv_index):
    index = build_index([(d.path, d.fields["full_text_with_comments"]) for d in mv_index.docs])
    query = preprocess(mv_report.subject + "\n" + mv_report.body)
    expected = sorted(
        ((doc_id, similarity(index, query, doc_id)) for doc_id in index.counts),
        key=lambda e: (-e[1], e[0]),
    )
    assert rank(index, query) == expected
