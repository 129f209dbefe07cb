"""TF-IDF retrieval oracles: hand arithmetic, S_avg matrix, independent ranker."""

from __future__ import annotations

import math

import numpy as np
import pytest

from racerepro.catalog import KeyEntry, KeySystemCalls
from racerepro.csource import SourceDoc, index_tree
from racerepro.reports import BugReport, preprocess
from racerepro.retrieval import (
    STRUCTURED_SEARCH_COUNT,
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
    assert index.doc_vectors == {"d1": {}, "d2": {}}
    assert similarity(index, ["alpha"], "d1") == 0.0


def test_single_doc_zero_vector():
    index = build_index([("only", ["alpha", "beta"])])
    assert index.doc_vectors["only"] == {}


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
    index = build_index(
        [("d1", ["a", "a", "b"]), ("d2", ["b", "c"]), ("d3", ["c", "c", "d"])]
    )
    for vec in index.doc_vectors.values():
        if vec:
            assert math.sqrt(sum(w * w for w in vec.values())) == pytest.approx(1.0, abs=TOL)


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
    report = BugReport.from_parts("t", "alpha", "beta")
    keys = KeySystemCalls(entries=[KeyEntry("gamma", 1, "direct")], path="direct")

    ranked = rank_structured(report, keys, docs)
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
    report = BugReport.from_parts("t", "alpha", "")  # empty body query
    keys = KeySystemCalls(entries=[], path="derived")  # empty syscalls query
    ranked = rank_structured(report, keys, docs)
    # only subject searches can score: 1 + 1/sqrt(3) over the fixed 12
    want = (1.0 + 1.0 / math.sqrt(3.0)) / 12.0
    assert ranked.entries[0] == ("a.c", pytest.approx(want, abs=TOL))


def test_structured_invariant_under_doc_permutation(mv_report, mv_keys, mv_index):
    forward = rank_structured(mv_report, mv_keys, mv_index.docs)
    backward = rank_structured(mv_report, mv_keys, list(reversed(mv_index.docs)))
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


def test_rank_basic_accepts_index_or_doc_list(mv_report, mv_index):
    assert rank_basic(mv_report, mv_index).entries == rank_basic(mv_report, mv_index.docs).entries


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
        ((doc_id, similarity(index, query, doc_id)) for doc_id in index.doc_vectors),
        key=lambda e: (-e[1], e[0]),
    )
    assert rank(index, query) == expected
