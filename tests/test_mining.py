"""Pair mining against brute force, the worked table, and the locate walk."""

from __future__ import annotations

import gc
import weakref
from itertools import combinations

import pytest

from conftest import GZIP_DIR, MV_DIR
from racerepro import csource
from racerepro.catalog import KeyEntry, KeySystemCalls, bundled_catalog
from racerepro.csource import Site, index_tree
from racerepro.mining import (
    PairRanking,
    RankEntry,
    TransactionDB,
    build_transactions,
    locate,
    mine_pairs,
    rank_fallback,
    rank_interleavings,
)
from racerepro.reports import BugReport

SYSCALLS = frozenset({"open", "close", "read", "unlink", "rename", "link", "stat"})

# the published worked example: three transactions of syscall mentions
TABLE_TRANSACTIONS = [
    (0, ["unlink", "rename"]),
    (1, ["link", "rename", "rename", "rename"]),
    (2, ["unlink", "rename"]),
]


# --- transactions ----------------------------------------------------------------

def _keys(sentence_mentions: dict[int, list[str]], subject: list[str] | None = None):
    names: dict[str, int] = {}
    for found in sentence_mentions.values():
        for n in found:
            names[n] = names.get(n, 0) + 1
    entries = [KeyEntry(n, c, "direct") for n, c in names.items()]
    return KeySystemCalls(
        entries=entries,
        sentence_mentions=sentence_mentions,
        subject_mentions=subject or [],
        path="direct",
    )


def test_build_transactions_orders_by_sentence():
    report = BugReport.from_parts("t", "subj", "a. b. c.")
    keys = _keys({2: ["rename"], 0: ["unlink", "rename"]})
    db = build_transactions(report, keys)
    assert db.transactions == [(0, ["unlink", "rename"]), (2, ["rename"])]


def test_build_transactions_leaves_out_the_subject():
    report = BugReport.from_parts("t", "unlink here", "a.")
    keys = _keys({0: ["rename"]}, subject=["unlink"])
    assert build_transactions(report, keys).transactions == [(0, ["rename"])]


def test_build_transactions_rejects_dangling_sentence_index():
    report = BugReport.from_parts("t", "s", "only one.")
    keys = _keys({3: ["rename"]})
    with pytest.raises(ValueError):
        build_transactions(report, keys)


# --- mining vs the worked table -----------------------------------------------------

def test_worked_table_frequencies_and_order():
    ranking = mine_pairs(TransactionDB(transactions=TABLE_TRANSACTIONS))
    as_tuples = [(tuple(e.items), e.frequency) for e in ranking.entries]
    assert as_tuples == [
        (("unlink", "rename"), 2),
        (("rename", "link"), 1),
        (("rename",), 5),
        (("unlink",), 2),
        (("link",), 1),
    ]
    # {unlink, link} never co-occurs: pruned
    assert (("unlink", "link"), 0) not in as_tuples
    assert {tuple(sorted(e.items)) for e in ranking.pairs} == {
        ("rename", "unlink"), ("link", "rename"),
    }


def _brute_force(transactions: list[tuple[int, list[str]]]):
    """Definition-level oracle: occurrences for singletons, co-occurring
    transactions for pairs, pairs before singletons, frequency then name."""
    singles: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    order = 0
    for _i, items in transactions:
        for name in items:
            if name not in first_seen:
                first_seen[name] = order
                order += 1
            singles[name] = singles.get(name, 0) + 1
    pairs = {}
    for a, b in combinations(sorted(singles), 2):
        count = sum(1 for _i, items in transactions if a in items and b in items)
        if count:
            pairs[(a, b)] = count
    out = []
    for (a, b), c in sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0])):
        display = (a, b) if first_seen[a] <= first_seen[b] else (b, a)
        out.append((display, c))
    for n, c in sorted(singles.items(), key=lambda kv: (-kv[1], kv[0])):
        out.append(((n,), c))
    return out


@pytest.mark.parametrize(
    "transactions",
    [
        [],
        [(0, ["open"])],
        [(0, ["open", "close", "open"]), (1, ["close"]), (2, ["open", "read"])],
        [(0, ["a", "b", "c"]), (1, ["c", "b"]), (2, ["a", "c"]), (3, ["b"])],
        TABLE_TRANSACTIONS,
    ],
)
def test_mine_pairs_matches_brute_force(transactions):
    got = mine_pairs(TransactionDB(transactions=list(transactions)))
    assert [(tuple(e.items), e.frequency) for e in got.entries] == _brute_force(transactions)


def test_mv_fixture_pairs(mv_ranking):
    pairs = [(tuple(e.items), e.frequency) for e in mv_ranking.pairs]
    assert pairs[0] == (("unlink", "rename"), 4)
    assert (("rename", "link"), 1) in pairs
    singles = [(e.items[0], e.frequency) for e in mv_ranking.singletons]
    assert singles[0] == ("rename", 7)


# --- fallback -----------------------------------------------------------------------

def test_rank_fallback_uniform_singletons():
    keys = KeySystemCalls(
        entries=[KeyEntry("chmod", 1, "derived"), KeyEntry("rename", 1, "derived")],
        path="derived",
    )
    ranking = rank_fallback(keys)
    assert [(tuple(e.items), e.frequency) for e in ranking.entries] == [
        (("chmod",), 1), (("rename",), 1),
    ]
    assert not ranking.enumerate_all


def test_rank_fallback_rejects_direct_keys():
    keys = KeySystemCalls(entries=[KeyEntry("rename", 2, "direct")], path="direct")
    with pytest.raises(ValueError):
        rank_fallback(keys)


def test_rank_fallback_empty_keys_enumerates_all():
    ranking = rank_fallback(KeySystemCalls(entries=[], path="derived"))
    assert ranking.enumerate_all
    assert ranking.entries == []


def test_rank_interleavings_dispatch(mv_report, mv_keys):
    assert rank_interleavings(mv_report, mv_keys).pairs  # direct -> mined
    derived = KeySystemCalls(entries=[KeyEntry("chmod", 1, "derived")], path="derived")
    assert not rank_interleavings(mv_report, derived).pairs


# --- locate -----------------------------------------------------------------------

PAIR_TREE = """\
int
worker (const char *p, const char *q)
{
  unlink (p);
  log_it (p);
  rename (q, p);
  unlink (q);
}
"""


def _ranked(paths: list[str]):
    from racerepro.retrieval import RankedFiles

    return RankedFiles(entries=[(p, 1.0 - i * 0.1) for i, p in enumerate(paths)], scheme="structured")


def test_pair_point_minimal_line_distance(tmp_path):
    (tmp_path / "w.c").write_text(PAIR_TREE)
    index = index_tree(tmp_path, SYSCALLS)
    ranking = PairRanking(entries=[RankEntry(items=("unlink", "rename"), frequency=2)])
    points = locate(ranking, _ranked(["w.c"]), index)
    # both combinations live in one function; rename@6/unlink@7 is the
    # closest pair, anchored at the earlier line
    assert len(points) == 1
    point = points[0]
    assert (point.syscall, point.line, point.placement) == ("rename", 6, "between-pair")
    assert (point.pair_partner.syscall, point.pair_partner.line) == ("unlink", 7)


def test_singletons_give_before_and_after_per_site(tmp_path):
    (tmp_path / "w.c").write_text(PAIR_TREE)
    index = index_tree(tmp_path, SYSCALLS)
    ranking = PairRanking(entries=[RankEntry(items=("unlink",), frequency=2)])
    points = locate(ranking, _ranked(["w.c"]), index)
    assert [(p.line, p.placement) for p in points] == [
        (4, "before"), (4, "after"), (7, "before"), (7, "after"),
    ]
    assert [p.rank for p in points] == [1, 2, 3, 4]


def test_locate_walks_files_outer_entries_inner(tmp_path):
    (tmp_path / "one.c").write_text("int f (void) { unlink (\"a\"); }\n")
    (tmp_path / "two.c").write_text("int g (void) { rename (\"a\", \"b\"); }\n")
    index = index_tree(tmp_path, SYSCALLS)
    ranking = PairRanking(
        entries=[
            RankEntry(items=("rename",), frequency=3),
            RankEntry(items=("unlink",), frequency=1),
        ]
    )
    points = locate(ranking, _ranked(["two.c", "one.c"]), index)
    # rank-1 file first even though its entry is lower-ranked than the other file's
    assert [(p.file, p.syscall) for p in points] == [
        ("two.c", "rename"), ("two.c", "rename"),
        ("one.c", "unlink"), ("one.c", "unlink"),
    ]


def test_locate_respects_top_files_budget(tmp_path):
    (tmp_path / "one.c").write_text("int f (void) { unlink (\"a\"); }\n")
    (tmp_path / "two.c").write_text("int g (void) { unlink (\"b\"); }\n")
    index = index_tree(tmp_path, SYSCALLS)
    ranking = PairRanking(entries=[RankEntry(items=("unlink",), frequency=1)])
    points = locate(ranking, _ranked(["one.c", "two.c"]), index, top_files=1)
    assert {p.file for p in points} == {"one.c"}


def test_locate_no_sites_returns_empty_with_diagnostic(tmp_path, caplog):
    (tmp_path / "one.c").write_text("int f (void) { return 0; }\n")
    index = index_tree(tmp_path, SYSCALLS)
    ranking = PairRanking(entries=[RankEntry(items=("unlink",), frequency=1)])
    with caplog.at_level("WARNING"):
        points = locate(ranking, _ranked(["one.c"]), index)
    assert points == []
    assert any("no instrumentation points" in r.message for r in caplog.records)


def test_locate_enumerate_all_instruments_every_site(tmp_path):
    (tmp_path / "w.c").write_text(PAIR_TREE)
    index = index_tree(tmp_path, SYSCALLS)
    ranking = PairRanking(entries=[], enumerate_all=True)
    points = locate(ranking, _ranked(["w.c"]), index)
    # 3 sites (unlink@4, rename@6, unlink@7) x before/after, in line order
    assert [(p.syscall, p.line, p.placement) for p in points] == [
        ("unlink", 4, "before"), ("unlink", 4, "after"),
        ("rename", 6, "before"), ("rename", 6, "after"),
        ("unlink", 7, "before"), ("unlink", 7, "after"),
    ]


def test_cross_function_pair_uses_call_graph_order(tmp_path):
    (tmp_path / "w.c").write_text(
        "static void low (const char *p) { rename (p, \"bak\"); }\n"
        "int high (const char *p) { unlink (p); low (p); return 0; }\n"
    )
    index = index_tree(tmp_path, SYSCALLS)
    ranking = PairRanking(entries=[RankEntry(items=("unlink", "rename"), frequency=1)])
    points = locate(ranking, _ranked(["w.c"]), index)
    assert len(points) == 1
    # caller's site anchors; callee's is the partner, despite lower line number
    assert points[0].syscall == "unlink"
    assert points[0].function == "high"
    assert points[0].pair_partner.function == "low"


def test_cross_function_unconnected_falls_back_to_line_order(tmp_path, caplog):
    (tmp_path / "w.c").write_text(
        "static void a1 (const char *p) { rename (p, \"bak\"); }\n"
        "static void b1 (const char *p) { unlink (p); }\n"
    )
    index = index_tree(tmp_path, SYSCALLS)
    ranking = PairRanking(entries=[RankEntry(items=("unlink", "rename"), frequency=1)])
    with caplog.at_level("WARNING"):
        points = locate(ranking, _ranked(["w.c"]), index)
    assert points[0].syscall == "rename"  # earlier line wins
    assert any("unconnected functions" in r.message for r in caplog.records)


def test_unconnected_pairs_warn_once_per_locate(tmp_path, caplog):
    for name in ("v.c", "w.c"):
        (tmp_path / name).write_text(
            "static void a1 (const char *p) { rename (p, \"bak\"); }\n"
            "static void b1 (const char *p) { unlink (p); }\n"
        )
    index = index_tree(tmp_path, SYSCALLS)
    ranking = PairRanking(entries=[RankEntry(items=("unlink", "rename"), frequency=1)])
    with caplog.at_level("WARNING"):
        points = locate(ranking, _ranked(["v.c", "w.c"]), index)
    assert len(points) == 2
    warnings = [r.getMessage() for r in caplog.records if "unconnected" in r.getMessage()]
    assert len(warnings) == 1
    assert warnings[0].startswith("2 pair(s) span unconnected functions")
    assert warnings[0].endswith("first: (unlink,rename) b1/a1 in v.c")


def test_mv_fixture_point_one_is_the_buggy_pair(mv_ranking, mv_ranked_files, mv_index):
    points = locate(mv_ranking, mv_ranked_files, mv_index)
    first = points[0]
    assert (first.file, first.function, first.syscall, first.line) == (
        "copy.c", "copy_internal", "unlink", 307,
    )
    assert first.placement == "between-pair"
    assert (first.pair_partner.syscall, first.pair_partner.line) == ("rename", 309)
    assert [p.rank for p in points] == list(range(1, len(points) + 1))


def test_same_function_name_in_two_files_keeps_each_files_syscall(tmp_path):
    # one function name, one line, a different syscall per file: every point
    # must carry the syscall of its own file
    (tmp_path / "v.c").write_text("static void step (const char *p) { unlink (p); }\n")
    (tmp_path / "w.c").write_text("static void step (const char *p) { rename (p, p); }\n")
    index = index_tree(tmp_path, SYSCALLS)
    ranking = PairRanking(entries=[], enumerate_all=True)
    points = locate(ranking, _ranked(["w.c", "v.c"]), index)
    assert [(p.file, p.syscall, p.placement) for p in points] == [
        ("w.c", "rename", "before"), ("w.c", "rename", "after"),
        ("v.c", "unlink", "before"), ("v.c", "unlink", "after"),
    ]


TWO_ON_ONE_LINE = """\
int
swap (const char *a, const char *b)
{
  if (rename (a, b) < 0 && unlink (b) < 0)
    return -1;
  return 0;
}
"""


def test_sites_on_one_line_keep_their_own_syscalls(tmp_path, caplog):
    (tmp_path / "w.c").write_text(TWO_ON_ONE_LINE)
    index = index_tree(tmp_path, SYSCALLS)
    pair = PairRanking(entries=[RankEntry(items=("unlink", "rename"), frequency=1)])
    with caplog.at_level("WARNING"):
        (point,) = locate(pair, _ranked(["w.c"]), index)
    # one function, one line: the earlier call in the line anchors the pair
    assert (point.syscall, point.line) == ("rename", 4)
    assert (point.pair_partner.syscall, point.pair_partner.line) == ("unlink", 4)
    assert not caplog.records
    every = locate(PairRanking(entries=[], enumerate_all=True), _ranked(["w.c"]), index)
    assert [(p.syscall, p.line, p.placement) for p in every] == [
        ("rename", 4, "before"), ("rename", 4, "after"),
        ("unlink", 4, "before"), ("unlink", 4, "after"),
    ]


# --- the index's site map -----------------------------------------------------------

def _sites_by_grouping(index, path: str) -> list[Site]:
    """Group every record by file, then sort the file's sites by line: how
    ``locate`` found a file's sites before the index kept them."""
    by_file = {}
    for record in index.functions:
        by_file.setdefault(record.file, []).append(record)
    sites = [
        Site(name, record.file, record.name, line)
        for record in by_file.get(path, [])
        for name, line in record.syscall_sites
    ]
    sites.sort(key=lambda s: s.line)
    return sites


def _nested_tree(root):
    # string order is a-b.c, a.c, a/b.c; path-component order puts a/b.c first
    (root / "a").mkdir()
    (root / "a" / "b.c").write_text("int ab (void) { unlink (\"x\"); return stat (\"x\", 0); }\n")
    (root / "a-b.c").write_text("int dash (void) { rename (\"x\", \"y\"); }\n")
    (root / "a.c").write_text("int a1 (void) { return 0; }\nint a2 (void) { open (\"x\"); }\n")
    (root / "b.h").write_text("int decl (int x);\n")
    return root


@pytest.mark.parametrize("root", [MV_DIR / "src", GZIP_DIR / "src", None])
def test_sites_in_equals_grouping_every_file(root, tmp_path):
    names = frozenset(bundled_catalog().entries) | SYSCALLS
    index = index_tree(root or _nested_tree(tmp_path), names)
    for path in [d.path for d in index.docs] + ["missing.c", "a"]:
        assert index.sites_in(path) == _sites_by_grouping(index, path), path


def test_two_locates_build_each_top_files_sites_once(tmp_path, monkeypatch):
    built = []

    def counting(records):
        built.append(records[0].file if records else None)
        return file_sites(records)

    file_sites = csource._file_sites
    monkeypatch.setattr(csource, "_file_sites", counting)
    index = index_tree(_nested_tree(tmp_path), SYSCALLS)
    pair = PairRanking(entries=[RankEntry(items=("unlink", "stat"), frequency=1)])
    every = PairRanking(entries=[], enumerate_all=True)
    first = locate(pair, _ranked(["a/b.c", "a.c"]), index)
    second = locate(every, _ranked(["a/b.c", "a.c", "a-b.c"]), index, top_files=2)
    assert sorted(built) == ["a.c", "a/b.c"]
    assert [(p.syscall, p.line) for p in first] == [("unlink", 1)]
    assert [(p.syscall, p.placement) for p in second] == [
        ("unlink", "before"), ("unlink", "after"), ("stat", "before"), ("stat", "after"),
        ("open", "before"), ("open", "after"),
    ]


def test_sites_die_with_their_index(tmp_path):
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    (tmp_path / "one" / "w.c").write_text(PAIR_TREE)
    (tmp_path / "two" / "w.c").write_text(PAIR_TREE.replace("unlink (q)", "stat (q)"))
    index = index_tree(tmp_path / "one", SYSCALLS)
    ranking = PairRanking(entries=[RankEntry(items=("unlink", "rename"), frequency=1)])
    assert locate(ranking, _ranked(["w.c"]), index)
    old = weakref.ref(index)
    del index
    assert index_tree(tmp_path / "two", SYSCALLS) is not None
    gc.collect()
    assert old() is None
