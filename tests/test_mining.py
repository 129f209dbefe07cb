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
    report = BugReport("t", "subj", "a. b. c.")
    keys = _keys({2: ["rename"], 0: ["unlink", "rename"]})
    db = build_transactions(report, keys)
    assert db.transactions == [(0, ["unlink", "rename"]), (2, ["rename"])]


def test_build_transactions_leaves_out_the_subject():
    report = BugReport("t", "unlink here", "a.")
    keys = _keys({0: ["rename"]}, subject=["unlink"])
    assert build_transactions(report, keys).transactions == [(0, ["rename"])]


def test_build_transactions_rejects_dangling_sentence_index():
    report = BugReport("t", "s", "only one.")
    for idx in (3, -1):
        with pytest.raises(ValueError):
            build_transactions(report, _keys({idx: ["rename"]}))


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
        # pairs of one frequency, first seen out of name order
        [(0, ["c", "d"]), (1, ["a", "b"])],
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


# --- keys no body sentence names --------------------------------------------------

def test_rank_interleavings_derived_keys_uniform_singletons():
    keys = KeySystemCalls(
        entries=[KeyEntry("chmod", 1, "derived"), KeyEntry("rename", 1, "derived")],
        path="derived",
    )
    ranking = rank_interleavings(BugReport("t", "subj", "body."), keys)
    assert [(tuple(e.items), e.frequency) for e in ranking.entries] == [
        (("chmod",), 1), (("rename",), 1),
    ]
    assert not ranking.enumerate_all


def test_rank_interleavings_empty_keys_enumerates_all():
    ranking = rank_interleavings(
        BugReport("t", "subj", "body."), KeySystemCalls(entries=[], path="derived")
    )
    assert ranking.enumerate_all
    assert ranking.entries == []


def test_unmentioned_keys_follow_the_mined_entries_in_key_order():
    # stat is named only in the subject; link's one body mention was removed,
    # as perturbation does; both follow the mined entries with their counts
    report = BugReport("t", "stat, then stat fails", "unlink then rename. rename again.")
    keys = KeySystemCalls(
        entries=[KeyEntry("stat", 2, "direct"), KeyEntry("link", 1, "direct"),
                 KeyEntry("unlink", 1, "direct"), KeyEntry("rename", 2, "direct")],
        sentence_mentions={0: ["unlink", "rename"], 1: ["rename"]},
        subject_mentions=["stat", "stat"],
    )
    ranking = rank_interleavings(report, keys)
    assert [(e.items, e.frequency) for e in ranking.entries] == [
        (("unlink", "rename"), 1), (("rename",), 2), (("unlink",), 1),
        (("stat",), 2), (("link",), 1),
    ]
    assert not ranking.enumerate_all


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


TWO_ON_ONE_LINE = """\
int
swap (const char *a, const char *b)
{
  if (rename (a, b) < 0 && unlink (b) < 0)
    return -1;
  return 0;
}
"""

UNCONNECTED = (
    "static void a1 (const char *p) { rename (p, \"bak\"); }\n"
    "static void b1 (const char *p) { unlink (p); }\n"
)

PAIR = ("unlink", "rename")


def _around(file: str, function: str, syscall: str, line: int) -> list[tuple]:
    """The before and the after point of one site."""
    return [(file, function, syscall, line, placement, None) for placement in ("before", "after")]


#: case -> (files, items of each ranking entry, ranked files, top_files or None
#: for the default, points as (file, function, syscall, line, placement,
#: partner's (function, syscall, line) or None), the warning locate logs or None)
LOCATIONS = {
    # both combinations live in one function; rename@6/unlink@7 is the
    # closest pair, anchored at the earlier line
    "pair point at minimal line distance": (
        {"w.c": PAIR_TREE}, [PAIR], ["w.c"], None,
        [("w.c", "worker", "rename", 6, "between-pair", ("worker", "unlink", 7))], None),
    # unlink comes first in the file, but only outer (rename) reaches inner
    # (unlink), over two calls, so the call graph puts rename first
    "pair anchors at the second member whose function reaches the first": (
        {"w.c": "int inner (void) { unlink (\"a\"); }\n"
                "int middle (void) { inner (); }\n"
                "int outer (void) { middle (); rename (\"a\", \"b\"); }\n"},
        [PAIR], ["w.c"], None,
        [("w.c", "outer", "rename", 3, "between-pair", ("inner", "unlink", 1))], None),
    "singletons give before and after per site": (
        {"w.c": PAIR_TREE}, [("unlink",)], ["w.c"], None,
        [*_around("w.c", "worker", "unlink", 4), *_around("w.c", "worker", "unlink", 7)], None),
    # rank-1 file first even though its entry is lower-ranked than the other file's
    "files outer, entries inner": (
        {"one.c": "int f (void) { unlink (\"a\"); }\n",
         "two.c": "int g (void) { rename (\"a\", \"b\"); }\n"},
        [("rename",), ("unlink",)], ["two.c", "one.c"], None,
        [*_around("two.c", "g", "rename", 1), *_around("one.c", "f", "unlink", 1)], None),
    "top_files budget": (
        {"one.c": "int f (void) { unlink (\"a\"); }\n",
         "two.c": "int g (void) { unlink (\"b\"); }\n"},
        [("unlink",)], ["one.c", "two.c"], 1,
        _around("one.c", "f", "unlink", 1), None),
    "no sites give no points and one diagnostic": (
        {"one.c": "int f (void) { return 0; }\n"}, [("unlink",)], ["one.c"], None, [],
        "no instrumentation points found in the top 10 files"),
    "no entries instrument every site in line order": (
        {"w.c": PAIR_TREE}, [], ["w.c"], None,
        [*_around("w.c", "worker", "unlink", 4), *_around("w.c", "worker", "rename", 6),
         *_around("w.c", "worker", "unlink", 7)], None),
    # the caller's site anchors and the callee's is the partner, despite its lower line
    "cross-function pair in call-graph order": (
        {"w.c": "static void low (const char *p) { rename (p, \"bak\"); }\n"
                "int high (const char *p) { unlink (p); low (p); return 0; }\n"},
        [PAIR], ["w.c"], None,
        [("w.c", "high", "unlink", 2, "between-pair", ("low", "rename", 1))], None),
    "unconnected pair falls back to line order": (
        {"w.c": UNCONNECTED}, [PAIR], ["w.c"], None,
        [("w.c", "a1", "rename", 1, "between-pair", ("b1", "unlink", 2))],
        "1 pair(s) span unconnected functions, using file-line order; "
        "first: (unlink,rename) b1/a1 in w.c"),
    "cross-function pair takes each member's earliest site": (
        {"w.c": "static void f1 (const char *p) { unlink (p); }\n"
                "static void f2 (const char *p) { rename (p, \"a\"); }\n"
                "static void f3 (const char *p) { unlink (p); }\n"
                "static void f4 (const char *p) { rename (p, \"b\"); }\n"},
        [PAIR], ["w.c"], None,
        [("w.c", "f1", "unlink", 1, "between-pair", ("f2", "rename", 2))],
        "1 pair(s) span unconnected functions, using file-line order; "
        "first: (unlink,rename) f1/f2 in w.c"),
    "unconnected pairs warn once per locate": (
        {"v.c": UNCONNECTED, "w.c": UNCONNECTED}, [PAIR], ["v.c", "w.c"], None,
        [("v.c", "a1", "rename", 1, "between-pair", ("b1", "unlink", 2)),
         ("w.c", "a1", "rename", 1, "between-pair", ("b1", "unlink", 2))],
        "2 pair(s) span unconnected functions, using file-line order; "
        "first: (unlink,rename) b1/a1 in v.c"),
    # one function name, one line, a different syscall per file: every point
    # must carry the syscall of its own file
    "one function name in two files keeps each file's syscall": (
        {"v.c": "static void step (const char *p) { unlink (p); }\n",
         "w.c": "static void step (const char *p) { rename (p, p); }\n"},
        [], ["w.c", "v.c"], None,
        [*_around("w.c", "step", "rename", 1), *_around("v.c", "step", "unlink", 1)], None),
    # one function, one line: the earlier call in the line anchors the pair
    "sites on one line anchor the pair at the earlier call": (
        {"w.c": TWO_ON_ONE_LINE}, [PAIR], ["w.c"], None,
        [("w.c", "swap", "rename", 4, "between-pair", ("swap", "unlink", 4))], None),
    "sites on one line keep their own syscalls": (
        {"w.c": TWO_ON_ONE_LINE}, [], ["w.c"], None,
        [*_around("w.c", "swap", "rename", 4), *_around("w.c", "swap", "unlink", 4)], None),
    # one location, one site: mv's ``if (fsync (fd) != 0 && fsync (fd) != 0)``
    "two calls of one syscall on one line give one point before and one after": (
        {"w.c": "int twice (int fd) { if (close (fd) != 0 && close (fd) != 0) return -1; }\n"},
        [("close",)], ["w.c"], None, _around("w.c", "twice", "close", 1), None),
}


@pytest.mark.parametrize("row", list(LOCATIONS))
def test_locate(row, tmp_path, caplog):
    files, entries, ranked, top_files, want, warning = LOCATIONS[row]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    index = index_tree(tmp_path, SYSCALLS)
    ranking = PairRanking(entries=[RankEntry(items=items, frequency=1) for items in entries])
    budget = {} if top_files is None else {"top_files": top_files}
    with caplog.at_level("WARNING"):
        points = locate(ranking, _ranked(ranked), index, **budget)
    assert [p.rank for p in points] == list(range(1, len(points) + 1))
    assert all(p.pair_partner.file == p.file for p in points if p.pair_partner is not None)
    assert [(p.file, p.function, p.syscall, p.line, p.placement,
             None if s is None else (s.function, s.syscall, s.line))
            for p in points for s in [p.pair_partner]] == want
    assert [r.getMessage() for r in caplog.records] == ([warning] if warning else [])


def test_mv_fixture_point_one_is_the_buggy_pair(mv_ranking, mv_ranked_files, mv_index):
    points = locate(mv_ranking, mv_ranked_files, mv_index)
    first = points[0]
    assert (first.file, first.function, first.syscall, first.line) == (
        "copy.c", "copy_internal", "unlink", 307,
    )
    assert first.placement == "between-pair"
    assert (first.pair_partner.syscall, first.pair_partner.line) == ("rename", 309)
    assert [p.rank for p in points] == list(range(1, len(points) + 1))



# --- the index's site map -----------------------------------------------------------

def _sites_by_grouping(index, path: str, names: frozenset[str]) -> list[Site]:
    """Group every record by file, keep its calls to ``names``, sort the
    file's sites by line, then drop repeats: the site list the index keeps
    for the file, built another way."""
    by_file = {}
    for record in index.functions:
        by_file.setdefault(record.file, []).append(record)
    sites = [
        Site(name, record.file, record.name, line)
        for record in by_file.get(path, [])
        for name, line in record.call_sites
        if name in names
    ]
    sites.sort(key=lambda s: s.line)
    return list(dict.fromkeys(sites))


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
    assert list(index.sites) == [d.path for d in index.docs]
    for path in [d.path for d in index.docs] + ["missing.c", "a"]:
        assert index.sites.get(path, []) == _sites_by_grouping(index, path, names), path


def test_two_locates_build_each_top_files_sites_once(tmp_path, monkeypatch):
    built = []

    def counting(records, names):
        built.append(records[0].file if records else None)
        return file_sites(records, names)

    file_sites = csource._file_sites
    monkeypatch.setattr(csource, "_file_sites", counting)
    monkeypatch.setattr(csource, "_indexes", {})
    index = index_tree(_nested_tree(tmp_path), SYSCALLS)
    # once per file, in file order, while the index is built
    assert built == ["a/b.c", "a-b.c", "a.c", None]
    built.clear()
    pair = PairRanking(entries=[RankEntry(items=("unlink", "stat"), frequency=1)])
    every = PairRanking(entries=[])
    first = locate(pair, _ranked(["a/b.c", "a.c"]), index)
    second = locate(every, _ranked(["a/b.c", "a.c", "a-b.c"]), index, top_files=2)
    assert built == []
    assert [(p.syscall, p.line) for p in first] == [("unlink", 1)]
    assert [(p.syscall, p.placement) for p in second] == [
        ("unlink", "before"), ("unlink", "after"), ("stat", "before"), ("stat", "after"),
        ("open", "before"), ("open", "after"),
    ]


def test_sites_die_with_their_index(tmp_path, monkeypatch):
    # a memo with room for one of these trees forgets the first for the second
    monkeypatch.setattr(csource, "_MEMO_MAX_BYTES", len(PAIR_TREE))
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
