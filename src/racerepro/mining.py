"""Apriori pair mining over report sentences and instrumentation-point location.

Sentences with syscall mentions become transactions.  Mining is capped at
2-itemsets: singleton frequency counts token occurrences, pair frequency
counts co-occurring transactions (the only rule consistent with the
worked example: five rename mentions give {rename}=5 while {unlink,rename}
spans 2 transactions).  Pairs rank above singletons; within each group
frequency descends and ties break lexicographically.

``locate`` walks the top-ranked files and resolves each ranking entry to
verified syscall call sites, emitting ordered instrumentation points.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .catalog import SOURCE_DIRECT, KeySystemCalls
from .csource import CallGraph, Site, SourceIndex
from .reports import BugReport
from .retrieval import DEFAULT_TOP_FILES, RankedFiles

log = logging.getLogger(__name__)

PLACEMENT_BETWEEN = "between-pair"
PLACEMENT_BEFORE = "before"
PLACEMENT_AFTER = "after"


# --- transactions -----------------------------------------------------------

@dataclass
class TransactionDB:
    """Ordered (sentence index, syscall names in mention order) pairs.

    Only syscall-bearing body sentences appear (the subject line does not);
    multiplicity is preserved.
    """

    transactions: list[tuple[int, list[str]]]


def build_transactions(report: BugReport, keys: KeySystemCalls) -> TransactionDB:
    for idx in keys.sentence_mentions:
        if not 0 <= idx < len(report.sentences):
            raise ValueError(f"mention map references missing sentence {idx}")
    return TransactionDB(transactions=[
        (idx, list(keys.sentence_mentions[idx])) for idx in sorted(keys.sentence_mentions)
    ])


# --- mining -----------------------------------------------------------------

@dataclass(frozen=True)
class RankEntry:
    """A 1- or 2-itemset with its frequency; item order is first-mention order."""

    items: tuple[str, ...]
    frequency: int


@dataclass
class PairRanking:
    entries: list[RankEntry]
    #: set when there were no keys at all: the locator should instrument
    #: every syscall site in the ranked files one by one.
    enumerate_all: bool = False

    @property
    def pairs(self) -> list[RankEntry]:
        return [e for e in self.entries if len(e.items) == 2]

    @property
    def singletons(self) -> list[RankEntry]:
        return [e for e in self.entries if len(e.items) == 1]


def mine_pairs(db: TransactionDB) -> PairRanking:
    """Apriori capped at 2-itemsets with absolute support >= 1."""
    singleton_freq = Counter(name for _idx, items in db.transactions for name in items)
    pair_freq = Counter(
        pair for _idx, items in db.transactions for pair in combinations(sorted(set(items)), 2)
    )
    first_seen = {name: order for order, name in enumerate(singleton_freq)}

    entries: list[RankEntry] = []
    for (a, b), freq in sorted(pair_freq.items(), key=lambda kv: (-kv[1], kv[0])):
        display = (a, b) if first_seen[a] <= first_seen[b] else (b, a)
        entries.append(RankEntry(items=display, frequency=freq))
    for name, freq in sorted(singleton_freq.items(), key=lambda kv: (-kv[1], kv[0])):
        entries.append(RankEntry(items=(name,), frequency=freq))
    return PairRanking(entries=entries)


def rank_fallback(keys: KeySystemCalls) -> PairRanking:
    """Ranking for reports without literal mentions.

    Derived keys become uniform-frequency singletons in derived-rank order.
    Fully empty keys set the enumerate-all flag so the locator instruments
    every syscall site in the top-ranked files one by one.
    """
    if keys.entries and keys.path == SOURCE_DIRECT:
        raise ValueError("rank_fallback is for derived or empty keys; mine direct keys instead")
    if not keys.entries:
        return PairRanking(entries=[], enumerate_all=True)
    entries = [RankEntry(items=(e.name,), frequency=1) for e in keys.entries]
    return PairRanking(entries=entries)


def rank_interleavings(report: BugReport, keys: KeySystemCalls) -> PairRanking:
    """Dispatch: direct keys get mined, derived/empty keys take the fallback."""
    if keys.entries and keys.path == SOURCE_DIRECT:
        return mine_pairs(build_transactions(report, keys))
    return rank_fallback(keys)


# --- instrumentation points -------------------------------------------------

@dataclass
class InstrumentationPoint:
    rank: int
    syscall: str
    file: str
    function: str
    line: int
    placement: str  # between-pair | before | after
    pair_partner: Site | None = None

    @property
    def site(self) -> Site:
        return Site(self.syscall, self.file, self.function, self.line)


#: (site, placement, pair partner) before ranks are assigned
_Located = tuple[Site, str, Site | None]


def _pair_point(
    sites: list[Site],
    graph: CallGraph,
    path: str,
    first: str,
    second: str,
    unconnected: list[str],
) -> _Located | None:
    """Resolve one pair to a between-pair point in this file, or None.

    ``sites`` are the file's syscall sites in file order.  Sites in one
    function, or in functions the call graph does not connect, anchor at
    the earlier site in that order (two calls on one line go by position);
    unconnected pairs are also described in ``unconnected``.  Otherwise
    the call graph's direction decides.
    """
    sites_a = [s for s in sites if s.syscall == first]
    sites_b = [s for s in sites if s.syscall == second]
    if not sites_a or not sites_b:
        return None

    def in_file_order(a: Site, b: Site) -> tuple[Site, Site]:
        return (a, b) if sites.index(a) < sites.index(b) else (b, a)

    # same-function combinations: minimal line distance, then earliest line
    combos = [(a, b) for a in sites_a for b in sites_b if a.function == b.function]
    if combos:
        a, b = min(
            combos,
            key=lambda ab: (abs(ab[0].line - ab[1].line), min(ab[0].line, ab[1].line)),
        )
        anchor, partner = in_file_order(a, b)
    else:
        # cross-function: earliest site per member, ordered by call-graph reachability
        a, b = sites_a[0], sites_b[0]
        if graph.reaches(a.function, b.function):
            anchor, partner = a, b
        elif graph.reaches(b.function, a.function):
            anchor, partner = b, a
        else:
            anchor, partner = in_file_order(a, b)
            unconnected.append(f"({first},{second}) {a.function}/{b.function} in {path}")
    return anchor, PLACEMENT_BETWEEN, partner


def locate(
    ranking: PairRanking,
    ranked_files: RankedFiles,
    index: SourceIndex,
    top_files: int = DEFAULT_TOP_FILES,
) -> list[InstrumentationPoint]:
    """Resolve the ranking to ordered instrumentation points in the top files.

    Files are walked in rank order (outer loop) and ranking entries in rank
    order (inner loop).  Pairs yield one between-pair point anchored at the
    earlier call; singletons yield a before and an after point per site.
    """
    located: list[_Located] = []
    unconnected: list[str] = []
    for path in ranked_files.top(top_files):
        sites = index.sites_in(path)
        if ranking.enumerate_all:
            for site in sites:
                located.append((site, PLACEMENT_BEFORE, None))
                located.append((site, PLACEMENT_AFTER, None))
            continue
        for entry in ranking.entries:
            if len(entry.items) == 2:
                point = _pair_point(
                    sites, index.graph, path, entry.items[0], entry.items[1], unconnected
                )
                if point is not None:
                    located.append(point)
            else:
                for site in sites:
                    if site.syscall == entry.items[0]:
                        located.append((site, PLACEMENT_BEFORE, None))
                        located.append((site, PLACEMENT_AFTER, None))

    if unconnected:
        log.warning(
            "%d pair(s) span unconnected functions, using file-line order; first: %s",
            len(unconnected), unconnected[0],
        )
    if not located:
        log.warning("no instrumentation points found in the top %d files", top_files)
    return [
        InstrumentationPoint(i, *site, placement=placement, pair_partner=partner)
        for i, (site, placement, partner) in enumerate(located, start=1)
    ]
