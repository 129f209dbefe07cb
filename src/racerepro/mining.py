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
from dataclasses import dataclass, field

from .catalog import SOURCE_DIRECT, KeySystemCalls
from .csource import CallGraph, FunctionRecord, SourceIndex
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

    Only syscall-bearing sentences appear; multiplicity is preserved.  The
    subject line can optionally join as a pseudo-transaction with index -1.
    """

    transactions: list[tuple[int, list[str]]]


def build_transactions(
    report: BugReport, keys: KeySystemCalls, include_subject: bool = False
) -> TransactionDB:
    for idx in keys.sentence_mentions:
        if not 0 <= idx < len(report.sentences):
            raise ValueError(f"mention map references missing sentence {idx}")
    transactions: list[tuple[int, list[str]]] = []
    if include_subject and keys.subject_mentions:
        transactions.append((-1, list(keys.subject_mentions)))
    for idx in sorted(keys.sentence_mentions):
        transactions.append((idx, list(keys.sentence_mentions[idx])))
    return TransactionDB(transactions=transactions)


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
    first_seen: dict[str, int] = {}
    singleton_freq: dict[str, int] = {}
    order = 0
    for _idx, items in db.transactions:
        for name in items:
            if name not in first_seen:
                first_seen[name] = order
                order += 1
            singleton_freq[name] = singleton_freq.get(name, 0) + 1

    pair_freq: dict[tuple[str, str], int] = {}
    names = sorted(singleton_freq)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            count = sum(1 for _idx, items in db.transactions if a in items and b in items)
            if count > 0:
                pair_freq[(a, b)] = count

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

@dataclass(frozen=True)
class Site:
    syscall: str
    file: str
    function: str
    line: int


@dataclass(frozen=True)
class PairPartner:
    syscall: str
    file: str
    function: str
    line: int


@dataclass
class InstrumentationPoint:
    rank: int
    syscall: str
    file: str
    function: str
    line: int
    placement: str  # between-pair | before | after
    pair_partner: PairPartner | None = None


@dataclass
class _Pending:
    site: Site
    placement: str
    partner: PairPartner | None = None


def _functions_by_file(index: SourceIndex) -> dict[str, list[FunctionRecord]]:
    """The index's function records grouped by file, in index order."""
    by_file: dict[str, list[FunctionRecord]] = {}
    for record in index.functions:
        by_file.setdefault(record.file, []).append(record)
    return by_file


def _sites_in_file(records: list[FunctionRecord]) -> list[Site]:
    """Every syscall site of the file's functions, each with its own syscall, by line."""
    sites = [
        Site(name, record.file, record.name, line)
        for record in records
        for name, line in record.syscall_sites
    ]
    sites.sort(key=lambda s: s.line)
    return sites


def _pair_point(
    sites: list[Site],
    graph: CallGraph,
    path: str,
    first: str,
    second: str,
    unconnected: list[str],
) -> _Pending | None:
    """Resolve one pair to a between-pair point in this file, or None.

    ``sites`` are the file's syscall sites.  A pair whose sites sit in
    functions the call graph does not connect is ordered by file line and
    described in ``unconnected``.
    """
    sites_a = [s for s in sites if s.syscall == first]
    sites_b = [s for s in sites if s.syscall == second]
    if not sites_a or not sites_b:
        return None

    # same-function combinations: minimal line distance, then earliest line
    combos = [
        (a, b)
        for a in sites_a
        for b in sites_b
        if a.function == b.function and a.line != b.line
    ]
    if combos:
        a, b = min(
            combos,
            key=lambda ab: (abs(ab[0].line - ab[1].line), min(ab[0].line, ab[1].line)),
        )
        anchor, partner = (a, b) if a.line < b.line else (b, a)
    else:
        # cross-function: earliest site per member, ordered by call-graph reachability
        a, b = sites_a[0], sites_b[0]
        if graph.reaches(a.function, b.function):
            anchor, partner = a, b
        elif graph.reaches(b.function, a.function):
            anchor, partner = b, a
        else:
            anchor, partner = (a, b) if a.line <= b.line else (b, a)
            unconnected.append(f"({first},{second}) {a.function}/{b.function} in {path}")
    return _Pending(
        site=anchor,
        placement=PLACEMENT_BETWEEN,
        partner=PairPartner(partner.syscall, partner.file, partner.function, partner.line),
    )


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
    pending: list[_Pending] = []
    unconnected: list[str] = []
    by_file = _functions_by_file(index)
    for path in ranked_files.top(top_files):
        sites = _sites_in_file(by_file.get(path, []))
        if ranking.enumerate_all:
            for site in sites:
                pending.append(_Pending(site, PLACEMENT_BEFORE))
                pending.append(_Pending(site, PLACEMENT_AFTER))
            continue
        for entry in ranking.entries:
            if len(entry.items) == 2:
                point = _pair_point(
                    sites, index.graph, path, entry.items[0], entry.items[1], unconnected
                )
                if point is not None:
                    pending.append(point)
            else:
                for site in sites:
                    if site.syscall == entry.items[0]:
                        pending.append(_Pending(site, PLACEMENT_BEFORE))
                        pending.append(_Pending(site, PLACEMENT_AFTER))

    if unconnected:
        log.warning(
            "%d pair(s) span unconnected functions, using file-line order; first: %s",
            len(unconnected), unconnected[0],
        )
    if not pending:
        log.warning("no instrumentation points found in the top %d files", top_files)
    return [
        InstrumentationPoint(
            rank=i,
            syscall=p.site.syscall,
            file=p.site.file,
            function=p.site.function,
            line=p.site.line,
            placement=p.placement,
            pair_partner=p.partner,
        )
        for i, p in enumerate(pending, start=1)
    ]
