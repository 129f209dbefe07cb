"""System-call catalog and KeySystemCalls extraction.

The catalog holds one entry per syscall: its name plus the NAME-section
summary from the manual page.  Extraction runs in two modes:

* direct: exact token matches of catalog names in the report (so
  ``rename()`` counts, ``renamed`` does not);
* derived: when no literal name appears, the report is run as a TF-IDF
  query over the NAME summaries and the top-n syscalls are adopted with a
  uniform frequency of 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain
from pathlib import Path

from .reports import BugReport, InputError, preprocess, reading, utf8_name, words
from .retrieval import TfIdfIndex, build_index, rank

DEFAULT_DERIVED_N = 10

SOURCE_DIRECT = "direct"
SOURCE_DERIVED = "derived"


@dataclass
class Catalog:
    #: syscall name -> its NAME summary
    entries: dict[str, str]

    @cached_property
    def summary_index(self) -> TfIdfIndex:
        """TF-IDF index over the NAME summaries, built on first use.

        Cached on the instance, so ``entries`` must not change afterwards.
        """
        return build_index([
            (name, preprocess(summary)) for name, summary in sorted(self.entries.items())
        ])


def load_catalog(man_dir: str | Path) -> Catalog:
    """Load ``<dir>/<syscall>.txt`` files; the first line is the NAME summary."""
    man_dir = Path(man_dir)
    entries: dict[str, str] = {}
    for path in sorted(man_dir.glob("*.txt")):
        with reading(path):
            utf8_name(path.name)
            text = path.read_text("utf-8").strip()
        if not text:
            raise InputError(f"{path}: empty man-page file")
        entries[path.stem] = text.splitlines()[0].strip()
    if not entries:
        raise InputError(f"{man_dir}: no man-page files found")
    return Catalog(entries=entries)


@cache
def bundled_catalog() -> Catalog:
    """The catalog shipped with the package (~280 common Linux syscalls).

    Loaded once per process; every call returns the same read-only Catalog.
    """
    from importlib import resources

    with resources.as_file(resources.files("racerepro") / "data" / "manpages") as man_dir:
        return load_catalog(man_dir)


# --- extraction -------------------------------------------------------------

@dataclass(frozen=True)
class KeyEntry:
    name: str
    count: int
    source: str  # "direct" or "derived"


@dataclass
class KeySystemCalls:
    """Ranked syscall list plus where each mention sits in the report."""

    entries: list[KeyEntry]
    #: body sentence index -> syscall names in mention order (non-empty lists only)
    sentence_mentions: dict[int, list[str]] = field(default_factory=dict)
    #: syscall names mentioned in the subject line, in order
    subject_mentions: list[str] = field(default_factory=list)
    #: which extraction path produced this: "direct" or "derived"
    path: str = SOURCE_DIRECT


def _mentions(text: str, names: frozenset[str]) -> list[str]:
    """Catalog names appearing as whole (lowercased, unsplit) tokens, in order."""
    return [tok for tok in words(text) if tok in names]


def extract_direct(report: BugReport, catalog: Catalog) -> KeySystemCalls:
    """Literal syscall-name mentions with counts over subject + body."""
    names = frozenset(catalog.entries)
    subject_mentions = _mentions(report.subject, names)
    sentence_mentions: dict[int, list[str]] = {}
    for idx, sentence in enumerate(report.sentences):
        found = _mentions(sentence, names)
        if found:
            sentence_mentions[idx] = found

    counts = Counter(chain(subject_mentions, *sentence_mentions.values()))
    entries = [KeyEntry(name, count, SOURCE_DIRECT) for name, count in counts.items()]
    return KeySystemCalls(
        entries=entries,
        sentence_mentions=sentence_mentions,
        subject_mentions=subject_mentions,
        path=SOURCE_DIRECT,
    )


def extract_derived(
    report: BugReport, catalog: Catalog, n: int = DEFAULT_DERIVED_N
) -> KeySystemCalls:
    """Top-n catalog names by TF-IDF similarity of the report to NAME summaries.

    All derived entries carry a uniform frequency of 1.  An empty query (an
    empty or all-stop-word report) yields an empty result.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    query = report.subject_terms + report.body_terms
    if not query:
        return KeySystemCalls(entries=[], path=SOURCE_DERIVED)
    ranked = rank(catalog.summary_index, query)
    entries = [KeyEntry(name, 1, SOURCE_DERIVED) for name, _ in ranked[:n]]
    return KeySystemCalls(entries=entries, path=SOURCE_DERIVED)


def extract(
    report: BugReport, catalog: Catalog, n: int = DEFAULT_DERIVED_N
) -> KeySystemCalls:
    """Direct extraction when any literal name matches, else the derived path."""
    direct = extract_direct(report, catalog)
    if direct.entries:
        return direct
    return extract_derived(report, catalog, n)
