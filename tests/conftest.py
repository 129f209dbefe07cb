"""Shared fixtures and the acceptance-criteria terminal summary."""

from __future__ import annotations

from pathlib import Path

import pytest

from racerepro.catalog import Catalog, bundled_catalog, extract
from racerepro.csource import SourceIndex, index_tree
from racerepro.harness import Scenario, load_scenario
from racerepro.mining import rank_interleavings
from racerepro.reports import BugReport, load_report
from racerepro.retrieval import RankedFiles, rank_structured

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
MV_DIR = FIXTURES / "mv_438076"
GZIP_DIR = FIXTURES / "gzip_371162"


def fs_state(fs) -> dict[str, tuple[str, int, str, str]]:
    """A filesystem as plain data: each path with its node's kind, mode and
    content, and the first path (in sorted order) that shares that node, so
    hard-link groups compare too."""
    first: dict[int, str] = {}
    return {path: (node.kind, node.mode, node.content, first.setdefault(id(node), path))
            for path, node in sorted(fs.paths.items())}


# --- shared pipeline fixtures -------------------------------------------------

@pytest.fixture(scope="session")
def catalog() -> Catalog:
    return bundled_catalog()


@pytest.fixture(scope="session")
def fixture_dirs() -> list[Path]:
    return sorted(d for d in FIXTURES.iterdir() if d.is_dir())


@pytest.fixture(scope="session")
def mv_report() -> BugReport:
    return load_report(MV_DIR / "mv_438076.txt")


@pytest.fixture(scope="session")
def mv_index(catalog: Catalog) -> SourceIndex:
    return index_tree(MV_DIR / "src", frozenset(catalog.entries))


@pytest.fixture(scope="session")
def mv_keys(mv_report, catalog):
    return extract(mv_report, catalog)


@pytest.fixture(scope="session")
def mv_ranking(mv_report, mv_keys):
    return rank_interleavings(mv_report, mv_keys)


@pytest.fixture(scope="session")
def mv_ranked_files(mv_report, mv_keys, mv_index) -> RankedFiles:
    return rank_structured(mv_report, mv_keys, mv_index)


@pytest.fixture(scope="session")
def mv_scenario() -> Scenario:
    return load_scenario(MV_DIR / "scenario.json")


@pytest.fixture(scope="session")
def gzip_report() -> BugReport:
    return load_report(GZIP_DIR / "gzip_371162.txt")


@pytest.fixture(scope="session")
def gzip_index(catalog: Catalog) -> SourceIndex:
    return index_tree(GZIP_DIR / "src", frozenset(catalog.entries))


@pytest.fixture(scope="session")
def gzip_keys(gzip_report, catalog):
    return extract(gzip_report, catalog)


@pytest.fixture(scope="session")
def gzip_scenario() -> Scenario:
    return load_scenario(GZIP_DIR / "scenario.json")


# --- acceptance summary -------------------------------------------------------

_ACCEPTANCE_RESULTS: dict[str, str] = {}
# call-phase (passed, seconds) of each test in test_properties.py, for C8
_PROPERTY_OUTCOMES: dict[str, tuple[bool, float]] = {}


def pytest_collection_modifyitems(items):
    """Run C8 last, after the property suites whose outcomes it reports."""
    items.sort(key=lambda item: item.name == "test_c8_property_suites")


@pytest.fixture
def property_outcomes() -> dict[str, tuple[bool, float]]:
    return _PROPERTY_OUTCOMES


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.path.name == "test_properties.py":
        _PROPERTY_OUTCOMES[item.name] = (report.passed, report.duration)
    criterion = getattr(item.function, "_criterion", None) if item.function else None
    if criterion is None:
        return
    if report.when == "call":
        _ACCEPTANCE_RESULTS[criterion] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _ACCEPTANCE_RESULTS[criterion] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{label}: {_ACCEPTANCE_RESULTS[label]}")
