"""Catalog loading and KeySystemCalls extraction (direct and derived)."""

from __future__ import annotations

from pathlib import Path

import pytest

import racerepro
from racerepro.catalog import (
    SOURCE_DERIVED,
    SOURCE_DIRECT,
    bundled_catalog,
    extract,
    extract_derived,
    extract_direct,
    load_catalog,
)
from racerepro.reports import BugReport, InputError


def make_report(subject: str, body: str) -> BugReport:
    return BugReport("t", subject, body)


# --- loading ------------------------------------------------------------------

def test_load_catalog_first_line_is_summary(tmp_path):
    (tmp_path / "rename.txt").write_text(
        "rename - change the name or location of a file\nSecond line ignored.\n"
    )
    catalog = load_catalog(tmp_path)
    assert list(catalog.entries) == ["rename"]
    assert catalog.entries["rename"] == (
        "rename - change the name or location of a file"
    )


def test_load_catalog_empty_dir(tmp_path):
    with pytest.raises(InputError):
        load_catalog(tmp_path)


def test_load_catalog_empty_file(tmp_path):
    (tmp_path / "open.txt").write_text("")
    with pytest.raises(InputError):
        load_catalog(tmp_path)


def test_bundled_catalog_covers_simulator_ops(catalog):
    for name in ("open", "close", "read", "write", "unlink", "rename",
                 "link", "mkdir", "mknod", "chmod", "stat"):
        assert name in catalog.entries
    assert len(catalog.entries) > 200


# --- direct extraction ----------------------------------------------------------

def test_direct_counts_exact_tokens_only(catalog):
    report = make_report(
        "rename fails",
        "The rename() call raced. Files were renamed and it renames again.",
    )
    keys = extract_direct(report, catalog)
    counts = {e.name: e.count for e in keys.entries}
    # "renamed"/"renames" are different tokens and must not count
    assert counts == {"rename": 2}
    assert keys.path == SOURCE_DIRECT


def test_direct_spans_subject_and_body(catalog):
    report = make_report("unlink bug", "First unlink. Then rename.")
    keys = extract_direct(report, catalog)
    counts = {e.name: e.count for e in keys.entries}
    assert counts == {"unlink": 2, "rename": 1}
    assert keys.subject_mentions == ["unlink"]
    assert keys.sentence_mentions == {0: ["unlink"], 1: ["rename"]}


def test_direct_compounds_do_not_leak(catalog):
    # raw-token scan: "unlink_all" is one token and matches nothing
    report = make_report("x", "calling unlink_all here.")
    keys = extract_direct(report, catalog)
    assert keys.entries == []


def test_mv_fixture_direct_counts(mv_keys):
    counts = {e.name: e.count for e in mv_keys.entries}
    assert counts["unlink"] == 5
    assert counts["rename"] == 8
    assert counts["link"] == 1
    assert counts["open"] == 6
    assert counts["read"] == 6
    assert counts["close"] == 6
    assert mv_keys.path == SOURCE_DIRECT
    assert len(counts) == 12


# --- derived extraction -----------------------------------------------------------

def test_derived_when_no_literal_mention(catalog):
    report = make_report(
        "output briefly world readable",
        "The permissions of the produced file are wrong for a moment.",
    )
    keys = extract(report, catalog)
    assert keys.path == SOURCE_DERIVED
    assert 0 < len(keys.entries) <= 10
    assert all(e.count == 1 for e in keys.entries)


def test_derived_top_n_cut(catalog):
    report = make_report("permissions", "mode bits are wrong.")
    assert len(extract_derived(report, catalog, n=3).entries) == 3
    with pytest.raises(ValueError):
        extract_derived(report, catalog, n=0)


def test_derived_empty_report(catalog):
    report = make_report("", "")
    keys = extract_derived(report, catalog)
    assert keys.entries == []


def test_gzip_fixture_derives_chmod_first(gzip_keys):
    assert gzip_keys.path == SOURCE_DERIVED
    assert gzip_keys.entries[0].name == "chmod"
    assert len(gzip_keys.entries) == 10


def test_extract_dispatch(catalog, mv_report, gzip_report):
    assert extract(mv_report, catalog).path == SOURCE_DIRECT
    assert extract(gzip_report, catalog).path == SOURCE_DERIVED


def test_derived_on_reused_catalog_matches_fresh_load(catalog, gzip_report):
    man_dir = Path(racerepro.__file__).parent / "data" / "manpages"
    reports = [
        gzip_report,
        make_report("permissions race", "the mode of the new file changes after creation"),
        make_report("", ""),
        make_report("socket timeout", "connect blocks until the peer accepts"),
    ]
    for report in reports:
        fresh = load_catalog(man_dir)
        assert extract_derived(report, catalog, 5) == extract_derived(report, fresh, 5)


def test_bundled_catalog_is_loaded_once():
    assert bundled_catalog() is bundled_catalog()
