"""No entry point leaves cyclic garbage: what a call makes is freed by
reference counting once the caller drops its result, not by a later
collector pass."""

from __future__ import annotations

import types
from functools import partial

import pytest

from conftest import GZIP_DIR, MV_DIR, no_cyclic_garbage
from racerepro import csource
from racerepro.catalog import bundled_catalog
from racerepro.cli import EXIT_OK, main
from racerepro.harness import (Oracle, enumerate_interleavings, load_scenario, random_baseline,
                               reproduce)
from racerepro.metrics import ExperimentConfig, FixtureBundle, Pipeline, run_fixture


def _reproduce(bundle: FixtureBundle):
    points = Pipeline(ExperimentConfig(), bundle.report_path, bundle.src_root,
                      bundle.scenario_path).points
    return partial(reproduce, load_scenario(bundle.scenario_path), points)


def _fresh_index(bundle: FixtureBundle, monkeypatch):
    monkeypatch.setattr(csource, "_indexes", {})
    return partial(csource.index_tree, bundle.src_root, frozenset(bundled_catalog().entries))


# entry point -> (bundle, monkeypatch) -> the call to run
ENTRY_POINTS = {
    "enumerate_interleavings":
        lambda b, _: partial(enumerate_interleavings, load_scenario(b.scenario_path)),
    "reproduce": lambda b, _: _reproduce(b),
    "random_baseline":
        lambda b, _: partial(random_baseline, load_scenario(b.scenario_path)),
    "fresh index_tree": _fresh_index,
    "run_fixture": lambda b, _: partial(run_fixture, b, ExperimentConfig()),
}


@pytest.mark.parametrize("bundle_dir", [MV_DIR, GZIP_DIR], ids=lambda d: d.name)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_point_leaves_no_cyclic_garbage(entry, bundle_dir, monkeypatch):
    call = ENTRY_POINTS[entry](FixtureBundle.from_dir(bundle_dir), monkeypatch)
    assert no_cyclic_garbage(call) == []


def test_a_walk_that_raises_leaves_no_cyclic_garbage(monkeypatch):
    def failing(self, fs, open_failed):
        raise RuntimeError("oracle failed")

    monkeypatch.setattr(Oracle, "evaluate", failing)
    scn = load_scenario(MV_DIR / "scenario.json")

    def call():
        with pytest.raises(RuntimeError):
            enumerate_interleavings(scn)

    assert no_cyclic_garbage(call) == []


def _origin(obj) -> str:
    """The module that an object's type, or its function, comes from."""
    if isinstance(obj, types.MethodType):
        obj = obj.__func__
    if isinstance(obj, types.FunctionType):
        return obj.__module__ or ""
    return type(obj).__module__


def test_pipeline_run_leaves_no_cyclic_garbage_of_its_own(tmp_path, capsys):
    """The standard library's JSON encoder leaves closures behind on each
    dump; nothing made by racerepro or by its argument parser may.  The
    first call builds the parser, whose argparse set-up leaves cycles once
    per process, so a second call is measured."""
    argv = ["pipeline", "--report", str(MV_DIR / "mv_438076.txt"), "--src", str(MV_DIR / "src"),
            "--scenario", str(MV_DIR / "scenario.json"), "--tsl", str(MV_DIR / "mv.tsl"),
            "--out-dir", str(tmp_path)]
    codes = [main(argv)]
    garbage = no_cyclic_garbage(lambda: codes.append(main(argv)))
    assert codes == [EXIT_OK, EXIT_OK]
    assert sorted({_origin(o) for o in garbage
                   if _origin(o).partition(".")[0] in ("racerepro", "argparse")}) == []
