"""The traced benchmark wraps program attributes by name and puts them back.

``bench/tracing.py`` replaces public functions at the module attribute
where callers look them up.  If one of those attributes disappears, the
traced benchmark breaks; this test fails first.
"""

from __future__ import annotations

import importlib.util
import logging
from pathlib import Path

from racerepro import (
    catalog,
    cli,
    csource,
    harness,
    metrics,
    mining,
    reports,
    retrieval,
    testcases,
    vfs,
)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = (catalog, cli, csource, harness, metrics, mining, reports, retrieval, testcases, vfs)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_hooks_install_and_restore_every_attribute():
    tracing = _load_tracing()
    owners = [*MODULES, vfs.VirtualFS]
    before = [dict(vars(owner)) for owner in owners]
    logger = logging.getLogger(mining.__name__)
    filters = list(logger.filters)

    tracer = tracing.Tracer()
    rr = {m.__name__.rsplit(".", 1)[-1]: m for m in MODULES}
    try:
        tracing.install(tracer, rr)
        patched = [(owner, attr) for owner, attr, _original in tracer._undo]
        assert patched
        for owner, attr in patched:
            assert vars(owner)[attr] is not before[owners.index(owner)][attr], attr
    finally:
        tracer.restore()

    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        for attr, value in saved.items():
            assert now[attr] is value, (owner, attr)
    assert logger.filters == filters


def test_traced_enumeration_counts_its_ops_and_interleavings(mv_scenario):
    # a walk that applied ops without going through VirtualFS.apply would read 0 here
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, {m.__name__.rsplit(".", 1)[-1]: m for m in MODULES})
        results = harness.enumerate_interleavings(mv_scenario)
    finally:
        tracer.restore()
    assert tracer.counts["harness.interleavings_explored"] == len(results) > 0
    assert tracer.counts["vfs.apply.calls"] > 0


def test_replay_reads_the_steps_of_every_schedule(mv_scenario):
    # the replay workload renders what reproduce, random_baseline and the
    # enumeration return through `.steps`, and the tracer keys run_schedule
    # calls on the same attribute; a schedule without it fails every job
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, {m.__name__.rsplit(".", 1)[-1]: m for m in MODULES})
        rand = harness.random_baseline(mv_scenario)
    finally:
        tracer.restore()
    assert tracer.distinct["harness.run_schedule.calls.distinct"]

    point = mining.InstrumentationPoint(rank=1, syscall="rename", file="copy.c",
                                        function="copy_internal", line=309, placement="before")
    repro = harness.reproduce(mv_scenario, [point])
    explored = harness.enumerate_interleavings(mv_scenario)
    schedules = [repro.schedule, rand.schedule, *(sched for sched, _verdict in explored)]
    for sched in schedules:
        assert type(sched.steps) is tuple and sched.steps
        assert all(type(step) is tuple and tuple(map(type, step)) == (str, int)
                   for step in sched.steps)
