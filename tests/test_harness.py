"""Scenario replay: schedules, delay injection, enumeration, reproduction."""

from __future__ import annotations

import gc
import json
import random
from collections import Counter
from dataclasses import dataclass, fields, replace

import pytest

from conftest import fs_state
from racerepro import harness
from racerepro.harness import (
    ORACLE_KINDS,
    VERDICT_FAIL,
    VERDICT_PASS,
    FsEntry,
    InterleavingSchedule,
    Oracle,
    Scenario,
    SyscallOp,
    baseline_schedule,
    enumerate_interleavings,
    format_schedule,
    load_scenario,
    random_baseline,
    reproduce,
    run_schedule,
    schedule_with_delay,
)
from racerepro.mining import InstrumentationPoint, locate
from racerepro.vfs import ENOENT, Node, VirtualFS, path_args
from test_properties import _enumerate_by_replay


def _point(placement: str, file: str, function: str, line: int, rank: int = 1):
    return InstrumentationPoint(
        rank=rank, syscall="chmod", file=file, function=function,
        line=line, placement=placement,
    )


LOCKED = Oracle(kind="final-mode", path="f", expected_mode=0o444)


def _two_proc(src_map) -> Scenario:
    """writer creates f then locks it down; tamperer loosens it mid-flight."""
    return Scenario(
        id="two-proc",
        processes=[
            ("writer", [
                SyscallOp("mknod", ("f", 0o600)),
                SyscallOp("write", ("f", "data")),
                SyscallOp("close", ("f",)),
                SyscallOp("chmod", ("f", 0o444)),
            ]),
            ("tamperer", [SyscallOp("chmod", ("f", 0o666))]),
        ],
        initial_fs=[],
        oracle=LOCKED,
        src_map=src_map,
    )


def _at_57(placement: str, rank: int = 1):
    return _point(placement, "gzip.c", "treat_file", 57, rank)


# writer then tamperer, the writer's chmod mapped to gzip.c:treat_file:57:
# the tamperer's chmod lands last without any delay
WRITER_FIRST = _two_proc({("gzip.c", "treat_file", 57): ("writer", 3)})


# --- construction and validation -----------------------------------------------

def test_syscallop_rejects_unknown_kind():
    with pytest.raises(ValueError):
        SyscallOp("fork", ())


def test_syscallop_rejects_bad_arity():
    with pytest.raises(ValueError):
        SyscallOp("rename", ("only-one",))


def test_oracle_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Oracle(kind="exit-code", path="f")


@pytest.mark.parametrize("kind", ["final-mode", "final-content"])
def test_oracle_needs_its_expected_value(kind):
    with pytest.raises(ValueError, match=kind):
        Oracle(kind=kind, path="f")


def test_scenario_rejects_duplicate_fs_paths():
    with pytest.raises(ValueError):
        Scenario(
            id="dup",
            processes=[("p", [SyscallOp("stat", ("f",))])],
            initial_fs=[FsEntry(path="f"), FsEntry(path="f")],
            oracle=Oracle(kind="path-missing", path="f"),
        )


def test_scenario_rejects_duplicate_process_names():
    with pytest.raises(ValueError):
        Scenario(
            id="dup",
            processes=[("p", []), ("p", [])],
            initial_fs=[],
            oracle=Oracle(kind="path-missing", path="f"),
        )


@pytest.mark.parametrize("target", [("ghost", 0), ("p", 1), ("p", -1)])  # p has one op
def test_scenario_rejects_dangling_src_map(target):
    with pytest.raises(ValueError):
        Scenario(
            id="bad-map",
            processes=[("p", [SyscallOp("stat", ("f",))])],
            initial_fs=[],
            oracle=Oracle(kind="path-missing", path="f"),
            src_map={("a.c", "main", 3): target},
        )


# --- persistence -----------------------------------------------------------------

def test_scenario_roundtrip(tmp_path):
    out = tmp_path / "scenario.json"
    out.write_text(json.dumps({
        "id": "two-proc",
        "processes": [
            {"name": "writer", "trace": [
                {"kind": "mknod", "args": ["f", "600"]},
                {"kind": "write", "args": ["f", "data"]},
                {"kind": "close", "args": ["f"]},
                {"kind": "chmod", "args": ["f", "444"]},
            ]},
            {"name": "tamperer", "trace": [{"kind": "chmod", "args": ["f", "666"]}]},
        ],
        "initial_fs": [],
        "oracle": {"kind": "final-mode", "path": "f", "mode": "444"},
        "src_map": [
            {"file": "gzip.c", "function": "treat_file", "line": 57,
             "process": "writer", "op_index": 3},
        ],
    }))
    loaded = load_scenario(out)
    assert loaded.processes == WRITER_FIRST.processes
    assert loaded.initial_fs == WRITER_FIRST.initial_fs
    assert loaded.oracle == WRITER_FIRST.oracle
    assert loaded.src_map == WRITER_FIRST.src_map


def test_load_parses_octal_modes(tmp_path):
    out = tmp_path / "s.json"
    out.write_text(
        '{"id": "s", "processes": [{"name": "p", "trace": '
        '[{"kind": "chmod", "args": ["f", "755"]}]}], '
        '"initial_fs": [{"path": "f", "mode": "640"}, {"path": "g", "mode": "0"}, '
        '{"path": "h", "mode": "7777"}], '
        '"oracle": {"kind": "final-mode", "path": "f", "mode": "755"}}'
    )
    scn = load_scenario(out)
    assert scn.processes[0][1][0].args == ("f", 0o755)
    assert [entry.mode for entry in scn.initial_fs] == [0o640, 0, 0o7777]
    assert scn.oracle.expected_mode == 0o755


def test_bundled_mv_scenario_shape(mv_scenario):
    assert mv_scenario.process_names == ["mv", "cat"]
    traces = dict(mv_scenario.processes)
    assert [op.kind for op in traces["mv"]] == ["unlink", "rename"]
    assert [op.kind for op in traces["cat"]] == ["open"]
    assert mv_scenario.oracle.kind == "open-enoent"


# --- schedules -------------------------------------------------------------------

def test_baseline_runs_processes_in_scenario_order():
    sched = baseline_schedule(WRITER_FIRST)
    assert sched.steps == (
        ("writer", 0), ("writer", 1), ("writer", 2), ("writer", 3), ("tamperer", 0),
    )


def test_delay_before_yields_ahead_of_the_op():
    sched = schedule_with_delay(WRITER_FIRST, _at_57("before"))
    assert sched.steps == (
        ("writer", 0), ("writer", 1), ("writer", 2), ("tamperer", 0), ("writer", 3),
    )


@pytest.mark.parametrize("placement", ["after", "between-pair"])
def test_delay_after_and_between_yield_past_the_op(placement):
    sched = schedule_with_delay(WRITER_FIRST, _at_57(placement))
    assert sched.steps == (
        ("writer", 0), ("writer", 1), ("writer", 2), ("writer", 3), ("tamperer", 0),
    )


def test_delay_before_first_op_runs_others_first():
    scn = _two_proc({("gzip.c", "treat_file", 10): ("writer", 0)})
    sched = schedule_with_delay(scn, _point("before", "gzip.c", "treat_file", 10))
    assert sched.steps[0] == ("tamperer", 0)
    assert sched.steps[1:] == tuple(("writer", i) for i in range(4))


def test_delay_unmapped_point_raises_keyerror():
    with pytest.raises(KeyError):
        schedule_with_delay(WRITER_FIRST, _point("before", "nowhere.c", "f", 1))


def _delayed_steps_by_loop(scn: Scenario, point: InstrumentationPoint) -> tuple:
    """The loop ``schedule_with_delay`` ran before it became one stable sort."""
    proc, op_idx = scn.map_point(point)
    yield_before = op_idx if point.placement == "before" else op_idx + 1
    steps, tail = [], []
    for name, trace in scn.processes:
        if name == proc:
            steps.extend((name, i) for i in range(min(yield_before, len(trace))))
            tail = [(name, i) for i in range(min(yield_before, len(trace)), len(trace))]
        else:
            steps.extend((name, i) for i in range(len(trace)))
    steps.extend(tail)
    return tuple(steps)


def _mapping_every_op(scn: Scenario) -> Scenario:
    """``scn`` with one src_map entry per op, at line = op index."""
    return replace(scn, src_map={("x.c", name, i): (name, i)
                                 for name, trace in scn.processes for i in range(len(trace))})


def _assert_every_delay_sorts_like_the_loop(scn: Scenario) -> int:
    for file, function, line in scn.src_map:
        for placement in ("before", "after", "between-pair"):
            point = _point(placement, file, function, line)
            assert schedule_with_delay(scn, point).steps == _delayed_steps_by_loop(scn, point)
    return len(scn.src_map) * 3


@pytest.mark.parametrize("fixture", ["mv_scenario", "gzip_scenario"])
def test_delayed_schedule_equals_the_loop_on_the_fixtures(fixture, request):
    scn = _mapping_every_op(request.getfixturevalue(fixture))
    assert _assert_every_delay_sorts_like_the_loop(scn) == 3 * scn.total_ops()


def test_delayed_schedule_equals_the_loop_on_random_scenarios():
    delays = 0
    for seed in range(300):
        rng = random.Random(seed)
        processes = [(f"p{pi}", [SyscallOp("close", ("f",))] * rng.randint(1, 5))
                     for pi in range(rng.randint(1, 3))]
        scn = Scenario(id=f"random-{seed}", processes=processes, initial_fs=[],
                       oracle=Oracle(kind="path-missing", path="f"))
        delays += _assert_every_delay_sorts_like_the_loop(_mapping_every_op(scn))
    assert delays > 300 * 3


# --- schedule checking -----------------------------------------------------------

def _mini() -> Scenario:
    return Scenario(
        id="mini",
        processes=[
            ("a", [SyscallOp("mknod", ("f",)), SyscallOp("unlink", ("f",))]),
            ("b", [SyscallOp("stat", ("f",))]),
        ],
        initial_fs=[],
        oracle=Oracle(kind="path-missing", path="f"),
    )


@pytest.mark.parametrize(
    "steps",
    [
        [("a", 0), ("a", 1), ("ghost", 0)],          # unknown process
        [("a", 1), ("a", 0), ("b", 0)],              # program order violated
        [("a", 0), ("a", 0), ("a", 1), ("b", 0)],    # repeated op
        [("a", 0), ("b", 0)],                        # incomplete
        [("a", 0), ("a", 1), ("a", 2), ("b", 0)],    # op past the trace
    ],
)
def test_run_schedule_rejects_malformed(steps):
    with pytest.raises(ValueError):
        run_schedule(_mini(), InterleavingSchedule(steps=tuple(steps)))


# --- verdicts on the bundled race ---------------------------------------------------

def test_mv_correct_order_passes(mv_scenario):
    assert run_schedule(mv_scenario, baseline_schedule(mv_scenario)).verdict == VERDICT_PASS


def test_mv_buggy_order_fails(mv_scenario):
    buggy = InterleavingSchedule(steps=(("mv", 0), ("cat", 0), ("mv", 1)))
    result = run_schedule(mv_scenario, buggy)
    assert result.verdict == VERDICT_FAIL
    # cat's open fell in the gap; the rename then put bar's node at foo
    assert fs_state(result.fs) == {"foo": ("file", 0o644, "new", "foo")}


# --- enumeration ------------------------------------------------------------------

def test_enumerate_respects_bound():
    scn = Scenario(
        id="thirteen-ops",
        processes=[
            ("a", [SyscallOp("stat", ("f",))] * 7),
            ("b", [SyscallOp("stat", ("f",))] * 6),
        ],
        initial_fs=[],
        oracle=Oracle(kind="path-missing", path="f"),
    )
    with pytest.raises(ValueError, match="13 ops"):
        enumerate_interleavings(scn)


def test_enumerate_mv_finds_exactly_one_failure(mv_scenario):
    results = enumerate_interleavings(mv_scenario)
    assert len(results) == 3  # C(3,1) placements of cat's op among mv's two
    failing = [sched for sched, verdict in results if verdict == VERDICT_FAIL]
    assert len(failing) == 1
    assert failing[0].steps == (("mv", 0), ("cat", 0), ("mv", 1))


@pytest.mark.parametrize("ops, oracle", [
    ([("mknod", "left"), ("mknod", "right")], Oracle(kind="path-missing", path="left")),
    # both fail with ENOENT, but only an open of the oracle's path trips it
    ([("unlink", "gone"), ("open", "other")], Oracle(kind="open-enoent", path="gone")),
], ids=["disjoint paths", "ENOENT off the watched open"])
def test_enumerate_never_fails_where_no_op_trips_the_oracle(ops, oracle):
    scn = Scenario(
        id="never-fails",
        processes=[(name, [SyscallOp(kind, (path,))]) for name, (kind, path) in zip("ab", ops)],
        initial_fs=[],
        oracle=oracle,
    )
    results = enumerate_interleavings(scn)
    assert len(results) == 2
    assert all(verdict == VERDICT_PASS for _sched, verdict in results)


def test_enumerate_commutative_ops_agree_everywhere():
    # two independent chmods on different paths: order cannot matter
    scn = Scenario(
        id="comm",
        processes=[
            ("a", [SyscallOp("chmod", ("x", 0o600))]),
            ("b", [SyscallOp("chmod", ("y", 0o600))]),
        ],
        initial_fs=[FsEntry(path="x"), FsEntry(path="y")],
        oracle=Oracle(kind="final-mode", path="x", expected_mode=0o600),
    )
    verdicts = {verdict for _sched, verdict in enumerate_interleavings(scn)}
    assert verdicts == {VERDICT_PASS}


def _enumerate_uncached(scn: Scenario) -> list[tuple[InterleavingSchedule, str]]:
    """The walk before explored states were cached: every leaf evaluated."""
    total = scn.total_ops()
    oracle = scn.oracle
    procs = [
        (name, [(op.kind, op.args, path_args(op.kind, op.args), oracle.watches(op))
                for op in trace])
        for name, trace in scn.processes
    ]
    progress = [0] * len(procs)
    prefix: list[tuple[str, int]] = []
    results: list[tuple[InterleavingSchedule, str]] = []
    fs = scn.build_fs()
    paths = fs.paths

    def walk(open_failures: int) -> None:
        if len(prefix) == total:
            verdict = oracle.evaluate(fs, open_failures > 0)
            results.append((InterleavingSchedule(steps=tuple(prefix)), verdict))
            return
        for pi, (name, ops) in enumerate(procs):
            op_idx = progress[pi]
            if op_idx == len(ops):
                continue
            kind, args, named, watched = ops[op_idx]
            undo = [(p, n, n.mode, n.content) if (n := paths.get(p)) is not None
                    else (p, None, 0, "") for p in named]
            prefix.append((name, op_idx))
            progress[pi] += 1
            failed = fs.apply(kind, args) == ENOENT and watched
            walk(open_failures + failed)
            progress[pi] -= 1
            prefix.pop()
            for p, n, mode, content in reversed(undo):
                if n is None:
                    paths.pop(p, None)
                else:
                    paths[p] = n
                    n.mode, n.content = mode, content

    walk(0)
    return results


@pytest.mark.parametrize("fixture", ["mv_scenario", "gzip_scenario"])
def test_enumeration_equals_the_uncached_walk_on_the_fixtures(fixture, request):
    scn = request.getfixturevalue(fixture)
    assert enumerate_interleavings(scn) == _enumerate_uncached(scn)


@dataclass
class _LinkedScenario(Scenario):
    """A scenario whose initial ``b`` is a hard link to ``a``."""

    def build_fs(self) -> VirtualFS:
        fs = super().build_fs()
        fs.paths["b"] = fs.paths["a"]
        return fs


# trace lengths of 10-12 ops in 2-3 processes: 220 to 2,970 interleavings
_SHAPES = ((5, 5), (6, 5), (6, 6), (9, 3), (6, 2, 2), (7, 3, 1), (5, 3, 2), (8, 2, 2))
_OPS = ("rename", "link", "unlink", "mknod", "mkdir", "chmod", "write", "open")


def _bench_scale_scenario(seed: int) -> Scenario:
    """Seeded ops over a hard-linked pair (a, b), a directory d and an absent
    c; the shape and the oracle kind follow from the seed, so every shape
    meets every oracle kind."""
    rng = random.Random(seed)
    names = ("a", "b", "c", "d")

    def op() -> SyscallOp:
        kind = rng.choice(_OPS)
        if kind in ("rename", "link"):
            return SyscallOp(kind, tuple(rng.sample(names, 2)))
        extra = {"chmod": (0o444, 0o644), "write": ("x", "y"), "mknod": (0o644,), "mkdir": (0o755,)}
        if kind in extra:
            return SyscallOp(kind, (rng.choice(names), rng.choice(extra[kind])))
        return SyscallOp(kind, (rng.choice(names),))

    kind = ORACLE_KINDS[seed % len(ORACLE_KINDS)]
    shape = _SHAPES[seed // len(ORACLE_KINDS) % len(_SHAPES)]
    return _LinkedScenario(
        id=f"bench-scale-{seed}",
        processes=[(f"p{i}", [op() for _ in range(n)]) for i, n in enumerate(shape)],
        initial_fs=[FsEntry(path="a", content="x"), FsEntry(path="d", kind="dir", mode=0o755)],
        oracle=Oracle(kind=kind, path=rng.choice(("a", "b", "c")),
                      expected_mode=0o644 if kind == "final-mode" else None,
                      expected_content="x" if kind == "final-content" else None),
    )


_BENCH_SEEDS = range(2 * len(ORACLE_KINDS) * len(_SHAPES))


@pytest.mark.parametrize("seed", _BENCH_SEEDS)
def test_enumeration_at_benchmark_scale_equals_replay(seed):
    scn = _bench_scale_scenario(seed)
    results = enumerate_interleavings(scn)
    assert results == _enumerate_uncached(scn)
    assert [(sched.steps, verdict) for sched, verdict in results] == _enumerate_by_replay(scn)
    assert all(type(sched.steps) is tuple for sched, _verdict in results)


def test_enumerated_schedules_leave_the_garbage_collector():
    # every schedule's steps are a tuple of (str, int) tuples, so one full
    # collection untracks them all, copies from cached nodes included; a
    # slotted schedule carries no instance dict for the collector to traverse
    results = enumerate_interleavings(_bench_scale_scenario(28))
    assert len(results) == 2970
    gc.collect()
    assert not any(gc.is_tracked(sched.steps) for sched, _verdict in results)
    assert not any(hasattr(sched, "__dict__") for sched, _verdict in results)


def test_benchmark_scale_scenarios_cover_every_oracle_and_both_baselines():
    undelayed, racy, sizes = Counter(), Counter(), []
    for seed in _BENCH_SEEDS:
        scn = _bench_scale_scenario(seed)
        verdicts = [verdict for _sched, verdict in enumerate_interleavings(scn)]
        undelayed[scn.oracle.kind, run_schedule(scn, baseline_schedule(scn)).verdict] += 1
        racy[scn.oracle.kind] += len(set(verdicts)) == 2
        sizes.append(len(verdicts))
    for kind in ORACLE_KINDS:
        assert undelayed[kind, VERDICT_FAIL] and undelayed[kind, VERDICT_PASS], kind
        assert racy[kind], kind
    assert max(sizes) == 2970 and min(sizes) == 220


def test_enumeration_tells_a_hard_link_from_an_equal_node():
    # after link(f, g) then mknod(g), g shares f's node; after mknod(g) then
    # link(f, g), g is an equal but separate node: both reach progress (1, 1)
    # with the same paths, kinds, modes and contents, and only the aliased g
    # sees the later write to f
    scn = Scenario(
        id="alias",
        processes=[
            ("a", [SyscallOp("link", ("f", "g")), SyscallOp("write", ("f", "new"))]),
            ("b", [SyscallOp("mknod", ("g",))]),
        ],
        initial_fs=[FsEntry(path="f")],
        oracle=Oracle(kind="final-content", path="g", expected_content=""),
    )
    results = enumerate_interleavings(scn)
    assert [(sched.steps, verdict) for sched, verdict in results] == _enumerate_by_replay(scn)
    assert [verdict for _sched, verdict in results] == [VERDICT_FAIL, VERDICT_FAIL, VERDICT_PASS]


def test_node_key_covers_every_node_field():
    # a field the key leaves out would let the walk reuse the leaves of a
    # different state; a new Node field needs a variant here and in _node_key
    node = Node(kind="file", mode=0o644, content="x")
    variants = {"kind": "dir", "mode": 0o600, "content": "y"}
    assert [f.name for f in fields(Node)] == list(variants)
    key = harness._node_key([0, 1], False, {"f": node})
    for name, value in variants.items():
        assert harness._node_key([0, 1], False, {"f": replace(node, **{name: value})}) != key
    assert harness._node_key([0, 1], True, {"f": node}) != key
    assert harness._node_key([1, 0], False, {"f": node}) != key
    # hard-link groups: one node under two paths is not two equal nodes
    assert (harness._node_key([0], False, {"f": node, "g": node})
            != harness._node_key([0], False, {"f": node, "g": replace(node)}))


# --- reproduction -----------------------------------------------------------------

def test_reproduce_mv_on_first_ranked_point(mv_scenario, mv_ranking, mv_ranked_files, mv_index):
    points = locate(mv_ranking, mv_ranked_files, mv_index)
    result = reproduce(mv_scenario, points)
    assert result.reproduced
    assert result.attempts == 1
    assert result.point_used is points[0]
    assert run_schedule(mv_scenario, result.schedule).verdict == VERDICT_FAIL


def _reproduce_running_every_point(scn, points, max_attempts):
    """The reference: the loop with no memory, so a repeated schedule runs again.

    Returns (reproduced, attempts, point used, steps, fails undelayed) and
    the steps of every schedule it ran, in order."""
    ran = []

    def verdict(sched):
        ran.append(tuple(sched.steps))
        return run_schedule(scn, sched).verdict

    if max_attempts >= 1:
        base = baseline_schedule(scn)
        if verdict(base) == VERDICT_FAIL:
            return (True, 1, None, base.steps, True), ran
    attempts = 0
    for point in points:
        if attempts >= max_attempts:
            break
        attempts += 1
        try:
            sched = schedule_with_delay(scn, point)
        except KeyError:
            continue
        if verdict(sched) == VERDICT_FAIL:
            return (True, attempts, point, sched.steps, False), ran
    return (False, attempts, None, None, False), ran


def _count(monkeypatch, name: str, key) -> Counter:
    """Count calls of ``harness.<name>(scn, arg)`` by ``key(scn, arg)``."""
    calls: Counter = Counter()
    real = getattr(harness, name)

    def counting(scn, arg):
        calls[key(scn, arg)] += 1
        return real(scn, arg)

    monkeypatch.setattr(harness, name, counting)
    return calls


MV_AT = ("copy.c", "copy_internal")
GZIP_AT = ("gzip.c", "finish_output")
GHOST = _point("before", "nowhere.c", "f", 1)


def _mv(placement, line):
    return _point(placement, *MV_AT, line)


def _gz(placement, line):
    return _point(placement, *GZIP_AT, line)


# tamperer first: undelayed, its chmod finds no f and the mode ends 444; a
# delay after it is the undelayed order, one before it lands the chmod last
TAMPERER_FIRST = Scenario("tamperer-first", WRITER_FIRST.processes[::-1], [], LOCKED,
                          {("gzip.c", "treat_file", 57): ("tamperer", 0)})

# mv after 307 and gzip between-pair 52 are failing orders
MV_SHARED = [_mv("before", 307), _mv("after", 309), _mv("between-pair", 309), GHOST,
             _mv("before", 307), _mv("between-pair", 309), _mv("after", 307)]
GZIP_SHARED = [_gz("after", 57), _gz("between-pair", 57), GHOST, _gz("before", 62),
               _gz("after", 57), _gz("before", 52), GHOST, _gz("between-pair", 52),
               _gz("after", 52)]

#: row -> (scenario, or its fixture; points; budget; pinned (reproduced,
#: attempts, index of the credited point, fails undelayed); what the row
#: repeats: "schedule" when the loop reruns one, "delay" when tried points
#: share one).  mv: before 307 lets cat run first (passes), after 309 is the
#: undelayed order, after 307 and before 309 are the one failing order.
#: gzip: after 52 and before 57 let the watcher's write land before the chmod
#: (fails); before 52, after 57, before 62 and after 62 pass, the last two
#: being the undelayed order.  "after" and "between-pair" at one site yield
#: at the same position, so they share a delay, as gzip after 57 and before
#: 62 (ops 2 and 3) do
REPRODUCTIONS = {
    "second point fires": (TAMPERER_FIRST, [_at_57("after", 1), _at_57("before", 2)], 100,
                           (True, 2, 1, False), ""),
    "undelayed order fails": (WRITER_FIRST, [GHOST, _at_57("after", 2)], 100,
                              (True, 1, None, True), ""),
    "undelayed order fails, points repeat": (WRITER_FIRST, [_at_57("after")] * 3, 100,
                                             (True, 1, None, True), ""),
    "no points": ("mv_scenario", [], 100, (False, 0, None, False), ""),
    "unmapped point": ("mv_scenario", [GHOST], 100, (False, 1, None, False), ""),
    "unmapped points, budget 2": ("mv_scenario", [GHOST] * 3, 2, (False, 2, None, False), ""),
    "mv, never fails": ("mv_scenario", [GHOST, _mv("before", 307), _mv("after", 309), GHOST,
                                        _mv("before", 307), _mv("after", 309),
                                        _mv("before", 307)], 100,
                        (False, 7, None, False), "schedule"),
    "mv, fails last": ("mv_scenario", [_mv("before", 307), GHOST, _mv("after", 309),
                                       _mv("before", 307), GHOST, _mv("before", 309)], 100,
                       (True, 6, 5, False), "schedule"),
    "mv, budget": ("mv_scenario", [_mv("before", 307), _mv("before", 307), GHOST,
                                   _mv("after", 307)], 3, (False, 3, None, False), "schedule"),
    "gzip, fails late": ("gzip_scenario", [_gz("before", 52), _gz("after", 57),
                                           _gz("before", 62), GHOST, _gz("after", 62),
                                           _gz("before", 52), _gz("after", 57),
                                           _gz("before", 57)], 100,
                         (True, 8, 7, False), "schedule"),
    "gzip, no budget": ("gzip_scenario", [_gz("after", 52)], 0, (False, 0, None, False), ""),
    "mv, budget 1": ("mv_scenario", [_mv("between-pair", 307), _mv("before", 309)], 1,
                     (True, 1, 0, False), ""),
    "mv, shared delays, budget 0": ("mv_scenario", MV_SHARED, 0, (False, 0, None, False), ""),
    "mv, shared delays, budget 3": ("mv_scenario", MV_SHARED, 3, (False, 3, None, False), ""),
    "mv, shared delays, budget 100": ("mv_scenario", MV_SHARED, 100, (True, 7, 6, False),
                                      "delay"),
    "gzip, shared delays, budget 0": ("gzip_scenario", GZIP_SHARED, 0, (False, 0, None, False),
                                      ""),
    "gzip, shared delays, budget 3": ("gzip_scenario", GZIP_SHARED, 3, (False, 3, None, False),
                                      ""),
    "gzip, shared delays, budget 100": ("gzip_scenario", GZIP_SHARED, 100, (True, 8, 7, False),
                                        "delay"),
    "gzip, after an op and before the next": (
        "gzip_scenario", [_gz("after", 57), _gz("before", 62)], 100, (False, 2, None, False),
        "delay"),
}


@pytest.mark.parametrize("row", list(REPRODUCTIONS))
def test_reproduce_equals_the_loop_running_every_point(row, request, monkeypatch):
    scn, points, budget, pinned, repeats = REPRODUCTIONS[row]
    scn = request.getfixturevalue(scn) if isinstance(scn, str) else scn
    expected, ran = _reproduce_running_every_point(scn, points, budget)
    runs = _count(monkeypatch, "run_schedule", lambda _scn, sched: sched.steps)
    builds = _count(monkeypatch, "schedule_with_delay", Scenario.delay)
    result = reproduce(scn, points, budget)
    steps = result.schedule.steps if result.schedule else None
    assert (result.reproduced, result.attempts, result.point_used, steps,
            result.fails_undelayed) == expected
    credited = next((i for i, p in enumerate(points) if p is result.point_used), None)
    assert (result.reproduced, result.attempts, credited, result.fails_undelayed) == pinned
    assert runs == Counter(set(ran))
    tried = [] if result.fails_undelayed else points[:result.attempts]
    assert builds == Counter({scn.delay(p): 1 for p in tried if scn.delay(p) is not None})
    if repeats == "schedule":
        assert len(ran) > len(runs)  # the row reruns a schedule
    if repeats == "delay":
        assert len(tried) > len(builds)  # tried points share a delay


# --- random baseline -------------------------------------------------------------

def _random_baseline_running_every_draw(scn, runs, seed):
    """The reference: every draw runs, repeats included.

    Returns (reproduced, attempts, steps) and the steps of every run."""
    rng = random.Random(seed)
    tokens = [name for name, trace in scn.processes for _ in trace]
    ran = []
    for attempt in range(1, runs + 1):
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        counters: dict[str, int] = {}
        steps = []
        for name in shuffled:
            idx = counters.get(name, 0)
            counters[name] = idx + 1
            steps.append((name, idx))
        steps = tuple(steps)
        ran.append(steps)
        if run_schedule(scn, InterleavingSchedule(steps=steps)).verdict == VERDICT_FAIL:
            return (True, attempt, steps), ran
    return (False, runs, None), ran


#: row -> (fixture, runs, seed, pinned (reproduced, attempts))
RANDOM_BASELINES = {
    **{f"mv, 100 runs, seed {seed}": ("mv_scenario", 100, seed, (True, attempts))
       for seed, attempts in enumerate((1, 1, 1, 1, 4, 6, 2, 3, 3, 1))},
    **{f"gzip, 100 runs, seed {seed}": ("gzip_scenario", 100, seed, (True, attempts))
       for seed, attempts in enumerate((3, 1, 2, 3, 16, 3, 8, 5, 1, 2))},
    "mv, 50 runs, seed 11": ("mv_scenario", 50, 11, (True, 1)),
    "mv, 5 runs, seed 123": ("mv_scenario", 5, 123, (False, 5)),
    "mv, 0 runs": ("mv_scenario", 0, 0, (False, 0)),
}


@pytest.mark.parametrize("row", list(RANDOM_BASELINES))
def test_random_baseline_equals_the_loop_running_every_draw(row, request, monkeypatch):
    fixture, n_runs, seed, pinned = RANDOM_BASELINES[row]
    scn = request.getfixturevalue(fixture)
    expected, ran = _random_baseline_running_every_draw(scn, n_runs, seed)
    runs = _count(monkeypatch, "run_schedule", lambda _scn, sched: sched.steps)
    result = random_baseline(scn, runs=n_runs, seed=seed)
    steps = result.schedule.steps if result.schedule else None
    assert (result.reproduced, result.attempts, steps) == expected
    assert (result.reproduced, result.attempts) == pinned
    assert runs == Counter(set(ran))
    if result.reproduced:
        assert run_schedule(scn, result.schedule).verdict == VERDICT_FAIL


# --- rendering --------------------------------------------------------------------

def test_format_schedule_octal_args_and_locations():
    lines = format_schedule(WRITER_FIRST, baseline_schedule(WRITER_FIRST))
    assert lines[0] == "writer:mknod(f, 0600)"
    assert lines[3] == "writer:chmod(f, 0444) @ gzip.c:treat_file:57"
    assert lines[4] == "tamperer:chmod(f, 0666)"


def test_format_schedule_mv_buggy_order(mv_scenario):
    buggy = InterleavingSchedule(steps=(("mv", 0), ("cat", 0), ("mv", 1)))
    assert format_schedule(mv_scenario, buggy) == [
        "mv:unlink(foo) @ copy.c:copy_internal:307",
        "cat:open(foo)",
        "mv:rename(bar, foo) @ copy.c:copy_internal:309",
    ]


def test_format_schedule_names_the_first_location_mapped_to_an_op():
    scn = _two_proc({("gzip.c", "treat_file", 57): ("writer", 3),
                     ("gzip.c", "lock_down", 90): ("writer", 3)})
    lines = format_schedule(scn, baseline_schedule(scn))
    assert lines[3] == "writer:chmod(f, 0444) @ gzip.c:treat_file:57"
