"""Deterministic multi-process scenario replay with delay injection.

A scenario scripts each process's syscall trace, the initial filesystem,
a failure oracle, and a src_map tying source-level instrumentation points
to trace positions.  The "sleep" of the instrumentation strategy is
modeled as a deterministic yield: the instrumented process stops at the
delay site and every other process runs to completion before it resumes.
This removes wall-clock flakiness while inducing exactly the interleaving
a long-enough sleep would produce under the cooperative model.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .mining import InstrumentationPoint
from .reports import json_of, load_json_object, reading
from .vfs import ENOENT, OP_ARITY, KIND_DIR, KIND_FILE, Node, VirtualFS, path_args

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"

DEFAULT_MAX_ATTEMPTS = 100
ENUMERATE_BOUND = 12

ORACLE_KINDS = ("open-enoent", "final-mode", "path-missing", "final-content")


# --- scenario ---------------------------------------------------------------

@dataclass(frozen=True)
class SyscallOp:
    kind: str
    args: tuple

    def __post_init__(self) -> None:
        if self.kind not in OP_ARITY:
            raise ValueError(f"unknown syscall kind: {self.kind!r}")
        lo, hi = OP_ARITY[self.kind]
        if not lo <= len(self.args) <= hi:
            raise ValueError(f"{self.kind} takes {lo}..{hi} args, got {self.args!r}")


@dataclass(frozen=True)
class FsEntry:
    path: str
    kind: str = KIND_FILE
    mode: int = 0o644
    content: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (KIND_FILE, KIND_DIR):
            raise ValueError(f"unknown initial_fs kind: {self.kind!r}")


@dataclass(frozen=True)
class Oracle:
    """Built-in failure predicates; a scenario picks exactly one.

    * open-enoent: some open(path) failed with ENOENT;
    * final-mode: path's final mode differs from expected (missing fails);
    * path-missing: path is absent from the final filesystem;
    * final-content: path's final content differs from expected (missing fails).
    """

    kind: str
    path: str
    expected_mode: int | None = None
    expected_content: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind: {self.kind!r}")
        if self.kind == "final-mode" and self.expected_mode is None:
            raise ValueError("a final-mode oracle needs an expected 'mode'")
        if self.kind == "final-content" and self.expected_content is None:
            raise ValueError("a final-content oracle needs an expected 'content'")

    def watches(self, op: SyscallOp) -> bool:
        """Whether an ENOENT from ``op`` trips this oracle: an open of its path."""
        return self.kind == "open-enoent" and op.kind == "open" and op.args[0] == self.path

    def evaluate(self, fs: VirtualFS, open_failed: bool) -> str:
        """The verdict on the final ``fs``; ``open_failed`` says whether an op
        this oracle ``watches`` failed with ENOENT on the way there."""
        if self.kind == "open-enoent":
            return VERDICT_FAIL if open_failed else VERDICT_PASS
        node = fs.node(self.path)
        if self.kind == "final-mode":
            ok = node is not None and node.mode == self.expected_mode
        elif self.kind == "path-missing":
            ok = node is not None
        else:  # final-content
            ok = node is not None and node.content == self.expected_content
        return VERDICT_PASS if ok else VERDICT_FAIL


@dataclass
class Scenario:
    id: str
    processes: list[tuple[str, list[SyscallOp]]]
    initial_fs: list[FsEntry]
    oracle: Oracle
    #: (file, function, line) -> (process, op index)
    src_map: dict[tuple[str, str, int], tuple[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen_paths = set()
        for entry in self.initial_fs:
            if entry.path in seen_paths:
                raise ValueError(f"duplicate initial_fs path: {entry.path!r}")
            seen_paths.add(entry.path)
        traces = dict(self.processes)
        if len(traces) != len(self.processes):
            raise ValueError("duplicate process names")
        for key, (proc, op_idx) in self.src_map.items():
            if proc not in traces or not 0 <= op_idx < len(traces[proc]):
                raise ValueError(f"src_map entry {key} targets missing op {proc}[{op_idx}]")

    @property
    def process_names(self) -> list[str]:
        return [name for name, _trace in self.processes]

    def total_ops(self) -> int:
        return sum(len(trace) for _name, trace in self.processes)

    def build_fs(self) -> VirtualFS:
        fs = VirtualFS()
        for entry in self.initial_fs:
            fs.paths[entry.path] = Node(kind=entry.kind, mode=entry.mode, content=entry.content)
        return fs

    def map_point(self, point: InstrumentationPoint) -> tuple[str, int] | None:
        return self.src_map.get((point.file, point.function, point.line))

    def position_source(self, process: str, op_index: int) -> tuple[str, str, int] | None:
        for key, target in self.src_map.items():
            if target == (process, op_index):
                return key
        return None


def _parse_mode(value: int | str) -> int:
    """Modes are octal strings in scenario files ("644") or exact JSON
    integers, from 0 to 0o7777."""
    mode = int(value, 8) if isinstance(value, str) else json_of(int, value)
    if not 0 <= mode <= 0o7777:
        raise ValueError(f"mode {value!r} is outside 0..7777 (octal)")
    return mode


def _op_from_json(obj: dict) -> SyscallOp:
    args = []
    for i, arg in enumerate(json_of(list, obj["args"])):
        if obj["kind"] in ("chmod", "mkdir", "mknod") and i == 1:
            args.append(_parse_mode(arg))
        else:
            args.append(json_of(str, arg))
    return SyscallOp(kind=obj["kind"], args=tuple(args))


def load_scenario(path: str | Path) -> Scenario:
    data = load_json_object(path)
    with reading(path, "oracle"):
        oracle_obj = data["oracle"]
        mode, content = oracle_obj.get("mode"), oracle_obj.get("content")
        oracle = Oracle(
            kind=oracle_obj["kind"],
            path=json_of(str, oracle_obj["path"]),
            expected_mode=None if mode is None else _parse_mode(mode),
            expected_content=None if content is None else json_of(str, content),
        )
    with reading(path, "src_map"):
        src_map = {
            (json_of(str, m["file"]), json_of(str, m["function"]), json_of(int, m["line"])):
                (json_of(str, m["process"]), json_of(int, m["op_index"]))
            for m in json_of(list, data.get("src_map", []))
        }
    with reading(path, "processes"):
        processes = [
            (json_of(str, p["name"]), [_op_from_json(op) for op in json_of(list, p["trace"])])
            for p in json_of(list, data["processes"])
        ]
    with reading(path, "initial_fs"):
        initial_fs = [
            FsEntry(
                path=json_of(str, e["path"]),
                kind=e.get("kind", KIND_FILE),
                mode=_parse_mode(e.get("mode", "644")),
                content=json_of(str, e.get("content", "")),
            )
            for e in json_of(list, data.get("initial_fs", []))
        ]
    with reading(path, "id"):
        scenario_id = json_of(str, data.get("id", Path(path).stem))
    with reading(path):
        return Scenario(
            id=scenario_id,
            processes=processes,
            initial_fs=initial_fs,
            oracle=oracle,
            src_map=src_map,
        )


# --- schedules --------------------------------------------------------------

@dataclass
class InterleavingSchedule:
    steps: list[tuple[str, int]]
    injected_delays: list[tuple[str, int, str]] = field(default_factory=list)


def baseline_schedule(scn: Scenario) -> InterleavingSchedule:
    """Every process runs to completion in scenario order (no delays)."""
    steps = [
        (name, i) for name, trace in scn.processes for i in range(len(trace))
    ]
    return InterleavingSchedule(steps=steps)


def schedule_with_delay(scn: Scenario, point: InstrumentationPoint) -> InterleavingSchedule:
    """The deterministic interleaving a sleep at the point induces.

    Under the cooperative model processes run to completion in scenario
    order; the instrumented process yields at the delay site (before the op
    for "before"; after it for "after" and "between-pair"), letting every
    other process finish inside the gap.
    """
    target = scn.map_point(point)
    if target is None:
        raise KeyError(
            f"no src_map entry for {point.file}:{point.function}:{point.line}"
        )
    proc, op_idx = target
    yield_before = op_idx if point.placement == "before" else op_idx + 1

    steps: list[tuple[str, int]] = []
    tail: list[tuple[str, int]] = []
    for name, trace in scn.processes:
        if name == proc:
            steps.extend((name, i) for i in range(min(yield_before, len(trace))))
            tail = [(name, i) for i in range(min(yield_before, len(trace)), len(trace))]
        else:
            steps.extend((name, i) for i in range(len(trace)))
    steps.extend(tail)
    return InterleavingSchedule(
        steps=steps, injected_delays=[(proc, op_idx, point.placement)]
    )


def _check_schedule(scn: Scenario, sched: InterleavingSchedule) -> None:
    expected: dict[str, int] = {name: 0 for name in scn.process_names}
    lengths = {name: len(trace) for name, trace in scn.processes}
    for proc, op_idx in sched.steps:
        if proc not in expected:
            raise ValueError(f"schedule references unknown process {proc!r}")
        if op_idx != expected[proc]:
            raise ValueError(
                f"schedule violates program order: {proc} op {op_idx}, expected {expected[proc]}"
            )
        expected[proc] += 1
    for name, count in expected.items():
        if count != lengths[name]:
            raise ValueError(f"schedule incomplete: {name} ran {count}/{lengths[name]} ops")


@dataclass
class RunResult:
    fs: VirtualFS
    verdict: str


def run_schedule(scn: Scenario, sched: InterleavingSchedule) -> RunResult:
    """Execute one interleaving; deterministic final state and verdict."""
    _check_schedule(scn, sched)
    fs = scn.build_fs()
    traces = dict(scn.processes)
    open_failed = False
    for proc, op_idx in sched.steps:
        op = traces[proc][op_idx]
        if fs.apply(op.kind, op.args) == ENOENT and scn.oracle.watches(op):
            open_failed = True
    return RunResult(fs=fs, verdict=scn.oracle.evaluate(fs, open_failed))


# --- reproduction loop ------------------------------------------------------

@dataclass
class ReproResult:
    reproduced: bool
    attempts: int
    schedule: InterleavingSchedule | None = None
    point_used: InstrumentationPoint | None = None
    wall_time: float = 0.0
    #: the undelayed order already trips the oracle, so no point is credited
    fails_undelayed: bool = False


def _first_failure(
    scn: Scenario,
    tries: Iterable[tuple[InterleavingSchedule | None, InstrumentationPoint | None]],
    passed: set[tuple[tuple[str, int], ...]],
    start: float,
) -> ReproResult:
    """Run ``(schedule, point)`` tries in order, one attempt each, until the
    oracle fails.  A try with no schedule, or whose steps already ran and
    passed in this call (``passed``), uses up its attempt without a run."""
    attempts = 0
    for attempts, (sched, point) in enumerate(tries, 1):
        if sched is None or (key := tuple(sched.steps)) in passed:
            continue
        passed.add(key)
        if run_schedule(scn, sched).verdict == VERDICT_FAIL:
            return ReproResult(True, attempts, sched, point, time.perf_counter() - start)
    return ReproResult(False, attempts, wall_time=time.perf_counter() - start)


def reproduce(
    scn: Scenario,
    points: list[InstrumentationPoint],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ReproResult:
    """Try points in rank order until the oracle fails or the budget runs out.

    The undelayed order runs first; when it already fails, that is the
    result (one attempt, no point credited).  Otherwise each of the first
    ``max_attempts`` points is one attempt.  Only the first point with a given
    delay (mapped process and op index, and whether it yields before the op)
    gets a schedule.  A point with no src_map entry, a later point with the
    same delay, and a point whose schedule already ran and passed in this
    call (the undelayed order included) each use up an attempt without a run.
    """
    start = time.perf_counter()
    passed: set[tuple[tuple[str, int], ...]] = set()
    if max_attempts >= 1:
        base = baseline_schedule(scn)
        if run_schedule(scn, base).verdict == VERDICT_FAIL:
            return ReproResult(True, 1, base, wall_time=time.perf_counter() - start,
                               fails_undelayed=True)
        passed.add(tuple(base.steps))
    built: set[tuple[str, int, bool]] = set()

    def delayed(point: InstrumentationPoint) -> InterleavingSchedule | None:
        target = scn.map_point(point)
        if target is None or (delay := (*target, point.placement == "before")) in built:
            return None
        built.add(delay)
        return schedule_with_delay(scn, point)

    tries = ((delayed(point), point) for point in points[:max(max_attempts, 0)])
    return _first_failure(scn, tries, passed, start)


# --- systematic and random exploration --------------------------------------

def enumerate_interleavings(scn: Scenario) -> list[tuple[InterleavingSchedule, str]]:
    """All program-order-preserving interleavings with verdicts.

    A depth-first walk over shared prefixes on one filesystem: each op runs
    once per prefix, and an undo entry taken before it (each path it names,
    with that path's node or its absence, and the node's mode and content)
    is put back when the walk returns from the branch.  Nodes go back by
    reference, so hard-link aliasing survives.  Interleavings come in the
    order of trying processes in scenario order at each step.  Guarded by
    ``ENUMERATE_BOUND`` ops: the count is multinomial in trace lengths.

    Explored states are cached for the call (state-space caching).  Each
    inner node is keyed by ``_node_key``: the progress vector, whether a
    watched open has already failed, and the filesystem as a value.  What
    happens below a node depends only on that key, so a later node with the
    key of an earlier one runs no op and no oracle: it takes the earlier
    node's completions, in walk order, after its own prefix, with their
    verdicts.  The result is the list the full walk would return.
    """
    total = scn.total_ops()
    if total > ENUMERATE_BOUND:
        raise ValueError(f"scenario has {total} ops, enumeration bound is {ENUMERATE_BOUND}")
    oracle = scn.oracle
    # per process: its name and, per op, (kind, args, paths named, watched by the oracle)
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
    # node key -> the slice of ``results`` that holds its completions
    walked: dict[tuple, tuple[int, int]] = {}

    def walk(open_failed: bool) -> None:
        depth = len(prefix)
        if depth == total:
            verdict = oracle.evaluate(fs, open_failed)
            results.append((InterleavingSchedule(steps=list(prefix)), verdict))
            return
        key = _node_key(progress, open_failed, paths)
        if (span := walked.get(key)) is not None:
            results.extend([(InterleavingSchedule(steps=prefix + sched.steps[depth:]), verdict)
                            for sched, verdict in results[span[0]:span[1]]])
            return
        start = len(results)
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
            walk(open_failed or failed)
            progress[pi] -= 1
            prefix.pop()
            for p, n, mode, content in reversed(undo):
                if n is None:
                    paths.pop(p, None)
                else:
                    paths[p] = n
                    n.mode, n.content = mode, content
        walked[key] = (start, len(results))

    walk(False)
    return results


def _node_key(progress: list[int], open_failed: bool, paths: dict[str, Node]) -> tuple:
    """An enumeration node as a value: the progress vector, the open-failure
    flag, and per path in path order its node's kind, mode and content and
    its hard-link group (the index of the node by first appearance)."""
    groups: dict[int, int] = {}
    return (tuple(progress), open_failed,
            tuple([(p, n.kind, n.mode, n.content, groups.setdefault(id(n), len(groups)))
                   for p, n in sorted(paths.items())]))


def random_baseline(scn: Scenario, runs: int = 100, seed: int = 0) -> ReproResult:
    """Unassisted baseline: uniform random interleavings until failure or budget.

    Each run shuffles the multiset of process tokens; the k-th occurrence of
    a name becomes that process's op k, giving a uniform distribution over
    distinct interleavings.  A draw that already ran and passed in this call
    uses up its attempt without a second run.
    """
    rng = random.Random(seed)
    tokens = [name for name, trace in scn.processes for _ in trace]

    def draw() -> InterleavingSchedule:
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        counters = {name: itertools.count() for name in scn.process_names}
        return InterleavingSchedule(steps=[(name, next(counters[name])) for name in shuffled])

    start = time.perf_counter()
    return _first_failure(scn, ((draw(), None) for _ in range(runs)), set(), start)


# --- rendering --------------------------------------------------------------

def _format_arg(arg) -> str:
    if isinstance(arg, int):
        return f"0{arg:o}"
    return str(arg)


def format_schedule(scn: Scenario, sched: InterleavingSchedule) -> list[str]:
    """Render steps as ``<proc>:<syscall>(<args>) @ <file>:<function>:<line>``.

    The location suffix is omitted for trace positions without a src_map
    entry.
    """
    traces = dict(scn.processes)
    lines = []
    for proc, op_idx in sched.steps:
        op = traces[proc][op_idx]
        args = ", ".join(_format_arg(a) for a in op.args)
        line = f"{proc}:{op.kind}({args})"
        source = scn.position_source(proc, op_idx)
        if source is not None:
            f, fn, ln = source
            line += f" @ {f}:{fn}:{ln}"
        lines.append(line)
    return lines
