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

import json
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .mining import InstrumentationPoint
from .vfs import ENOENT, OP_ARITY, KIND_FILE, FsEvent, Node, VirtualFS

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"

DEFAULT_MAX_ATTEMPTS = 100
DEFAULT_ENUMERATE_BOUND = 12

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


@dataclass(frozen=True)
class Oracle:
    """Built-in failure predicates; a scenario picks exactly one.

    * open-enoent: some open(path) in the log failed with ENOENT;
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

    def evaluate(self, fs: VirtualFS, events: list[FsEvent]) -> str:
        if self.kind == "open-enoent":
            failed = any(
                ev.syscall == "open" and ev.args[0] == self.path and ev.result == ENOENT
                for ev in events
            )
            return VERDICT_FAIL if failed else VERDICT_PASS
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

    def trace(self, process: str) -> list[SyscallOp]:
        for name, trace in self.processes:
            if name == process:
                return trace
        raise KeyError(f"unknown process: {process!r}")

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
    """Modes are octal strings in scenario files ("644") or plain ints."""
    if isinstance(value, str):
        return int(value, 8)
    return int(value)


def _op_from_json(obj: dict) -> SyscallOp:
    args = []
    for i, arg in enumerate(obj["args"]):
        if obj["kind"] in ("chmod", "mkdir", "mknod") and i == 1:
            args.append(_parse_mode(arg))
        else:
            args.append(arg)
    return SyscallOp(kind=obj["kind"], args=tuple(args))


class MissingFieldError(ValueError):
    """Raised when a scenario or ground-truth file lacks a required field."""


@contextmanager
def required_fields(path: str | Path) -> Iterator[None]:
    """Turn a missing JSON key while parsing ``path`` into MissingFieldError."""
    try:
        yield
    except KeyError as exc:
        raise MissingFieldError(f"{path}: missing field {exc.args[0]!r}") from exc


def load_scenario(path: str | Path) -> Scenario:
    data = json.loads(Path(path).read_text("utf-8"))
    with required_fields(path):
        oracle_obj = data["oracle"]
        oracle = Oracle(
            kind=oracle_obj["kind"],
            path=oracle_obj["path"],
            expected_mode=(
                _parse_mode(oracle_obj["mode"]) if "mode" in oracle_obj else None
            ),
            expected_content=oracle_obj.get("content"),
        )
        src_map = {
            (m["file"], m["function"], int(m["line"])): (m["process"], int(m["op_index"]))
            for m in data.get("src_map", [])
        }
        return Scenario(
            id=str(data.get("id", Path(path).stem)),
            processes=[
                (p["name"], [_op_from_json(op) for op in p["trace"]])
                for p in data["processes"]
            ],
            initial_fs=[
                FsEntry(
                    path=e["path"],
                    kind=e.get("kind", KIND_FILE),
                    mode=_parse_mode(e.get("mode", "644")),
                    content=e.get("content", ""),
                )
                for e in data.get("initial_fs", [])
            ],
            oracle=oracle,
            src_map=src_map,
        )


def save_scenario(scn: Scenario, path: str | Path) -> None:
    oracle: dict = {"kind": scn.oracle.kind, "path": scn.oracle.path}
    if scn.oracle.expected_mode is not None:
        oracle["mode"] = f"{scn.oracle.expected_mode:o}"
    if scn.oracle.expected_content is not None:
        oracle["content"] = scn.oracle.expected_content
    payload = {
        "id": scn.id,
        "processes": [
            {"name": name, "trace": [{"kind": op.kind, "args": list(op.args)} for op in trace]}
            for name, trace in scn.processes
        ],
        "initial_fs": [
            {"path": e.path, "kind": e.kind, "mode": f"{e.mode:o}", "content": e.content}
            for e in scn.initial_fs
        ],
        "oracle": oracle,
        "src_map": [
            {"file": f, "function": fn, "line": ln, "process": proc, "op_index": idx}
            for (f, fn, ln), (proc, idx) in scn.src_map.items()
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")


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
    events: list[FsEvent]
    verdict: str


def run_schedule(scn: Scenario, sched: InterleavingSchedule) -> RunResult:
    """Execute one interleaving; deterministic state, log, and verdict."""
    _check_schedule(scn, sched)
    fs = scn.build_fs()
    traces = dict(scn.processes)
    events = [
        fs.apply(proc, op_idx, traces[proc][op_idx].kind, traces[proc][op_idx].args)
        for proc, op_idx in sched.steps
    ]
    return RunResult(fs=fs, events=events, verdict=scn.oracle.evaluate(fs, events))


# --- reproduction loop ------------------------------------------------------

@dataclass
class ReproResult:
    reproduced: bool
    attempts: int
    schedule: InterleavingSchedule | None = None
    point_used: InstrumentationPoint | None = None
    wall_time: float = 0.0


def reproduce(
    scn: Scenario,
    points: list[InstrumentationPoint],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ReproResult:
    """Try points in rank order until the oracle fails or the budget runs out.

    A point with no src_map entry cannot steer the schedule; its attempt
    runs the baseline order (and is still counted against the budget).
    """
    start = time.perf_counter()
    attempts = 0
    for point in points:
        if attempts >= max_attempts:
            break
        try:
            sched = schedule_with_delay(scn, point)
        except KeyError:
            sched = baseline_schedule(scn)
        attempts += 1
        result = run_schedule(scn, sched)
        if result.verdict == VERDICT_FAIL:
            return ReproResult(
                reproduced=True,
                attempts=attempts,
                schedule=sched,
                point_used=point,
                wall_time=time.perf_counter() - start,
            )
    return ReproResult(
        reproduced=False, attempts=attempts, wall_time=time.perf_counter() - start
    )


# --- systematic and random exploration --------------------------------------

def enumerate_interleavings(
    scn: Scenario, bound: int = DEFAULT_ENUMERATE_BOUND
) -> list[tuple[InterleavingSchedule, str]]:
    """All program-order-preserving interleavings with verdicts.

    Guarded by an op-count bound: the count is multinomial in trace lengths.
    """
    total = scn.total_ops()
    if total > bound:
        raise ValueError(f"scenario has {total} ops, enumeration bound is {bound}")
    names = scn.process_names
    lengths = [len(trace) for _name, trace in scn.processes]

    results: list[tuple[InterleavingSchedule, str]] = []
    prefix: list[tuple[str, int]] = []

    def recurse(progress: tuple[int, ...]) -> None:
        if len(prefix) == total:
            sched = InterleavingSchedule(steps=list(prefix))
            results.append((sched, run_schedule(scn, sched).verdict))
            return
        for pi, name in enumerate(names):
            if progress[pi] < lengths[pi]:
                prefix.append((name, progress[pi]))
                recurse(progress[:pi] + (progress[pi] + 1,) + progress[pi + 1 :])
                prefix.pop()

    recurse(tuple(0 for _ in names))
    return results


def random_baseline(scn: Scenario, runs: int = 100, seed: int = 0) -> ReproResult:
    """Unassisted baseline: uniform random interleavings until failure or budget.

    Each run shuffles the multiset of process tokens; the k-th occurrence of
    a name becomes that process's op k, giving a uniform distribution over
    distinct interleavings.
    """
    import random

    rng = random.Random(seed)
    tokens = [name for name, trace in scn.processes for _ in trace]
    start = time.perf_counter()
    for attempt in range(1, runs + 1):
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        counters: dict[str, int] = {}
        steps = []
        for name in shuffled:
            idx = counters.get(name, 0)
            counters[name] = idx + 1
            steps.append((name, idx))
        sched = InterleavingSchedule(steps=steps)
        if run_schedule(scn, sched).verdict == VERDICT_FAIL:
            return ReproResult(
                reproduced=True,
                attempts=attempt,
                schedule=sched,
                wall_time=time.perf_counter() - start,
            )
    return ReproResult(
        reproduced=False, attempts=runs, wall_time=time.perf_counter() - start
    )


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
