"""Property suites over the pipeline's core invariants.

Each suite runs 1000 generated cases (derandomized, so CI is stable).
The acceptance gate imports and re-runs the first six of them directly.
"""

from __future__ import annotations

import math
import random
import tempfile
from itertools import product
from pathlib import Path
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fs_state
from racerepro import harness
from racerepro.csource import index_tree
from racerepro.harness import (
    ORACLE_KINDS,
    FsEntry,
    InterleavingSchedule,
    Oracle,
    Scenario,
    SyscallOp,
    baseline_schedule,
    enumerate_interleavings,
    run_schedule,
    schedule_with_delay,
)
from racerepro.mining import InstrumentationPoint, TransactionDB, mine_pairs
from racerepro.reports import MODE_C_SOURCE, MODE_TEXT, preprocess, preprocess_tokens
from racerepro.testcases import Category, Choice, TslSpec, expand_tsl
from racerepro.vfs import ENOENT, VirtualFS

RUNS = settings(max_examples=1000, deadline=None, derandomize=True)


def _vocabulary() -> list[str]:
    words: set[str] = set()
    for path in sorted(FIXTURES.rglob("*")):
        if path.suffix in (".txt", ".c", ".h"):
            words.update(path.read_text("utf-8").split())
    return sorted(words)


VOCABULARY = _vocabulary()

SYSCALL_POOL = ("unlink", "rename", "open", "chmod", "stat")


# --- 1: preprocessing is a fixed point on the corpus vocabulary ---------------------

@RUNS
@given(
    words=st.lists(st.sampled_from(VOCABULARY), max_size=40),
    mode=st.sampled_from([MODE_TEXT, MODE_C_SOURCE]),
)
def test_preprocessing_idempotent_on_corpus(words: list[str], mode: str):
    once = preprocess(" ".join(words), mode)
    assert preprocess_tokens(once, mode) == once


# --- 2: support monotonicity ---------------------------------------------------------

_items = st.sampled_from(["open", "close", "read", "unlink", "rename", "link"])
_transactions = st.lists(st.lists(_items, max_size=5), max_size=6)


@RUNS
@given(base=_transactions, extra=st.lists(_items, min_size=1, max_size=5))
def test_support_monotonicity(base: list[list[str]], extra: list[str]):
    db = TransactionDB(transactions=list(enumerate(base)))
    ranking = mine_pairs(db)

    containing = {
        name: sum(1 for items in base if name in items)
        for items in base
        for name in items
    }
    for entry in ranking.entries:
        if len(entry.items) == 2:
            a, b = entry.items
            assert 1 <= entry.frequency <= min(containing[a], containing[b])

    # pairs precede singletons and each block is sorted by frequency
    kinds = [len(e.items) for e in ranking.entries]
    assert kinds == sorted(kinds, reverse=True)
    for block_len in (2, 1):
        freqs = [e.frequency for e in ranking.entries if len(e.items) == block_len]
        assert freqs == sorted(freqs, reverse=True)

    # growing the database never shrinks any existing frequency
    grown = mine_pairs(TransactionDB(transactions=list(enumerate(base + [extra]))))
    grown_freq = {tuple(sorted(e.items)): e.frequency for e in grown.entries}
    for entry in ranking.entries:
        assert grown_freq[tuple(sorted(entry.items))] >= entry.frequency


# --- 3 and 4: scheduling ---------------------------------------------------------------

_OPS = (
    SyscallOp("mknod", ("f",)),
    SyscallOp("open", ("f",)),
    SyscallOp("unlink", ("f",)),
    SyscallOp("stat", ("f",)),
    SyscallOp("rename", ("f", "g")),
    SyscallOp("chmod", ("f", 0o600)),
)


@st.composite
def _scenarios(draw, max_total: int = 5):
    n_procs = draw(st.integers(1, 3))
    traces = []
    remaining = max_total
    for pi in range(n_procs):
        size = draw(st.integers(0, min(3, remaining)))
        remaining -= size
        ops = [draw(st.sampled_from(_OPS)) for _ in range(size)]
        traces.append((f"p{pi}", ops))
    if all(not ops for _name, ops in traces):
        traces[0] = ("p0", [draw(st.sampled_from(_OPS))])
    return Scenario(
        id="generated",
        processes=traces,
        initial_fs=[],
        oracle=Oracle(kind="path-missing", path="f"),
    )


def _assert_program_order(scn: Scenario, steps: list[tuple[str, int]]) -> None:
    seen: dict[str, list[int]] = {name: [] for name in scn.process_names}
    for proc, op_idx in steps:
        seen[proc].append(op_idx)
    for name, trace in scn.processes:
        assert seen[name] == list(range(len(trace)))


@RUNS
@given(
    scn=_scenarios(),
    target=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    placement=st.sampled_from(["before", "after", "between-pair"]),
)
def test_schedules_preserve_program_order(scn, target, placement):
    _assert_program_order(scn, baseline_schedule(scn).steps)

    proc_idx, op_idx = target
    proc_idx %= len(scn.processes)
    name, trace = scn.processes[proc_idx]
    if trace:
        scn.src_map = {("a.c", "fn", 1): (name, op_idx % len(trace))}
        point = InstrumentationPoint(
            rank=1, syscall="x", file="a.c", function="fn", line=1, placement=placement
        )
        _assert_program_order(scn, schedule_with_delay(scn, point).steps)

    results = enumerate_interleavings(scn)
    lengths = [len(t) for _n, t in scn.processes]
    expected = math.factorial(sum(lengths))
    for n in lengths:
        expected //= math.factorial(n)
    assert len(results) == expected
    distinct = {tuple(sched.steps) for sched, _verdict in results}
    assert len(distinct) == expected
    for sched, _verdict in results:
        _assert_program_order(scn, sched.steps)


@RUNS
@given(scn=_scenarios(), seed=st.integers(0, 2**32 - 1))
def test_replay_deterministic(scn, seed):
    tokens = [name for name, trace in scn.processes for _ in trace]
    random.Random(seed).shuffle(tokens)
    counters: dict[str, int] = {}
    steps = []
    for name in tokens:
        idx = counters.get(name, 0)
        counters[name] = idx + 1
        steps.append((name, idx))
    sched = InterleavingSchedule(steps=steps)

    first = run_schedule(scn, sched)
    second = run_schedule(scn, sched)
    assert first.verdict == second.verdict
    assert fs_state(first.fs) == fs_state(second.fs)


# --- 5: the index finds exactly the authored sites ------------------------------------

@st.composite
def _c_files(draw):
    """A C file with known call sites plus comment/string decoys."""
    n_funcs = draw(st.integers(1, 3))
    lines: list[str] = ["/* generated fixture */"]
    expected: list[tuple[str, str, int]] = []  # (function, syscall, line)
    for fi in range(n_funcs):
        name = f"fn{fi}"
        lines.append(f"static int {name} (const char *p)")
        lines.append("{")
        for _ in range(draw(st.integers(1, 4))):
            syscall = draw(st.sampled_from(SYSCALL_POOL))
            kind = draw(st.sampled_from(["call", "comment", "string", "plain"]))
            if kind == "call":
                args = "p, \"bak\"" if syscall == "rename" else (
                    "p, 0600" if syscall == "chmod" else "p"
                )
                lines.append(f"  {syscall} ({args});")
                expected.append((name, syscall, len(lines)))
            elif kind == "comment":
                lines.append(f"  /* {syscall} (p) would race here */")
            elif kind == "string":
                lines.append(f"  log_msg (\"{syscall} (p) failed\");")
            else:
                lines.append("  counter += 1;")
        lines.append("  return 0;")
        lines.append("}")
        lines.append("")
    return "\n".join(lines) + "\n", expected


@RUNS
@given(generated=_c_files())
def test_index_finds_exact_sites(generated):
    text, expected = generated
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "gen.c").write_text(text, "utf-8")
        index = index_tree(tmp, frozenset(SYSCALL_POOL))
    found = sorted(
        (record.name, syscall, line)
        for record in index.functions
        for syscall, line in record.syscall_sites
    )
    assert found == sorted(expected)
    for record in index.functions:
        for _syscall, line in record.syscall_sites:
            assert record.start_line <= line <= record.end_line


# --- 6: TSL frame counts match the combinatorial oracle --------------------------------

@st.composite
def _tsl_specs(draw):
    n_cats = draw(st.integers(1, 3))
    categories = []
    serial = 0
    for ci in range(n_cats):
        choices = [Choice(value=f"v{(serial := serial + 1)}")
                   for _ in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(0, 2))):
            is_error = draw(st.booleans())
            choices.append(
                Choice(value=f"v{(serial := serial + 1)}",
                       error=is_error, single=not is_error)
            )
        order = draw(st.permutations(range(len(choices))))
        categories.append(
            Category(name=f"c{ci}", choices=[choices[i] for i in order])
        )
    return TslSpec(categories=categories)


@RUNS
@given(spec=_tsl_specs())
def test_tsl_frame_count_matches_oracle(spec):
    plain = {cat.name: [c.value for c in cat.choices if c.plain] for cat in spec.categories}
    n_special = sum(1 for cat in spec.categories for c in cat.choices if not c.plain)
    n_error = sum(1 for cat in spec.categories for c in cat.choices if c.error)

    cases = expand_tsl(spec)
    expected_base = math.prod(len(v) for v in plain.values())
    assert len(cases) == expected_base + n_special
    assert sum(1 for c in cases if c.error) == n_error

    # the base block is exactly the Cartesian product of plain choices
    base_setups = {tuple(c.setup) for c in cases[:expected_base]}
    names = [cat.name for cat in spec.categories]
    oracle = {
        tuple(f"{name}={value}" for name, value in zip(names, combo))
        for combo in product(*(plain[name] for name in names))
    }
    assert base_setups == oracle


# --- 7: prefix-sharing enumeration equals replaying every interleaving ---------------

_PATHS = ("f", "g", "h")
_CONTENTS = ("a", "b")
_MODES = (0o444, 0o600, 0o644)


@st.composite
def _fs_ops(draw) -> SyscallOp:
    """Ops that alias (link), move, mutate, delete and create nodes."""
    kind = draw(st.sampled_from(("link", "rename", "write", "chmod", "unlink", "open", "mknod")))
    path = draw(st.sampled_from(_PATHS))
    extra = {"link": _PATHS, "rename": _PATHS, "write": _CONTENTS, "chmod": _MODES}
    if kind in extra:
        return SyscallOp(kind, (path, draw(st.sampled_from(extra[kind]))))
    return SyscallOp(kind, (path,))


@st.composite
def _fs_scenarios(draw):
    """Two processes of one to three ops, or three of one or two."""
    initial_fs = [FsEntry(path="g", mode=0o444, content="a")]  # read-only: writes are EACCES
    if draw(st.booleans()):
        initial_fs.append(FsEntry(path="f", kind=draw(st.sampled_from(("file", "dir")))))
    n_procs = draw(st.integers(2, 3))
    trace = st.lists(_fs_ops(), min_size=1, max_size=3 if n_procs == 2 else 2)
    kind = draw(st.sampled_from(ORACLE_KINDS))
    oracle = Oracle(
        kind=kind,
        path=draw(st.sampled_from(_PATHS)),
        expected_mode=draw(st.sampled_from(_MODES)) if kind == "final-mode" else None,
        expected_content=draw(st.sampled_from(_CONTENTS)) if kind == "final-content" else None,
    )
    return Scenario(
        id="generated-fs",
        processes=[(f"p{pi}", draw(trace)) for pi in range(n_procs)],
        initial_fs=initial_fs,
        oracle=oracle,
    )


class _Recording:
    """An oracle that also keeps the final state (with its hard-link groups)
    and the open-failure flag each verdict was given on."""

    def __init__(self, oracle: Oracle) -> None:
        self.oracle, self.seen = oracle, []

    def watches(self, op: SyscallOp) -> bool:
        return self.oracle.watches(op)

    def evaluate(self, fs, open_failed: bool) -> str:
        self.seen.append((fs_state(fs), open_failed))
        return self.oracle.evaluate(fs, open_failed)


def _enumerate_by_replay(scn: Scenario) -> list[tuple[list[tuple[str, int]], str]]:
    """The reference: every interleaving replayed from the initial filesystem."""
    names = scn.process_names
    lengths = [len(trace) for _name, trace in scn.processes]
    results: list[tuple[list[tuple[str, int]], str]] = []
    prefix: list[tuple[str, int]] = []

    def recurse(progress: tuple[int, ...]) -> None:
        if len(prefix) == sum(lengths):
            sched = InterleavingSchedule(steps=list(prefix))
            results.append((sched.steps, run_schedule(scn, sched).verdict))
            return
        for pi, name in enumerate(names):
            if progress[pi] < lengths[pi]:
                prefix.append((name, progress[pi]))
                recurse(progress[:pi] + (progress[pi] + 1,) + progress[pi + 1 :])
                prefix.pop()

    recurse(tuple(0 for _ in names))
    return results


def _replayed(scn: Scenario, steps: list[tuple[str, int]]) -> tuple[VirtualFS, bool]:
    """The filesystem and open-failure flag after ``steps``, replayed from the
    initial filesystem."""
    fs = scn.build_fs()
    traces = dict(scn.processes)
    open_failed = False
    for proc, op_idx in steps:
        op = traces[proc][op_idx]
        if fs.apply(op.kind, op.args) == ENOENT and scn.oracle.watches(op):
            open_failed = True
    return fs, open_failed


def _state_key(progress, open_failed: bool, fs: VirtualFS) -> tuple:
    """A walk node as plain data: progress vector, open-failure flag, full state."""
    return tuple(progress), open_failed, tuple(fs_state(fs).items())


def _cached_walk_by_replay(scn: Scenario) -> list[tuple]:
    """The reference for the cached walk: the same depth-first order, each
    inner node's state replayed from the initial filesystem and keyed by
    ``_state_key``, a key seen before not walked again, and each leaf reached
    evaluated by ``run_schedule``.  Returns the inner nodes' keys in visit order."""
    names = scn.process_names
    lengths = [len(trace) for _name, trace in scn.processes]
    keys: list[tuple] = []
    seen: set[tuple] = set()
    prefix: list[tuple[str, int]] = []

    def recurse(progress: tuple[int, ...]) -> None:
        if len(prefix) == sum(lengths):
            run_schedule(scn, InterleavingSchedule(steps=list(prefix)))
            return
        fs, open_failed = _replayed(scn, prefix)
        key = _state_key(progress, open_failed, fs)
        keys.append(key)
        if key in seen:
            return
        seen.add(key)
        for pi, name in enumerate(names):
            if progress[pi] < lengths[pi]:
                prefix.append((name, progress[pi]))
                recurse(progress[:pi] + (progress[pi] + 1,) + progress[pi + 1 :])
                prefix.pop()

    recurse(tuple(0 for _ in names))
    return keys


@RUNS
@given(scn=_fs_scenarios())
def test_enumeration_equals_replaying_every_interleaving(scn):
    shared = [(sched.steps, verdict) for sched, verdict in enumerate_interleavings(scn)]
    assert shared == _enumerate_by_replay(scn)

    # the walk reuses the leaves below a node whose key it has already walked;
    # the replayed reference skips the same keys, so the nodes visited (each
    # with its full state) and the final state and open-failure flag of every
    # leaf evaluated must be the same
    scn.oracle = _Recording(scn.oracle)
    walked_keys = []
    node_key = harness._node_key

    def recording(progress, open_failed, paths):
        walked_keys.append(_state_key(progress, open_failed, VirtualFS(paths)))
        return node_key(progress, open_failed, paths)

    with patch.object(harness, "_node_key", recording):
        enumerate_interleavings(scn)
    walked, scn.oracle.seen = scn.oracle.seen, []
    assert walked_keys == _cached_walk_by_replay(scn)
    assert walked == scn.oracle.seen
