"""Indexing a tree in forked processes: the same index and artifacts as in-process,
a child's failure absorbed, no child left behind, and no fork where it cannot pay."""

from __future__ import annotations

import dataclasses
import errno
import os
import pickle
import random
import threading
from pathlib import Path

import pytest

from conftest import GZIP_DIR, MV_DIR, ROOT, load_bench_gen
from racerepro import csource
from racerepro.catalog import bundled_catalog
from racerepro.cli import main

SYSCALLS = frozenset(bundled_catalog().entries)


@pytest.fixture(scope="module")
def trees(tmp_path_factory) -> dict[int, Path]:
    """Generated source trees of 20, 150 and 1000 files; the largest also
    gets a report, a scenario and a TSL spec beside its ``src``."""
    gen = load_bench_gen()
    vocab = gen.Vocab(ROOT)
    roots = {}
    for n in (20, 150, 1000):
        base = tmp_path_factory.mktemp(f"tree{n}")
        rng = random.Random(f"fork:{n}")
        _rels, (plant,) = gen.write_tree(vocab, rng, base / "src", n, ["open-enoent"])
        if n == 1000:
            prog, observer = gen.program_name(plant), gen.other_name(vocab, rng, plant)
            (base / "report.txt").write_text(gen.direct_report(vocab, rng, prog, plant), "utf-8")
            scn, _src_map = gen.scenario(rng, plant, (prog, observer))
            gen.write_json(base / "scenario.json", scn)
            (base / "spec.tsl").write_text(gen.tsl_spec(rng)[0], "utf-8")
        roots[n] = base
    return roots


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """Every ``os.fork`` call's pid in the parent; the test then checks that
    none of them is left unreaped."""
    pids: list[int] = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    yield pids
    _assert_no_child_left()


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)), raising=False)


def _cold_index(src: Path, monkeypatch) -> csource.SourceIndex:
    """``index_tree`` with the memo slot empty, then no child left."""
    monkeypatch.setattr(csource, "_last_index", None)
    index = csource.index_tree(src, SYSCALLS)
    _assert_no_child_left()
    return index


def _reference_index(src: Path) -> csource.SourceIndex:
    """The tree indexed with one usable CPU, so in this process."""
    with pytest.MonkeyPatch.context() as mp:
        _cpus(mp, 1)
        mp.setattr(csource, "_last_index", None)
        return csource.index_tree(src, SYSCALLS)


def _assert_same_index(got: csource.SourceIndex, want: csource.SourceIndex) -> None:
    for f in dataclasses.fields(csource.SourceIndex):
        if f.compare:
            assert getattr(got, f.name) == getattr(want, f.name), f.name


# --- the forked path equals the in-process build ----------------------------------

@pytest.mark.parametrize("cpus", [2, 3, 4])
@pytest.mark.parametrize("n_files", [150, 1000])
def test_forked_index_equals_in_process_index(n_files, cpus, trees, forks, monkeypatch):
    src = trees[n_files] / "src"
    want = _reference_index(src)
    assert not forks
    # every CPU gets a process, so the chunk boundaries move with the count
    monkeypatch.setattr(csource, "_FORK_MIN_BYTES", 1024)
    _cpus(monkeypatch, cpus)
    got = _cold_index(src, monkeypatch)
    assert len(forks) == cpus - 1
    _assert_same_index(got, want)


def test_pipeline_artifacts_are_byte_identical_forked_and_in_process(
    trees, forks, monkeypatch, tmp_path, capsys
):
    base = trees[1000]
    outs = {}
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        monkeypatch.setattr(csource, "_last_index", None)
        out = outs[cpus] = tmp_path / f"cpus{cpus}"
        code = main(["pipeline", "--report", str(base / "report.txt"), "--src", str(base / "src"),
                     "--scenario", str(base / "scenario.json"), "--tsl", str(base / "spec.tsl"),
                     "--out-dir", str(out)])
        assert code in (0, 1)
        assert len(forks) == 1  # the forked run forks once, the in-process run never
    capsys.readouterr()
    names = sorted(p.name for p in outs[2].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "ranked_files.json" in names
    for name in names:
        assert (outs[2] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_chunks_cut_contiguous_runs_of_about_equal_bytes():
    sources = [(f"f{i}.c", b"x" * (1 + i % 7)) for i in range(100)]
    total = sum(len(data) for _rel, data in sources)
    for n in range(1, 9):
        chunks = csource._chunks(sources, n)
        assert [pair for chunk in chunks for pair in chunk] == sources
        assert len(chunks) == n and all(chunks)
        assert max(sum(len(d) for _r, d in c) for c in chunks) <= total / n + 7
    # one large file cannot be split: fewer, still non-empty, chunks
    lopsided = [("big.c", b"x" * 1000), ("a.c", b"x"), ("b.c", b"x")]
    chunks = csource._chunks(lopsided, 4)
    assert [pair for chunk in chunks for pair in chunk] == lopsided
    assert all(chunks) and len(chunks) < 4


# --- a failing child ---------------------------------------------------------------

def _fail_in_child(how: str, monkeypatch) -> list[int]:
    """Make every forked child fail ``how``; returns a log of the
    ``_index_files`` calls this process makes."""
    parent = os.getpid()
    parent_calls: list[int] = []
    real_index_files = csource._index_files

    def index_files(sources, names):
        if os.getpid() == parent:
            parent_calls.append(len(sources))
            return real_index_files(sources, names)
        if how == "raises":
            raise RuntimeError("child failed")
        if how == "exits nonzero":
            os._exit(3)
        if how == "unpicklable result":
            return [threading.Lock()]
        return real_index_files(sources, names)

    monkeypatch.setattr(csource, "_index_files", index_files)
    real_dumps = pickle.dumps
    if how == "short read":
        monkeypatch.setattr(pickle, "dumps", lambda obj, *a: real_dumps(obj, *a)[:-9])
    elif how == "not a pickle":
        monkeypatch.setattr(pickle, "dumps", lambda obj, *a: b"not a pickle")
    elif how == "wrong length":
        monkeypatch.setattr(pickle, "dumps", lambda obj, *a: real_dumps(obj[:-1], *a))
    elif how == "exits nonzero after its payload":
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: real_exit(status or 5))
    return parent_calls


@pytest.mark.parametrize(
    "how",
    ["raises", "exits nonzero", "exits nonzero after its payload", "unpicklable result",
     "short read", "not a pickle", "wrong length"],
)
def test_failed_child_chunk_is_indexed_by_the_parent(how, trees, forks, monkeypatch):
    src = trees[150] / "src"
    want = _reference_index(src)
    parent_calls = _fail_in_child(how, monkeypatch)
    monkeypatch.setattr(csource, "_FORK_MIN_BYTES", 1024)
    _cpus(monkeypatch, 3)
    got = _cold_index(src, monkeypatch)
    assert len(forks) == 2
    assert len(parent_calls) == 3  # its own chunk and both children's
    assert sum(parent_calls) == len(want.docs)
    _assert_same_index(got, want)


def test_failed_fork_chunk_is_indexed_by_the_parent(trees, monkeypatch):
    src = trees[150] / "src"
    want = _reference_index(src)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 2)
    _assert_same_index(_cold_index(src, monkeypatch), want)


def test_interrupted_parent_leaves_no_child(trees, forks, monkeypatch):
    src = trees[1000] / "src"
    parent = os.getpid()
    real_index_files = csource._index_files

    def index_files(sources, names):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real_index_files(sources, names)

    monkeypatch.setattr(csource, "_index_files", index_files)
    monkeypatch.setattr(csource, "_last_index", None)
    _cpus(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        csource.index_tree(src, SYSCALLS)
    assert len(forks) == 2
    _assert_no_child_left()


# --- when the build forks ----------------------------------------------------------

def test_no_fork_on_one_cpu(trees, forks, monkeypatch):
    _cpus(monkeypatch, 1)
    src = trees[1000] / "src"
    _assert_same_index(_cold_index(src, monkeypatch), _reference_index(src))
    assert not forks


def test_cpu_count_decides_without_affinity(trees, forks, monkeypatch):
    src = trees[150] / "src"
    want = _reference_index(src)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    _cold_index(src, monkeypatch)
    assert not forks
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _assert_same_index(_cold_index(src, monkeypatch), want)
    assert len(forks) == 1


def test_no_fork_without_os_fork(trees, monkeypatch):
    src = trees[1000] / "src"
    want = _reference_index(src)
    monkeypatch.delattr(os, "fork")
    _cpus(monkeypatch, 2)
    _assert_same_index(_cold_index(src, monkeypatch), want)


def test_no_fork_beside_a_second_live_thread(trees, forks, monkeypatch):
    _cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        _cold_index(trees[1000] / "src", monkeypatch)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not forks
    _cold_index(trees[1000] / "src", monkeypatch)
    assert len(forks) == 1


def test_fork_starts_at_the_constant(trees, forks, monkeypatch):
    src = trees[150] / "src"
    size = sum(p.stat().st_size for p in src.rglob("*") if p.is_file())
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(csource, "_FORK_MIN_BYTES", size + 1)
    _cold_index(src, monkeypatch)
    assert not forks
    monkeypatch.setattr(csource, "_FORK_MIN_BYTES", size)
    _cold_index(src, monkeypatch)
    assert len(forks) == 1


@pytest.mark.parametrize("which", ["mv", "gzip", "20 files"])
def test_small_trees_stay_in_process(which, trees, forks, monkeypatch):
    src = {"mv": MV_DIR / "src", "gzip": GZIP_DIR / "src", "20 files": trees[20] / "src"}[which]
    assert sum(p.stat().st_size for p in src.rglob("*") if p.is_file()) < csource._FORK_MIN_BYTES
    _cpus(monkeypatch, 4)
    _cold_index(src, monkeypatch)
    assert not forks
