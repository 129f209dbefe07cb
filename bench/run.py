"""The racerepro benchmark: seeded workloads, checked results, one JSON line.

Run from the root of a racerepro checkout:

    python3 bench/run.py --workload large-tree --seed 1 --seconds 30 --trace 0

The benchmark generates its inputs from ``--seed`` (bench/gen.py), drives
the package from ``src/`` through its public entry points in a closed loop
(one client, one process, no threads: the next job starts when the last one
has finished), checks every result against an answer that does not come
from the program (bench/check.py), and prints the metrics as the last line
of standard output.  Times in the end-to-end metrics are scaled by a
host-speed reference timed between jobs (bench/speed.py); the wall times
are printed on the line above.  ``--trace 0`` gives the end-to-end metrics;
``--trace 1`` alternates untraced and traced jobs and gives the per-layer
metrics (bench/tracing.py), writing the spans to ``.bench_out/trace/``.

Workloads (one job = one request):

* ``large-tree``    ``racerepro pipeline`` through ``cli.main`` on a freshly
  generated tree of 1000 files that no earlier job of the process has seen;
* ``report-batch``  one ``metrics.run_fixture`` (the per-bundle body of
  ``racerepro eval``) over a pool of both fixtures and generated bundles on
  small shared trees, cycling through the eval modes;
* ``replay``        ``harness.reproduce`` over a few hundred ranked points,
  then ``enumerate_interleavings``, then a seeded ``random_baseline``.

See bench/METRICS.md for what each metric means and which layer should
move it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import speed
import tracing

clock = time.perf_counter
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
LARGE_TREE_FILES = 1000
EVAL_MODES = ("basic-ir", "structured-ir", "no-apriori", "apriori",
              "random-baseline", "perturbed@0.25")
EVAL_SEED = 7  # the fixed seed of the stochastic eval modes
RANDOM_RUNS = 100


def load_program() -> dict:
    """Import racerepro from ``src/`` of the checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "racerepro" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        sys.exit(f"error: {ROOT} is not a racerepro checkout (src/racerepro or fixtures/ missing)")
    sys.path.insert(0, str(src))
    import racerepro  # noqa: F401
    from racerepro import (catalog, cli, csource, harness, metrics, mining, reports,
                           retrieval, testcases, vfs)

    if Path(racerepro.__file__).resolve().parent != (src / "racerepro").resolve():
        sys.exit(f"error: imported racerepro from {racerepro.__file__}, not {src}")
    return {m.__name__.rsplit(".", 1)[-1]: m for m in (
        catalog, cli, csource, harness, metrics, mining, reports, retrieval, testcases, vfs)}


def quiet(fn, *args, **kwargs):
    """Call with stdout and stderr captured (the CLI prints; warnings log)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(*args, **kwargs)


# --- set-up ------------------------------------------------------------------

MV = ROOT / "fixtures" / "mv_438076"


def first_call(rr: dict, workload: str, catalog) -> None:
    """The workload's entry point once on the smallest fixture (lazy set-up)."""
    if workload == "large-tree":
        out = OUT / "warm"
        quiet(rr["cli"].main, ["pipeline", "--report", str(MV / "mv_438076.txt"),
                               "--src", str(MV / "src"), "--scenario", str(MV / "scenario.json"),
                               "--out-dir", str(out)])
        shutil.rmtree(out, ignore_errors=True)
    elif workload == "report-batch":
        quiet(rr["metrics"].run_fixture, fixture_bundle(rr, MV),
              rr["metrics"].ExperimentConfig(), catalog)
    else:
        harness = rr["harness"]
        scn = harness.load_scenario(MV / "scenario.json")
        harness.reproduce(scn, [])
        harness.enumerate_interleavings(scn)
        harness.random_baseline(scn, RANDOM_RUNS, 0)


def setup_probe(workload: str) -> None:
    """In a fresh interpreter: import, load the catalog, make the first call."""
    t0 = clock()
    rr = load_program()
    t1 = clock()
    catalog = rr["catalog"].bundled_catalog()
    t2 = clock()
    first_call(rr, workload, catalog)
    t3 = clock()
    print(json.dumps({"setup_s": speed.scale_once(t3 - t0, speed.Reference()),
                      "setup_wall_s": t3 - t0, "catalog_ms": (t2 - t1) * 1e3}))


def measure_setup(workload: str) -> tuple[float, float, float]:
    """Median scaled and wall set-up seconds, and catalog-load ms, over fresh interpreters."""
    runs = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return (statistics.median(r["setup_s"] for r in runs),
            statistics.median(r["setup_wall_s"] for r in runs),
            statistics.median(r["catalog_ms"] for r in runs))


# --- workloads ---------------------------------------------------------------

class Job:
    """One prepared request: inputs on disk plus the planted answers."""

    def __init__(self, **kw) -> None:
        self.__dict__.update(kw)


def fixture_bundle(rr, path: Path):
    return rr["metrics"].FixtureBundle(
        bug_id=path.name,
        report_path=path / f"{path.name}.txt",
        src_root=path / "src",
        scenario_path=path / "scenario.json",
        ground_truth_path=path / "ground_truth.json",
    )


def read_json(path: Path):
    return json.loads(path.read_text("utf-8"))


def _time_keys(obj) -> list[str]:
    """Keys of a JSON artifact that would hold a wall time (file paths aside)."""
    if isinstance(obj, dict):
        found = [k for k in obj if "." not in k and ("time" in k.lower() or "wall" in k.lower())]
        return found + [k for v in obj.values() for k in _time_keys(v)]
    if isinstance(obj, list):
        return [k for v in obj for k in _time_keys(v)]
    return []


class LargeTree:
    def __init__(self, rr, vocab, seed: int, work: Path, catalog) -> None:
        self.rr, self.vocab, self.seed, self.work = rr, vocab, seed, work

    def prepare(self, j: int) -> Job:
        rng = random.Random(f"large-tree:{self.seed}:{j}")
        base = self.work / f"job{j}"
        kind = gen.RACE_KINDS[j % len(gen.RACE_KINDS)]
        rels, (plant,) = gen.write_tree(self.vocab, rng, base / "src", LARGE_TREE_FILES, [kind])
        prog, observer = gen.program_name(plant), gen.other_name(self.vocab, rng, plant)
        (base / "report.txt").write_text(gen.direct_report(self.vocab, rng, prog, plant), "utf-8")
        scn, _ = gen.scenario(rng, plant, (prog, observer),
                              pad=(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1), 0))
        gen.write_json(base / "scenario.json", scn)
        spec, frames, errors = gen.tsl_spec(rng)
        (base / "spec.tsl").write_text(spec, "utf-8")
        return Job(base=base, plant=plant, scn=scn, n_files=len(rels),
                   frames=frames, errors=errors)

    def argv(self, job: Job, out: Path) -> list[str]:
        b = job.base
        return ["pipeline", "--report", str(b / "report.txt"), "--src", str(b / "src"),
                "--scenario", str(b / "scenario.json"), "--tsl", str(b / "spec.tsl"),
                "--out-dir", str(out)]

    def run(self, job: Job, out: Path | None = None):
        out = out or job.base / "out"
        return quiet(self.rr["cli"].main, self.argv(job, out))

    def check(self, job: Job, code) -> tuple[str | None, dict]:
        out = job.base / "out"
        if code not in (0, 1):
            return f"pipeline exited {code}", {}
        arts = {p.name: read_json(p) for p in sorted(out.glob("*.json"))}
        for name, payload in arts.items():
            if _time_keys(payload):
                return f"{name} holds wall-time keys {_time_keys(payload)}", {}
        points = arts["points.json"]["points"]
        repro = arts["repro.json"]
        ranking = check.location_ranking(points)
        stats = {"reproduced": repro["reproduced"], "attempts": repro["attempts"],
                 "map": check.ap_of(ranking, job.plant.sites())}
        keys = arts["keys.json"]
        if keys["path"] != "direct" or not set(job.plant.pair) <= {e["name"] for e in keys["entries"]}:
            return f"keys {keys['path']} {keys['entries']} miss the planted pair", stats
        if len(arts["ranked_files.json"]["entries"]) != job.n_files:
            return f"ranked {len(arts['ranked_files.json']['entries'])} of {job.n_files} files", stats
        cases = arts["test_cases.json"]["cases"]
        if len(cases) != job.frames or sum(c["error"] for c in cases) != job.errors:
            return f"{len(cases)} test frames, the spec has {job.frames}", stats
        if (code == 0) != repro["reproduced"]:
            return f"exit code {code} but reproduced={repro['reproduced']}", stats
        as_tuple = lambda p: (p["syscall"], p["file"], p["function"], p["line"], p["placement"])  # noqa: E731
        used = repro.get("point_used")
        return check.check_repro(
            job.scn, [as_tuple(p) for p in points], self.rr["harness"].DEFAULT_MAX_ATTEMPTS,
            repro["reproduced"], repro["attempts"], as_tuple(used) if used else None,
            repro.get("schedule", {}).get("steps"),
        ), stats

    def replay_bytes(self, job: Job, first) -> str | None:
        """Run the job again into a second directory; artifacts must match."""
        again = job.base / "again"
        self.run(job, again)
        a = {p.name: p.read_bytes() for p in (job.base / "out").iterdir()}
        b = {p.name: p.read_bytes() for p in again.iterdir()}
        return None if a == b else f"artifacts differ across runs: {sorted(n for n in a if a[n] != b.get(n))}"

    def cleanup(self, job: Job) -> None:
        shutil.rmtree(job.base, ignore_errors=True)


class ReportBatch:
    """Both fixtures plus generated bundles over eight small shared trees."""

    # 83 generated bundles, 10 or 11 per tree: with the two fixtures a pool
    # of 85, prime to the 6 eval modes, so a run of up to 510 jobs meets no
    # (bundle, mode) pair twice
    TREE_FILES = (14, 16, 18, 20, 14, 16, 18, 20)
    BUNDLES = 83

    def __init__(self, rr, vocab, seed: int, work: Path, catalog) -> None:
        self.rr, self.catalog = rr, catalog
        rng = random.Random(f"report-batch:{seed}")
        self.pool = []
        for fixture in ("mv_438076", "gzip_371162"):
            path = ROOT / "fixtures" / fixture
            scn = read_json(path / "scenario.json")
            self.pool.append(self._entry(fixture_bundle(rr, path), scn,
                                         read_json(path / "ground_truth.json"),
                                         len(list((path / "src").glob("*.[ch]")))))
        k = 0
        for t, n_files in enumerate(self.TREE_FILES):
            root = work / f"tree{t}"
            n_plants = self.BUNDLES // len(self.TREE_FILES) + (t < self.BUNDLES % len(self.TREE_FILES))
            kinds = [gen.RACE_KINDS[(k + i) % 4] for i in range(n_plants)]
            rels, plants = gen.write_tree(vocab, rng, root, n_files, kinds)
            for plant in plants:
                prog, observer = gen.program_name(plant), gen.other_name(vocab, rng, plant)
                d = work / f"bundle{k}"
                d.mkdir(parents=True)
                report = (gen.direct_report(vocab, rng, prog, plant) if k % 2 == 0
                          else gen.derived_report(vocab, rng, prog, plant))
                (d / "report.txt").write_text(report, "utf-8")
                scn, _ = gen.scenario(rng, plant, (prog, observer),
                                      pad=(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1), 0))
                scn["src_map"] = scn["src_map"][:2]  # only the planted pair steers
                gen.write_json(d / "scenario.json", scn)
                truth = gen.ground_truth(f"gen{k}", plant)
                gen.write_json(d / "ground_truth.json", truth)
                bundle = rr["metrics"].FixtureBundle(
                    bug_id=f"gen{k}", report_path=d / "report.txt", src_root=root,
                    scenario_path=d / "scenario.json", ground_truth_path=d / "ground_truth.json")
                self.pool.append(self._entry(bundle, scn, truth, len(rels)))
                k += 1

    @staticmethod
    def _entry(bundle, scn, truth, n_files) -> dict:
        failing = sum(check.simulate(scn, s) for s in check.all_orders(scn))
        return {"bundle": bundle, "scn": scn, "truth": truth, "n_files": n_files, "failing": failing}

    def prepare(self, j: int) -> Job:
        mode = EVAL_MODES[j % len(EVAL_MODES)]
        name, fraction = self.rr["metrics"].parse_mode(mode)
        config = self.rr["metrics"].ExperimentConfig(mode=name, perturb_fraction=fraction,
                                                     seed=EVAL_SEED)
        return Job(entry=self.pool[j % len(self.pool)], config=config)

    def run(self, job: Job):
        row = quiet(self.rr["metrics"].run_fixture, job.entry["bundle"], job.config, self.catalog)
        return self.rr["metrics"].row_to_json(row)

    def check(self, job: Job, row: dict) -> tuple[str | None, dict]:
        stats = {"reproduced": row["suc"] == "Y", "attempts": row["nor"], "map": row["map"]}
        e, c = job.entry, job.config
        return check.check_row(row, e["truth"], e["n_files"], c.recall_k, c.max_attempts,
                               c.mode != "random-baseline", e["failing"]), stats

    def replay_bytes(self, job: Job, first: dict) -> str | None:
        same = json.dumps(self.run(job), sort_keys=True) == json.dumps(first, sort_keys=True)
        return None if same else "eval row differs across runs"

    def cleanup(self, job: Job) -> None:
        pass


class Replay:
    """Generated scenarios (2-3 processes, at most 12 ops) with ranked points."""

    MAX_INTERLEAVINGS = 3000
    GOLDEN = (5 ** 0.5 - 1) / 2

    def __init__(self, rr, vocab, seed: int, work: Path, catalog) -> None:
        self.rr, self.vocab, self.seed, self.work = rr, vocab, seed, work
        self.load_scenario = rr["harness"].load_scenario  # not traced: input preparation
        self.phase = random.Random(f"replay:{seed}").random()
        self._pads: dict[tuple[str, bool], list[tuple]] = {}
        work.mkdir(parents=True, exist_ok=True)

    def pads(self, kind: str, third: bool) -> list[tuple]:
        """Every allowed pad of a scenario class, from fewest interleavings up."""
        if (kind, third) not in self._pads:
            allowed = []
            for pad in itertools.product(range(4), range(4), range(3), range(1, 4) if third else (0,)):
                lengths = gen.trace_lengths(kind, pad)
                count = gen.multinomial(lengths)
                if sum(lengths) <= 12 and count <= self.MAX_INTERLEAVINGS:
                    allowed.append((count, pad))
            self._pads[kind, third] = [pad for _, pad in sorted(allowed)]
        return self._pads[kind, third]

    def prepare(self, j: int) -> Job:
        rng = random.Random(f"replay:{self.seed}:{j}")
        kind = gen.RACE_KINDS[j % 4]
        broken = j % 5 == 4  # the undelayed order already fails
        names = gen.Names(self.vocab, rng)
        procs = (names.ident(1), names.ident(1), names.ident(1))
        plant = gen.Plant(kind, f"{procs[0]}.c", names.ident())
        start = rng.randint(20, 300)
        plant.lines = {plant.pair[0]: start, plant.pair[1]: start + 3}
        # a stratified draw (a golden-ratio sequence over the pads sorted by
        # interleaving count): any seed's run meets the same mix of sizes
        pads = self.pads(kind, j % 3 == 2)
        pad = pads[int((self.phase + j * self.GOLDEN) % 1 * len(pads))]
        scn, smap = gen.scenario(rng, plant, procs, broken, pad)
        count = gen.multinomial([len(p["trace"]) for p in scn["processes"]])
        n = rng.randint(150, 400)
        fail_rank = None if j % 7 == 6 else rng.randint(n // 4, n)
        pts = gen.point_list(rng, plant, smap, n, fail_rank)
        path = self.work / f"scenario{j}.json"
        gen.write_json(path, scn)
        Point = self.rr["mining"].InstrumentationPoint
        points = [Point(rank=i, syscall=s, file=f, function=fn, line=ln, placement=pl)
                  for i, (s, f, fn, ln, pl) in enumerate(pts, start=1)]
        return Job(scn=scn, scenario=self.load_scenario(path), pts=pts, points=points,
                   count=count, plant=plant, seed=j, path=path)

    def run(self, job: Job):
        h = self.rr["harness"]
        repro = h.reproduce(job.scenario, job.points, len(job.points))
        explored = h.enumerate_interleavings(job.scenario)
        rand = h.random_baseline(job.scenario, RANDOM_RUNS, job.seed)
        return repro, explored, rand

    @staticmethod
    def _summary(out) -> list:
        repro, explored, rand = out
        p = repro.point_used
        return [repro.reproduced, repro.attempts,
                [p.rank, p.placement] if p else None,
                repro.schedule.steps if repro.schedule else None,
                [[s.steps, v] for s, v in explored],
                [rand.reproduced, rand.attempts, rand.schedule.steps if rand.schedule else None]]

    def check(self, job: Job, out) -> tuple[str | None, dict]:
        repro, explored, rand = out
        stats = {"reproduced": repro.reproduced, "attempts": repro.attempts,
                 "map": check.ap_of(check.location_ranking(
                     [dict(zip(("syscall", "file", "function", "line"), p)) for p in job.pts]),
                     job.plant.sites())}
        p = repro.point_used
        credited = (p.syscall, p.file, p.function, p.line, p.placement) if p else None
        steps = repro.schedule.steps if repro.schedule else None
        verdicts = [(s.steps, v == "fail") for s, v in explored]
        problem = (
            check.check_repro(job.scn, job.pts, len(job.pts), repro.reproduced,
                              repro.attempts, credited, steps)
            or check.check_enumeration(job.scn, verdicts, job.count)
            or check.check_random(job.scn, RANDOM_RUNS, rand.reproduced, rand.attempts,
                                  rand.schedule.steps if rand.schedule else None,
                                  sum(f for _, f in verdicts))
        )
        return problem, stats

    def replay_bytes(self, job: Job, first) -> str | None:
        same = json.dumps(self._summary(self.run(job))) == json.dumps(self._summary(first))
        return None if same else "replay results differ across runs"

    def cleanup(self, job: Job) -> None:
        job.path.unlink()


WORKLOADS = {"large-tree": LargeTree, "report-batch": ReportBatch, "replay": Replay}


# --- the run -----------------------------------------------------------------

def tail(values: list[float], q: float) -> float | None:
    """The q-quantile, or None unless at least ten samples lie beyond it."""
    s = sorted(values)
    i = min(len(s) - 1, int(q * len(s)))
    return s[i] if len(s) - 1 - i >= 10 else None


def run(args) -> dict:
    rr = load_program()
    setup_s, setup_wall_s, catalog_ms = measure_setup(args.workload)
    catalog = rr["catalog"].bundled_catalog()
    first_call(rr, args.workload, catalog)
    vocab = gen.Vocab(ROOT)
    work = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload](rr, vocab, args.seed, work, catalog)

    tracer = tracing.Tracer() if args.trace else None
    meter = None if tracer else speed.Meter()
    plain_ms, traced_ms, stats, problems = [], [], [], []
    raised = misattributed = 0
    deadline = clock() + args.seconds
    j = 0
    min_jobs = 2 if tracer else 1  # a traced run needs one job of each kind
    while j < min_jobs or clock() < deadline:
        job = wl.prepare(j)
        traced = tracer is not None and j % 2 == 1
        if traced:
            tracing.install(tracer, rr)
            tracer.begin_job(j)
        if meter:
            meter.before_job()
        t0 = clock()
        try:
            out, error = wl.run(job), None
        except Exception as exc:  # a job that raises is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        if meter:
            meter.after_job(elapsed)
        if traced:
            tracer.end_job()
            tracer.restore()
        (traced_ms if traced else plain_ms).append(elapsed * 1e3)
        if error is None:
            try:
                problem, job_stats = wl.check(job, out)
            except Exception as exc:  # output the checker cannot read is wrong output
                problem, job_stats = f"unreadable output: {type(exc).__name__}: {exc}", {}
            stats.append(job_stats)
            if problem is None and j == 0:
                problem = wl.replay_bytes(job, out)
        else:
            raised += 1
            problem = error
        if problem is not None:
            if problem.startswith(check.MISATTRIBUTED):
                misattributed += 1
            problems.append(f"job {j}: {problem}")
        wl.cleanup(job)
        j += 1
    if meter:
        meter.finish()
    shutil.rmtree(work, ignore_errors=True)

    jobs = j
    wrong = len(problems)
    for line in problems[:20]:
        print(line)
    result = {
        "correct": wrong == misattributed,
        "attempted": jobs,
        "failed": raised,
    }
    if not args.trace:
        scaled_ms = [s * 1e3 for s in meter.scaled()]
        p50, p90 = statistics.median(scaled_ms), tail(scaled_ms, 0.9)
        print(f"{args.workload}: {jobs} jobs, scaled p50 {p50:.3f} ms, "
              + (f"p90 {p90:.3f} ms" if p90 is not None else "p90 not reported (under ten jobs beyond it)")
              + f", wrong {wrong} ({misattributed} misattributed), raised {raised}")
        print(f"  wall: p50 {statistics.median(plain_ms):.3f} ms, "
              f"{jobs / (sum(plain_ms) / 1e3):.4f} jobs/s, set-up {setup_wall_s:.4f} s; "
              f"reference sample {meter.median_sample() * 1e3:.3f} ms "
              f"(nominal {speed.NOMINAL_S * 1e3:.3f}) over {len(meter.samples)} samples")
        metrics = {
            "setup_s": (setup_s, "s"),
            "job_ms_p50": (p50, "ms"),
            "jobs_per_s": (jobs / (sum(scaled_ms) / 1e3), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "correct_share": ((jobs - wrong) / jobs, "ratio"),
            # a job without results counts as not reproduced, with AP 0
            "reproduced_share": (sum(s.get("reproduced", False) for s in stats) / jobs, "ratio"),
            "attempts_mean": (statistics.fmean(
                [s["attempts"] for s in stats if s.get("reproduced")] or [0]), "count"),
            "map_mean": (sum(s.get("map", 0.0) for s in stats) / jobs, "ratio"),
        }
    else:
        metrics = layer_metrics(tracer, plain_ms, traced_ms, catalog_ms, args)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


PER_JOB_COUNTS = (
    "stem.calls", "stem.distinct_words", "csource.files_indexed", "csource.functions_indexed",
    "csource.tokens_indexed", "retrieval.build_index.calls", "retrieval.docs_indexed",
    "retrieval.similarity.calls", "catalog.extract_derived.calls", "mining.points_emitted",
    "mining.distinct_sites", "mining.warnings", "harness.run_schedule.calls",
    "harness.distinct_schedules", "harness.interleavings_explored", "vfs.apply.calls",
    "reports.tokens_out",
)
# span name -> metric name; all of them are printed, per job, in ms
SPAN_MS = {
    "csource.index_tree": "csource.index_tree.ms",
    "retrieval.rank_structured": "retrieval.rank_structured.ms",
    "retrieval.rank_basic": "retrieval.rank_basic.ms",
    "catalog.extract": "catalog.extract.ms",
    "mining.rank_interleavings": "mining.rank_interleavings.ms",
    "mining.locate": "mining.locate.ms",
    "harness.reproduce": "harness.reproduce.ms",
    "harness.enumerate_interleavings": "harness.enumerate_interleavings.ms",
    "harness.random_baseline": "harness.random_baseline.ms",
    "reports.preprocess": "reports.preprocess.ms",
    "testcases.expand_tsl": "testcases.expand_tsl.ms",
}
SELF_MS = {"metrics.run_fixture": "metrics.run_fixture.ms", "cli.main": "cli.main.ms"}
# per-layer time metrics in the result line: only those every workload runs,
# so none of them reads 0 on every run of some workload
RESULT_MS = ("harness.reproduce.ms",)


def layer_metrics(tracer, plain_ms, traced_ms, catalog_ms, args) -> dict:
    n = len(traced_ms) or 1
    counts = dict(tracer.counts)
    counts["stem.distinct_words"] = counts.get("stem.calls.distinct", 0)
    counts["harness.distinct_schedules"] = counts.get("harness.run_schedule.calls.distinct", 0)
    layer, total, own = tracer.self_ms()
    span_ms = {m: total.get(s, 0.0) / n for s, m in SPAN_MS.items()}
    span_ms.update({m: own.get(s, 0.0) / n for s, m in SELF_MS.items()})
    job_total = sum(traced_ms) or 1.0
    out = {name: (counts.get(name, 0) / n, "count") for name in PER_JOB_COUNTS}
    extract_calls = counts.get("catalog.extract.calls", 0)
    runs = counts.get("harness.run_schedule.calls", 0)
    out["catalog.derived_share"] = (
        counts.get("catalog.extract_derived.calls", 0) / extract_calls if extract_calls else 0.0, "ratio")
    out["harness.useful_ratio"] = (counts["harness.distinct_schedules"] / runs if runs else 0.0, "ratio")
    out["trace.overhead_ratio"] = (
        statistics.median(traced_ms) / statistics.median(plain_ms) if traced_ms and plain_ms else 1.0,
        "ratio")
    out["catalog.bundled_catalog.ms"] = (catalog_ms, "ms")
    for name in RESULT_MS:
        out[name] = (span_ms[name], "ms")
    for lay in tracing.LAYERS:
        if lay not in ("stem", "vfs"):
            out[f"layer.{lay}.self_pct"] = (100.0 * layer.get(lay, 0.0) / job_total, "%")

    print(f"{args.workload} traced: {len(traced_ms)} traced jobs, {len(plain_ms)} untraced")
    print(f"  {'catalog.bundled_catalog.ms':40s} {catalog_ms:12.3f} ms/call in set-up")
    for name, value in sorted(span_ms.items()):
        print(f"  {name:40s} {value:12.3f} ms/job")
    for lay in tracing.LAYERS:
        print(f"  self ms/job {lay:28s} {layer.get(lay, 0.0) / n:12.3f}")
    trace_path = OUT / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    print(f"  spans written to {trace_path.relative_to(ROOT)}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="racerepro benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args)
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        want = {m["name"] for m in read_json(spec)["per_layer" if args.trace else "end_to_end"]}
        if want != set(result["metrics"]):
            sys.exit(f"error: metrics {sorted(set(result['metrics']) ^ want)} disagree with {spec.name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
