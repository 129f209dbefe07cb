"""Independent answers for the benchmark's correctness checks.

Nothing here calls the program.  The filesystem model, the delay
schedules and the oracles below are written from the documented semantics
(README "Scenario files" and "How the pipeline works"), and the other
answers come from the generator's planted ground truth, from counting
(multinomial interleaving counts, TSL frame counts) and from the fixtures'
``ground_truth.json``.

A check returns ``None`` when the program's result agrees and a one-line
reason otherwise.  Reasons that start with ``MISATTRIBUTED`` mark a
reproduction credited to a point that did not steer the schedule.
"""

from __future__ import annotations

MISATTRIBUTED = "MISATTRIBUTED"


# --- scenario model ---------------------------------------------------------

def _mode(value) -> int:
    return int(value, 8) if isinstance(value, str) else int(value)


def simulate(scn: dict, steps: list[tuple[str, int]]) -> bool:
    """Run one interleaving of a scenario dict; True when the oracle trips."""
    fs: dict[str, list] = {}  # path -> [kind, mode, content]; links share the list
    for e in scn["initial_fs"]:
        fs[e["path"]] = [e.get("kind", "file"), _mode(e.get("mode", "644")), e.get("content", "")]
    traces = {p["name"]: p["trace"] for p in scn["processes"]}
    failed_opens = set()
    for proc, idx in steps:
        op = traces[proc][idx]
        kind, args = op["kind"], op["args"]
        node = fs.get(args[0])
        if kind == "open":
            if node is None:
                failed_opens.add(args[0])
        elif kind == "write":
            if node is not None and node[1] & 0o222:
                node[2] = args[1]
        elif kind == "unlink":
            if node is not None and node[0] != "dir":
                del fs[args[0]]
        elif kind == "rename":
            if node is not None:
                del fs[args[0]]
                fs[args[1]] = node
        elif kind == "link":
            if node is not None and args[1] not in fs:
                fs[args[1]] = node
        elif kind in ("mknod", "mkdir"):
            if node is None:
                default = "644" if kind == "mknod" else "755"
                fs[args[0]] = ["file" if kind == "mknod" else "dir",
                               _mode(args[1] if len(args) > 1 else default), ""]
        elif kind == "chmod":
            if node is not None:
                node[1] = _mode(args[1])
        # close, read and stat change nothing
    oracle = scn["oracle"]
    node = fs.get(oracle["path"])
    if oracle["kind"] == "open-enoent":
        return oracle["path"] in failed_opens
    if oracle["kind"] == "path-missing":
        return node is None
    if oracle["kind"] == "final-mode":
        return node is None or node[1] != _mode(oracle["mode"])
    return node is None or node[2] != oracle["content"]


def baseline(scn: dict) -> list[tuple[str, int]]:
    return [(p["name"], i) for p in scn["processes"] for i in range(len(p["trace"]))]


def src_map(scn: dict) -> dict[tuple[str, str, int], tuple[str, int]]:
    return {(m["file"], m["function"], m["line"]): (m["process"], m["op_index"]) for m in scn["src_map"]}


def delayed(scn: dict, site: tuple[str, str, int], placement: str):
    """The order a long sleep at the site induces, or None if unmapped.

    The delayed process stops before its op ("before") or after it (any
    other placement); every other process runs to completion in the gap.
    """
    target = src_map(scn).get(site)
    if target is None:
        return None
    proc, idx = target
    cut = idx if placement == "before" else idx + 1
    head, tail = [], []
    for p in scn["processes"]:
        n = len(p["trace"])
        if p["name"] == proc:
            head += [(proc, i) for i in range(min(cut, n))]
            tail = [(proc, i) for i in range(min(cut, n), n)]
        else:
            head += [(p["name"], i) for i in range(n)]
    return head + tail


def guided(scn: dict, points: list[tuple], max_attempts: int) -> dict:
    """Expected outcome of trying points (syscall, file, fn, line, placement) in order."""
    base = baseline(scn)
    for attempt, pt in enumerate(points[:max_attempts], start=1):
        steps = delayed(scn, pt[1:4], pt[4])
        if simulate(scn, steps if steps is not None else base):
            return {"reproduced": True, "attempts": attempt, "steps": steps or base,
                    "steers": steps is not None and steps != base}
    return {"reproduced": False, "attempts": min(len(points), max_attempts)}


def valid_order(scn: dict, steps) -> bool:
    want = {p["name"]: len(p["trace"]) for p in scn["processes"]}
    seen = {name: 0 for name in want}
    for proc, idx in steps:
        if proc not in seen or idx != seen[proc]:
            return False
        seen[proc] += 1
    return seen == want


def all_orders(scn: dict):
    """Every program-order-preserving interleaving (used for small scenarios)."""
    names = [p["name"] for p in scn["processes"]]
    lens = [len(p["trace"]) for p in scn["processes"]]

    def rec(progress, prefix):
        if len(prefix) == sum(lens):
            yield list(prefix)
            return
        for i, name in enumerate(names):
            if progress[i] < lens[i]:
                prefix.append((name, progress[i]))
                yield from rec(progress[:i] + (progress[i] + 1,) + progress[i + 1:], prefix)
                prefix.pop()

    yield from rec(tuple(0 for _ in names), [])


def location_ranking(points: list[dict]) -> list[tuple]:
    """Distinct (syscall, file, function, line) in first-visit order; a
    between-pair point visits its anchor, then its partner."""
    out, seen = [], set()
    for p in points:
        ids = [(p["syscall"], p["file"], p["function"], p["line"])]
        if p.get("pair_partner"):
            q = p["pair_partner"]
            ids.append((q["syscall"], q["file"], q["function"], q["line"]))
        for i in ids:
            if i not in seen:
                seen.add(i)
                out.append(i)
    return out


def average_precision(positions: list, n_relevant: int) -> float:
    """AP from the 1-based positions of the relevant items (None = missing)."""
    hits = sorted(p for p in positions if p is not None)
    return sum(k / pos for k, pos in enumerate(hits, start=1)) / n_relevant


def ap_of(ranking: list[tuple], truth: list[tuple]) -> float:
    pos = {site: i for i, site in enumerate(ranking, start=1)}
    return average_precision([pos.get(t) for t in truth], len(truth))


# --- per-workload checks ----------------------------------------------------

def check_repro(scn: dict, points: list[tuple], max_attempts: int,
                reproduced: bool, attempts: int, credited, steps) -> str | None:
    """Compare a guided reproduction against the model.

    When the undelayed order already fails, any point "reproduces"; the
    only wrong answer is crediting a point that did not steer.  Otherwise
    the result must equal the model's: same verdict, attempts, point, order.
    """
    base = baseline(scn)
    if simulate(scn, base):
        if not reproduced or credited is None:
            return None
        order = delayed(scn, credited[1:4], credited[4])
        if order is None or order == base:
            return f"{MISATTRIBUTED}: undelayed order fails; credited non-steering point {credited[1:]}"
        if not simulate(scn, order):
            return f"credited point {credited[1:]} induces a passing order"
        return None
    want = guided(scn, points, max_attempts)
    if reproduced != want["reproduced"]:
        return f"reproduced={reproduced}, model says {want['reproduced']}"
    if attempts != want["attempts"]:
        return f"attempts={attempts}, model says {want['attempts']}"
    if reproduced:
        expect = points[want["attempts"] - 1]
        if credited is None or tuple(credited) != tuple(expect):
            return f"credited {credited}, model says {expect}"
        if [tuple(s) for s in steps] != want["steps"]:
            return "schedule differs from the modelled delay"
    return None


def check_enumeration(scn: dict, results: list[tuple[list, bool]], expected_count: int) -> str | None:
    """``results`` is (steps, failed) per explored interleaving."""
    if len(results) != expected_count:
        return f"{len(results)} interleavings, multinomial count is {expected_count}"
    if len({tuple(map(tuple, s)) for s, _ in results}) != expected_count:
        return "duplicate interleavings"
    for steps, failed in results:
        if not valid_order(scn, steps):
            return f"interleaving breaks program order: {steps}"
        if failed != simulate(scn, steps):
            return f"verdict {failed} differs from the model for {steps}"
    return None


def check_random(scn: dict, runs: int, reproduced: bool, attempts: int, steps,
                 n_failing: int) -> str | None:
    if not 1 <= attempts <= runs:
        return f"random baseline attempts {attempts} outside 1..{runs}"
    if reproduced:
        if not valid_order(scn, steps) or not simulate(scn, steps):
            return "random baseline credited an order that passes"
    elif n_failing and attempts != runs:
        return "random baseline stopped early without reproducing"
    if reproduced and not n_failing:
        return "random baseline reproduced a scenario with no failing order"
    return None


def check_row(row: dict, truth: dict, n_files: int, recall_k: int, max_attempts: int,
              guided_mode: bool, failing_orders: int) -> str | None:
    """An eval row (``metrics.row_to_json``) against planted ground truth."""
    sites = truth["syscalls"]
    for key in ("brk", "srk"):
        if not isinstance(row[key], int) or not 1 <= row[key] <= n_files:
            return f"{key}={row[key]} but the expected file is in the {n_files}-file tree"
    for key in ("rank", "ornk"):
        if len(row[key]) != len(sites):
            return f"{key} has {len(row[key])} entries for {len(sites)} sites"
    positions = row["ornk"] if row["mode"] == "no-apriori" else row["rank"]
    want_map = average_precision(positions, len(sites))
    if abs(row["map"] - want_map) > 1e-12:
        return f"map={row['map']}, ranks {positions} give {want_map}"
    want_rec = sum(1 for p in positions if p is not None and p <= recall_k) / len(sites)
    if abs(row["rec"] - want_rec) > 1e-12:
        return f"rec={row['rec']}, ranks {positions} give {want_rec}"
    if not 0 <= row["nor"] <= max_attempts:
        return f"nor={row['nor']} outside the budget"
    if row["suc"] == "Y":
        if guided_mode and all(p is None for p in positions):
            return "reproduced although no ground-truth site was located"
        if not guided_mode and not failing_orders:
            return "random baseline reproduced a scenario with no failing order"
    return None
