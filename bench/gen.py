"""Seeded generator of benchmark inputs: C trees, reports, scenarios, points.

Everything is drawn from a ``random.Random`` seeded by the caller, and all
vocabulary comes from files already in the repository: prose words from the
bundled man-page summaries, identifier parts from the fixture sources.  The
racy call pair is planted at known (file, function, line) positions, and the
generator returns that ground truth beside the files it writes, so the
checker never has to ask the program what the right answer is.

Four race kinds cover the four oracle kinds of the harness.  In each, the
first process runs the racy pair and the second process tampers with the
window between the two calls:

* ``open-enoent``   unlink(p); rename(q, p)      | open(p)
* ``final-mode``    mknod(t, 600); rename(t, p)  | chmod(t, 666)
* ``path-missing``  rename(p, t); link(t, p)     | unlink(t)
* ``final-content`` mknod(p); write(p); chmod(p, 444) | write(p)

The ``broken`` variant of each kind already fails in the undelayed order.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

RACE_KINDS = ("open-enoent", "final-mode", "path-missing", "final-content")
RACE_PAIRS = {
    "open-enoent": ("unlink", "rename"),
    "final-mode": ("mknod", "rename"),
    "path-missing": ("rename", "link"),
    "final-content": ("write", "chmod"),
}
# syscalls sprinkled over ordinary functions (all are catalog names)
CALL_POOL = (
    "open", "close", "read", "write", "stat", "fstat", "lstat", "chmod",
    "mkdir", "unlink", "rename", "link", "fsync", "lseek", "access", "dup",
    "fcntl", "ftruncate", "utime", "rmdir", "chown", "readv", "writev",
)
_C_WORDS = frozenset(
    "auto break case char const continue default do double else enum extern "
    "float for goto if inline int long register restrict return short signed "
    "sizeof static struct switch typedef union unsigned void volatile while "
    "include define endif ifdef ifndef null errno".split()
)
PLACEMENTS = ("before", "after", "between-pair")


# --- vocabulary -------------------------------------------------------------

class Vocab:
    """Words and identifier parts read from the repository checkout."""

    def __init__(self, root: Path) -> None:
        man_dir = root / "src" / "racerepro" / "data" / "manpages"
        summaries = {}
        for path in sorted(man_dir.glob("*.txt")):
            first = path.read_text("utf-8").strip().splitlines()[0]
            summaries[path.stem] = first.split(" - ", 1)[-1]
        if not summaries:
            raise FileNotFoundError(f"{man_dir}: no man pages")
        self.syscalls = frozenset(summaries)
        self.summary = summaries
        words = {
            w.lower()
            for text in summaries.values()
            for w in re.findall(r"[A-Za-z]+", text)
        }
        self.words = sorted(w for w in words if len(w) >= 3 and w not in self.syscalls)
        idents = set()
        for path in sorted((root / "fixtures").rglob("*.[ch]")):
            idents |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text("utf-8")))
        parts = {
            p
            for ident in idents
            for p in ident.lower().split("_")
            if p.isalpha() and len(p) >= 3
        }
        # no part that stems like a syscall name ("renames", "linked"), so
        # only call sites and the report tie a file to the racy pair
        prefixes = tuple(n for n in self.syscalls if len(n) >= 4)
        self.parts = sorted(
            p for p in parts
            if p not in self.syscalls and p not in _C_WORDS and not p.startswith(prefixes)
        )
        if not self.parts:
            raise FileNotFoundError(f"{root / 'fixtures'}: no fixture sources")

    def clean(self, text: str) -> str:
        """Drop every word that is a syscall name, so the text names none."""
        return re.sub(
            r"[A-Za-z0-9_]+",
            lambda m: "" if m.group().lower() in self.syscalls else m.group(),
            text,
        ).replace("  ", " ")

    def sentence(self, rng, lo: int = 6, hi: int = 12) -> str:
        words = [rng.choice(self.words) for _ in range(rng.randint(lo, hi))]
        return words[0].capitalize() + " " + " ".join(words[1:])


class Names:
    """Unique identifiers built from fixture identifier parts."""

    def __init__(self, vocab: Vocab, rng) -> None:
        self.vocab = vocab
        self.rng = rng
        self.used: set[str] = set()

    def ident(self, parts: int = 2) -> str:
        for _ in range(100):
            name = "_".join(self.rng.choice(self.vocab.parts) for _ in range(parts))
            if name not in self.used:
                self.used.add(name)
                return name
        name = f"{name}_{len(self.used)}"
        self.used.add(name)
        return name


# --- C source ---------------------------------------------------------------

@dataclass
class Plant:
    """A racy call pair planted in one function; lines are filled in on write."""

    kind: str
    file: str
    function: str
    lines: dict[str, int] = field(default_factory=dict)  # syscall -> line
    prose: list[str] = field(default_factory=list)  # the file's comment sentences

    @property
    def pair(self) -> tuple[str, str]:
        return RACE_PAIRS[self.kind]

    def sites(self) -> list[tuple[str, str, str, int]]:
        """Ground-truth sites (syscall, file, function, line) of the pair."""
        return [(s, self.file, self.function, self.lines[s]) for s in self.pair]


_ARGS = {
    "unlink": "dst", "rename": "src, dst", "mknod": "src, 0600, 0",
    "link": "src, dst", "write": "fd, buf, len", "chmod": "dst, 0444",
}


def _planted_function(vocab, rng, plant: Plant, out: list[str]) -> None:
    s1, s2 = plant.pair
    out += ["int", f"{plant.function} (const char *src, const char *dst, int fd)", "{"]
    out += ["  int rc;", "  size_t len = 0;", "  char buf[64];"]
    plant.prose.append(vocab.sentence(rng, 4, 8))
    out.append(f"  /* {plant.prose[-1].lower()} */")
    if plant.kind == "final-content":
        out.append("  fd = mknod (src, 0644, 0);")
    out.append(f"  rc = {s1} ({_ARGS[s1]});")
    plant.lines[s1] = len(out)
    out += ["  if (rc != 0)", "    return rc;"]
    out.append(f"  rc = {s2} ({_ARGS[s2]});")
    plant.lines[s2] = len(out)
    out += ["  return rc;", "}", ""]


def _plain_function(
    vocab, rng, name: str, callees: list[str], pool: tuple[str, ...], out: list[str]
) -> None:
    params = [rng.choice(vocab.parts) for _ in range(rng.randint(1, 3))]
    params = list(dict.fromkeys(params))
    out += ["static int", f"{name} (" + ", ".join(f"const char *{p}" for p in params) + ")", "{"]
    local = rng.choice(vocab.parts) + "_rc"
    out.append(f"  int {local} = 0;")
    for _ in range(rng.randint(2, 6)):
        roll = rng.random()
        arg = rng.choice(params)
        if roll < 0.45:
            call = rng.choice(pool)
        elif roll < 0.7 and callees:
            call = rng.choice(callees)
        elif roll < 0.85:
            out.append(f"  /* {vocab.sentence(rng, 3, 7).lower()} */")
            continue
        else:
            out.append(f"  {local} += {rng.randint(1, 64)};")
            continue
        if rng.random() < 0.5:
            out += [f"  if ({call} ({arg}) < 0)", "    return -1;"]
        else:
            out.append(f"  {local} = {call} ({arg});")
    out += [f"  return {local};", "}", ""]


def c_file(vocab, rng, names: Names, rel: str, plants: list[Plant]) -> str:
    """One C file: a prose header comment, includes, functions.

    Planted functions go first so their call lines are known; ordinary
    functions call each other (the call graph) and a pool of syscalls.
    """
    prose = [vocab.sentence(rng, 4, 8)] + [vocab.sentence(rng) for _ in range(rng.randint(1, 2))]
    for plant in plants:
        plant.prose += prose
    out = [f"/* {Path(rel).name} - {prose[0].lower()}.", " *"]
    out += [f" * {line}." for line in prose[1:]]
    out += [" */", "", "#include <unistd.h>", "#include <fcntl.h>", ""]
    out += [f"static char {names.ident(1)}buf[{rng.choice((64, 512, 4096))}];", ""]
    for plant in plants:
        _planted_function(vocab, rng, plant, out)
    # no other function of a planted file calls the pair, so the planted
    # function is the file's only between-pair candidate
    taken = {s for plant in plants for s in plant.pair}
    pool = tuple(c for c in CALL_POOL if c not in taken)
    fns = [names.ident() for _ in range(rng.randint(1, 4))]
    for i, fn in enumerate(fns):
        _plain_function(vocab, rng, fn, fns[:i], pool, out)
    return "\n".join(out) + "\n"


def h_file(vocab, rng, names: Names, rel: str) -> str:
    out = [f"/* {Path(rel).name} - {vocab.sentence(rng, 3, 6).lower()} */", ""]
    for _ in range(rng.randint(1, 4)):
        out.append(f"int {names.ident()} (const char *{rng.choice(vocab.parts)});")
    return "\n".join(out) + "\n"


def write_tree(
    vocab, rng, root: Path, n_files: int, kinds: list[str]
) -> tuple[list[str], list[Plant]]:
    """Write ``n_files`` C files (about one in six a header) under ``root``.

    Returns the relative paths and one planted pair per entry of ``kinds``,
    each in its own ``.c`` file.
    """
    names = Names(vocab, rng)
    dirs = [""] + [names.ident(1) + "/" for _ in range(max(1, n_files // 200))]
    rels = [rng.choice(dirs) + names.ident() + ".c" for _ in range(len(kinds))]
    for _ in range(n_files - len(kinds)):
        rels.append(rng.choice(dirs) + names.ident() + (".h" if rng.random() < 0.16 else ".c"))
    rng.shuffle(rels)
    planted = [r for r in rels if r.endswith(".c")][: len(kinds)]
    plants = [Plant(kind=k, file=f, function=names.ident()) for k, f in zip(kinds, planted)]
    by_file = {p.file: [p] for p in plants}
    for rel in rels:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        text = (
            h_file(vocab, rng, names, rel)
            if rel.endswith(".h")
            else c_file(vocab, rng, names, rel, by_file.get(rel, []))
        )
        path.write_text(text, "utf-8")
    return rels, plants


# --- reports ----------------------------------------------------------------

def program_name(plant: Plant) -> str:
    """The program is named after the first word of its file, as mv after mv.c."""
    return Path(plant.file).stem.split("_")[0]


def other_name(vocab: Vocab, rng, plant: Plant) -> str:
    """A name for the tampering process, distinct from the program's."""
    return rng.choice([p for p in vocab.parts if p != program_name(plant)])


def direct_report(vocab, rng, prog: str, plant: Plant, extra: int = 2) -> str:
    """A report naming the racy pair in two co-mention sentences.

    ``extra`` further syscalls are each mentioned alone, so mining ranks
    the planted pair first and the singletons after it.
    """
    s1, s2 = plant.pair
    others = rng.sample([c for c in CALL_POOL if c not in (s1, s2)], extra)
    base = Path(plant.file).name
    # the reporter paraphrases the code comments around the failing call
    lines = [
        f"Subject: {prog}: {plant.prose[0].lower()} between {s1} and {s2}",
        "",
        f"{plant.prose[1]}.  Watching the trace shows {prog} issuing {s1} "
        f"on the target followed by a separate {s2}.",
        f"The {s1} lands first and the {s2} arrives an instant later, "
        f"leaving a window.  {plant.prose[-1]}.",
        "",
        f"$ {prog} {rng.choice(vocab.parts)} {rng.choice(vocab.parts)}",
        "",
    ]
    lines += [f"A {o} of the {rng.choice(vocab.parts)} {vocab.sentence(rng, 3, 6).lower()}." for o in others]
    lines.append(f"The suspect code is {plant.function} in {base}.  {vocab.sentence(rng)}.")
    return "\n".join(lines) + "\n"


def derived_report(vocab, rng, prog: str, plant: Plant) -> str:
    """A report that names no syscall: prose from the pair's man summaries."""
    s1, s2 = plant.pair
    first, second = vocab.summary[s1], vocab.summary[s2]
    text = [
        f"Subject: {prog} {plant.prose[0].lower()}",
        "",
        f"{plant.prose[1]}.  It seems to {first} and only afterwards "
        f"{second}, so another process observes the gap.",
        f"{plant.prose[-1]}.  The suspect code is {plant.function} in "
        f"{Path(plant.file).name}.",
    ]
    return vocab.clean("\n".join(text)) + "\n"


def tsl_spec(rng) -> tuple[str, int, int]:
    """A TSL spec plus its frame count and [error] frame count.

    No choice carries a condition, so the frame count is the product of
    plain-choice counts plus one frame per [single]/[error] choice.
    """
    n_opt, n_err = rng.randint(2, 4), rng.randint(0, 2)
    n_in, n_single = rng.randint(1, 3), rng.randint(0, 2)
    lines = ["category options:", "    choice none"]
    lines += [f"    choice -{'fvnTbu'[i]}" for i in range(n_opt - 1)]
    lines += [f"    choice -{'iwx'[i]}        [error]" for i in range(n_err)]
    lines += ["", "category inputs:"]
    lines += [f"    choice src{i} dst" for i in range(n_in)]
    lines += [f"    choice src{i} aux dst   [single]" for i in range(n_single)]
    return "\n".join(lines) + "\n", n_opt * n_in + n_err + n_single, n_err


# --- scenarios --------------------------------------------------------------

_PAD_OPS = (
    ("stat", ["cfg"]), ("read", ["cfg"]), ("open", ["cfg"]), ("close", ["cfg"]),
    ("write", ["log", "entry"]), ("stat", ["log"]), ("read", ["log"]),
)


def _core(kind: str, broken: bool) -> tuple[list[dict], list[dict], list[dict], dict]:
    """(racy ops, tamper ops, initial fs, oracle); the racy pair is ops -2, -1."""
    if kind == "open-enoent":
        init = [{"path": "p", "content": "old"}] + ([] if broken else [{"path": "q", "content": "new"}])
        ops = [{"kind": "unlink", "args": ["p"]}, {"kind": "rename", "args": ["q", "p"]}]
        tamper = [{"kind": "open", "args": ["p"]}]
        oracle = {"kind": "open-enoent", "path": "p"}
    elif kind == "final-mode":
        init = []
        ops = [{"kind": "mknod", "args": ["t", "600"]}, {"kind": "rename", "args": ["t", "p"]}]
        tamper = [{"kind": "chmod", "args": ["p" if broken else "t", "666"]}]
        oracle = {"kind": "final-mode", "path": "p", "mode": "600"}
    elif kind == "path-missing":
        init = [{"path": "p", "content": "data"}]
        ops = [{"kind": "rename", "args": ["p", "t"]}, {"kind": "link", "args": ["t", "p"]}]
        tamper = [{"kind": "unlink", "args": ["p" if broken else "t"]}]
        oracle = {"kind": "path-missing", "path": "p"}
    else:
        init = []
        ops = [
            {"kind": "mknod", "args": ["p", "644"]},
            {"kind": "write", "args": ["p", "payload"]},
            {"kind": "chmod", "args": ["p", "644" if broken else "444"]},
        ]
        tamper = [{"kind": "write", "args": ["p", "tamper"]}]
        oracle = {"kind": "final-content", "path": "p", "content": "payload"}
    return ops, tamper, init, oracle


def _pad(rng, n: int) -> list[dict]:
    return [{"kind": k, "args": list(a)} for k, a in (rng.choice(_PAD_OPS) for _ in range(n))]


def multinomial(lengths: list[int]) -> int:
    out = math.factorial(sum(lengths))
    for n in lengths:
        out //= math.factorial(n)
    return out


def trace_lengths(kind: str, pad: tuple[int, int, int, int]) -> list[int]:
    """The trace length of each process of ``scenario(..., pad=pad)``."""
    ops, tamper, _, _ = _core(kind, False)
    return [pad[0] + len(ops) + pad[1], len(tamper) + pad[2]] + ([pad[3]] if pad[3] else [])


def scenario(
    rng, plant: Plant, procs: tuple[str, ...], broken: bool = False,
    pad: tuple[int, int, int, int] = (0, 0, 0, 0),
) -> tuple[dict, dict[tuple[str, str, int], tuple[str, int]]]:
    """A scenario for the plant and its src_map as a Python dict.

    ``pad`` is (ops before the pair, ops after it, extra tamper ops, ops of
    a third process); padding touches only ``cfg`` and ``log``.  The pair's
    lines map to their trace positions, and so does every padding op of the
    racing process (at synthetic lines past the end of the function).
    """
    ops, tamper, init, oracle = _core(plant.kind, broken)
    before, after = _pad(rng, pad[0]), _pad(rng, pad[1])
    trace = before + ops + after
    processes = [
        {"name": procs[0], "trace": trace},
        {"name": procs[1], "trace": tamper + _pad(rng, pad[2])},
    ]
    if pad[3]:
        processes.append({"name": procs[2], "trace": _pad(rng, pad[3])})
    s1, s2 = plant.pair
    first = len(before) + len(ops) - 2
    src_map = {
        (plant.file, plant.function, plant.lines[s1]): (procs[0], first),
        (plant.file, plant.function, plant.lines[s2]): (procs[0], first + 1),
    }
    pad_line = max(plant.lines.values()) + 100
    for idx in [*range(len(before)), *range(first + 2, len(trace))]:
        src_map[(plant.file, plant.function, pad_line + idx)] = (procs[0], idx)
    init = init + [{"path": "cfg", "content": "k=v"}, {"path": "log", "content": ""}]
    data = {
        "id": f"{plant.function}-{plant.kind}{'-broken' if broken else ''}",
        "processes": processes,
        "initial_fs": [{"kind": "file", "mode": "644", **e} for e in init],
        "oracle": oracle,
        "src_map": [
            {"file": f, "function": fn, "line": ln, "process": p, "op_index": i}
            for (f, fn, ln), (p, i) in src_map.items()
        ],
    }
    return data, src_map


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")


def ground_truth(bug_id: str, plant: Plant) -> dict:
    return {
        "id": bug_id,
        "files": [plant.file],
        "syscalls": [
            {"syscall": s, "file": f, "function": fn, "line": ln}
            for s, f, fn, ln in plant.sites()
        ],
    }


# --- ranked point lists for replay ------------------------------------------

def point_list(rng, plant: Plant, src_map: dict, n: int, fail_rank: int | None) -> list[tuple]:
    """``n`` ranked points (syscall, file, function, line, placement).

    Mostly unmapped points and repeats of a few mapped, non-failing ones.
    When ``fail_rank`` is set, the point at that 1-based rank delays the
    racing process inside the window (after the first call of the pair),
    and no earlier point does.
    """
    s1, s2 = plant.pair
    (l1, l2) = plant.lines[s1], plant.lines[s2]
    # delays outside the window: before the first call, after the second,
    # or around padding ops of the racing process
    safe = [(s1, plant.file, plant.function, l1, "before"),
            (s2, plant.file, plant.function, l2, "after")]
    safe += [
        ("stat", f, fn, ln, rng.choice(PLACEMENTS))
        for (f, fn, ln) in src_map
        if ln not in (l1, l2)
    ]
    unmapped = [
        (rng.choice(CALL_POOL), f"{rng.choice(('lib', 'src'))}/{rng.choice(('io', 'fs', 'util'))}.c",
         plant.function if rng.random() < 0.3 else "helper", rng.randint(1, 400),
         rng.choice(PLACEMENTS))
        for _ in range(12)
    ]
    points = []
    for rank in range(1, n + 1):
        if rank == fail_rank:
            points.append((s1, plant.file, plant.function, l1, rng.choice(("after", "between-pair"))))
        elif fail_rank is not None and rank > fail_rank and rng.random() < 0.05:
            points.append((s2, plant.file, plant.function, l2, "before"))
        elif rng.random() < 0.75:
            points.append(rng.choice(unmapped))
        else:
            points.append(rng.choice(safe))
    return points
