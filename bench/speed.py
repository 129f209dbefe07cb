"""Host-speed reference: a fixed piece of work timed between jobs.

The benchmark runs on shared virtual machines whose speed drifts by a
quarter or more over minutes, and the CPU time of the process drifts with
the wall time, so no clock of the process is free of it.  A wall time alone
then compares two hosts' moods, not two versions of the program.

So the benchmark also times a fixed piece of pure-Python work that belongs
to the benchmark, not to the program: it tokenises text with a regular
expression, counts tokens in a dict, sorts, builds small objects and copies
dicts, the kinds of work racerepro's layers do.  ``Meter`` takes a sample of
it before and after every stretch of jobs, and scales each job's wall time
by ``NOMINAL_S`` divided by the mean of the samples on either side of the
job.  A scaled time reads as the wall time on a host where one sample takes
``NOMINAL_S`` seconds.  A change to racerepro leaves the reference
untouched, so it moves the scaled times as it would move wall times on a
steady host.
"""

from __future__ import annotations

import gc
import random
import re
import statistics
import time

clock = time.perf_counter

# the median seconds of one sample on the 2-vCPU Xeon VM of bench/METRICS.md
NOMINAL_S = 0.023
UNITS = 5  # units of work per sample, about 4 ms each on that host
EVERY_S = 0.25  # wall seconds between samples while jobs run

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Rec:
    __slots__ = ("word", "count", "weight")

    def __init__(self, word: str, count: int, weight: float) -> None:
        self.word, self.count, self.weight = word, count, weight


class Reference:
    """The fixed work; every call does exactly the same operations."""

    def __init__(self) -> None:
        rng = random.Random(12345)
        letters = "abcdefghijklmnopqrstuvwxyz_"
        self.words = ["".join(rng.choice(letters) for _ in range(rng.randint(3, 12)))
                      for _ in range(600)]

    def run(self, units: int = UNITS) -> int:
        acc = 0
        for unit in range(units):
            rng = random.Random(unit)
            text = " ".join(rng.choice(self.words) + ("(x, y);" if i % 7 == 0 else "")
                            for i in range(3000))
            counts: dict[str, int] = {}
            for tok in _TOKEN.findall(text):
                word = tok.lower().rstrip("s")
                counts[word] = counts.get(word, 0) + 1
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            recs = [_Rec(w, n, n / (1 + len(w))) for w, n in ranked]
            norm = sum(r.weight * r.weight for r in recs) ** 0.5
            state: dict[str, int] = {}
            for i, r in enumerate(recs):
                copy = dict(state)
                copy[r.word] = i
                state = copy if i % 50 else {}
            acc += len(ranked) + int(norm) + len(state)
        return acc

    def sample(self) -> float:
        """Wall seconds of one sample, with the collector off: its cost
        depends on the program's heap, which the reference must not see."""
        gc.disable()
        try:
            t0 = clock()
            self.run()
            return clock() - t0
        finally:
            gc.enable()


class Meter:
    """Samples the reference around jobs and scales the jobs' wall times.

    Call ``before_job`` and ``after_job`` around each timed job, and
    ``finish`` once after the last.  A sample is taken at either call when
    ``EVERY_S`` wall seconds have passed since the last one, so a long job,
    or a long preparation, is bracketed by samples of its own.
    """

    def __init__(self) -> None:
        self.ref = Reference()
        self.ref.run(1)  # warm: first-call costs stay out of the samples
        self.samples: list[float] = []
        self.jobs: list[tuple[float, int]] = []  # (wall seconds, last sample before it)
        self._take()

    def _take(self) -> None:
        self.samples.append(self.ref.sample())
        self._last = clock()

    def _due(self) -> None:
        if clock() - self._last >= EVERY_S:
            self._take()

    def before_job(self) -> None:
        self._due()

    def after_job(self, seconds: float) -> None:
        self.jobs.append((seconds, len(self.samples) - 1))
        self._due()

    def finish(self) -> None:
        self._take()

    def scaled(self) -> list[float]:
        """Each job's wall seconds scaled to the nominal host speed."""
        s = self.samples
        return [sec * NOMINAL_S * 2 / (s[i] + s[i + 1]) for sec, i in self.jobs]

    def median_sample(self) -> float:
        return statistics.median(self.samples)


def scale_once(seconds: float, ref: Reference, samples: int = 3) -> float:
    """Scale one measured time by samples taken right after it."""
    ref.run(1)
    return seconds * NOMINAL_S / statistics.median(ref.sample() for _ in range(samples))
