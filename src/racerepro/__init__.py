"""Localize and deterministically reproduce syscall-interleaving bugs.

The pipeline: ingest a natural-language bug report, extract the key system
calls, rank source files with structured IR, mine the buggy syscall pair,
resolve instrumentation points, and replay the scenario under a
deterministic scheduler until the failure oracle fires.  The stages are
defined once, in ``racerepro.metrics.Pipeline``.
"""

__version__ = "0.1.0"
