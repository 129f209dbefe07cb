"""Golden digests of the fixture artifacts.

Every file that ``pipeline`` (mv with its TSL spec, and gzip) and
``eval --seed 7`` over both fixtures in each mode write is pinned by its
SHA-256.  A refactor that claims to keep the artifacts byte-identical must
keep these digests; a change that moves an artifact on purpose updates the
digest here and says why.  The digests hold on every supported Python.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import GZIP_DIR, MV_DIR
from racerepro.cli import EXIT_OK, main
from racerepro.metrics import MODE_PERTURBED, MODES

RUNS = {
    "pipeline-mv": [
        "pipeline", "--report", str(MV_DIR / "mv_438076.txt"), "--src", str(MV_DIR / "src"),
        "--scenario", str(MV_DIR / "scenario.json"), "--tsl", str(MV_DIR / "mv.tsl"),
    ],
    "pipeline-gzip": [
        "pipeline", "--report", str(GZIP_DIR / "gzip_371162.txt"),
        "--src", str(GZIP_DIR / "src"), "--scenario", str(GZIP_DIR / "scenario.json"),
    ],
    **{
        f"eval-{mode}": ["eval", "--mode", mode, "--seed", "7", str(MV_DIR), str(GZIP_DIR)]
        for mode in (f"{m}@0.3" if m == MODE_PERTURBED else m for m in MODES)
    },
}

DIGESTS = {
    "pipeline-mv": {
        "keys.json": "a64a52ef20420d8da5a364825c1ec8e375abd5922b989062c18337bb0a8b501b",
        "pair_ranking.json": "49591e9d84f2650bb6d299f999199aa339f6ec1fbbd44879ab27852b69f70fba",
        "points.json": "42ad6bbb6b53a9545c618b091b5c961fbb2cc376c116b0af74ff6257cd75bc40",
        "ranked_files.json": "8c89d7d9c830c39148a9791d223aaa60bc93a5c1cfaee70475c15cb157ae59ca",
        "repro.json": "d8f195b9842c831d973879cb39d2de9ef16cee18a0095c8232097901555b40cd",
        "schedule.txt": "f26cd405c88787f2e462fbd517acf716cd72d22f7df1bff85aeb4679dfd78be1",
        "test_cases.json": "13a6f0be57dc1202891cdd4d20e84f443f4e5fd6ed45476a70aa3d02b7c66111",
    },
    "pipeline-gzip": {
        "keys.json": "7fbb2efd1ffdccd866eff2c138a0e6f6b563923989095353982c85f9a4736aba",
        "pair_ranking.json": "00732c7078c90a64bcdbed68b63d6bc84207d91c6fbe7428694c6764f6d8d4ab",
        "points.json": "84df42c82c00ef22a29c206ef50fccc6fc56049f8bfc25f8883cf514aeb15fa1",
        "ranked_files.json": "4aee2fe71f9ad5cb16b01b9f8ed9e4f0ddf15f1b9bd239f270ff819ab21bc6c5",
        "repro.json": "181d831aa0ba3d666bd047faba83f36a4ea27c157d7feb81df8ad2f392b6d18e",
        "schedule.txt": "ce3efec452c382ee089621b3fe44a5a5fe813495c7c017454e423ca0e752b315",
    },
    "eval-basic-ir": {
        "results.json": "0cfac24cfd8ed5ca4209e165a85fc4222b901cbaa3648b81b202e161f5ace03e",
        "results.tsv": "44aad9f0a014a59c1178e822efa047cd22f043ace20ccaf2d3e4f9be17786fa3",
    },
    "eval-structured-ir": {
        "results.json": "eedc81caa3613ba847af94a3d5f6fe4e1aba18748cc568c86d1dadf40b9361b3",
        "results.tsv": "27e1d5e1de9f0c23e270cce8db1fe5ffa46a9a296c26e9e481b5d8f284c5f251",
    },
    "eval-no-apriori": {
        "results.json": "8fa973084b9b15ead32829d794bb1636616c55c0995345afb8aa00e659c80248",
        "results.tsv": "20c7b78f060e05d0b72956aabea5595c278931a735ad2019a027c5292e44f4d4",
    },
    "eval-apriori": {
        "results.json": "aece333d056fe4e4920b5bc81f0b03d65bfbd30460d518b8d7f0daa2c84fc2e5",
        "results.tsv": "2d4f22a8e82e1ca4656883f2717d211249ed068fd1a256b5520ee23a17c7b2c9",
    },
    "eval-random-baseline": {
        "results.json": "90c6c213e7ed95eb83688530adce826bed3b16fad60e286605f3447ec4523b53",
        "results.tsv": "1dfdc96501e4e88ba117309a2d5b5d98568b49ce0ef93d49212165fd62c9d05b",
    },
    "eval-perturbed@0.3": {
        "results.json": "2053e2406f8e785a94eb5e5901e161cb4565caab611444bbee3a52bba8985bd2",
        "results.tsv": "6f8389e1b77961686b0d6d491e4491891975857f2100601f07115f5d39dfaaa0",
    },
}


def test_every_run_is_pinned() -> None:
    assert sorted(RUNS) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifact_digests(name: str, tmp_path) -> None:
    assert main([*RUNS[name], "--out-dir", str(tmp_path)]) == EXIT_OK
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == DIGESTS[name]
