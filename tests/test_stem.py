"""Frozen oracle vectors for the bundled suffix stripper.

The expected values are full-pipeline outputs for the step examples in the
published algorithm description (Porter 1980), plus domain vocabulary.
They were derived from the algorithm text, not from this implementation,
so a regression in any step surfaces as a vector mismatch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racerepro.stem import stem

# word -> stem after all five steps
VECTORS = {
    # step 1a
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    # step 1b
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    # step 1b fixups
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    # step 1c
    "happy": "happi",
    "sky": "sky",
    # step 2 (later steps keep stripping, so these are end-to-end values)
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "valenci": "valenc",
    "hesitanci": "hesit",
    "digitizer": "digit",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "callousness": "callous",
    "formaliti": "formal",
    "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    # step 3
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electriciti": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    # step 4
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "communism": "commun",
    "activate": "activ",
    "angulariti": "angular",
    "homologous": "homolog",
    "effective": "effect",
    "bowdlerize": "bowdler",
    # step 5
    "probate": "probat",
    "rate": "rate",
    "cease": "ceas",
    "controll": "control",
    "roll": "roll",
    # domain vocabulary
    "renamed": "renam",
    "renames": "renam",
    "unlinking": "unlink",
    "interleaving": "interleav",
    "scheduled": "schedul",
    "processes": "process",
}


@pytest.mark.parametrize("word,expected", sorted(VECTORS.items()))
def test_frozen_vector(word: str, expected: str) -> None:
    assert stem(word) == expected


def test_short_words_pass_through() -> None:
    for word in ("", "a", "is", "mv", "by", "io"):
        assert stem(word) == word


def test_syscall_names_survive_as_searchable_stems() -> None:
    # names used by direct extraction must stem to themselves or a stable
    # form so the structured syscalls query still hits source identifiers
    assert stem("unlink") == "unlink"
    assert stem("chmod") == "chmod"
    assert stem("mkdir") == "mkdir"
    assert stem("stat") == "stat"


def test_single_pass_is_not_universally_idempotent() -> None:
    # documents why fixture vocabulary is audited: the classic algorithm is
    # not a global fixed point ("compose" loses its final consonant cluster
    # only on the second application)
    once = stem("compose")
    assert once == "compos"
    assert stem(once) == "compo"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(word=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=14))
def test_memoized_stem_equals_uncached(word: str) -> None:
    assert stem(word) == stem.__wrapped__(word)
    assert stem(word) == stem.__wrapped__(word)  # second call is a cache hit
