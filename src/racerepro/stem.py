"""Porter's suffix-stripping algorithm.

A transcription of the algorithm as published (M. F. Porter, "An algorithm
for suffix stripping", Program 14(3), 1980), without the extensions that
some library implementations layer on top.  Bundling the stemmer keeps
token normalization bit-reproducible across environments.
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = frozenset("aeiou")


def _pattern(word: str) -> str:
    """``c`` for each consonant of ``word`` and ``v`` for each vowel.

    A y counts as a vowel when preceded by a consonant, else as a consonant.
    """
    out = []
    kind = "v"
    for ch in word:
        if ch in _VOWELS:
            kind = "v"
        elif ch == "y":
            kind = "v" if kind == "c" else "c"
        else:
            kind = "c"
        out.append(kind)
    return "".join(out)


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences, Porter's m in [C](VC)^m[V]."""
    return _pattern(stem).count("vc")


def _has_vowel(stem: str) -> bool:
    return "v" in _pattern(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _pattern(word)[-1] == "c"


def _ends_cvc(word: str) -> bool:
    """Consonant-vowel-consonant ending where the final consonant is not w, x, or y."""
    return _pattern(word).endswith("cvc") and word[-1] not in "wxy"


# Rule tables for steps 2-4, suffix -> replacement; within a step the longest
# matching suffix is selected and its condition tested once (no fallthrough),
# per Porter (1980).
_STEP2 = {
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
    "izer": "ize", "abli": "able", "alli": "al", "entli": "ent",
    "eli": "e", "ousli": "ous", "ization": "ize", "ation": "ate",
    "ator": "ate", "alism": "al", "iveness": "ive", "fulness": "ful",
    "ousness": "ous", "aliti": "al", "iviti": "ive", "biliti": "ble",
}
_STEP3 = {
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic",
    "ical": "ic", "ful": "", "ness": "",
}
_STEP4 = dict.fromkeys([
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
], "")
_LONGEST_SUFFIX = max(map(len, [*_STEP2, *_STEP3, *_STEP4]))


def _replace_suffix(word: str, table: dict[str, str], min_measure: int) -> str:
    """Steps 2-4: swap the longest suffix of ``word`` in ``table`` for its
    replacement when the stem left has a measure of at least ``min_measure``
    (and, for step 4's ``ion``, ends in s or t)."""
    for n in range(min(len(word), _LONGEST_SUFFIX), 0, -1):
        sfx = word[-n:]
        if sfx in table:
            stem = word[:-n]
            if _measure(stem) < min_measure:
                return word
            if sfx == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem + table[sfx]
    return word


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    stripped = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word: str) -> str:
    if not word.endswith("e"):
        return word
    stem = word[:-1]
    m = _measure(stem)
    if m > 1 or (m == 1 and not _ends_cvc(stem)):
        return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


@lru_cache(maxsize=1 << 13)
def stem(word: str) -> str:
    """Stem one lowercase word.  Words of length <= 2 pass through unchanged.

    Memoized in a process-wide, bounded cache: stemming is pure and source
    trees reuse a small vocabulary, so most calls are cache hits.
    """
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_suffix(word, _STEP2, 1)
    word = _replace_suffix(word, _STEP3, 1)
    word = _replace_suffix(word, _STEP4, 2)
    word = _step5a(word)
    word = _step5b(word)
    return word
