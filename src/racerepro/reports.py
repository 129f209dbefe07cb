"""Bug-report ingestion and the shared text-preprocessing pipeline.

Every retrieval stage consumes token streams produced here.  The pipeline
is the classic four-step normalization: lowercase/tokenize, stop-word
removal, C reserved-word removal (for source text), Porter stemming.
Stop-word and reserved-word lists are bundled data files so results are
bit-reproducible.

A ``BugReport`` is frozen.  Its sentences and its subject and body terms
are made once per report and shared by key extraction and both rankers.

Report input formats:

* plain text: first line ``Subject: <text>``, a blank line, then the body;
* structured JSON with fields ``{id, subject, body}``.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

from .stem import stem

TokenStream = list[str]

MODE_TEXT = "natural-language"
MODE_C_SOURCE = "c-source"

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")
_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")
_SENTENCE_RE = re.compile(r"[.?!]+")


class InputError(ValueError):
    """An unusable input file: report, scenario, ground truth, TSL spec or
    man page.  The message starts with the file's path."""


def _load_wordlist(name: str) -> frozenset[str]:
    text = (resources.files("racerepro") / "data" / name).read_text("utf-8")
    lines = (line.strip() for line in text.splitlines())
    return frozenset(line.lower() for line in lines if line and not line.startswith("#"))


STOP_WORDS = _load_wordlist("stopwords.txt")
C_RESERVED_WORDS = _load_wordlist("c_reserved.txt")
#: the words each preprocessing mode drops before stemming
_DROPPED = {MODE_TEXT: STOP_WORDS, MODE_C_SOURCE: STOP_WORDS | C_RESERVED_WORDS}


# --- tokenization -----------------------------------------------------------

def split_identifier(token: str) -> list[str]:
    """Split a compound identifier on underscores and camelCase boundaries."""
    return _CAMEL_RE.findall(token)


def words(text: str) -> TokenStream:
    """Lowercased raw words, compounds kept whole: what exact-match scans want."""
    return [raw.lower() for raw in _WORD_RE.findall(text)]


def tokenize(text: str) -> TokenStream:
    """Lowercased word tokens, split on non-alphanumeric except underscore.

    Compound identifiers (``copy_internal``, ``readFile``) are kept whole and
    followed by their sub-tokens, bridging identifier and prose vocabulary.
    """
    tokens: TokenStream = []
    for raw in _WORD_RE.findall(text):
        tokens.append(raw.lower())
        parts = split_identifier(raw)
        if len(parts) >= 2:
            tokens.extend(part.lower() for part in parts)
    return tokens


def preprocess_tokens(tokens: TokenStream, mode: str = MODE_TEXT) -> TokenStream:
    """Normalization stages after tokenization: stop words, reserved words, stem.

    Applying this to its own output is a fixed point (no re-tokenization
    happens here), which the property suite checks over the fixture corpus.
    """
    dropped = _DROPPED.get(mode)
    if dropped is None:
        raise ValueError(f"unknown preprocessing mode: {mode!r}")
    return [stem(tok) for tok in tokens if tok not in dropped]


def preprocess(text: str, mode: str = MODE_TEXT, memo: dict | None = None) -> TokenStream:
    """Full four-step pipeline over raw text, run once per distinct word.

    ``memo`` maps each raw word already seen to its terms and gains the new
    ones; a word's terms do not depend on its neighbours, so reusing them
    gives the same stream.  Without one, each call uses a fresh memo; a
    caller that passes one owns it and its lifetime.
    """
    memo = {} if memo is None else memo
    out: TokenStream = []
    for raw in _WORD_RE.findall(text):
        terms = memo.get(raw)
        if terms is None:
            terms = memo[raw] = preprocess_tokens(tokenize(raw), mode)
        out += terms
    return out


# --- sentence segmentation --------------------------------------------------

def split_sentences(body: str) -> list[str]:
    """Split on sentence delimiters (. ? !); empty segments are dropped.

    Trailing text without a delimiter forms a final sentence.  Abbreviation
    periods over-split; accepted, since downstream mining only needs
    co-mention granularity.
    """
    sentences = []
    for segment in _SENTENCE_RE.split(body):
        segment = segment.strip()
        if segment:
            sentences.append(segment)
    return sentences


# --- report loading ---------------------------------------------------------

@dataclass(frozen=True)
class BugReport:
    """A bug report; subject and body are stored unmodified, views made once."""

    id: str
    subject: str
    body: str

    @cached_property
    def sentences(self) -> list[str]:
        return split_sentences(self.body)

    @cached_property
    def subject_terms(self) -> TokenStream:
        return preprocess(self.subject)

    @cached_property
    def body_terms(self) -> TokenStream:
        return preprocess(self.body)


def load_report(path: str | Path) -> BugReport:
    """Load a report from plain text (``Subject:`` header) or structured JSON."""
    path = Path(path)
    if path.suffix == ".json":
        data = load_json_object(path)
        with reading(path, "id"):
            report_id = json_of(str, data["id"])
        with reading(path, "subject"):
            subject = json_of(str, data["subject"])
        with reading(path, "body"):
            body = json_of(str, data.get("body", ""))
        return BugReport(report_id, subject, body)

    with reading(path):
        text = path.read_text("utf-8")
    first, _, rest = text.partition("\n")
    if not first.startswith("Subject:"):
        raise InputError(f"{path}: first line must start with 'Subject:'")
    subject = first[len("Subject:"):].strip()
    body = rest.lstrip("\n")
    return BugReport(path.stem, subject, body)


# --- reading input files ----------------------------------------------------

@contextmanager
def reading(path: str | Path, field: str | None = None) -> Iterator[None]:
    """Turn a decode or JSON syntax error, a missing key, a wrong JSON type or a
    bad value raised while reading ``path`` into an InputError naming the file
    and, when given, the top-level field.  OS errors, naming their path, pass."""
    where = f"{path}:" if field is None else f"{path}: field {field!r}:"
    try:
        yield
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc.args[0]!r}") from exc
    except (TypeError, AttributeError) as exc:
        raise InputError(f"{where} wrong JSON type ({exc})") from exc
    except ValueError as exc:
        raise InputError(f"{where} {exc}") from exc


def json_of(kind: type, value: object):
    """``value`` if its type is exactly ``kind`` (list, str, dict, int), else a
    TypeError: a string is never iterated as a list, an object never turned
    into text, and a float or a bool never taken for an int."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def load_json_object(path: str | Path) -> dict:
    """The JSON object in ``path``; any other top-level value, or nesting too
    deep to parse, is an InputError."""
    with reading(path):
        try:
            return json_of(dict, json.loads(Path(path).read_text("utf-8")))
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
