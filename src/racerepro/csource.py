"""Lexical indexing of a C source tree.

A tolerant scanner, not a C parser.  One regex pass over each file's raw
text reads its code tokens (identifiers and ``( ) { } ;``) and skips
comments, string/char literals and preprocessor lines whole, so token
offsets, and the line numbers taken from them, are those of the original
text; each token is handled as it is matched, with no token list and no
look-ahead, and each line number is counted on from the last offset
asked.  Function definitions are detected as ``identifier (args) {`` at
brace depth zero.  Within each body, identifiers in call position
(``name (`` after trivia) become call sites; everything else contributes
to the variable-name field (an over-approximation that is harmless for
TF-IDF).

Each file yields one retrieval document with exactly four field token
streams: file_name, function_names, variable_names, and
full_text_with_comments (the only field that also reads comments,
literals and directives).  Each distinct raw word is preprocessed once per
build.  The ``SourceIndex`` also carries the four field TF-IDF indexes
(term counts and norms, see ``retrieval``), built once with the tree, so
ranking any number of reports against a remembered tree builds none, and
each file's syscall sites, built with the tree.  Nothing changes an index
after ``index_tree`` returns it.

``index_tree`` lists the tree with ``os.scandir`` and reads every file on
each call, to key its memo on the tree's content; a call that hits the
memo costs one walk, one read and one comparison of the tree.  The memo
remembers the indexes of the most recently used trees, up to
``_MEMO_MAX_BYTES`` of source, so a batch that returns to a tree does not
rebuild its index.
"""

from __future__ import annotations

import logging
import os
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import retrieval
from .reports import MODE_C_SOURCE, TokenStream, preprocess, reading, utf8_name

log = logging.getLogger(__name__)

SOURCE_SUFFIXES = (".c", ".h")

# --- domain types -----------------------------------------------------------

@dataclass
class SourceDoc:
    path: str
    fields: dict[str, TokenStream]


@dataclass
class FunctionRecord:
    name: str
    file: str
    start_line: int
    end_line: int
    #: every identifier observed in call position within the body
    call_sites: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class CallGraph:
    edges: dict[str, set[str]] = field(default_factory=dict)

    def add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)

    def reaches(self, start: str, goal: str) -> bool:
        """True when goal is reachable from start over call edges (start != goal ok)."""
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in self.edges.get(node, ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False


class Site(NamedTuple):
    """A syscall called at one source location; equal to its plain tuple."""

    syscall: str
    file: str
    function: str
    line: int


def _file_sites(records: list[FunctionRecord], syscall_names: frozenset[str]) -> list[Site]:
    """The sites of one file's calls that name a syscall, one per location.

    A location is (file, function, line), as a point, a ``src_map`` key and
    a delay name it, so two calls of one syscall on one line are one site:
    a second would only repeat the first's points.  Sites are in file order,
    by line and then by token, each at its first call: definitions open
    only at brace depth zero, so bodies never nest, and the scan appends
    each record, its call sites in token order, when its body closes.
    """
    return list(dict.fromkeys(
        Site(name, record.file, record.name, line)
        for record in records
        for name, line in record.call_sites
        if name in syscall_names
    ))


@dataclass
class SourceIndex:
    docs: list[SourceDoc]
    #: one TF-IDF index per field name in ``retrieval.FIELD_NAMES``
    field_indexes: dict[str, retrieval.TfIdfIndex]
    #: each file's records together, files in ``_tree_files`` order
    functions: list[FunctionRecord]
    graph: CallGraph
    diagnostics: list[str] = field(default_factory=list)
    #: each indexed file -> its syscall sites in file order (see ``_file_sites``)
    sites: dict[str, list[Site]] = field(default_factory=dict)


# --- scanning ---------------------------------------------------------------

#: One alternative per lexical construct, tried left to right over the raw
#: text.  Only ``ident`` and ``punct`` matches are code tokens; a directive,
#: comment or literal is matched whole, so nothing inside it reads as code.
#: A directive's ``#`` may follow blanks and closed block comments (the
#: preprocessor reads a comment as a blank); a literal ends at its closing
#: quote or at an unescaped newline, as a compiler ends it.
_SCAN_RE = re.compile(
    r"""
      (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[(){};])
    | ^[ \t]*(?:/\*[^*]*\*+(?:[^/*][^*]*\*+)*/[ \t]*)*
      \#(?:\\\n|[^\n])*                 # preprocessor line, \-continued
    | //[^\n]*                          # line comment
    | /\*[\s\S]*?(?:\*/|\Z)             # block comment, open to EOF
    | "[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*"?   # string literal
    | '[^'\\\n]*(?:\\[\s\S]?[^'\\\n]*)*'?   # char literal
    """,
    re.MULTILINE | re.VERBOSE,
)


def _scan_file(rel_path: str, text: str) -> tuple[list[FunctionRecord], dict[str, None]]:
    """The function records of one file and its variable names, in
    first-occurrence order.

    The pass holds ``word``, an identifier that the next token makes a call
    site or a head if it is ``(`` and a variable if not; ``head``, an open
    top-level ``name ( ... )`` with its identifiers, a definition if ``{``
    follows its ``)``; and ``current``, the open function.  ``line`` is the
    line of offset ``seen``, the last one asked: the offsets asked (a head,
    then its body's call sites, then its ``}``) never decrease, so each
    line is counted on from the last.
    """
    line, seen = 1, 0
    functions: list[FunctionRecord] = []
    variables: dict[str, None] = {}
    word: str | None = None
    word_pos = 0
    head: tuple[str, int, list[str]] | None = None  # name, offset, identifiers
    parens = 0  # the head's paren depth, 0 once its ``)`` is read
    current: FunctionRecord | None = None
    depth = 0  # brace depth inside the current function body

    for m in _SCAN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue  # directive, comment or literal
        tok = m.group()
        if word is not None:
            if tok == "(":
                if current is None:
                    head, parens = (word, word_pos, []), 1
                else:
                    line += text.count("\n", seen, word_pos)
                    seen = word_pos
                    current.call_sites.append((word, line))
                word = None
                continue
            variables[word] = None
            word = None
        if head is not None:
            if parens:
                if kind == "ident":
                    head[2].append(tok)
                elif tok == "(":
                    parens += 1
                elif tok == ")":
                    parens -= 1
                continue
            if tok == "{":
                name, pos, params = head
                line += text.count("\n", seen, pos)
                seen = pos
                current, depth = FunctionRecord(name, rel_path, line, line), 1
                variables.update(dict.fromkeys(params))
                head = None
                continue
            head = None  # a declaration or a top-level call, not a definition
        if kind == "ident":
            word, word_pos = tok, m.start()
        elif current is not None:
            if tok == "{":
                depth += 1
            elif tok == "}":
                depth -= 1
                if depth == 0:
                    line += text.count("\n", seen, m.start())
                    seen = m.start()
                    current.end_line = line
                    functions.append(current)
                    current = None

    if word is not None:
        variables[word] = None
    if current is not None:
        # unterminated body (truncated file): close at last line
        current.end_line = line + text.count("\n", seen)
        functions.append(current)
    return functions, variables


# --- indexing ---------------------------------------------------------------

def _tree_files(src_root: Path) -> list[tuple[str, str]]:
    """(path, relative path) of every ``.c``/``.h`` file under src_root.

    Files come in ``Path`` order, by relative path components, so ``a/b.c``
    precedes ``a.c``.  As with ``Path.rglob`` and ``Path.is_file``, a symlink
    to a file counts and a symlink to a directory is not entered, a name
    that is only a suffix (``.c``) has none, and a missing root or a plain
    file lists nothing.
    """
    files: list[tuple[str, str]] = []
    pending = [(os.fspath(src_root), "")]
    while pending:
        directory, prefix = pending.pop()
        try:
            entries = os.scandir(directory)
        except OSError:
            continue
        with entries:
            for entry in entries:
                name = entry.name
                if entry.is_dir(follow_symlinks=False):
                    pending.append((entry.path, prefix + name + "/"))
                elif len(name) > 2 and name.endswith(SOURCE_SUFFIXES) and entry.is_file():
                    files.append((entry.path, prefix + name))
    files.sort(key=lambda f: f[1].split("/"))
    return files


#: What identifies an index: the tree's (relative path, bytes) pairs in
#: file order, its unreadable-file diagnostics and the syscall universe.
_Key = tuple[tuple[tuple[str, bytes], ...], tuple[str, ...], frozenset[str]]

#: Source bytes of the trees whose indexes ``index_tree`` remembers at once.
#: A remembered index, with its key, takes about 13 times its tree's bytes
#: (tracemalloc: 200-260 KB for each 15-20 KB generated tree), so a memo
#: full of small trees holds about 3.5 MB.  The ten trees of a
#: ``report-batch`` run, both fixtures among them, total 150-160 KB, so a
#: batch that cycles over them builds each once.  A larger tree is
#: remembered alone, as a 1000-file generated tree (about 760 KB) is.
_MEMO_MAX_BYTES = 256 * 1024

#: The remembered indexes by key, least recently used first.
_indexes: dict[_Key, SourceIndex] = {}


def _source_bytes(sources: Iterable[tuple[str, bytes]]) -> int:
    return sum(len(data) for _rel, data in sources)


def index_tree(src_root: str | Path, syscall_names: frozenset[str] | set[str]) -> SourceIndex:
    """Index every ``.c``/``.h`` file under src_root, deterministically by path.

    The tree is read and compared on every call.  When its content, its
    unreadable files and the syscall universe all match a remembered
    index, that index is returned again, so the result is shared and must
    be treated as read-only; any edited, added or removed file gives a
    fresh index.  Before a build, the least recently used indexes are
    forgotten until the new tree fits ``_MEMO_MAX_BYTES`` with the rest, or
    none is left.  A build that skips unreadable files logs one warning.
    """
    src_root = Path(src_root)
    syscall_names = frozenset(syscall_names)
    files = _tree_files(src_root)
    if not files:
        raise ValueError(f"{src_root}: no C source files to index")

    with reading(src_root):
        for _path, rel in files:
            utf8_name(rel)
    sources: list[tuple[str, bytes]] = []
    diagnostics: list[str] = []
    for path, rel in files:
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as exc:
            diagnostics.append(f"skipped {rel}: {exc}")
            continue
        sources.append((rel, data))
    if not sources:
        raise ValueError(f"{src_root}: every source file was unreadable")

    key = (tuple(sources), tuple(diagnostics), syscall_names)
    index = _indexes.pop(key, None)
    if index is None:
        size = _source_bytes(sources)
        held = sum(_source_bytes(k[0]) for k in _indexes)
        while _indexes and held + size > _MEMO_MAX_BYTES:
            oldest = next(iter(_indexes))
            del _indexes[oldest]
            held -= _source_bytes(oldest[0])
        if diagnostics:
            log.warning("%d source file(s) skipped; first: %s", len(diagnostics), diagnostics[0])
        index = _build_index(sources, syscall_names, diagnostics)
    _indexes[key] = index  # the most recently used end
    return index


def _build_index(
    sources: list[tuple[str, bytes]],
    syscall_names: frozenset[str],
    diagnostics: list[str],
) -> SourceIndex:
    """Scan (relative path, bytes) pairs into a SourceIndex: each file's
    document, records and sites in one pass, then the call graph and the
    field indexes."""
    docs: list[SourceDoc] = []
    functions: list[FunctionRecord] = []
    sites: dict[str, list[Site]] = {}
    terms: dict[str, TokenStream] = {}  # raw word -> its terms, for this build only
    for rel, data in sources:
        text = data.decode("utf-8", errors="replace")
        records, variables = _scan_file(rel, text)
        texts = (rel.rpartition("/")[2], " ".join(f.name for f in records),
                 " ".join(variables), text)
        docs.append(SourceDoc(path=rel, fields={
            name: preprocess(field_text, MODE_C_SOURCE, terms)
            for name, field_text in zip(retrieval.FIELD_NAMES, texts)}))
        functions.extend(records)
        sites[rel] = _file_sites(records, syscall_names)
    del terms  # the field indexes read only the documents

    graph = CallGraph()
    names = {f.name for f in functions}
    for record in functions:
        for callee, _line in record.call_sites:
            if callee in names:
                graph.add_edge(record.name, callee)

    return SourceIndex(docs=docs, field_indexes=retrieval.build_field_indexes(docs),
                       functions=functions, graph=graph, diagnostics=diagnostics, sites=sites)
