"""Lexical indexing of a C source tree.

A tolerant scanner, not a C parser.  One regex pass over each file's raw
text reads its code tokens (identifiers and ``( ) { } ;``) and skips
comments, string/char literals and preprocessor lines whole, so token
offsets, and the line numbers taken from them, are those of the original
text; each token is handled as it is matched, with no token list and no
look-ahead.  Function definitions are detected as ``identifier (args) {``
at brace depth zero.  Within each body, identifiers in call position
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
each file's syscall sites, built on the first ``sites_in`` request for
that file and kept with the index.

``index_tree`` lists the tree with ``os.scandir`` and reads every file on
each call, to key its one-slot memo on the tree's content; a call that
hits the memo costs one walk, one read and one hash of the tree.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import retrieval
from .reports import MODE_C_SOURCE, TokenStream, preprocess_words

SOURCE_SUFFIXES = (".c", ".h")

_NEWLINE_RE = re.compile("\n")


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
    #: call_sites filtered to the syscall universe given to index_tree
    syscall_sites: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class CallGraph:
    nodes: set[str] = field(default_factory=set)
    edges: dict[str, set[str]] = field(default_factory=dict)

    def add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)

    def reaches(self, start: str, goal: str) -> bool:
        """True when goal is reachable from start over call edges (start != goal ok)."""
        if start not in self.nodes:
            return False
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
    """One syscall call site in the source; equal to its plain tuple."""

    syscall: str
    file: str
    function: str
    line: int


def _file_parts(record: FunctionRecord) -> list[str]:
    return record.file.split("/")


def _file_sites(records: list[FunctionRecord]) -> list[Site]:
    """Every syscall site of one file's functions, each with its own syscall.

    Sites are in file order: by line, and within a line in token order
    (the sort is stable over each function's token-ordered sites).
    """
    sites = [
        Site(name, record.file, record.name, line)
        for record in records
        for name, line in record.syscall_sites
    ]
    sites.sort(key=lambda s: s.line)
    return sites


@dataclass
class SourceIndex:
    docs: list[SourceDoc]
    #: one TF-IDF index per field name in ``retrieval.FIELD_NAMES``
    field_indexes: dict[str, retrieval.TfIdfIndex]
    #: each file's records together, files in ``_tree_files`` order
    functions: list[FunctionRecord]
    graph: CallGraph
    diagnostics: list[str] = field(default_factory=list)
    #: file -> its syscall sites, for the files ``sites_in`` was asked about
    _sites: dict[str, list[Site]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def sites_in(self, path: str) -> list[Site]:
        """The file's syscall sites in file order (see ``_file_sites``).

        Built on the first request for the file and kept with the index,
        so the list is shared and must be treated as read-only.
        """
        sites = self._sites.get(path)
        if sites is None:
            # the file's records are one slice of ``functions``, which is
            # sorted by file path components
            parts = path.split("/")
            lo = bisect.bisect_left(self.functions, parts, key=_file_parts)
            hi = bisect.bisect_right(self.functions, parts, lo, key=_file_parts)
            sites = self._sites[path] = _file_sites(self.functions[lo:hi])
        return sites


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


def _line_starts(text: str) -> list[int]:
    """Offset of the first character of every line (0 for the first line)."""
    return [0, *(m.end() for m in _NEWLINE_RE.finditer(text))]


def _line_of(starts: list[int], pos: int) -> int:
    return bisect.bisect_right(starts, pos)


def _scan_file(rel_path: str, text: str) -> tuple[list[FunctionRecord], dict[str, None]]:
    """The function records of one file and its variable names, in
    first-occurrence order.

    The pass holds ``word``, an identifier that the next token makes a call
    site or a head if it is ``(`` and a variable if not; ``head``, an open
    top-level ``name ( ... )`` with its identifiers, a definition if ``{``
    follows its ``)``; and ``current``, the open function.
    """
    starts = _line_starts(text)
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
                    current.call_sites.append((word, _line_of(starts, word_pos)))
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
                line = _line_of(starts, pos)
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
                    current.end_line = _line_of(starts, m.start())
                    functions.append(current)
                    current = None

    if word is not None:
        variables[word] = None
    if current is not None:
        # unterminated body (truncated file): close at last line
        current.end_line = len(starts)
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


#: The one remembered index, with its key: (content hash, unreadable-file
#: diagnostics, syscall universe).  A batch of reports against one tree
#: indexes it once; a fresh tree replaces it.
_last_index: tuple[tuple[str, tuple[str, ...], frozenset[str]], SourceIndex] | None = None


def index_tree(src_root: str | Path, syscall_names: frozenset[str] | set[str]) -> SourceIndex:
    """Index every ``.c``/``.h`` file under src_root, deterministically by path.

    The tree is read and hashed on every call.  When its content, its
    unreadable files and the syscall universe all match the previous call,
    that call's index is returned again, so the result is shared and must
    be treated as read-only; any edited, added or removed file gives a
    fresh index.
    """
    global _last_index
    src_root = Path(src_root)
    syscall_names = frozenset(syscall_names)
    files = _tree_files(src_root)
    if not files:
        raise ValueError(f"{src_root}: no C source files to index")

    sources: list[tuple[str, bytes]] = []
    diagnostics: list[str] = []
    digest = hashlib.sha256()
    for path, rel in files:
        try:
            name = rel.encode()
        except UnicodeEncodeError:  # the OS name holds bytes that are not UTF-8
            raise ValueError(f"{src_root}: source file name {rel!r} is not UTF-8") from None
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as exc:
            diagnostics.append(f"skipped {rel}: {exc}")
            continue
        digest.update(name + b"\0" + data + b"\0")
        sources.append((rel, data))
    if not sources:
        raise ValueError(f"{src_root}: every source file was unreadable")

    key = (digest.hexdigest(), tuple(diagnostics), syscall_names)
    if _last_index is not None and _last_index[0] == key:
        return _last_index[1]
    _last_index = None  # never hold two indexes at once
    index = _build_index(sources, syscall_names, diagnostics)
    _last_index = (key, index)
    return index


def _build_index(
    sources: list[tuple[str, bytes]],
    syscall_names: frozenset[str],
    diagnostics: list[str],
) -> SourceIndex:
    """Scan (relative path, bytes) pairs into a SourceIndex."""
    docs: list[SourceDoc] = []
    functions: list[FunctionRecord] = []
    terms: dict[str, TokenStream] = {}  # raw word -> its terms, for this build only
    for rel, data in sources:
        text = data.decode("utf-8", errors="replace")
        file_functions, variables = _scan_file(rel, text)
        for record in file_functions:
            record.syscall_sites = [
                (name, line) for name, line in record.call_sites if name in syscall_names
            ]
        functions.extend(file_functions)
        names = " ".join(f.name for f in file_functions)
        docs.append(
            SourceDoc(
                path=rel,
                fields={
                    "file_name": preprocess_words(rel.rpartition("/")[2], MODE_C_SOURCE, terms),
                    "function_names": preprocess_words(names, MODE_C_SOURCE, terms),
                    "variable_names": preprocess_words(" ".join(variables), MODE_C_SOURCE, terms),
                    "full_text_with_comments": preprocess_words(text, MODE_C_SOURCE, terms),
                },
            )
        )

    graph = CallGraph(nodes={f.name for f in functions})
    for record in functions:
        for callee, _line in record.call_sites:
            if callee in graph.nodes:
                graph.add_edge(record.name, callee)

    return SourceIndex(
        docs=docs,
        field_indexes=retrieval.build_field_indexes(docs),
        functions=functions,
        graph=graph,
        diagnostics=diagnostics,
    )
