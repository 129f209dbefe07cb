"""Lexical indexing of a C source tree.

A tolerant scanner, not a C parser.  One regex pass over each file's raw
text reads its code tokens (identifiers and ``( ) { } ;``) and skips
comments, string/char literals and preprocessor lines whole, so token
offsets, and the line numbers taken from them, are those of the original
text.  Function definitions are detected as ``identifier (args) {`` at
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
ranking any number of reports against a remembered tree builds none.
"""

from __future__ import annotations

import bisect
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass
class SourceIndex:
    docs: list[SourceDoc]
    #: one TF-IDF index per field name in ``retrieval.FIELD_NAMES``
    field_indexes: dict[str, retrieval.TfIdfIndex]
    functions: list[FunctionRecord]
    graph: CallGraph
    diagnostics: list[str] = field(default_factory=list)


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
    first-occurrence order."""
    starts = _line_starts(text)
    # (text, offset, is identifier) per code token
    toks = [
        (m.group(), m.start(), m.lastgroup == "ident")
        for m in _SCAN_RE.finditer(text)
        if m.lastgroup
    ]
    functions: list[FunctionRecord] = []
    variables: dict[str, None] = {}

    i = 0
    n = len(toks)
    current: FunctionRecord | None = None
    depth = 0  # brace depth inside the current function body

    while i < n:
        tok, pos, is_ident = toks[i]
        if current is None:
            if is_ident:
                if i + 1 < n and toks[i + 1][0] == "(":
                    # match parens; a following '{' makes this a definition
                    pdepth = 0
                    j = i + 1
                    while j < n:
                        if toks[j][0] == "(":
                            pdepth += 1
                        elif toks[j][0] == ")":
                            pdepth -= 1
                            if pdepth == 0:
                                break
                        j += 1
                    if j + 1 < n and toks[j + 1][0] == "{":
                        current = FunctionRecord(
                            name=tok,
                            file=rel_path,
                            start_line=_line_of(starts, pos),
                            end_line=_line_of(starts, toks[j + 1][1]),
                        )
                        depth = 1
                        # parameter identifiers count as variables
                        for name, _pos, name_is_ident in toks[i + 2 : j]:
                            if name_is_ident:
                                variables[name] = None
                        i = j + 2
                        continue
                    # top-level call position (e.g. global initializer): skip it
                    i = j + 1 if j < n else n
                    continue
                variables[tok] = None
            i += 1
            continue

        # inside a function body
        if tok == "{":
            depth += 1
        elif tok == "}":
            depth -= 1
            if depth == 0:
                current.end_line = _line_of(starts, pos)
                functions.append(current)
                current = None
        elif is_ident:
            if i + 1 < n and toks[i + 1][0] == "(":
                current.call_sites.append((tok, _line_of(starts, pos)))
            else:
                variables[tok] = None
        i += 1

    if current is not None:
        # unterminated body (truncated file): close at last line
        current.end_line = len(starts)
        functions.append(current)
    return functions, variables


# --- indexing ---------------------------------------------------------------

def _tree_files(src_root: Path) -> list[Path]:
    return sorted(
        p for p in src_root.rglob("*") if p.is_file() and p.suffix in SOURCE_SUFFIXES
    )


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

    sources: list[tuple[Path, str, bytes]] = []
    diagnostics: list[str] = []
    digest = hashlib.sha256()
    for path in files:
        rel = path.relative_to(src_root).as_posix()
        try:
            data = path.read_bytes()
        except OSError as exc:
            diagnostics.append(f"skipped {rel}: {exc}")
            continue
        digest.update(rel.encode() + b"\0" + data + b"\0")
        sources.append((path, rel, data))
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
    sources: list[tuple[Path, str, bytes]],
    syscall_names: frozenset[str],
    diagnostics: list[str],
) -> SourceIndex:
    """Scan (path, relative path, bytes) triples into a SourceIndex."""
    docs: list[SourceDoc] = []
    functions: list[FunctionRecord] = []
    terms: dict[str, TokenStream] = {}  # raw word -> its terms, for this build only
    for path, rel, data in sources:
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
                    "file_name": preprocess_words(path.name, MODE_C_SOURCE, terms),
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
