"""Lexical indexing of a C source tree.

A tolerant scanner, not a C parser: comments, string/char literals, and
preprocessor lines are masked (structure and line numbers preserved), then
function definitions are detected as ``identifier (args) {`` at brace depth
zero.  Within each body, identifiers in call position (``name (`` after
trivia) become call sites; everything else contributes to the
variable-name field (an over-approximation that is harmless for TF-IDF).

Each file yields one retrieval document with exactly four field token
streams: file_name, function_names, variable_names, and
full_text_with_comments (the only field built from the unmasked text).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .reports import MODE_C_SOURCE, TokenStream, preprocess_tokens, tokenize

SOURCE_SUFFIXES = (".c", ".h")

_IDENT_OR_PUNCT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(){};]")


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
    diagnostics: list[str] = field(default_factory=list)

    def add_edge(self, caller: str, callee: str) -> None:
        if caller not in self.nodes or callee not in self.nodes:
            self.diagnostics.append(f"dropped edge {caller} -> {callee}: unknown node")
            return
        self.edges.setdefault(caller, set()).add(callee)

    def successors(self, name: str) -> list[str]:
        return sorted(self.edges.get(name, ()))

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
    functions: list[FunctionRecord]
    graph: CallGraph
    diagnostics: list[str] = field(default_factory=list)
    content_hash: str = ""


# --- masking ----------------------------------------------------------------

#: One alternative per masked construct, tried left to right over the text.
#: An alternative's named group is the span to blank; without one the whole
#: match is blanked.  So a directive keeps its indentation and a literal its
#: delimiters.
_MASK_RE = re.compile(
    r"""
      ^[ \t]*(?P<directive>\#(?:\\\n|[^\n])*)   # preprocessor line, \-continued
    | //[^\n]*                                  # line comment
    | /\*[\s\S]*?(?:\*/|\Z)                     # block comment, open to EOF
    | "(?P<string>[^"\\]*(?:\\[\s\S]?[^"\\]*)*)"?  # string literal
    | '(?P<char>[^'\\]*(?:\\[\s\S]?[^'\\]*)*)'?    # char literal
    """,
    re.MULTILINE | re.VERBOSE,
)


def _blank_match(m: re.Match[str]) -> str:
    start, end = m.span(m.lastgroup or 0)
    text = m.string
    blanked = "\n".join(" " * len(line) for line in text[start:end].split("\n"))
    return text[m.start() : start] + blanked + text[end : m.end()]


def mask_code(text: str) -> str:
    """Blank out comments, string/char literals, and preprocessor lines.

    The result has identical length and newline positions, so offsets and
    line numbers computed on it are valid for the original text.  A
    preprocessor line starts at a ``#`` preceded on its line by blanks only
    and runs to an unescaped newline; literal delimiters are kept.
    """
    return _MASK_RE.sub(_blank_match, text)


# --- scanning ---------------------------------------------------------------

@dataclass
class _Tok:
    text: str
    pos: int


def _line_starts(text: str) -> list[int]:
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


def _line_of(starts: list[int], pos: int) -> int:
    return bisect.bisect_right(starts, pos)


@dataclass
class _FileScan:
    functions: list[FunctionRecord]
    variables: list[str]  # deduplicated, first-occurrence order


def _scan_file(rel_path: str, masked: str) -> _FileScan:
    starts = _line_starts(masked)
    toks = [_Tok(m.group(), m.start()) for m in _IDENT_OR_PUNCT_RE.finditer(masked)]
    functions: list[FunctionRecord] = []
    variables: list[str] = []
    seen_vars: set[str] = set()

    def note_var(name: str) -> None:
        if name not in seen_vars:
            seen_vars.add(name)
            variables.append(name)

    def is_ident(tok: _Tok) -> bool:
        return tok.text[0].isalpha() or tok.text[0] == "_"

    i = 0
    n = len(toks)
    current: FunctionRecord | None = None
    depth = 0  # brace depth inside the current function body

    while i < n:
        tok = toks[i]
        if current is None:
            if is_ident(tok):
                nxt = toks[i + 1] if i + 1 < n else None
                if nxt is not None and nxt.text == "(":
                    # match parens; a following '{' makes this a definition
                    pdepth = 0
                    j = i + 1
                    while j < n:
                        if toks[j].text == "(":
                            pdepth += 1
                        elif toks[j].text == ")":
                            pdepth -= 1
                            if pdepth == 0:
                                break
                        j += 1
                    after = toks[j + 1] if j + 1 < n else None
                    if after is not None and after.text == "{":
                        current = FunctionRecord(
                            name=tok.text,
                            file=rel_path,
                            start_line=_line_of(starts, tok.pos),
                            end_line=_line_of(starts, after.pos),
                        )
                        depth = 1
                        # parameter identifiers count as variables
                        for k in range(i + 2, j):
                            if is_ident(toks[k]):
                                note_var(toks[k].text)
                        i = j + 2
                        continue
                    # top-level call position (e.g. global initializer): skip it
                    i = j + 1 if j < n else n
                    continue
                note_var(tok.text)
            i += 1
            continue

        # inside a function body
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth -= 1
            if depth == 0:
                current.end_line = _line_of(starts, tok.pos)
                functions.append(current)
                current = None
        elif is_ident(tok):
            nxt = toks[i + 1] if i + 1 < n else None
            if nxt is not None and nxt.text == "(":
                current.call_sites.append((tok.text, _line_of(starts, tok.pos)))
            else:
                note_var(tok.text)
        i += 1

    if current is not None:
        # unterminated body (truncated file): close at last line
        current.end_line = len(starts)
        functions.append(current)
    return _FileScan(functions=functions, variables=variables)


# --- indexing ---------------------------------------------------------------

def _expand(names: list[str]) -> TokenStream:
    """Identifier list -> whole tokens plus compound sub-tokens, preprocessed."""
    raw = " ".join(names)
    return preprocess_tokens(tokenize(raw), MODE_C_SOURCE)


def _tree_files(src_root: Path) -> list[Path]:
    return sorted(
        p for p in src_root.rglob("*") if p.is_file() and p.suffix in SOURCE_SUFFIXES
    )


def tree_content_hash(src_root: str | Path) -> str:
    src_root = Path(src_root)
    digest = hashlib.sha256()
    for path in _tree_files(src_root):
        digest.update(str(path.relative_to(src_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def default_syscall_names() -> frozenset[str]:
    from .catalog import bundled_catalog

    return frozenset(bundled_catalog().entries)


def index_tree(
    src_root: str | Path, syscall_names: frozenset[str] | set[str] | None = None
) -> SourceIndex:
    """Index every ``.c``/``.h`` file under src_root, deterministically by path."""
    src_root = Path(src_root)
    if syscall_names is None:
        syscall_names = default_syscall_names()
    files = _tree_files(src_root)
    if not files:
        raise ValueError(f"{src_root}: no C source files to index")

    docs: list[SourceDoc] = []
    functions: list[FunctionRecord] = []
    diagnostics: list[str] = []
    digest = hashlib.sha256()  # as tree_content_hash, from the bytes read here
    for path in files:
        rel = path.relative_to(src_root).as_posix()
        try:
            data = path.read_bytes()
        except OSError as exc:
            diagnostics.append(f"skipped {rel}: {exc}")
            continue
        digest.update(str(path.relative_to(src_root)).encode() + b"\0" + data + b"\0")
        text = data.decode("utf-8", errors="replace")
        scan = _scan_file(rel, mask_code(text))
        for record in scan.functions:
            record.syscall_sites = [
                (name, line) for name, line in record.call_sites if name in syscall_names
            ]
        functions.extend(scan.functions)
        docs.append(
            SourceDoc(
                path=rel,
                fields={
                    "file_name": _expand([path.name]),
                    "function_names": _expand([f.name for f in scan.functions]),
                    "variable_names": _expand(scan.variables),
                    "full_text_with_comments": preprocess_tokens(
                        tokenize(text), MODE_C_SOURCE
                    ),
                },
            )
        )
    if not docs:
        raise ValueError(f"{src_root}: every source file was unreadable")

    graph = CallGraph(nodes={f.name for f in functions})
    for record in functions:
        for callee, _line in record.call_sites:
            if callee in graph.nodes:
                graph.add_edge(record.name, callee)

    return SourceIndex(
        docs=docs,
        functions=functions,
        graph=graph,
        diagnostics=diagnostics,
        content_hash=digest.hexdigest(),
    )


def find_syscall_sites(
    index: SourceIndex, syscall: str
) -> list[tuple[str, str, int]]:
    """Every call-position site of a syscall: (file, function, line), sorted."""
    sites = [
        (record.file, record.name, line)
        for record in index.functions
        for name, line in record.call_sites
        if name == syscall
    ]
    sites.sort(key=lambda s: (s[0], s[2]))
    return sites


# --- index dump -------------------------------------------------------------

def save_index(index: SourceIndex, path: str | Path) -> None:
    """Dump the index as JSON, keyed by the source-tree content hash."""
    payload = {
        "content_hash": index.content_hash,
        "docs": [{"path": d.path, "fields": d.fields} for d in index.docs],
        "functions": [
            {
                "name": f.name,
                "file": f.file,
                "start_line": f.start_line,
                "end_line": f.end_line,
                "call_sites": f.call_sites,
                "syscall_sites": f.syscall_sites,
            }
            for f in index.functions
        ],
        "graph": {
            "nodes": sorted(index.graph.nodes),
            "edges": {k: sorted(v) for k, v in sorted(index.graph.edges.items())},
        },
        "diagnostics": index.diagnostics,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), "utf-8")


class StaleIndexError(ValueError):
    """Raised when a cached index does not match the current source tree."""


def load_index(path: str | Path, src_root: str | Path | None = None) -> SourceIndex:
    """Load a dumped index; verifies the content hash when src_root is given."""
    payload = json.loads(Path(path).read_text("utf-8"))
    if src_root is not None:
        current = tree_content_hash(src_root)
        if current != payload["content_hash"]:
            raise StaleIndexError(
                f"{path}: index hash {payload['content_hash'][:12]} does not match "
                f"tree hash {current[:12]}"
            )
    graph = CallGraph(nodes=set(payload["graph"]["nodes"]))
    for caller, callees in payload["graph"]["edges"].items():
        for callee in callees:
            graph.add_edge(caller, callee)
    return SourceIndex(
        docs=[SourceDoc(path=d["path"], fields=d["fields"]) for d in payload["docs"]],
        functions=[
            FunctionRecord(
                name=f["name"],
                file=f["file"],
                start_line=f["start_line"],
                end_line=f["end_line"],
                call_sites=[tuple(s) for s in f["call_sites"]],
                syscall_sites=[tuple(s) for s in f["syscall_sites"]],
            )
            for f in payload["functions"]
        ],
        graph=graph,
        diagnostics=list(payload["diagnostics"]),
        content_hash=payload["content_hash"],
    )
