"""In-memory POSIX-like filesystem model for deterministic replay.

Paths map to nodes; hard links are shared node references, so rename and
link preserve aliasing.  Operations never raise on filesystem errors:
failures (ENOENT, EEXIST, EACCES, EISDIR) are recorded as events and
execution continues, matching how the traced programs behave.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KIND_FILE = "file"
KIND_DIR = "dir"

OK = "ok"
ENOENT = "ENOENT"
EEXIST = "EEXIST"
EACCES = "EACCES"
EISDIR = "EISDIR"

#: op kind -> (min arity, max arity)
OP_ARITY: dict[str, tuple[int, int]] = {
    "open": (1, 1),
    "close": (1, 1),
    "read": (1, 1),
    "write": (2, 2),
    "unlink": (1, 1),
    "rename": (2, 2),
    "link": (2, 2),
    "mkdir": (1, 2),
    "mknod": (1, 2),
    "chmod": (2, 2),
    "stat": (1, 1),
}


@dataclass
class Node:
    kind: str
    mode: int
    content: str = ""


@dataclass(frozen=True)
class FsEvent:
    """One executed syscall: who ran it, what it did, how it ended."""

    process: str
    op_index: int
    syscall: str
    args: tuple
    result: str  # "ok" or an errno name
    detail: str = ""  # observed content / kind / mode for read & stat


@dataclass
class VirtualFS:
    paths: dict[str, Node] = field(default_factory=dict)

    def clone(self) -> "VirtualFS":
        """Deep copy preserving hard-link aliasing between paths."""
        memo: dict[int, Node] = {}
        paths: dict[str, Node] = {}
        for path, node in self.paths.items():
            if id(node) not in memo:
                memo[id(node)] = Node(kind=node.kind, mode=node.mode, content=node.content)
            paths[path] = memo[id(node)]
        return VirtualFS(paths=paths)

    def node(self, path: str) -> Node | None:
        return self.paths.get(path)

    # --- syscall semantics ---------------------------------------------

    def apply(self, process: str, op_index: int, syscall: str, args: tuple) -> FsEvent:
        """Run one op; its arity was checked when the op was built (``SyscallOp``)."""
        result, detail = self._HANDLERS[syscall](self, *args)
        return FsEvent(
            process=process,
            op_index=op_index,
            syscall=syscall,
            args=tuple(args),
            result=result,
            detail=detail,
        )

    def _op_open(self, path: str) -> tuple[str, str]:
        if path not in self.paths:
            return ENOENT, ""
        return OK, ""

    def _op_close(self, path: str) -> tuple[str, str]:
        return OK, ""

    def _op_read(self, path: str) -> tuple[str, str]:
        node = self.paths.get(path)
        if node is None:
            return ENOENT, ""
        return OK, node.content

    def _op_write(self, path: str, content: str) -> tuple[str, str]:
        node = self.paths.get(path)
        if node is None:
            return ENOENT, ""
        if not node.mode & 0o222:
            return EACCES, ""
        node.content = content
        return OK, ""

    def _op_unlink(self, path: str) -> tuple[str, str]:
        node = self.paths.get(path)
        if node is None:
            return ENOENT, ""
        if node.kind == KIND_DIR:
            return EISDIR, ""
        del self.paths[path]
        return OK, ""

    def _op_rename(self, src: str, dst: str) -> tuple[str, str]:
        node = self.paths.get(src)
        if node is None:
            return ENOENT, ""
        # atomic replace: dst simultaneously points at src's node
        del self.paths[src]
        self.paths[dst] = node
        return OK, ""

    def _op_link(self, src: str, dst: str) -> tuple[str, str]:
        node = self.paths.get(src)
        if node is None:
            return ENOENT, ""
        if dst in self.paths:
            return EEXIST, ""
        self.paths[dst] = node
        return OK, ""

    def _op_mkdir(self, path: str, mode: int = 0o755) -> tuple[str, str]:
        if path in self.paths:
            return EEXIST, ""
        self.paths[path] = Node(kind=KIND_DIR, mode=mode)
        return OK, ""

    def _op_mknod(self, path: str, mode: int = 0o644) -> tuple[str, str]:
        if path in self.paths:
            return EEXIST, ""
        self.paths[path] = Node(kind=KIND_FILE, mode=mode)
        return OK, ""

    def _op_chmod(self, path: str, mode: int) -> tuple[str, str]:
        node = self.paths.get(path)
        if node is None:
            return ENOENT, ""
        node.mode = mode
        return OK, ""

    def _op_stat(self, path: str) -> tuple[str, str]:
        node = self.paths.get(path)
        if node is None:
            return ENOENT, ""
        return OK, f"{node.kind} {node.mode:o}"

    #: op kind -> handler
    _HANDLERS = {
        "open": _op_open,
        "close": _op_close,
        "read": _op_read,
        "write": _op_write,
        "unlink": _op_unlink,
        "rename": _op_rename,
        "link": _op_link,
        "mkdir": _op_mkdir,
        "mknod": _op_mknod,
        "chmod": _op_chmod,
        "stat": _op_stat,
    }
