"""In-memory POSIX-like filesystem model for deterministic replay.

Paths map to nodes; hard links are shared node references, so rename and
link preserve aliasing.  Operations never raise on filesystem errors: each
returns "ok" or an errno name (ENOENT, EEXIST, EACCES, EISDIR) and execution
continues, matching how the traced programs behave.
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


def path_args(syscall: str, args: tuple) -> tuple:
    """The paths an op names, the only ones whose entry or node it can change:
    both arguments of rename and link, else the first (write's content and a
    mode are not paths)."""
    return args if syscall in ("rename", "link") else args[:1]


@dataclass
class Node:
    kind: str
    mode: int
    content: str = ""


@dataclass
class VirtualFS:
    paths: dict[str, Node] = field(default_factory=dict)

    def node(self, path: str) -> Node | None:
        return self.paths.get(path)

    # --- syscall semantics ---------------------------------------------

    def apply(self, syscall: str, args: tuple) -> str:
        """Run one op and return "ok" or its errno name; its arity was checked
        when the op was built (``SyscallOp``)."""
        return self._HANDLERS[syscall](self, *args)

    def _op_open(self, path: str) -> str:
        return OK if path in self.paths else ENOENT

    # read and stat, like open, only look the path up
    _op_read = _op_stat = _op_open

    def _op_close(self, path: str) -> str:
        return OK

    def _op_write(self, path: str, content: str) -> str:
        node = self.paths.get(path)
        if node is None:
            return ENOENT
        if not node.mode & 0o222:
            return EACCES
        node.content = content
        return OK

    def _op_unlink(self, path: str) -> str:
        node = self.paths.get(path)
        if node is None:
            return ENOENT
        if node.kind == KIND_DIR:
            return EISDIR
        del self.paths[path]
        return OK

    def _op_rename(self, src: str, dst: str) -> str:
        node = self.paths.get(src)
        if node is None:
            return ENOENT
        # atomic replace: dst simultaneously points at src's node
        del self.paths[src]
        self.paths[dst] = node
        return OK

    def _op_link(self, src: str, dst: str) -> str:
        node = self.paths.get(src)
        if node is None:
            return ENOENT
        if dst in self.paths:
            return EEXIST
        self.paths[dst] = node
        return OK

    def _op_mkdir(self, path: str, mode: int = 0o755) -> str:
        if path in self.paths:
            return EEXIST
        self.paths[path] = Node(kind=KIND_DIR, mode=mode)
        return OK

    def _op_mknod(self, path: str, mode: int = 0o644) -> str:
        if path in self.paths:
            return EEXIST
        self.paths[path] = Node(kind=KIND_FILE, mode=mode)
        return OK

    def _op_chmod(self, path: str, mode: int) -> str:
        node = self.paths.get(path)
        if node is None:
            return ENOENT
        node.mode = mode
        return OK

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
