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

#: the kinds of an op's arguments
PATH, CONTENT, MODE = "path", "content", "mode"

#: op kind -> the kind of each argument, in the order ``VirtualFS._op_<kind>``
#: takes them.  A trailing mode the handler gives a default may be left out.
OPS: dict[str, tuple[str, ...]] = {
    "open": (PATH,),
    "close": (PATH,),
    "read": (PATH,),
    "write": (PATH, CONTENT),
    "unlink": (PATH,),
    "rename": (PATH, PATH),
    "link": (PATH, PATH),
    "mkdir": (PATH, MODE),
    "mknod": (PATH, MODE),
    "chmod": (PATH, MODE),
    "stat": (PATH,),
}


def arity(syscall: str) -> tuple[int, int]:
    """The least and the most arguments an op takes: every argument of its
    row, less those its handler gives a default."""
    n = len(OPS[syscall])
    return n - len(VirtualFS._HANDLERS[syscall].__defaults__ or ()), n


def path_args(syscall: str, args: tuple) -> tuple:
    """The paths an op names, the only ones whose entry or node it can change."""
    return tuple(arg for arg, kind in zip(args, OPS[syscall]) if kind == PATH)


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


#: op kind -> handler; a row of ``OPS`` with no ``_op_<kind>`` fails at import
VirtualFS._HANDLERS = {syscall: getattr(VirtualFS, f"_op_{syscall}") for syscall in OPS}
