"""Unit laws for the in-memory filesystem model."""

from __future__ import annotations

from itertools import product

import pytest

from conftest import fs_state
from racerepro.harness import SyscallOp
from racerepro.vfs import (
    CONTENT,
    KIND_DIR,
    KIND_FILE,
    MODE,
    OPS,
    PATH,
    Node,
    VirtualFS,
    arity,
    path_args,
)


def _tree(tree: dict) -> VirtualFS:
    """A filesystem from a row's tree: ``path: content`` is a file of mode
    0o644, ``path: (kind, mode, content)`` any node, and ``"alias=src": None``
    a hard link to an earlier path."""
    fs = VirtualFS()
    for path, node in tree.items():
        if "=" in path:
            alias, src = path.split("=")
            fs.paths[alias] = fs.paths[src]
        else:
            fs.paths[path] = Node(KIND_FILE, 0o644, node) if isinstance(node, str) else Node(*node)
    return fs


#: law -> (tree before, ops in order as (kind, *args, result), tree after).
#: A result is the string ``apply`` returns, "ok" or an errno name.
OP_LAWS = {
    # --- happy paths
    "rename moves node then stat sees it": (
        {"bar": "payload"}, [("rename", "bar", "foo", "ok"), ("stat", "foo", "ok")],
        {"foo": "payload"}),
    "rename replaces destination atomically": (
        {"bar": "new", "foo": "old"}, [("rename", "bar", "foo", "ok"), ("read", "foo", "ok")],
        {"foo": "new"}),
    "unlink then open is ENOENT": (
        {"foo": "x"}, [("unlink", "foo", "ok"), ("open", "foo", "ENOENT")], {}),
    "read keeps content": ({"foo": "hello"}, [("read", "foo", "ok")], {"foo": "hello"}),
    "write updates content": ({"foo": "old"}, [("write", "foo", "new", "ok")], {"foo": "new"}),
    "chmod changes only mode": (
        {"foo": "keep"}, [("chmod", "foo", 0o444, "ok")], {"foo": (KIND_FILE, 0o444, "keep")}),
    "mkdir and mknod create with modes": (
        {}, [("mkdir", "d", 0o700, "ok"), ("mknod", "f", 0o600, "ok")],
        {"d": (KIND_DIR, 0o700, ""), "f": (KIND_FILE, 0o600, "")}),
    "mkdir and mknod default modes": (
        {}, [("mkdir", "d", "ok"), ("mknod", "f", "ok")], {"d": (KIND_DIR, 0o755, ""), "f": ""}),
    "close always succeeds": ({}, [("close", "ghost", "ok")], {}),
    # a write needs any one write bit, whoever's it is
    "write with group write bit only": (
        {"g": (KIND_FILE, 0o020, "old")}, [("write", "g", "new", "ok")],
        {"g": (KIND_FILE, 0o020, "new")}),
    "write with other write bit only": (
        {"o": (KIND_FILE, 0o002, "old")}, [("write", "o", "new", "ok")],
        {"o": (KIND_FILE, 0o002, "new")}),
    # --- hard links
    "link aliases share writes": (
        {"src": "v1"},
        [("link", "src", "alias", "ok"), ("write", "alias", "v2", "ok"),
         ("chmod", "src", 0o400, "ok")],
        {"src": (KIND_FILE, 0o400, "v2"), "alias=src": None}),
    "unlink one alias keeps the other": (
        {"src": "v1"},
        [("link", "src", "alias", "ok"), ("unlink", "src", "ok"), ("read", "alias", "ok")],
        {"alias": "v1"}),
    "rename preserves aliasing": (
        {"src": "v1"},
        [("link", "src", "alias", "ok"), ("rename", "alias", "moved", "ok"),
         ("write", "moved", "v2", "ok")],
        {"src": "v2", "moved=src": None}),
    # --- errno results, never exceptions
    **{f"missing path is ENOENT on {op[0]}": ({}, [(*op, "ENOENT")], {}) for op in [
        ("open", "nope"), ("read", "nope"), ("write", "nope", "x"), ("unlink", "nope"),
        ("rename", "nope", "dst"), ("link", "nope", "dst"), ("chmod", "nope", 0o644),
        ("stat", "nope"),
    ]},
    "link to existing destination is EEXIST": (
        {"src": "a", "dst": "b"}, [("link", "src", "dst", "EEXIST")], {"src": "a", "dst": "b"}),
    "mkdir mknod on existing path is EEXIST": (
        {"f": "x"}, [("mkdir", "f", "EEXIST"), ("mknod", "f", "EEXIST")], {"f": "x"}),
    "write without write bit is EACCES": (
        {"ro": (KIND_FILE, 0o444, "keep")}, [("write", "ro", "clobber", "EACCES")],
        {"ro": (KIND_FILE, 0o444, "keep")}),
    "write with no write bit but execute bits is EACCES": (
        {"rx": (KIND_FILE, 0o555, "keep")}, [("write", "rx", "clobber", "EACCES")],
        {"rx": (KIND_FILE, 0o555, "keep")}),
    "unlink directory is EISDIR": (
        {}, [("mkdir", "d", "ok"), ("unlink", "d", "EISDIR")], {"d": (KIND_DIR, 0o755, "")}),
    "stat detail is kind and octal mode": (
        {}, [("mkdir", "d", 0o750, "ok"), ("stat", "d", "ok")], {"d": (KIND_DIR, 0o750, "")}),
}


@pytest.mark.parametrize("row", list(OP_LAWS))
def test_op_law(row):
    before, ops, after = OP_LAWS[row]
    fs = _tree(before)
    for kind, *args, result in ops:
        assert fs.apply(kind, tuple(args)) == result, (kind, args)
    assert fs_state(fs) == fs_state(_tree(after))


def test_every_op_has_a_law():
    assert set(OPS) <= {kind for _before, ops, _after in OP_LAWS.values() for kind, *_ in ops}


# --- op table -------------------------------------------------------------------

def test_apply_rejects_bad_arity():
    # An op reaches VirtualFS.apply only as a SyscallOp, whose constructor is the
    # one arity check; apply itself trusts the ops it is given.
    with pytest.raises(ValueError):
        SyscallOp("rename", ("foo",))
    with pytest.raises(ValueError):
        SyscallOp("open", ("a", "b"))
    # a trailing mode may be left out only where the handler has a default
    with pytest.raises(ValueError):
        SyscallOp("chmod", ("foo",))
    assert SyscallOp("mkdir", ("d",)).args == ("d",)


#: values per argument kind: files f and a, a directory d, b a hard link to
#: a, and z absent
_ARG_VALUES = {PATH: ("f", "d", "a", "b", "z"), CONTENT: ("x",), MODE: (0o444, 0o600)}


def _linked_fs(f_mode: int) -> VirtualFS:
    return _tree({"f": (KIND_FILE, f_mode, "f0"), "d": (KIND_DIR, 0o755, ""), "a": "a0",
                  "b=a": None})


@pytest.mark.parametrize("syscall", list(OPS))
def test_an_op_changes_only_what_its_path_args_name(syscall):
    # enumerate_interleavings undoes an op by restoring the entries at its
    # path_args and the state of the nodes bound there before the op
    lo, hi = arity(syscall)
    calls = [args for n in range(lo, hi + 1)
             for args in product(*(_ARG_VALUES[kind] for kind in OPS[syscall][:n]))]
    for f_mode, args in product((0o444, 0o644), calls):
        fs = _linked_fs(f_mode)
        entries = dict(fs.paths)
        states = {id(n): (n.kind, n.mode, n.content) for n in entries.values()}
        named = path_args(syscall, args)
        fs.apply(syscall, args)
        for path in entries.keys() | fs.paths.keys():
            if path not in named:
                assert fs.paths.get(path) is entries.get(path), (args, path)
        bound = {id(entries[path]) for path in named if path in entries}
        for node in entries.values():
            if id(node) not in bound:
                assert (node.kind, node.mode, node.content) == states[id(node)], args
