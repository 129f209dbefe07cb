"""Unit laws for the in-memory filesystem model."""

from __future__ import annotations

import pytest

from racerepro.harness import SyscallOp
from racerepro.vfs import (
    EACCES,
    EEXIST,
    EISDIR,
    ENOENT,
    KIND_DIR,
    KIND_FILE,
    OK,
    OP_ARITY,
    Node,
    VirtualFS,
)


def _fs(**files: str) -> VirtualFS:
    fs = VirtualFS()
    for path, content in files.items():
        fs.paths[path] = Node(kind=KIND_FILE, mode=0o644, content=content)
    return fs


def _do(fs: VirtualFS, syscall: str, *args) -> str:
    return fs.apply(syscall, tuple(args))


# --- happy paths ----------------------------------------------------------------

def test_rename_moves_node_then_stat_sees_it():
    fs = _fs(bar="payload")
    assert _do(fs, "rename", "bar", "foo") == OK
    assert fs.node("bar") is None
    assert _do(fs, "stat", "foo") == OK
    node = fs.node("foo")
    assert (node.kind, node.mode) == (KIND_FILE, 0o644)


def test_rename_replaces_destination_atomically():
    fs = _fs(bar="new", foo="old")
    assert _do(fs, "rename", "bar", "foo") == OK
    assert _do(fs, "read", "foo") == OK
    assert fs.node("foo").content == "new"


def test_unlink_then_open_is_enoent():
    fs = _fs(foo="x")
    assert _do(fs, "unlink", "foo") == OK
    assert _do(fs, "open", "foo") == ENOENT


def test_read_reports_content_in_detail():
    fs = _fs(foo="hello")
    assert _do(fs, "read", "foo") == OK
    assert fs.node("foo").content == "hello"


def test_write_updates_content():
    fs = _fs(foo="old")
    assert _do(fs, "write", "foo", "new") == OK
    assert fs.node("foo").content == "new"


def test_chmod_changes_only_mode():
    fs = _fs(foo="keep")
    assert _do(fs, "chmod", "foo", 0o444) == OK
    node = fs.node("foo")
    assert (node.mode, node.content, node.kind) == (0o444, "keep", KIND_FILE)


def test_mkdir_and_mknod_create_with_modes():
    fs = VirtualFS()
    assert _do(fs, "mkdir", "d", 0o700) == OK
    assert _do(fs, "mknod", "f", 0o600) == OK
    assert (fs.node("d").kind, fs.node("d").mode) == (KIND_DIR, 0o700)
    assert (fs.node("f").kind, fs.node("f").mode) == (KIND_FILE, 0o600)


def test_mkdir_and_mknod_default_modes():
    fs = VirtualFS()
    _do(fs, "mkdir", "d")
    _do(fs, "mknod", "f")
    assert fs.node("d").mode == 0o755
    assert fs.node("f").mode == 0o644


def test_close_always_succeeds():
    assert _do(VirtualFS(), "close", "ghost") == OK


# --- hard links -----------------------------------------------------------------

def test_link_aliases_share_writes():
    fs = _fs(src="v1")
    assert _do(fs, "link", "src", "alias") == OK
    _do(fs, "write", "alias", "v2")
    assert fs.node("src").content == "v2"
    _do(fs, "chmod", "src", 0o400)
    assert fs.node("alias").mode == 0o400


def test_unlink_one_alias_keeps_the_other():
    fs = _fs(src="v1")
    _do(fs, "link", "src", "alias")
    assert _do(fs, "unlink", "src") == OK
    assert _do(fs, "read", "alias") == OK
    assert fs.node("alias").content == "v1"


def test_rename_preserves_aliasing():
    fs = _fs(src="v1")
    _do(fs, "link", "src", "alias")
    _do(fs, "rename", "alias", "moved")
    _do(fs, "write", "moved", "v2")
    assert fs.node("src").content == "v2"
    assert fs.node("src") is fs.node("moved")


# --- errno results, never exceptions --------------------------------------------

@pytest.mark.parametrize(
    "syscall,args",
    [
        ("open", ("nope",)),
        ("read", ("nope",)),
        ("write", ("nope", "x")),
        ("unlink", ("nope",)),
        ("rename", ("nope", "dst")),
        ("link", ("nope", "dst")),
        ("chmod", ("nope", 0o644)),
        ("stat", ("nope",)),
    ],
)
def test_missing_path_is_enoent_event(syscall, args):
    assert _do(VirtualFS(), syscall, *args) == ENOENT


def test_link_to_existing_destination_is_eexist():
    fs = _fs(src="a", dst="b")
    assert _do(fs, "link", "src", "dst") == EEXIST
    assert fs.node("dst").content == "b"


def test_mkdir_mknod_on_existing_path_is_eexist():
    fs = _fs(f="x")
    assert _do(fs, "mkdir", "f") == EEXIST
    assert _do(fs, "mknod", "f") == EEXIST


def test_write_without_write_bit_is_eacces():
    fs = VirtualFS()
    fs.paths["ro"] = Node(kind=KIND_FILE, mode=0o444, content="keep")
    assert _do(fs, "write", "ro", "clobber") == EACCES
    assert fs.node("ro").content == "keep"


def test_unlink_directory_is_eisdir():
    fs = VirtualFS()
    _do(fs, "mkdir", "d")
    assert _do(fs, "unlink", "d") == EISDIR
    assert fs.node("d") is not None


def test_stat_detail_is_kind_and_octal_mode():
    fs = VirtualFS()
    _do(fs, "mkdir", "d", 0o750)
    assert _do(fs, "stat", "d") == OK
    node = fs.node("d")
    assert (node.kind, node.mode) == (KIND_DIR, 0o750)


# --- op table -------------------------------------------------------------------

def test_apply_rejects_bad_arity():
    # An op reaches VirtualFS.apply only as a SyscallOp, whose constructor is the
    # one arity check; apply itself trusts the ops it is given.
    with pytest.raises(ValueError):
        SyscallOp("rename", ("foo",))
    with pytest.raises(ValueError):
        SyscallOp("open", ("a", "b"))


def test_arity_table_covers_every_handler():
    assert set(VirtualFS._HANDLERS) == set(OP_ARITY)
    for syscall in OP_ARITY:
        assert VirtualFS._HANDLERS[syscall] is getattr(VirtualFS, f"_op_{syscall}")

