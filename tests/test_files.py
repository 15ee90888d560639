import os
import tracemalloc

import pytest

from phylodist import files
from phylodist.errors import DataError, NewickError
from phylodist.files import atomic_open, open_input, write_text


@pytest.fixture
def replaced(monkeypatch):
    """The target of each os.replace call, in order."""
    calls = []
    real = os.replace

    def counting(src, dst):
        calls.append(str(dst))
        real(src, dst)

    monkeypatch.setattr(os, "replace", counting)
    return calls


def test_identical_bytes_leave_the_file_alone(tmp_path, replaced):
    path = tmp_path / "a.txt"
    write_text(path, "same bytes\n")
    os.utime(path, ns=(10**18, 10**18))  # an mtime no rewrite could keep by chance
    before = os.stat(path)
    replaced.clear()
    write_text(path, "same bytes\n")
    after = os.stat(path)
    assert replaced == []
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_one_changed_byte_replaces_the_file(tmp_path, replaced):
    path = tmp_path / "a.txt"
    write_text(path, "abc\n")
    replaced.clear()
    write_text(path, "abd\n")
    assert replaced == [str(path)]
    assert path.read_text() == "abd\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_a_symlink_is_replaced_and_its_target_kept(tmp_path, replaced):
    target, path = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("same bytes\n")
    path.symlink_to(target)
    write_text(path, "same bytes\n")
    assert replaced == [str(path)]
    assert not path.is_symlink() and path.read_text() == "same bytes\n"
    assert target.read_text() == "same bytes\n"


def test_a_failed_compare_still_replaces(tmp_path, replaced, monkeypatch):
    path = tmp_path / "a.txt"
    write_text(path, "same bytes\n")
    replaced.clear()

    def unreadable(name, mode="r", **kwargs):
        if "r" in mode:  # files run as root read any mode, so fail the read itself
            raise PermissionError(13, "Permission denied", str(name))
        return open(name, mode, **kwargs)

    monkeypatch.setattr(files, "open", unreadable, raising=False)
    write_text(path, "same bytes\n")
    assert replaced == [str(path)]
    assert path.read_text() == "same bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_the_compare_streams(tmp_path, replaced):
    block = bytes(range(256)) * 4096  # 1 MiB

    def write_64_mib():
        with atomic_open(tmp_path / "big.bin", "wb") as fh:
            for _ in range(64):
                fh.write(block)

    write_64_mib()
    replaced.clear()
    tracemalloc.start()
    try:
        write_64_mib()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert replaced == []
    assert peak < 4 * 2**20


def test_an_input_fault_names_the_path_once_and_keeps_its_class(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"ok\n\xff\n")
    with pytest.raises(NewickError) as err:
        with open_input(path):
            raise NewickError("expected ';'", offset=17)
    assert str(err.value) == f"{path}: expected ';' (at byte 17)" and err.value.offset == 17
    with pytest.raises(DataError) as err:
        with open_input(path) as fh:
            fh.read()
    assert type(err.value) is DataError
    assert str(err.value) == f"{path}: not UTF-8 text (byte 0xff: invalid start byte)"
    with open_input(path, "rb") as fh:
        assert fh.read() == b"ok\n\xff\n"
