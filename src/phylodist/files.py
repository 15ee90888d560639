"""Every file the library opens goes through here, its text UTF-8 whatever the
locale.  open_input opens an input: a DataError raised while its block reads
the file, or text that is not UTF-8, names the path once.  atomic_open opens an
output: a reader of the target path sees either its previous bytes or the
complete new file, never a partial one.  A missing parent directory is made
with the first file written into it.

A target that already holds exactly the new bytes is left as it is (inode,
mode and mtime included) and the temporary file is dropped: renaming over an
existing file can cost a data flush, which dominated re-runs into one output
directory.  A symlink at the target is replaced, never followed.
"""

import os
import stat
from contextlib import contextmanager

from .errors import DataError

CHUNK = 1 << 20  # bytes compared at a time, so a large file's compare stays small


def _open(path, mode):
    """open(path, mode), a text mode's text in UTF-8."""
    return open(path, mode, encoding=None if "b" in mode else "utf-8")


@contextmanager
def open_input(path, mode="r"):
    """Read path.  A DataError raised in the block gets "<path>: " in front of
    its message and keeps its class and attributes; text that is not UTF-8
    raises a DataError naming path."""
    try:
        with _open(path, mode) as fh:
            yield fh
    except UnicodeDecodeError as err:
        bad = err.object[err.start]
        raise DataError(f"{path}: not UTF-8 text (byte 0x{bad:02x}: {err.reason})") from None
    except DataError as err:
        err.args = (f"{path}: {err}",)
        raise


@contextmanager
def atomic_open(path, mode="w"):
    """Write to a temporary name beside path, moved onto path if the block
    succeeds and path does not already hold the same bytes."""
    if parent := os.path.dirname(path):
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with _open(tmp, mode) as fh:
            yield fh
        if not _same_bytes(tmp, path):
            os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _same_bytes(tmp, path):
    """Whether path is a regular file holding exactly tmp's bytes; any OSError
    on the way answers no, so the caller replaces it."""
    try:
        target = os.lstat(path)
        if not stat.S_ISREG(target.st_mode) or target.st_size != os.path.getsize(tmp):
            return False
        with open(tmp, "rb") as new, open(path, "rb") as old:
            while chunk := new.read(CHUNK):
                if old.read(CHUNK) != chunk:
                    return False
            return True
    except OSError:
        return False


def write_text(path, text):
    with atomic_open(path) as fh:
        fh.write(text)


def write_table(path, header, rows, sep="\t"):
    """A header line, then a line per row, cells joined by sep and written with
    str (a Python float's str is its repr, so pass arrays through tolist())."""
    with atomic_open(path) as fh:
        fh.write(sep.join(header) + "\n")
        fh.writelines(sep.join(map(str, row)) + "\n" for row in rows)
