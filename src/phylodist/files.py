"""Every file the library writes goes through here: a reader of the target
path sees either its previous bytes or the complete new file, never a partial one.
A missing parent directory is made with the first file written into it."""

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode="w"):
    """Write to a temporary name beside path, moved onto path if the block succeeds."""
    if parent := os.path.dirname(path):
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_text(path, text):
    with atomic_open(path) as fh:
        fh.write(text)


def write_table(path, header, rows, sep="\t"):
    """A header line, then a line per row, cells joined by sep and written with
    str (a Python float's str is its repr, so pass arrays through tolist())."""
    with atomic_open(path) as fh:
        fh.write(sep.join(header) + "\n")
        fh.writelines(sep.join(map(str, row)) + "\n" for row in rows)
