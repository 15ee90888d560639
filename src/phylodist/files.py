"""Atomic file writes: a reader of the target path sees either its previous
bytes or the complete new file, never a partial one."""

import os


def atomic_write(path, writer):
    """Run writer(tmp) on a temporary name beside path, then move it onto path."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_text(path, text):
    def write(p):
        with open(p, "w") as fh:
            fh.write(text)

    atomic_write(path, write)
