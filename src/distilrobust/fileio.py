"""Whole-file replacement for every artifact the package writes."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path):
    """Binary handle on `<path>.tmp`, moved onto `path` when the block completes.

    If the block raises, the temp file is removed and `path` keeps its previous
    contents (or stays absent), so a crash never leaves a half-written file.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise
