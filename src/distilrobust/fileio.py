"""Whole-file replacement for every artifact the package writes, and the one
JSON-lines reader for the files it reads back."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

from .errors import DataError


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


def json_lines(path):
    """`(line number, record)` for each nonblank line of a JSON-lines file, counting
    from 1; a line that is not a JSON object raises DataError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise DataError(f"{path}:{line_no}: record must be a JSON object")
            yield line_no, record
