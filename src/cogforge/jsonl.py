"""JSON Lines helpers shared by the pipeline and CLI."""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterable, Iterator


# A stripped line starts with no JSON whitespace, so json.loads(line) is
# raw_decode(line) whenever that consumes the whole line. Any other line goes
# through json.loads, which raises its own error: the byte-order mark, and
# extra data at its position after the whitespace.
_raw_decode = json.JSONDecoder().raw_decode


def read_rows(
    path: str, required: tuple[str, ...] = (), strings: tuple[str, ...] = ()
) -> Iterator[dict]:
    """Yield one dict per non-blank line; errors carry path and line number.

    Each stripped line is decoded as ``json.loads`` decodes it. A row that
    lacks one of the ``required`` fields, or holds null there, is an error
    too, and so is one whose ``strings`` fields are not non-empty strings.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            for field in required:
                if row.get(field) is None:
                    state = "null" if field in row else "missing"
                    raise ValueError(f"{path}:{lineno}: {state} field {field!r}")
            for field in strings:
                value = row.get(field)
                if not isinstance(value, str) or not value:
                    raise ValueError(f"{path}:{lineno}: field {field!r} is not a non-empty "
                                     f"string: {value!r}")
            yield row


# sort_keys so identical content is identical bytes regardless of how the
# dict was assembled; resume determinism depends on this. Each encoder serves
# every row it is given: encode() keeps no state between calls.
#
# The two encoders write the same bytes for any string that is ASCII and holds
# no DEL: both escape the quote, the backslash and the C0 controls alike, and
# only DEL and the characters above it are escaped by the ASCII encoder and
# written raw by the other. Numbers, booleans and null never differ. The ASCII
# escaper is the faster of the two, so a flat row that holds only such strings
# goes through it. Any other row (nested, or holding DEL, non-ASCII text or
# a key that is not a str) goes through the UTF-8 encoder, which writes
# non-ASCII text raw.
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
_ASCII_ENCODER = json.JSONEncoder(ensure_ascii=True, sort_keys=True)
_SCALARS = (int, float, bool, type(None))


def _escapes_alike(row: dict) -> bool:
    """Whether both encoders write ``row`` as the same bytes: every key is a
    str and every value a str or scalar, each string ASCII without DEL.
    isascii() is O(1) in CPython; only the DEL test scans the text."""
    for key, value in row.items():
        if type(key) is not str or not key.isascii() or "\x7f" in key:
            return False
        if type(value) is str:
            if not value.isascii() or "\x7f" in value:
                return False
        elif type(value) not in _SCALARS:
            return False
    return True


def dump_row(row: dict) -> str:
    if type(row) is dict and _escapes_alike(row):
        return _ASCII_ENCODER.encode(row)
    return _ENCODER.encode(row)


def write_rows(path: str, rows: Iterable[dict]) -> int:
    """Write one row per line and return how many were written.

    The rows go to ``<path>.tmp``, which replaces ``path`` once the last one
    is written. On any exception, KeyboardInterrupt included, the temp file is
    removed and ``path`` is left as it was, so a reader never sees it torn.
    """
    partial = f"{path}.tmp"
    written = 0
    try:
        # One write per MiB of rows rather than one per 8 KiB.
        with open(partial, "w", encoding="utf-8", buffering=1 << 20) as handle:
            for row in rows:
                handle.write(dump_row(row))
                handle.write("\n")
                written += 1
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise
    return written
