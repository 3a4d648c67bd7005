"""JSON Lines helpers shared by the pipeline and CLI."""

from __future__ import annotations

import contextlib
import functools
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


# One C encoder writes every row as json.JSONEncoder(ensure_ascii=False,
# sort_keys=True).encode(row) does: iterencode makes the same c_make_encoder
# call with another escaper, and a fresh markers dict per row keeps its
# circular-reference check. sort_keys so identical content is identical bytes
# regardless of how the dict was assembled; resume determinism depends on this.
#
# The ASCII escaper, the faster, writes the same bytes as the UTF-8 one for a
# string that is ASCII without DEL: only DEL and the characters above it are
# escaped by the first and written raw by the second. Such a string goes
# through it, any other through the UTF-8 one. The last 32 results are kept:
# a family's pair rows repeat its problem and traces, each then escaped once.
_make_encoder = json.encoder.c_make_encoder
_default = json.JSONEncoder().default


@functools.lru_cache(maxsize=32)
def _escape(text: str) -> str:
    if text.isascii() and "\x7f" not in text:
        return json.encoder.encode_basestring_ascii(text)
    return json.encoder.encode_basestring(text)


def dump_row(row: dict) -> str:
    encode = _make_encoder({}, _default, _escape, None, ": ", ", ", True, False, True)
    return "".join(encode(row, 0))


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
