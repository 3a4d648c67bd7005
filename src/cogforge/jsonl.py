"""JSON Lines helpers shared by the pipeline and CLI."""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import NamedTuple


# A stripped line starts with no JSON whitespace, so json.loads(line) is
# raw_decode(line) whenever that consumes the whole line. Any other line goes
# through json.loads, which raises its own error: the byte-order mark, and
# extra data at its position after the whitespace.
_raw_decode = json.JSONDecoder().raw_decode


class Kind(NamedTuple):
    """A field's test, and the words that say what a refused value "is not"."""

    accepts: Callable[[object], bool]
    words: str


def _number(value) -> bool:
    """A finite float, or an int that converts to one; a boolean is no number
    here. json reads ``NaN``, ``Infinity`` and an out-of-range literal such as
    ``1e400`` as non-finite floats."""
    try:
        return (type(value) is float or type(value) is int) and math.isfinite(value)
    except OverflowError:
        return False


def _encodable(text: str, encode: Callable[[str], bytes] = str.encode) -> bool:
    """Whether ``encode``, UTF-8 by default, can encode ``text``: json decodes
    an unpaired \\ud800-\\udfff escape, which RFC 8259 allows, to a lone
    surrogate that no output could write. Each kind tests isascii() first,
    inline: it is O(1), so ASCII text costs no call and no copy."""
    try:
        encode(text)
    except UnicodeEncodeError:
        return False
    return True


def _lone_surrogate(value) -> bool:
    """Whether a str, or a str of a list, holds a lone surrogate."""
    texts = value if type(value) is list else [value]
    return any(type(text) is str and not _encodable(text) for text in texts)


def _strings(value) -> bool:
    """A list of strs that UTF-8 can encode. A script holds tens of thousands
    of short responses, so the common case, every one ASCII, is one C loop:
    ``str.isascii`` raises TypeError on an item that is no str."""
    if type(value) is not list:
        return False
    try:
        if all(map(str.isascii, value)):
            return True
    except TypeError:
        return False
    return all(type(text) is str and _encodable(text) for text in value)


NON_EMPTY_STRING = Kind(lambda value: type(value) is str and value != "" and (
    value.isascii() or _encodable(value)), "a non-empty string")
STRING = Kind(lambda value: type(value) is str and (value.isascii() or _encodable(value)),
              "a string")
STRING_OR_NULL = Kind(lambda value: value is None or type(value) is str and (
    value.isascii() or _encodable(value)), "a string or null")
STRINGS = Kind(_strings, "a list of strings")
NUMBER = Kind(_number, "a number in float range")
BOOLEAN = Kind(lambda value: type(value) is bool, "a boolean")


def one_of(values: Iterable[str], words: str) -> Kind:
    """The kind of a string that is one of ``values``."""
    allowed = frozenset(values)
    return Kind(lambda value: type(value) is str and value in allowed, words)


def refusal(row: Mapping, schema: Mapping[str, Kind]) -> str | None:
    """Words for the first field of ``schema`` that ``row`` lacks or holds of another kind."""
    for field, kind in schema.items():
        if not kind.accepts(row.get(field)):
            if field not in row:
                return f"missing field {field!r}"
            value = row[field]
            if _lone_surrogate(value):
                return f"field {field!r} holds a lone surrogate, which UTF-8 cannot encode: {value!r}"
            return f"field {field!r} is not {kind.words}: {value!r}"
    return None


def read_rows(path: str, schema: Mapping[str, Kind], key: str | None) -> Iterator[dict]:
    """Yield one dict per non-blank line; errors carry path and line number.

    Each stripped line is decoded as ``json.loads`` decodes it. Each field of
    the ``schema`` is then tested against its kind, in order; the first that
    fails is an error in ``refusal``'s words. After those checks, the value of
    the ``key`` field, one of the ``schema``'s, must differ from every earlier
    row's: a repeat is an error ``duplicate <key> <value!r>``. A ``key`` of
    None makes no field unique.
    """
    checks = [(field, kind.accepts) for field, kind in schema.items()]
    seen: set = set()
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row, end = _raw_decode(line)
                except (ValueError, RecursionError):
                    end = -1
                if end != len(line):
                    try:
                        row = json.loads(line)
                    except (ValueError, RecursionError) as exc:
                        raise ValueError(f"{path}:{lineno}: not valid JSON: {_fault(exc)}") from exc
                if not isinstance(row, dict):
                    raise ValueError(f"{path}:{lineno}: expected a JSON object")
                for field, accepts in checks:
                    if not accepts(row.get(field)):
                        raise ValueError(f"{path}:{lineno}: {refusal(row, schema)}")
                if key is not None:
                    value = row[key]
                    if value in seen:
                        raise ValueError(f"{path}:{lineno}: duplicate {key} {value!r}")
                    seen.add(value)
                yield row
        except UnicodeDecodeError:
            raise ValueError(undecodable(path)) from None


def _fault(exc: ValueError | RecursionError) -> str:
    """What json refused in a line or a body. Besides its syntax errors and a
    body's UnicodeDecodeError, it raises a RecursionError for arrays or objects
    nested past the recursion limit, and a bare ValueError, with advice meant
    for a Python caller, for an integer literal past the digit limit."""
    if isinstance(exc, json.JSONDecodeError | UnicodeDecodeError):
        return str(exc)
    if isinstance(exc, RecursionError):
        return "arrays or objects nested too deeply"
    return f"an integer literal of more than {sys.get_int_max_str_digits()} digits"


def undecodable(path: str) -> str:
    """``<path>:<line>: not valid UTF-8 ...`` for a file a text reader failed
    to decode: it decodes ahead of the line it yields, so the line is found
    again here, on the error path alone. Latin-1 reads each byte as one
    character, and splits the lines where the UTF-8 reader splits them."""
    with open(path, encoding="latin-1") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = exc.object[exc.start]
                return f"{path}:{lineno}: not valid UTF-8: byte {byte:#04x} ({exc.reason})"
    return f"{path}: not valid UTF-8"


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
