"""The JSONL reader and writer: each line reads as ``json.loads`` reads it, a
failed write leaves its target as it was, and every row is written as the one
reference encoder would write it."""

from __future__ import annotations

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogforge.jsonl import dump_row, read_rows, write_rows
from cogforge.records import GapType

REFERENCE = json.JSONEncoder(ensure_ascii=False, sort_keys=True)

PLAIN = list("abcdefghijklmnopqrstuvwxyz ABCXYZ 0123456789 .,;:!?()[]{}<>=+-*/_~'`")
# Text that each encoder escapes, or not, in its own way.
ESCAPED = ['"', "\\", "\\underline", "\\u00e9", "\\n", "\x00", "\x01", "\x08", "\t", "\n",
           "\x0c", "\r", "\x1b", "\x1f"]
DEL = ["\x7f"]
NON_ASCII = ["é", "×", "中文字", "😀", "\x80", "\xa0", "\u2028", "\ufeff", "\U0010ffff"]
# Per row, the pieces its strings are drawn from.
ALPHABETS = [PLAIN, PLAIN + ESCAPED, PLAIN + ESCAPED + DEL, PLAIN + NON_ASCII,
             PLAIN + ESCAPED + DEL + NON_ASCII]


def random_text(rng: random.Random, alphabet: list[str]) -> str:
    if rng.random() < 0.05:
        return ""
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))


def random_scalar(rng: random.Random, alphabet: list[str]):
    kind = rng.randrange(10)
    if kind < 5:
        return random_text(rng, alphabet)
    return [
        None, True, False,
        rng.randint(-(10**30), 10**30),
        rng.choice([rng.uniform(-1e6, 1e6), 1e300, -0.0, 5e-324,
                    math.nan, math.inf, -math.inf]),
    ][kind - 5]


def random_value(rng: random.Random, alphabet: list[str], depth: int):
    if depth == 0 or rng.random() < 0.7:
        return random_scalar(rng, alphabet)
    if rng.random() < 0.5:
        return [random_value(rng, alphabet, depth - 1) for _ in range(rng.randint(0, 3))]
    return random_row(rng, alphabet, depth - 1)


def random_keys(rng: random.Random, alphabet: list[str]) -> list:
    """Keys of one row; str keys mostly, else keys sort_keys can order together."""
    size = rng.randint(0, 6)
    kind = rng.randrange(10)
    if kind == 0:
        return [rng.randint(-(10**20), 10**20) for _ in range(size)]
    if kind == 1:
        return [rng.choice([rng.uniform(-10.0, 10.0), math.inf, -math.inf]) for _ in range(size)]
    if kind == 2:
        return [rng.choice([True, False, 7, 0.5])]
    if kind == 3:
        return [None]
    return [random_text(rng, alphabet) for _ in range(size)]


def random_row(rng: random.Random, alphabet: list[str], depth: int) -> dict:
    return {key: random_value(rng, alphabet, depth) for key in random_keys(rng, alphabet)}


def random_rows(seed: int, count: int) -> list[dict]:
    """Flat rows (depth 0) and nested ones, each over one of ALPHABETS."""
    rng = random.Random(seed)
    return [random_row(rng, rng.choice(ALPHABETS), rng.choice([0, 0, 1, 2]))
            for _ in range(count)]


class TestDumpRow:
    """dump_row escapes each string with the ASCII or the UTF-8 escaper; its
    bytes are always the reference's."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rows_encode_as_the_reference(self, seed):
        rows = random_rows(seed, 3000)
        for row in rows:
            assert dump_row(row) == REFERENCE.encode(row), row
        # The rows reach both sides of the choice: some are written alike by
        # the ASCII escaper, others (flat rows among them) only by the reference.
        ascii_encoder = json.JSONEncoder(sort_keys=True)
        alike = [ascii_encoder.encode(row) == REFERENCE.encode(row) for row in rows]
        assert 0.1 < sum(alike) / len(rows) < 0.9

    @pytest.mark.parametrize("text", ESCAPED + DEL + NON_ASCII + ["", "plain text"])
    def test_each_kind_of_text_as_key_value_and_nested(self, text):
        for row in ({"k": text}, {text: "v"}, {"k": [text]}, {"k": {"n": text}},
                    {"a": 1, "k": text, "z": None}, {"k": text, "f": math.nan, "i": 10**40}):
            assert dump_row(row) == REFERENCE.encode(row), row


def variants(text: str) -> list[str]:
    """``text`` as it is, with DEL and with non-ASCII text, each form also as
    an equal string that is another object."""
    forms = [text, text + "\x7f", "\x7f" + text, text + "é", "中" + text]
    return forms + ["".join(["<", form])[1:] for form in forms]


TEXTS = st.lists(st.sampled_from(PLAIN + ESCAPED), max_size=8).map("".join)


@st.composite
def row_sequences(draw) -> list[dict]:
    """Rows whose keys and strings come from one pool: at least 40 strings,
    more than the escaper remembers, each row sharing their objects."""
    pool = [form for text in draw(st.lists(TEXTS, min_size=4, max_size=10))
            for form in variants(text)]
    text = st.sampled_from(pool)
    scalar = text | st.none() | st.booleans() | st.integers() | st.floats()
    value = st.recursive(
        scalar,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
        max_leaves=6,
    )
    return draw(st.lists(st.dictionaries(text, value, max_size=6), min_size=1, max_size=30))


# Run from a plain test, not collected as one: on a failure, hypothesis's
# pytest plugin imports libcst to suggest a patch, and a DeprecationWarning
# from that import (an error under pyproject's filterwarnings) would end the
# whole session instead of reporting the falsifying rows.
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(row_sequences())
def check_row_sequence(rows: list[dict]) -> None:
    for row in rows:
        assert dump_row(row) == REFERENCE.encode(row), row


class TestRowSequences:
    """Rows written one after another, as a file's rows are: what the escaper
    remembers of earlier rows never changes a later row's bytes."""

    def test_each_row_encodes_as_the_reference(self):
        check_row_sequence()

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", [1, {"k": 1j}]])
    def test_value_it_cannot_encode_is_the_reference_type_error(self, value):
        row = {"a": "x", "k": value}
        with pytest.raises(TypeError) as expected:
            REFERENCE.encode(row)
        with pytest.raises(TypeError) as caught:
            dump_row(row)
        assert str(caught.value) == str(expected.value)
        assert getattr(caught.value, "__notes__", None) == getattr(
            expected.value, "__notes__", None)

    def test_circular_row_then_the_same_row_once_mended(self):
        inner = ["x"]
        row = {"a": inner, "b": {"c": inner}}
        inner.append(row)
        with pytest.raises(ValueError) as expected:
            REFERENCE.encode(row)
        with pytest.raises(ValueError) as caught:
            dump_row(row)
        assert str(caught.value) == str(expected.value) == "Circular reference detected"
        inner.pop()
        assert dump_row(row) == REFERENCE.encode(row)

    def test_row_after_a_failed_row(self):
        with pytest.raises(TypeError):
            dump_row({"a": "ab\x7fé", "b": object()})
        row = {"a": "ab\x7fé", "b": ["ab\x7fé"]}
        assert dump_row(row) == REFERENCE.encode(row)

    def test_str_enum_keys_and_values(self):
        rows = [{GapType.SMALL: GapType.MEDIUM, "gap": GapType.LARGE},
                {"small": "small", "gap": [GapType.SMALL, "large"]},
                {GapType.LARGE: {GapType.SMALL: "medium"}}]
        for row in rows:
            assert dump_row(row) == REFERENCE.encode(row), row

    def test_escaper_keeps_at_most_32_strings(self):
        """After 1,000 rows, each with its own 100 KB string, are written and
        dropped, what is still held is less than 32 strings and their escapes."""
        size = 100_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(1000):
                dump_row({"text": f"{index:06d}" + "x" * size})
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 32 * 2 * (size + 1000)


def two_rows_then(exc: BaseException):
    yield {"a": 1}
    yield {"b": 2}
    raise exc


class TestWriteRows:
    @pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_failure_leaves_existing_file_untouched(self, tmp_path, exc):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(type(exc)):
            write_rows(str(path), two_rows_then(exc))
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_failure_on_a_fresh_path_creates_nothing(self, tmp_path):
        with pytest.raises(OSError):
            write_rows(str(tmp_path / "out.jsonl"), two_rows_then(OSError("disk full")))
        assert list(tmp_path.iterdir()) == []


# Lines whose row or error the reader must report as json.loads does: bad
# JSON, text after the value, a byte-order mark, values that are not objects,
# and lines that strip to an object or to nothing. Each is written between two
# good rows with CRLF line endings.
LINES = [
    '{"id": "a", "gap": "sm',
    "{} x",
    "{}   x",
    '{"id": "a:small", "gap": "small"} x',
    "1 2",
    "\ufeff{}",
    "[1]",
    "null",
    '"x"',
    '{"lp": NaN, "big": -Infinity}',
    " \t  ",
    '{"id": "a"}\t',
    '\t {"id": "a", "n": [1, {"m": null}]} ',
    "",
]


def loads_outcome(path: str, lines: list[str]) -> str:
    """The rows of ``lines`` and then the error, as the reader reports them
    when each stripped line goes through ``json.loads``."""
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            return repr((rows, f"{path}:{lineno}: not valid JSON: {exc}"))
        if not isinstance(row, dict):
            return repr((rows, f"{path}:{lineno}: expected a JSON object"))
        rows.append(row)
    return repr((rows, None))


class TestReadRows:
    @pytest.mark.parametrize("line", LINES, ids=[repr(line) for line in LINES])
    def test_each_line_reads_as_json_loads_reads_it(self, tmp_path, line):
        lines = ['{"before": 1}', line, '{"after": 2}']
        path = tmp_path / "rows.jsonl"
        path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\n")
        rows = []
        try:
            for row in read_rows(str(path)):
                rows.append(row)
            error = None
        except ValueError as exc:
            error = str(exc)
        assert repr((rows, error)) == loads_outcome(str(path), lines)

    def test_extra_data_is_reported_after_the_spaces(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": "a:small", "gap": "small"} x\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"rows.jsonl:1: not valid JSON: Extra data: "
                                             r"line 1 column 35 \(char 34\)$"):
            list(read_rows(str(path)))

    def test_byte_order_mark_is_named(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("\ufeff{}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="rows.jsonl:1: not valid JSON: Unexpected UTF-8 BOM"):
            list(read_rows(str(path)))
