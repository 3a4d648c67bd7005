"""The JSONL reader and writer: each line reads as ``json.loads`` reads it, a
failed write leaves its target as it was, and every row is written as the one
reference encoder would write it."""

from __future__ import annotations

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogforge.jsonl import (
    NON_EMPTY_STRING,
    NUMBER,
    STRING,
    STRING_OR_NULL,
    STRINGS,
    dump_row,
    one_of,
    read_rows,
    write_rows,
)
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


class TestRowSequences:
    """Rows written one after another, as a file's rows are: what the escaper
    remembers of earlier rows never changes a later row's bytes."""

    @settings(max_examples=60)
    @given(row_sequences())
    def test_each_row_encodes_as_the_reference(self, rows):
        for row in rows:
            assert dump_row(row) == REFERENCE.encode(row), row

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
            for row in read_rows(str(path), {}, key=None):
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
            list(read_rows(str(path), {}, key=None))

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("line, reason", [
        (b'{"b": "\xff"}', "invalid start byte"), (b'{"b": "\xc3("}', "invalid continuation byte"),
        (b'{"b": "\xe2\x82', "unexpected end of data")], ids=["start", "continuation", "end"])
    def test_line_that_is_not_utf8_is_named(self, tmp_path, newline, line, reason):
        """The reader decodes ahead of the line it parses, by a chunk."""
        path = tmp_path / "rows.jsonl"
        path.write_bytes(newline.join([b'{"a": "\xc3\xa9"}', b"{}", line]))
        with pytest.raises(ValueError) as caught:
            list(read_rows(str(path), {}, key=None))
        byte = line[len(b'{"b": "')]
        assert str(caught.value) == f"{path}:3: not valid UTF-8: byte {byte:#04x} ({reason})"

    def test_byte_order_mark_is_named(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("\ufeff{}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="rows.jsonl:1: not valid JSON: Unexpected UTF-8 BOM"):
            list(read_rows(str(path), {}, key=None))


# One field of each kind, and the words a refusal of its value uses.
SCHEMA = {"name": NON_EMPTY_STRING, "text": STRING, "note": STRING_OR_NULL, "score": NUMBER,
          "gap": one_of(["small", "medium", "large"], "a gap type"), "lines": STRINGS}
WORDS = {"name": "a non-empty string", "text": "a string", "note": "a string or null",
         "score": "a number in float range", "gap": "a gap type", "lines": "a list of strings"}
# The least int that float() cannot take: halfway between the largest float
# and 2**1024, where rounding goes up.
OVERFLOW = 2**1024 - 2**970


def reference_accepts(field: str, value) -> bool:
    if field == "name":
        return isinstance(value, str) and len(value) > 0
    if field == "text":
        return isinstance(value, str)
    if field == "note":
        return value is None or isinstance(value, str)
    if field == "score":
        if isinstance(value, bool):
            return False
        if isinstance(value, float):
            return math.isfinite(value)
        return isinstance(value, int) and abs(value) < OVERFLOW
    if field == "gap":
        return isinstance(value, str) and value in ("small", "medium", "large")
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def reference_outcome(path: str, rows: list[dict], words: dict[str, str],
                      key: str | None = None) -> tuple[str, str | None]:
    """The rows read before the first refusal under the schema whose kinds
    ``words`` names, and its text. With a ``key``, a row whose fields pass
    is refused if its key repeats an earlier row's."""
    keys = []
    for index, row in enumerate(rows):
        for field, kind in words.items():
            if field not in row and not reference_accepts(field, None):
                return repr(rows[:index]), f"{path}:{index + 1}: missing field {field!r}"
            if field in row and not reference_accepts(field, row[field]):
                return repr(rows[:index]), (f"{path}:{index + 1}: field {field!r} is not {kind}: "
                                            f"{row[field]!r}")
        if key is not None:
            if row[key] in keys:
                return repr(rows[:index]), f"{path}:{index + 1}: duplicate {key} {row[key]!r}"
            keys.append(row[key])
    return repr(rows), None


def outcome(path: str, schema: dict, key: str | None = None) -> tuple[str, str | None]:
    read = []
    try:
        for row in read_rows(path, schema, key):
            read.append(row)
    except ValueError as exc:
        return repr(read), str(exc)
    return repr(read), None


ABSENT = object()
VALID = {
    "name": st.text(min_size=1, max_size=3),
    "text": st.text(max_size=3),
    "note": st.none() | st.text(max_size=3),
    "score": st.floats() | st.integers(),
    "gap": st.sampled_from(["small", "medium", "large"]),
    "lines": st.lists(st.text(max_size=2), max_size=3),
}
# Values that break some kind: the other JSON types, ints at the edge of
# float range, and per field the values nearest to its kind.
ANY = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.sampled_from([10**400, -(10**400), OVERFLOW, OVERFLOW - 1, -OVERFLOW, 1 - OVERFLOW]),
    st.lists(st.none() | st.integers() | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
NEAR = {
    "name": ["", None, 7, ["a"]],
    "text": [None, 1, ["a"]],
    "note": [False, 0, ["a"]],
    "score": [True, False, 10**400, math.nan, math.inf, -math.inf, "1.5", None],
    "gap": ["tiny", "Small", "small ", ["small"]],
    "lines": [[1], ["a", None], "a", [["a"]]],
}


ROW = {"name": "n", "text": "", "note": None, "score": 0, "gap": "small", "lines": []}


def without(row: dict, field: str) -> dict:
    return {key: value for key, value in row.items() if key != field}


@st.composite
def checked_rows(draw) -> dict:
    """A row whose fields each hold a valid value, a value near its kind,
    any value, or nothing."""
    row = {}
    for field, valid in VALID.items():
        near = st.sampled_from([*NEAR[field], ABSENT])
        value = draw((valid, valid, near, ANY)[draw(st.integers(0, 3))])
        if value is not ABSENT:
            row[field] = value
    return row


class TestFieldChecks:
    """read_rows refuses a row exactly when the reference does, naming the
    line, the field and the value, or the missing field, or the key that
    repeats."""

    @settings(max_examples=150)
    @given(rows=st.lists(checked_rows(), min_size=1, max_size=4))
    @example(rows=[ROW, dict(ROW, score=True)])
    @example(rows=[dict(ROW, score=10**400)])
    @example(rows=[ROW, dict(ROW, score=math.nan)])
    @example(rows=[without(ROW, "note"), dict(ROW, name=None)])
    @example(rows=[dict(ROW, name="")])
    @example(rows=[dict(ROW, gap="tiny")])
    @example(rows=[ROW, dict(ROW, lines=["a", 1])])
    @example(rows=[ROW, dict(ROW, text="t")])
    @example(rows=[ROW, dict(ROW, note=0)])
    def test_refuses_what_the_reference_refuses(self, tmp_path_factory, rows):
        path = str(tmp_path_factory.getbasetemp() / "checked.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(row) + "\n" for row in rows)
        # The whole schema: the first refusal in line and field order.
        assert outcome(path, SCHEMA) == reference_outcome(path, rows, WORDS)
        # Each field alone, so that every value drawn is judged.
        for field, kind in SCHEMA.items():
            assert outcome(path, {field: kind}) == reference_outcome(
                path, rows, {field: WORDS[field]})
        # Names unique, as ids are: a repeat is refused once its fields pass.
        assert outcome(path, SCHEMA, "name") == reference_outcome(path, rows, WORDS, "name")
        assert outcome(path, {"name": NON_EMPTY_STRING}, "name") == reference_outcome(
            path, rows, {"name": WORDS["name"]}, "name")

    def test_a_null_is_no_missing_field(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": null}\n', encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            list(read_rows(str(path), {"id": STRING}, key=None))
        assert str(caught.value) == f"{path}:1: field 'id' is not a string: None"
        with pytest.raises(ValueError) as caught:
            list(read_rows(str(path), {"key": STRING}, key=None))
        assert str(caught.value) == f"{path}:1: missing field 'key'"

    @pytest.mark.parametrize("kind, value, text", [
        (NON_EMPTY_STRING, "\ud800", "\u00e9"), (STRING, "x\udfffy", "x\u00e9y"),
        (STRING_OR_NULL, "re\ud83dwrite", "re\U0001f600write"),
        (STRINGS, ["a", "\udc80"], ["a", "\u00e9"]),
        (STRINGS, ["\U0001f600", "\ud83d"], ["\U0001f600", "\u00e9"]),
    ], ids=["non-empty-string", "string", "string-or-null", "strings", "strings-after-a-pair"])
    def test_a_lone_surrogate_is_refused_by_every_string_kind(self, tmp_path, kind, value, text):
        """json decodes an unpaired \\ud800-\\udfff escape to a str that UTF-8
        cannot encode: each string kind refuses it, and takes other non-ASCII
        text, a pair's escapes included."""
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps({"id": value}) + "\n", encoding="utf-8")
        assert not kind.accepts(value) and kind.accepts(text)
        with pytest.raises(ValueError) as caught:
            list(read_rows(str(path), {"id": kind}, key=None))
        assert str(caught.value) == (
            f"{path}:1: field 'id' holds a lone surrogate, which UTF-8 cannot encode: {value!r}")
