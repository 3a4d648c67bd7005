"""The JSONL writer: a failed write leaves its target as it was."""

from __future__ import annotations

import pytest

from cogforge.jsonl import write_rows


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
