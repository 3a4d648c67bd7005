"""CPU speed probe: rescales timings to a fixed reference speed.

The small shared host this benchmark runs on changes speed from second to
second, each vCPU on its own: the same Python loop runs up to 1.75 times
slower in a slow period, CPU time included, and no steal time is counted.
A 28-second run sees a different mix of fast and slow periods each time, and
that mix, not the program, set most of the run-to-run spread of raw wall
times.

So ``bench/run.py`` pins itself and its children to one vCPU and runs this
file as a probe process on that same vCPU. The probe times ``unit()``, a
fixed piece of Python work like the program's own (JSON, string and dict
operations, about 1 ms), every ``PERIOD_S`` and appends ``(monotonic time,
seconds)`` records to a file. A command's time at the reference speed is its
wall time times the mean of ``REFERENCE_UNIT_S / seconds`` over the probe
records taken while it ran: the time it would have taken on a vCPU where
``unit()`` takes ``REFERENCE_UNIT_S``, about the fast speed of the
reference machine. The probe takes about 4% of the vCPU in a fast period and
about 6% in a slow one.

Usage: python3 bench/speed.py OUT_PATH   (runs until killed)
"""

from __future__ import annotations

import json
import os
import struct
import sys
import time

PERIOD_S = 0.025
REFERENCE_UNIT_S = 0.001
RECORD = struct.Struct("dd")

_ROW = {
    "id": "r-0001",
    "problem": "Solve for x: 3x + 7 = 22",
    "reasoning": " ".join(f"step{i} word" for i in range(40)),
    "ratings": ["easy", "medium", None],
    "gap": 0.5,
}


def unit() -> int:
    """A fixed piece of Python work, about 1 ms on the reference machine."""
    n = 0
    for _ in range(40):
        row = json.loads(json.dumps(_ROW))
        words = row["reasoning"].split()
        n += len(" ".join(w.upper() for w in words if "1" not in w))
        index = {w: k for k, w in enumerate(words)}
        n += sum(index.values()) % 7
    return n


class SpeedLog:
    """Reads the probe's records and rescales intervals of monotonic time."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.records: list[tuple[float, float]] = []
        self._offset = 0

    def _refresh(self) -> None:
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        whole = len(data) - len(data) % RECORD.size
        self.records.extend(RECORD.iter_unpack(data[:whole]))
        self._offset += whole

    def ready(self) -> bool:
        self._refresh()
        return bool(self.records)

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_UNIT_S / probe seconds over [start, end]; the
        latest record before ``end`` if none falls inside."""
        self._refresh()
        inside = [seconds for stamp, seconds in self.records if start <= stamp <= end]
        if not inside:
            inside = [seconds for stamp, seconds in self.records if stamp <= end][-1:]
        if not inside:
            raise RuntimeError("the speed probe has no record before this interval")
        return sum(REFERENCE_UNIT_S / seconds for seconds in inside) / len(inside)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    fd = os.open(argv[0], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        while True:
            started = time.monotonic()
            unit()
            now = time.monotonic()
            os.write(fd, RECORD.pack(now, now - started))
            time.sleep(PERIOD_S)
    finally:
        os.close(fd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
