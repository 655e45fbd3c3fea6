"""Host speed probe: fixed pure-Python work timed between engine calls.

On a shared host the speed of pure-Python code drifts by tens of percent
over seconds to minutes, for the program and for any other interpreter work
alike.  Timing a fixed piece of such work next to the engine calls measures
the host's momentary speed; scaling each wall time by ``REFERENCE_S`` over
the probe time around it gives the time the call would take on a host that
runs the probe in ``REFERENCE_S``.  The probe does not touch the program, so
a change to the program moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.002  # probe time on the reference host (a 2-vCPU Linux VM at its fastest)
INTERVAL_S = 0.5  # host phases mostly last seconds; probing twice a second follows them


@dataclass(frozen=True)
class _Node:
    value: int
    rest: object


def _work() -> int:
    """Interpreter work shaped like the program's: frozen dataclass nodes,
    isinstance dispatch, tuple hashing and dict updates."""
    chain = None
    for i in range(200):
        chain = _Node(i, chain)
    counts: dict[int, int] = {}
    total = 0
    for _ in range(15):
        node = chain
        while node is not None:
            if isinstance(node, _Node):
                total += hash((node.value, 1))
                counts[node.value] = counts.get(node.value, 0) + 1
            node = node.rest
    return total + len(counts)


def probe_seconds() -> float:
    """Fastest of three timings of two rounds of the fixed work; the
    minimum drops interrupts that land inside one timing."""
    best = float("inf")
    for _ in range(3):
        begin = perf_counter()
        for _ in range(2):
            _work()
        best = min(best, perf_counter() - begin)
    return best


class SpeedProbe:
    """Probes taken between calls, at most every ``interval_s``.

    Call ``before_call`` before each timed call and ``end`` after the last;
    ``scales()`` then gives each call ``REFERENCE_S`` over the mean of the
    two probes around it.  The host's speed can also flip within a second,
    so a few short calls (set-up) are best probed one by one
    (``interval_s=0``); across a long sweep the flips average out.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.marks: list[tuple[int, float]] = []  # (calls before the probe, probe seconds)
        self._interval_s = interval_s
        self._calls = 0
        self._last = float("-inf")

    def _mark(self) -> None:
        self.marks.append((self._calls, probe_seconds()))
        self._last = perf_counter()

    def before_call(self, *_) -> None:
        if perf_counter() - self._last >= self._interval_s:
            self._mark()
        self._calls += 1

    def end(self) -> None:
        self._mark()

    def scales(self) -> list[float]:
        scales: list[float] = []
        for (first, before), (last, after) in zip(self.marks, self.marks[1:]):
            scales.extend([2.0 * REFERENCE_S / (before + after)] * (last - first))
        return scales
