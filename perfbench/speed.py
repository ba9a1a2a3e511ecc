"""Machine-speed probe used to normalise the benchmark's timings.

The benchmark runs on shared machines, where the same pure-Python work can
take twice as long from one second to the next.  Raw times of one script
measured a minute apart then differ by more than any change worth
detecting.  So every timed piece of work sits between two runs of a fixed
probe, a pure-Python tree build and walk that exercises what the checker
spends its time on (calls, small-object allocation, attribute and dict
access), and its time is reported as

    raw * REFERENCE_S / mean(probe before, probe after)

that is, the time it would take on a machine where the probe takes
REFERENCE_S.  The probe is part of the benchmark, not of the program, so a
change to the program cannot move it.  Raw times and probe times are
printed next to the normalised ones.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.005   # nominal probe time; normalised times are "at this speed"


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left: _Node | None, right: _Node | None, value: int):
        self.left, self.right, self.value = left, right, value


def _build(depth: int, value: int) -> _Node | None:
    if depth == 0:
        return None
    return _Node(_build(depth - 1, 2 * value), _build(depth - 1, 2 * value + 1), value)


def _walk(node: _Node | None, counts: dict[int, int]) -> dict[int, int]:
    if node is None:
        return counts
    counts[node.value % 17] = counts.get(node.value % 17, 0) + 1
    return _walk(node.right, _walk(node.left, counts))


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    start = time.perf_counter()
    for _ in range(3):
        _walk(_build(11, 1), {})
    return time.perf_counter() - start


def scale(raw_s: float, before_s: float, after_s: float) -> float:
    """`raw_s` converted to the reference speed, from the probes around it."""
    return raw_s * REFERENCE_S * 2 / (before_s + after_s)
