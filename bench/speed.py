"""The machine-speed reference that the benchmark's timings are scaled by.

On a shared host the same pure-Python loop can run 1.7 times slower for
tens of seconds at a time, in CPU time as well as in wall time, because
other tenants load the core.  Best-of-several samples cannot take that out
when the slow spell outlasts a run.  So the benchmark times a fixed
reference unit, code of its own that never calls the library, between
chunks of about ``CHUNK_S`` of library calls, and scales each call's time by
``REFERENCE_S`` over the reference time measured around it.  A reported
time is therefore the call's time on a machine where the reference unit
takes ``REFERENCE_S``: a change to the library moves it, a change of the
machine's speed mostly does not.  The run also prints the unscaled figures.
"""

from __future__ import annotations

import gc
from random import Random
from time import perf_counter

# The reference unit's time, in seconds, that scaled times are expressed
# at: about its median on the 2-vCPU Xeon VM where the benchmark was
# defined.
REFERENCE_S = 2.0e-3
# Library time between two reference measurements.
CHUNK_S = 0.1

_SIZE = 400
_rng = Random(20110627)
_P = list(range(_SIZE))
_Q = list(range(_SIZE))
_rng.shuffle(_P)
_rng.shuffle(_Q)
_HALF = _SIZE // 2
_TOKENS = [f"v{i + 1}" if i < _HALF else f"w{i - _HALF + 1}" for i in _P]
_TEXT = "".join(
    "(" + " ".join(_TOKENS[k : k + 8]) + ")" for k in range(0, _SIZE, 8)
)


class _Node:
    __slots__ = ("key", "group")

    def __init__(self, key: int, group: int) -> None:
        self.key = key
        self.group = group


def reference_unit() -> int:
    """A mix of the interpreter work the library does, about two
    milliseconds: compose permutations and walk their cycles, parse and
    print cycle text, and build, group and sort small objects.  The mix
    matters: a slowed core slows these kinds of work by different factors,
    and the closer the mix is to the library's, the better the scaling."""
    total = 0
    p, q = _P, _Q
    for _ in range(5):
        c = tuple(p[q[i]] for i in range(_SIZE))
        mark = [False] * _SIZE
        for s in range(_SIZE):
            if not mark[s]:
                x = s
                while not mark[x]:
                    mark[x] = True
                    x = c[x]
                total += 1
        p, q = q, list(c)
    for _ in range(3):
        cycles = [
            tuple(int(t[1:]) + (0 if t[0] == "v" else _HALF) for t in chunk.split())
            for chunk in _TEXT[1:-1].split(")(")
        ]
        text = "".join(
            "(" + " ".join(f"v{x}" if x <= _HALF else f"w{x - _HALF}" for x in c) + ")"
            for c in cycles
        )
        total += len(text)
    nodes = [_Node(i, i * 7 % 13) for i in range(600)]
    groups: dict[int, list[int]] = {}
    for node in nodes:
        groups.setdefault(node.group, []).append(node.key)
    total += sum(len(keys) for keys in groups.values())
    total += len(sorted(nodes, key=lambda node: (node.group, -node.key)))
    return total


def reference_seconds() -> float:
    """The reference unit's time now: the best of two runs.  The garbage
    collector is paused meanwhile; the unit frees all it allocates, so the
    library's collections come at the same points whatever the timing."""
    paused = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            reference_unit()
            best = min(best, perf_counter() - start)
    finally:
        if paused:
            gc.enable()
    return best


class SpeedScale:
    """Scales timed work to the reference speed, chunk by chunk.

    ``add(key, elapsed)`` records one timed call; once the chunk holds at
    least ``CHUNK_S`` of work, and at ``flush()``, the reference is measured
    again and the chunk's ``(key, scaled seconds)`` pairs are returned,
    each scaled by the mean of the reference times before and after it.
    """

    def __init__(self) -> None:
        self._before = reference_seconds()
        self._pending: list[tuple[object, float]] = []
        self._pending_s = 0.0
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def add(self, key, elapsed: float) -> list[tuple[object, float]]:
        self._pending.append((key, elapsed))
        self._pending_s += elapsed
        return self.flush() if self._pending_s >= CHUNK_S else []

    def flush(self) -> list[tuple[object, float]]:
        if not self._pending:
            return []
        after = reference_seconds()
        factor = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        scaled = [(key, elapsed * factor) for key, elapsed in self._pending]
        self.raw_s += self._pending_s
        self.scaled_s += self._pending_s * factor
        self._pending, self._pending_s = [], 0.0
        return scaled
