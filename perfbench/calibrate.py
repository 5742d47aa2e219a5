"""Host-speed calibration: a fixed stdlib kernel timed between items.

The shared host runs everything, CPU time included, up to about twice as
slow in phases that last from seconds to many minutes.  Two passes over
the same code then differ by more than any useful bound.  So the pass
times this kernel between items, about every ``TICK_EVERY_S`` of item
time, and divides each item's time by the host's slowdown around it: the
median kernel time over the ``WINDOW`` runs before and after the item,
over ``REFERENCE_S``.  Times are then CPU seconds on a host that runs the
kernel in ``REFERENCE_S``.

The kernel is the benchmark's own code and never calls the package, so a
change to the package moves the item times and not the yardstick.  It
mixes the two kinds of work the package does: integer row elimination on
lists of lists (as in dense Smith normal form) and dict, set and tuple
traffic (as in graph construction and certificates).

This module imports only ``time``, so a set-up probe can load it before
it times ``import tensorgraphs`` without pre-loading anything the package
imports.
"""

import time

REFERENCE_S = 0.0025  # the kernel's CPU time on the 2-core reference host
TICK_EVERY_S = 0.02
WINDOW = 3


def kernel() -> int:
    """About 2.5 ms of fixed pure-Python work; returns a checksum."""
    n = 40
    m = [[((i * 7 + j * 13) % 5) - 2 for j in range(n)] for i in range(n)]
    for p in range(n):
        piv = next((r for r in range(p, n) if m[r][p]), None)
        if piv is None:
            continue
        m[p], m[piv] = m[piv], m[p]
        row = m[p]
        a = row[p]
        for r in range(p + 1, n):
            f = m[r][p]
            if f:
                m[r] = [(x * a - y * f) % 7 for x, y in zip(m[r], row)]
    adj = {}
    for i in range(600):
        adj[("v", i)] = [("v", (i * k + 1) % 600) for k in (3, 5, 7)]
    seen = {("v", 0)}
    stack = [("v", 0)]
    code = []
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
                code.append((v[1], w[1]))
    code.sort()
    return len(code) + sum(map(sum, m))


def time_kernel() -> float:
    """CPU seconds of one kernel run."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


class Speed:
    """Kernel runs interleaved with items, and the slowdown around each."""

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.since = 0.0
        self._slowdown: dict[int, float] = {}

    def tick(self) -> None:
        self.ticks.append(time_kernel())
        self.since = 0.0

    def after_item(self, elapsed: float) -> None:
        self.since += elapsed
        if self.since >= TICK_EVERY_S:
            self.tick()

    def position(self) -> int:
        """Where an item timed now sits among the ticks."""
        return len(self.ticks)

    def slowdown(self, at: int) -> float:
        """The host's slowdown around position `at`: 1 at reference speed."""
        if at not in self._slowdown:
            window = self.ticks[max(0, at - WINDOW) : at + WINDOW]
            self._slowdown[at] = median(window) / REFERENCE_S
        return self._slowdown[at]
