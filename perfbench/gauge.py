"""The machine's speed, from a fixed reference kernel timed between operations.

Shared machines change speed by up to a factor of two over seconds to
minutes (other tenants, frequency scaling), which moves every wall time with
it.  A `Gauge` times REFERENCE_KERNEL for SAMPLE_S before an operation when
EVERY_S have passed since its last sample, and scales an operation's wall
time by REFERENCE_S over the mean kernel time of the samples just before
and just after it.  The kernel does not use the package, so a change to the
package moves the scaled times as it moves the wall times.  REFERENCE_S is
the kernel's median time on the machine the benchmark was written on
(2 vCPU x86-64, Python 3.11), so there scaled and wall times agree when the
machine runs at its usual speed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import docs

REFERENCE_S = 4.3e-4
SAMPLE_S = 0.02
EVERY_S = 0.2


@dataclass(frozen=True)
class _Pair:
    index: int
    weight: Fraction


def reference_kernel() -> None:
    """Fraction arithmetic, frozen dataclasses, dicts and bit-mask recursion,
    the mix the package's hot paths are made of."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 40):
        pair = _Pair(i, Fraction(i % 5, i % 3 + 1))
        acc = acc + pair.weight * Fraction(1, 2)
        seen[pair.index & 15] = acc
    docs.count_upsets([0b11111, 0b11110, 0b11100, 0b11000, 0b10000])
    docs.upsets([1, 2, 4, 8, 16])


class Gauge:
    def __init__(self):
        self.samples: list[float] = []  # seconds per kernel call
        self._last = float("-inf")

    def sample(self) -> None:
        calls = 0
        start = time.perf_counter()
        while True:
            reference_kernel()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SAMPLE_S:
                break
        self.samples.append(elapsed / calls)
        self._last = time.perf_counter()

    def before(self) -> int:
        """Call just before an operation; the index to pass to `scale`."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def scale(self, index: int, seconds: float) -> float:
        """Wall seconds of an operation started at `index`, at reference speed.

        Call after a sample has been taken behind the operation.
        """
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return seconds * 2 * REFERENCE_S / (self.samples[index] + after)

    def slowdown(self) -> float:
        """The median sample over REFERENCE_S: above 1 means a slow machine."""
        return statistics.median(self.samples) / REFERENCE_S
