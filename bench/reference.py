"""The reference loop: a fixed unit of work that calls no ``finsler`` code.

Every timing the benchmark reports is divided by the duration of this loop,
measured immediately before and after the operation it belongs to. The loop
imitates the shape of the engine's inner work without sharing any of its
code: small objects holding truncated Taylor coefficients are multiplied
through a gather and a ``bincount`` scatter (order 2 and order 4 over 4
variables, the sizes of the disk's spray and curvature jets), derivatives
are read out through a tuple-keyed index and factorial scales, and a 2x2
system is solved. A slow phase of the machine stretches this loop and the
program alike, while a faster program takes fewer reference units.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np


def _monomials(nvars, order):
    out = [(0,) * nvars]
    frontier = [(0,) * nvars]
    for _ in range(order):
        nxt = sorted({m[:i] + (m[i] + 1,) + m[i + 1:]
                      for m in frontier for i in range(nvars)})
        out.extend(nxt)
        frontier = nxt
    return out


class _Space:
    def __init__(self, nvars, order):
        self.monomials = _monomials(nvars, order)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.n = len(self.monomials)
        ia, ib, iout = [], [], []
        for p, mp in enumerate(self.monomials):
            for q, mq in enumerate(self.monomials):
                if sum(mp) + sum(mq) <= order:
                    ia.append(p)
                    ib.append(q)
                    iout.append(self.index[tuple(a + b for a, b in zip(mp, mq))])
        self.table = (np.array(ia), np.array(ib), np.array(iout))


class _Series:
    __slots__ = ("space", "c")

    def __init__(self, space, c):
        self.space = space
        self.c = c

    def __mul__(self, other):
        ia, ib, iout = self.space.table
        return _Series(self.space, np.bincount(iout, weights=self.c[ia] * other.c[ib],
                                               minlength=self.space.n))

    def __add__(self, other):
        return _Series(self.space, self.c + other.c)

    def read(self, expo):
        scale = 1.0
        for e in expo:
            scale *= math.factorial(e)
        return float(self.c[self.space.index[expo]]) * scale


_LOW = _Space(4, 2)
_HIGH = _Space(4, 4)
_SEEDS = {sp: [_Series(sp, np.linspace(0.1 * (k + 1), 1.0, sp.n) / sp.n) for k in range(4)]
          for sp in (_LOW, _HIGH)}
_READS = [e for e in _LOW.monomials if sum(e) == 2]
ROUNDS = 100
REPEATS = 4
# Duration of one reference loop on an uncontended core of the 2-core VM the
# benchmark was sized on; converts reference units back to nominal seconds.
NOMINAL_S = 0.004


def reference_loop(rounds=ROUNDS) -> float:
    """Run the fixed loop once; returns a checksum so the work is consumed."""
    acc = 0.0
    for r in range(rounds):
        x, y, u, v = _SEEDS[_LOW]
        g = (x * x + y * y) * (u * u + v * v) + x * u
        for _ in range(3):
            g = g * g + x
        m = np.empty((2, 2))
        m[0, 0] = g.read(_READS[0])
        m[0, 1] = m[1, 0] = g.read(_READS[1])
        m[1, 1] = g.read(_READS[4]) + 4.0
        rhs = np.array([sum(g.read(e) for e in _READS[:5]), g.read(_READS[-1])])
        acc += float(np.linalg.solve(m, rhs)[0])
        if r % 4 == 0:
            a, b, _, _ = _SEEDS[_HIGH]
            h = a * b + a
            acc += float((h * h).c[-1])
    return acc


class ReferenceClock:
    """Reference samples interleaved with the operations of a pass.

    :meth:`mark` runs the loop ``repeats`` times and records the mean
    duration of one loop, the reference unit, as the next sample. Once the
    pass is over, an operation marked with index ``i`` is normalised by
    :meth:`around`: half the mean of samples ``i`` and ``i + 1``, the ones
    taken immediately before and after it, plus half the mean of all the
    pass's samples. The local half follows the machine's speed phases; the
    pass half damps the noise of two short samples. On ten-run sets this
    blend gave smaller run-to-run spreads than either half alone.
    """

    def __init__(self, repeats=REPEATS):
        self.repeats = repeats
        self.samples = []

    def mark(self) -> int:
        t0 = time.perf_counter()
        for _ in range(self.repeats):
            reference_loop()
        self.samples.append((time.perf_counter() - t0) / self.repeats)
        return len(self.samples) - 1

    def around(self, index) -> float:
        local = 0.5 * (self.samples[index] + self.samples[index + 1])
        return 0.5 * (local + statistics.fmean(self.samples))
