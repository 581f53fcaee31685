"""Structured verification records shared by the checking operations."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import SAMPLE_ERRORS, NonFiniteSampleError


def _clean(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def record(obj, *omit) -> dict:
    """The dataclass fields of ``obj`` but those named in ``omit``, ready for JSON."""
    return _clean({f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in omit})


@dataclass
class VerificationReport:
    """Result of checking one inequality/identity over a sample plan."""

    name: str
    passed: bool
    tolerance: float
    stats: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    # the rows of the sample grid and whether one stacked call evaluated
    # them (``SampleGrid.grid``), kept out of the payload
    grid: dict = field(default_factory=dict)

    def to_dict(self):
        return record(self, "grid")


@dataclass
class SampleGrid:
    """What one sample loop attempted, in plan order: ``rows`` holds ``(iz, iv,
    value)`` per evaluated sample, ``failures`` ``(iz, iv, exception)`` per
    failed one, and ``stacked`` says whether one stacked call evaluated them."""

    rows: list
    failures: list
    stacked: bool = False

    @property
    def failure_reasons(self) -> dict:
        """Failed samples tallied by error type name."""
        return dict(Counter(type(exc).__name__ for _, _, exc in self.failures))

    @property
    def counts(self) -> dict:
        """Attempted/ok/failed counts, failures tallied by error type."""
        ok, failed = len(self.rows), len(self.failures)
        return {"attempted": ok + failed, "ok": ok, "failed": failed,
                "failure_reasons": self.failure_reasons}

    @property
    def grid(self) -> dict:
        """Rows of the grid and whether one stacked call evaluated them."""
        return {"rows": len(self.rows) + len(self.failures), "stacked": self.stacked}


def require_finite(value):
    """``value``, a real number or a tuple of them; a NaN or infinite entry
    raises ``NonFiniteSampleError``, which fails the sample it belongs to."""
    entries = value if isinstance(value, tuple) else (value,)
    if not all(map(math.isfinite, entries)):
        raise NonFiniteSampleError(f"sample value {value} is not finite")
    return value


def evaluate_samples(fn, points, dirs) -> SampleGrid:
    """``fn(z, v)`` at every point x direction, one sample at a time. A sample
    fails when ``fn`` raises one of ``SAMPLE_ERRORS``, or when its value is not
    finite (``require_finite``). Any other exception propagates.
    """
    rows, failures = [], []
    for iz, z in enumerate(points):
        for iv, v in enumerate(dirs):
            try:
                value = require_finite(fn(z, v))
            except SAMPLE_ERRORS as exc:
                failures.append((iz, iv, exc))
            else:
                rows.append((iz, iv, value))
    return SampleGrid(rows, failures)


def evaluate_stacked(fn, points, dirs) -> SampleGrid:
    """``evaluate_samples(fn, points, dirs)`` from one stacked call.

    ``fn`` takes the grid as rows Z, V of shape (B, n), every point x direction
    in plan order, and returns B values or B rows of values, each what ``fn``
    gives at its one point. If that call raises one of ``SAMPLE_ERRORS`` or
    yields a value that is not finite, the grid runs again point by point
    through ``evaluate_samples``, which attributes each failure to its sample,
    and ``stacked`` is false. Any other exception propagates. Values are
    Python floats, a row of several a tuple of them.
    """
    def plain(value):
        value = np.asarray(value, dtype=float).tolist()
        return tuple(value) if isinstance(value, list) else value

    if not (len(points) and len(dirs)):
        return SampleGrid([], [], True)
    Z = np.repeat(np.asarray(points), len(dirs), axis=0)
    V = np.tile(np.asarray(dirs), (len(points), 1))
    try:
        values = np.asarray(fn(Z, V), dtype=float)
        stacked = bool(np.isfinite(values).all())
    except SAMPLE_ERRORS:
        stacked = False
    if not stacked:
        return evaluate_samples(lambda z, v: plain(fn(z, v)), points, dirs)
    samples = ((iz, iv) for iz in range(len(points)) for iv in range(len(dirs)))
    return SampleGrid([(iz, iv, plain(value)) for (iz, iv), value in zip(samples, values)],
                      [], True)


def canonical_json(payload) -> str:
    """Deterministic serialization used for byte-exact replay comparison."""
    return json.dumps(_clean(payload), sort_keys=True, separators=(",", ":"))
