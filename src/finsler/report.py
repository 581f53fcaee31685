"""Structured verification records shared by the checking operations."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import SAMPLE_ERRORS, NonFiniteSampleError


def _clean(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    import numpy as np

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


@dataclass
class VerificationReport:
    """Result of checking one inequality/identity over a sample plan."""

    name: str
    passed: bool
    tolerance: float
    stats: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def to_dict(self):
        return _clean({
            "name": self.name,
            "passed": bool(self.passed),
            "tolerance": self.tolerance,
            "stats": self.stats,
            "samples": self.samples,
            "errors": self.errors,
        })

    def __str__(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name} (tol={self.tolerance:g}) {self.stats}"


def require_finite(value):
    """``value``, a real number or a tuple of them; a NaN or infinite entry
    raises ``NonFiniteSampleError``, which fails the sample it belongs to."""
    entries = value if isinstance(value, tuple) else (value,)
    if not all(map(math.isfinite, entries)):
        raise NonFiniteSampleError(f"sample value {value} is not finite")
    return value


def evaluate_samples(fn, points, dirs):
    """``fn(z, v)`` at every point x direction, in plan order, as ``(rows,
    failures)``: ``(iz, iv, value)`` per evaluated sample, ``(iz, iv, exception)``
    per failed one. A sample fails when ``fn`` raises one of ``SAMPLE_ERRORS``,
    or when its value is not finite (``require_finite``). Any other exception
    propagates.
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
    return rows, failures


def failure_reasons(failures) -> dict:
    """Failed samples ``(iz, iv, exception)`` tallied by error type name."""
    return dict(Counter(type(exc).__name__ for _, _, exc in failures))


def sample_counts(ok: int, reasons: dict) -> dict:
    """Attempted/ok/failed counts of a sample loop, failures tallied by error type."""
    failed = sum(reasons.values())
    return {"attempted": ok + failed, "ok": ok, "failed": failed,
            "failure_reasons": dict(reasons)}


def canonical_json(payload) -> str:
    """Deterministic serialization used for byte-exact replay comparison."""
    return json.dumps(_clean(payload), sort_keys=True, separators=(",", ":"))
