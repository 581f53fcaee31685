"""Structured verification records shared by the checking operations."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


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


def sample_counts(ok: int, failure_reasons: dict) -> dict:
    """Attempted/ok/failed counts of a sample loop, failures tallied by error type."""
    failed = sum(failure_reasons.values())
    return {"attempted": ok + failed, "ok": ok, "failed": failed,
            "failure_reasons": dict(failure_reasons)}


def canonical_json(payload) -> str:
    """Deterministic serialization used for byte-exact replay comparison."""
    return json.dumps(_clean(payload), sort_keys=True, separators=(",", ":"))
