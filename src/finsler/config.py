"""Run configuration: loading, defaults, and effective-config echoing.

Configs are YAML documents (JSON is a YAML subset and loads unchanged). The
seed is mandatory so that identical configs give byte-identical reports; all
defaults are merged into the effective config and echoed into every report.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigurationError
from .geometry import SamplePlan

DEFAULT_PLAN = {
    "n_points": 10,
    "n_dirs": 5,
    "radial_range": [0.1, 0.7],
}

DEFAULTS = {
    "outputs": {"directory": "finsler_out", "formats": ["json", "csv"]},
    "plans": {"default": DEFAULT_PLAN},
    "metrics": [],
    "maps": [],
    "pairs": [],
    "tolerance": 1e-6,
}


@dataclass
class RunConfig:
    """Validated, fully defaulted run configuration."""

    seed: int
    metrics: list
    maps: list
    pairs: list                   # (map_id, domain_id, target_id) triples for schwarz
    plans: dict
    outputs: dict
    tolerance: float

    def plan(self, **overrides) -> SamplePlan:
        """The default plan with ``overrides`` applied."""
        base = dict(DEFAULT_PLAN)
        base.update(self.plans.get("default", {}))
        base.update(overrides)
        return SamplePlan(seed=self.seed, n_points=int(base["n_points"]),
                          n_dirs=int(base["n_dirs"]),
                          radial_range=tuple(base["radial_range"]))

    def effective(self) -> dict:
        return {
            "seed": self.seed,
            "metrics": self.metrics,
            "maps": self.maps,
            "pairs": self.pairs,
            "plans": {"default": DEFAULT_PLAN, **self.plans},
            "outputs": self.outputs,
            "tolerance": self.tolerance,
        }


def _merge_defaults(doc: dict) -> dict:
    return {**DEFAULTS, **doc, "outputs": {**DEFAULTS["outputs"], **doc.get("outputs", {})}}


def _validate_plan(name, plan):
    if not isinstance(plan, dict):
        raise ConfigurationError(f"plan {name!r} must be a mapping")
    merged = {**DEFAULT_PLAN, **plan}
    for key in ("n_points", "n_dirs"):
        value = merged[key]
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ConfigurationError(
                f"plan {name!r}: {key} must be an integer >= 1, got {value!r}")
    rr = merged["radial_range"]
    if (not isinstance(rr, (list, tuple)) or len(rr) != 2
            or not all(isinstance(r, numbers.Real) and not isinstance(r, bool)
                       for r in rr)
            or not 0 <= rr[0] < rr[1]):
        raise ConfigurationError(
            f"plan {name!r}: radial_range must be two numbers 0 <= lo < hi, got {rr!r}")


def check_tolerance(value) -> float:
    """``value`` as a float; raises ``ConfigurationError`` unless it is finite and >= 0."""
    try:
        tolerance = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"tolerance must be a number, got {value!r}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ConfigurationError(f"tolerance must be finite and >= 0, got {value!r}")
    return tolerance


def parse_config(doc: dict) -> RunConfig:
    # a misspelt key would otherwise leave its section at the default, silently
    unknown = sorted(set(doc) - {"seed", *DEFAULTS}, key=str)
    outputs = doc.get("outputs", {})
    if isinstance(outputs, dict):
        unknown += [f"outputs.{key}" for key in
                    sorted(set(outputs) - set(DEFAULTS["outputs"]), key=str)]
    if unknown:
        raise ConfigurationError(f"unknown config key(s) {unknown}")
    for key, kind in (("outputs", dict), ("plans", dict), ("metrics", list),
                      ("maps", list), ("pairs", list)):
        if not isinstance(doc.get(key, kind()), kind):
            shape = "mapping" if kind is dict else "list"
            raise ConfigurationError(f"{key} must be a {shape}, got {doc[key]!r}")
    doc = _merge_defaults(doc)
    if "seed" not in doc:
        raise ConfigurationError("config must declare a seed")
    seed = doc["seed"]
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigurationError(f"seed must be an integer >= 0, got {seed!r}")
    tolerance = check_tolerance(doc["tolerance"])
    directory = doc["outputs"]["directory"]
    if not isinstance(directory, str):
        raise ConfigurationError(f"outputs.directory must be a string, got {directory!r}")
    # commands write report.json and, where they have tables, CSV; nothing else is implemented
    if doc["outputs"]["formats"] != DEFAULTS["outputs"]["formats"]:
        raise ConfigurationError(f"outputs.formats must be {DEFAULTS['outputs']['formats']}, "
                                 f"got {doc['outputs']['formats']!r}")
    for spec in doc["metrics"]:
        if not isinstance(spec, dict) or "family" not in spec:
            raise ConfigurationError(f"metric spec without family: {spec!r}")
    for spec in doc["maps"]:
        if not isinstance(spec, dict):
            raise ConfigurationError(f"map spec must be a mapping, got {spec!r}")
    # reports land in <out>/<command>/<id>, so an id is one path component
    for kind in ("metric", "map"):
        for mid in (spec["id"] for spec in doc[f"{kind}s"] if "id" in spec):
            if not isinstance(mid, str) or mid in ("", ".", "..") or "/" in mid or "\0" in mid:
                raise ConfigurationError(f"{kind} id must be a non-empty name without '/', "
                                         f"not '.' or '..', got {mid!r}")
    for name, plan in doc["plans"].items():
        if name != "default":
            raise ConfigurationError(
                f"plan {name!r} is not read: commands read only plan 'default'")
        _validate_plan(name, plan)
    return RunConfig(
        seed=seed,
        metrics=doc["metrics"],
        maps=doc["maps"],
        pairs=doc["pairs"],
        plans=doc["plans"],
        outputs=doc["outputs"],
        tolerance=tolerance)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    try:
        if path.suffix == ".json":
            doc = json.loads(text)
        else:
            doc = yaml.safe_load(text)
    except Exception as exc:
        raise ConfigurationError(f"cannot parse config {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a mapping")
    return parse_config(doc)

