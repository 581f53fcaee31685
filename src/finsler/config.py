"""Run configuration: the key table, loading, defaults, and effective-config echoing.

Configs are YAML documents (JSON is a YAML subset and loads unchanged), checked
against ``CONFIG_KEYS`` before any command runs. The seed is mandatory so that
identical configs give byte-identical reports; all defaults are merged into the
effective config and echoed into every report.
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
from .kahler import CLASS_ORDER

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


def _is_count(value, least) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= least


def _leaf(what, test):
    """A table leaf whose value must pass ``test``, described as ``what`` when refused."""
    def check(value, path):
        if not test(value):
            raise ConfigurationError(f"{path} must be {what}, got {value!r}")
    return check


_STRING = _leaf("a string", lambda v: isinstance(v, str))
_BOOL = _leaf("true or false", lambda v: isinstance(v, bool))
# reports land in <out>/<command>/<id>, so an id is one path component
_NAME = _leaf("a non-empty name without '/', not '.' or '..'", lambda v: isinstance(v, str)
              and v not in ("", ".", "..") and not {"/", "\0"} & set(v))
_CATALOG = dict.fromkeys(["catalog", "scale"])
# Hermitian params per catalog entry, the builder's default "euclidean" when absent
_HERMITIAN = (lambda params: params.get("catalog", "euclidean"), {
    **dict.fromkeys(["euclidean", "poincare_disk", "poincare_ball", "product_disks",
                     "nonkahler"], _CATALOG),
    "constant": {**_CATALOG, "matrix": None}})
_FACTOR = {"complex_dim": None, "id": None, "params": _HERMITIAN}
_CLASSES = [*CLASS_ORDER, "unknown"]

# Every key a config may hold, and the only check of its shape. A dict lists a
# mapping's keys, [item] is a list of items, a function checks a leaf value,
# None is a leaf the builders check, and (pick, tables) picks the table of a
# mapping: by the value of the key ``pick`` beside it, or, when ``pick`` is a
# function, by ``pick(mapping)``. A key in _REQUIRED must be present in every
# mapping whose table lists it.
CONFIG_KEYS = {
    "seed": _leaf("an integer >= 0", lambda v: _is_count(v, 0)),
    "tolerance": None,
    "outputs": {"directory": _STRING,
                "formats": _leaf(DEFAULTS["outputs"]["formats"],
                                 lambda v: v == DEFAULTS["outputs"]["formats"])},
    "plans": {"default": dict.fromkeys(DEFAULT_PLAN)},
    "metrics": [{
        "family": None, "complex_dim": None, "id": _NAME,
        "params": ("family", {
            "hermitian": _HERMITIAN,
            "minkowski": dict.fromkeys(["k", "eps", "base", "factors"]),
            # the builder reads factor1 and factor2 only without factors
            "szabo": (lambda params: "factors" if "factors" in params else "pair", {
                "factors": dict.fromkeys(["k", "eps", "factors"]),
                "pair": {"k": None, "eps": None, "factor1": _FACTOR, "factor2": _FACTOR}}),
            "un_invariant": {"profile": (lambda profile: profile.get("form", "gradient"), {
                "gradient": dict.fromkeys(["form", "f", "c"]),
                "free": dict.fromkeys(["form", "expr"])})},
        }),
        "expect": {"kahler_class": _leaf(f"one of {_CLASSES}", lambda v: v in _CLASSES),
                   "weakly_kahler_pde": _BOOL},
    }],
    "maps": [{"map": None, "id": _NAME, "params": ("map", {
        "identity": {"n": None}, "power": {"m": None}, "mobius": {"a": None},
        "linear": {"matrix": None}, "constant": {"value": None, "n_in": None},
    })}],
    "pairs": [{"map": _STRING, "domain": _STRING, "target": _STRING, "expect_pass": _BOOL}],
}
_REQUIRED = ("seed", "family", "map", "domain", "target")


def _walk(value, shape, path="", parent=None):
    """Check ``value`` against its ``shape`` in ``CONFIG_KEYS``; ``path`` is its dotted name."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{path} must be a mapping, got {value!r}")
        for key in _REQUIRED:
            if key in shape and key not in value:
                raise ConfigurationError(f"{path or 'config'} must declare {key}")
        for key, item in value.items():
            here = f"{path}.{key}" if path else str(key)
            if key not in shape:
                raise ConfigurationError(
                    f"plan {key!r} is not read: commands read only plan 'default'"
                    if path == "plans" else f"unknown config key {here}")
            _walk(item, shape[key], here, value)
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise ConfigurationError(f"{path} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _walk(item, shape[0], f"{path}[{i}]")
    elif isinstance(shape, tuple):
        pick, tables = shape
        if callable(pick):
            if not isinstance(value, dict):
                raise ConfigurationError(f"{path} must be a mapping, got {value!r}")
            kind = pick(value)
        else:
            kind = parent.get(pick)
        # an unknown family, map kind, catalog entry or form is the builders' error
        if isinstance(kind, str) and kind in tables:
            _walk(value, tables[kind], path)
    elif shape is not None:
        shape(value, path)


def _validate_plan(plan):
    merged = {**DEFAULT_PLAN, **plan}
    for key in ("n_points", "n_dirs"):
        value = merged[key]
        if not _is_count(value, 1):
            raise ConfigurationError(
                f"plan 'default': {key} must be an integer >= 1, got {value!r}")
    rr = merged["radial_range"]
    if (not isinstance(rr, (list, tuple)) or len(rr) != 2
            or not all(isinstance(r, numbers.Real) and not isinstance(r, bool)
                       for r in rr)
            or not 0 <= rr[0] < rr[1] < math.inf):
        raise ConfigurationError(
            f"plan 'default': radial_range must be two finite numbers 0 <= lo < hi, got {rr!r}")


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
    _walk(doc, CONFIG_KEYS)
    doc = _merge_defaults(doc)
    tolerance = check_tolerance(doc["tolerance"])
    _validate_plan(doc["plans"].get("default", {}))
    return RunConfig(
        seed=doc["seed"],
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

