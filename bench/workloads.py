"""The three workloads: seeded batches, their operations and correctness checks.

A workload builds its batch from the seed once, then runs it in whole passes.
Every pass builds fresh ``PoleDistance``/``LeviField`` objects (or, for
``certify``, rewrites every report), so the cost of an operation never
depends on earlier passes. Each operation is timed on its own and its result
is checked against a closed form or a property the method must have; a
mismatch is returned as a message and fails the run. An operation that
raises counts as failed.

Inputs are a fixed pattern of points moved by a seeded isometry of the
metric (a rotation of the disk, a unitary map of C^2) plus a small seeded
radial jitter. The seed changes every coordinate the program sees while the
geometry of the batch, and so its cost, stays comparable between seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

DISK = {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "poincare_disk"}}
BALL2 = {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"}}
EUCLID1 = {"family": "hermitian", "complex_dim": 1, "params": {"catalog": "euclidean"}}
EUCLID2 = {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "euclidean"}}
MINKOWSKI = {"family": "minkowski", "complex_dim": 2, "params": {"k": 2, "eps": 1.0}}


@dataclass
class OpRecord:
    """One timed operation: its kind, latency, and what went wrong if anything."""

    kind: str
    ref_index: int                 # reference sample taken just before it
    start: float                   # perf_counter at the start
    seconds: float
    failed: str | None = None      # the operation raised
    mismatch: str | None = None    # the operation returned a wrong result


def timed(clock, kind, fn, check):
    """Mark the reference clock, run ``fn`` once and time it, then check its
    result outside the timing."""
    ref = clock.mark()
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception:
        return OpRecord(kind, ref, t0, time.perf_counter() - t0,
                        failed=traceback.format_exc(limit=3))
    dt = time.perf_counter() - t0
    try:
        mismatch = check(result)
    except Exception as exc:        # a malformed result is a wrong result
        mismatch = f"{kind}: checking the result raised {exc!r}"
    return OpRecord(kind, ref, t0, dt, mismatch=mismatch)


def _close(label, got, want, tol):
    if not abs(got - want) <= tol:
        return f"{label}: got {got!r}, want {want!r} within {tol:g}"
    return None


def _first(*messages):
    for m in messages:
        if m:
            return m
    return None


# -- seeded inputs ------------------------------------------------------------------


def _strata(rng, count, lo, hi, jitter=0.2):
    """``count`` radii, one per equal stratum of [lo, hi], jittered inside it."""
    width = (hi - lo) / count
    return [lo + width * (k + 0.5 + jitter * (rng.random() - 0.5)) for k in range(count)]


def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _realify(z):
    return np.concatenate([z.real, z.imag])


# Fixed direction pattern in C^2, moved by a seeded unitary per batch.
_PATTERN = np.random.default_rng(20240801)
_C2_DIRECTIONS = [d / np.linalg.norm(d) for d in
                  (_PATTERN.standard_normal(2) + 1j * _PATTERN.standard_normal(2)
                   for _ in range(16))]


def disk_points(rng, count, lo, hi):
    """Points of the unit disk as complex numbers at golden-angle spacing."""
    theta0 = rng.uniform(0.0, 2.0 * math.pi)
    radii = _strata(rng, count, lo, hi)
    return [r * complex(math.cos(theta0 + k * GOLDEN_ANGLE),
                        math.sin(theta0 + k * GOLDEN_ANGLE))
            for k, r in enumerate(radii)]


def c2_points(rng, count, lo, hi):
    """Points of C^2 (complex 2-vectors) from the fixed pattern under a seeded unitary."""
    U = _unitary(rng, 2)
    radii = _strata(rng, count, lo, hi)
    return [r * (U @ _C2_DIRECTIONS[k % len(_C2_DIRECTIONS)]) for k, r in enumerate(radii)]


def c2_tangent(z):
    """A real direction tangent to the sphere |z| = const at z in C^2: the
    realification of (-conj z1, conj z0), which is complex-orthogonal to z."""
    return _realify(np.array([-np.conj(z[1]), np.conj(z[0])]))


# -- distance -------------------------------------------------------------------------


class DistanceWorkload:
    """Cold distance queries: one ``PoleDistance.rho`` per operation."""

    name = "distance"
    nominal_pass_s = 4.0
    # C^2 queries are the majority so the median latency falls inside one
    # kind of operation whose members all cost the same.
    COUNTS = {"disk": 8, "c2": 18, "ball": 3}

    def __init__(self, seed, small=False):
        rng = np.random.default_rng([seed, 1])
        counts = {k: (1 if small else v) for k, v in self.COUNTS.items()}
        self.batch = {
            "disk": [np.array([z.real, z.imag]) for z in disk_points(rng, counts["disk"], 0.2, 0.7)],
            "c2": [_realify(z) for z in c2_points(rng, counts["c2"], 0.2, 0.7)],
            "ball": [_realify(z) for z in c2_points(rng, counts["ball"], 0.2, 0.7)],
        }

    def setup(self):
        from finsler.geodesic import PoleDistance
        from finsler.geometry import realify_metric
        from finsler.metrics import instantiate
        self.PoleDistance = PoleDistance
        self.metrics = {"disk": realify_metric(instantiate(DISK)),
                        "c2": realify_metric(instantiate(EUCLID2)),
                        "ball": realify_metric(instantiate(BALL2))}

    def warmup(self):
        m = self.metrics["disk"]
        self.PoleDistance(m, np.zeros(m.dim)).rho(self.batch["disk"][0])

    def run_pass(self, clock):
        out = []
        for kind, targets in self.batch.items():
            m = self.metrics[kind]
            pd = self.PoleDistance(m, np.zeros(m.dim))
            for q in targets:
                out.append(timed(clock, kind, lambda: pd.rho(q),
                                 lambda r: self.check(kind, m, q, r)))
        return out

    @staticmethod
    def check(kind, m, q, r):
        radius = float(np.linalg.norm(q))
        want = radius if kind == "c2" else math.atanh(radius)
        return _first(
            _close(f"rho on {kind} at {q}", r.value, want, 1e-6),
            _close(f"G(q, T) on {kind} at {q}", m.value(q, r.T), 1.0, 1e-6))


# -- levi -----------------------------------------------------------------------------


class LeviWorkload:
    """Distance Hessians (both routes) and Levi forms of rho^2, as criterion 05."""

    name = "levi"
    nominal_pass_s = 5.0
    # C^1 Levi samples are the majority so the median latency falls inside one
    # kind of operation whose members all cost the same.
    COUNTS = {"hessian_disk": 1, "hessian_c2": 1, "levi_disk": 1, "levi_c1": 8}

    def __init__(self, seed, small=False):
        rng = np.random.default_rng([seed, 2])
        counts = {k: (1 if small else v) for k, v in self.COUNTS.items()}
        self.hess_disk = [np.array([z.real, z.imag])
                          for z in disk_points(rng, counts["hessian_disk"], 0.25, 0.7)]
        self.hess_c2 = c2_points(rng, counts["hessian_c2"], 0.4, 0.9)
        self.levi_disk = [(np.array([z]), np.array([np.exp(1j * rng.uniform(0, 2 * math.pi))]))
                          for z in disk_points(rng, counts["levi_disk"], 0.2, 0.7)]
        self.levi_c1 = [(np.array([z]), np.array([np.exp(1j * rng.uniform(0, 2 * math.pi))]))
                        for z in disk_points(rng, counts["levi_c1"], 0.2, 0.9)]

    def setup(self):
        from finsler.geodesic import PoleDistance, hessian_rho
        from finsler.geometry import realify_metric
        from finsler.levi import LeviField
        from finsler.metrics import instantiate
        self.PoleDistance, self.hessian_rho, self.LeviField = PoleDistance, hessian_rho, LeviField
        self.disk = instantiate(DISK)
        self.c1 = instantiate(EUCLID1)
        self.disk_r = realify_metric(self.disk)
        self.c2_r = realify_metric(instantiate(EUCLID2))

    def warmup(self):
        z, v = self.levi_c1[0]
        self.LeviField(self.c1, np.zeros(1, complex), curvature_K=0.0).sample(z, v)

    def run_pass(self, clock):
        out = []
        lf_e = self.LeviField(self.c1, np.zeros(1, complex), curvature_K=0.0)
        for z, v in self.levi_c1:
            out.append(timed(clock, "levi_c1", lambda: lf_e.sample(z, v),
                             lambda s: self.check_levi("levi_c1", s, 1.0)))
        pd = self.PoleDistance(self.disk_r, np.zeros(2))
        for q in self.hess_disk:
            tang = np.array([-q[1], q[0]])
            out.append(timed(clock, "hessian_disk",
                             lambda: self.hessian_rho(self.disk_r, np.zeros(2), q, tang, pd=pd),
                             lambda h: self.check_hessian_disk(q, h)))
        lf_h = self.LeviField(self.disk, np.zeros(1, complex), curvature_K=2.0)
        for z, v in self.levi_disk:
            out.append(timed(clock, "levi_disk", lambda: lf_h.sample(z, v),
                             lambda s: self.check_levi("levi_disk", s,
                                                       0.5 + s.rho / math.tanh(2.0 * s.rho))))
        pd = self.PoleDistance(self.c2_r, np.zeros(4))
        for z in self.hess_c2:
            q, tang = _realify(z), c2_tangent(z)
            out.append(timed(clock, "hessian_c2",
                             lambda: self.hessian_rho(self.c2_r, np.zeros(4), q, tang, pd=pd),
                             lambda h: self.check_hessian_c2(q, h)))
        return out

    @staticmethod
    def _routes(label, h):
        if not h.discrepancy < 1e-4 * max(1.0, abs(h.value)):
            return f"{label}: routes disagree by {h.discrepancy!r} (H={h.value!r})"
        return None

    def check_hessian_disk(self, q, h):
        radius = float(np.linalg.norm(q))
        rho = math.atanh(radius)
        label = f"disk Hessian at {q}"
        return _first(
            _close(f"{label} rho", h.rho, rho, 1e-6),
            _close(label, h.value, 2.0 / math.tanh(2.0 * rho), 1e-3),
            None if h.value <= 1.0 / rho + 2.0 + 1e-3 else f"{label}: above 1/rho + 2",
            self._routes(label, h))

    def check_hessian_c2(self, q, h):
        radius = float(np.linalg.norm(q))
        label = f"C^2 Hessian at {q}"
        return _first(
            _close(f"{label} rho", h.rho, radius, 1e-6),
            _close(label, h.value, 1.0 / radius, 1e-3),
            self._routes(label, h))

    @staticmethod
    def check_levi(kind, s, want):
        label = f"{kind} at z={s.z}"
        return _first(
            _close(label, s.levi_value, want, 1e-4),
            None if s.margin >= -1e-3 else f"{label}: margin {s.margin!r} below -1e-3")


# -- certify --------------------------------------------------------------------------


class _LineClock(io.StringIO):
    """Captured stdout that stamps the time each output line ends."""

    def __init__(self):
        super().__init__()
        self.stamps = []

    def write(self, s):
        n = super().write(s)
        if "\n" in s:
            self.stamps.extend([time.perf_counter()] * s.count("\n"))
        return n


class CertifyWorkload:
    """The Schwarz pipeline through ``finsler.cli.main``, one report per operation."""

    name = "certify"
    nominal_pass_s = 2.5
    POWERS = (2, 3)

    def __init__(self, seed, small=False, outdir: Path | None = None):
        rng = np.random.default_rng([seed, 3])
        self.outdir = outdir
        mobius = []
        for _ in range(2):
            a = rng.uniform(0.2, 0.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            mobius.append([float(a.real), float(a.imag)])
        row = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        row *= rng.uniform(0.5, 0.9) / np.linalg.norm(row)
        maps = [{"map": "identity", "params": {"n": 1}, "id": "identity"},
                {"map": "mobius", "params": {"a": mobius[0]}, "id": "mobius_a"},
                {"map": "mobius", "params": {"a": mobius[1]}, "id": "mobius_b"}]
        maps += [{"map": "power", "params": {"m": p}, "id": f"power_{p}"} for p in self.POWERS]
        maps.append({"map": "linear", "id": "row_linear",
                     "params": {"matrix": [[[float(c.real), float(c.imag)] for c in row]]}})
        disk_pairs = [m["id"] for m in maps if m["id"] != "row_linear"]
        if small:
            disk_pairs = ["identity", "power_2"]
            maps = [m for m in maps if m["id"] in disk_pairs + ["row_linear"]]
        pairs = [{"map": mid, "domain": "disk", "target": "disk", "expect_pass": True}
                 for mid in disk_pairs]
        pairs.append({"map": "row_linear", "domain": "minkowski", "target": "disk",
                      "expect_pass": False})
        plan = {"n_points": 3, "n_dirs": 2} if small else {"n_points": 6, "n_dirs": 4}
        self.config = {
            "seed": int(seed),
            "metrics": [dict(DISK, id="disk"), dict(BALL2, id="ball"),
                        dict(MINKOWSKI, id="minkowski")],
            "maps": maps,
            "pairs": pairs,
            "plans": {"default": dict(plan, radial_range=[0.1, 0.7])},
        }

    def setup(self):
        from finsler.cli import main
        from finsler.config import load_config
        self.main = main
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.outdir / "certify_config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1, sort_keys=True))
        load_config(self.config_path)
        self.warm_dir = self.outdir / "warmup"

    def warmup(self):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.main(["check", "--config", str(self.config_path),
                            "--out", str(self.warm_dir)])
        if rc != 0:
            raise RuntimeError(f"warm-up check exited {rc}")

    def _command(self, clock, kind, argv):
        """Run one CLI command; one operation per output line it prints."""
        ref = clock.mark()
        lines = _LineClock()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(lines):
                rc = self.main(argv)
        except Exception:
            return [OpRecord(kind, ref, t0, time.perf_counter() - t0,
                             failed=traceback.format_exc(limit=3))]
        recs = []
        prev = t0
        for stamp, line in zip(lines.stamps, lines.getvalue().splitlines()):
            recs.append(OpRecord(kind, ref, prev, stamp - prev,
                                 mismatch=None if rc == 0 else f"{argv[0]} exited {rc}: {line}"))
            prev = stamp
        if not recs:
            recs.append(OpRecord(kind, ref, t0, time.perf_counter() - t0,
                                 failed=f"{argv[0]} printed nothing (exit {rc})"))
        return recs

    def run_pass(self, clock):
        out_dir = self.outdir / "reports"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        base = ["--config", str(self.config_path), "--out", str(out_dir)]
        out = []
        for cmd in ("check", "bounds", "schwarz"):
            out.extend(self._command(clock, cmd, [cmd] + base))
        for pair in self.config["pairs"]:
            pair_id = f"{pair['map']}__{pair['domain']}__{pair['target']}"
            cert = out_dir / "schwarz" / pair_id / "report.json"
            out.extend(self._command(clock, "replay", ["replay", "--certificate", str(cert)]))
        self._check_reports(out_dir, out)
        return out

    def _check_reports(self, out_dir, records):
        """Check every report just written; attach the first problem to the pass."""
        try:
            problem = self._report_problem(out_dir)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problem = f"reports unreadable: {exc!r}"
        if problem:
            for r in records:
                if r.failed is None:
                    r.mismatch = r.mismatch or problem
                    break

    def _report_problem(self, out_dir):
        def payload(cmd, item):
            return json.loads((out_dir / cmd / item / "report.json").read_text())["payload"]

        for mid in ("disk", "ball", "minkowski"):
            p = payload("check", mid)
            if not p["validity"]["passed"]:
                return f"check {mid}: validity failed"
            if p["kahler"]["classification"] != "strongly_kahler":
                return f"check {mid}: class {p['kahler']['classification']}"
            b = payload("bounds", mid)
            kg = 0.0 if mid == "minkowski" else -4.0
            msg = _first(_close(f"bounds {mid} K_G inf", b["holomorphic_inf"], kg, 1e-6),
                         _close(f"bounds {mid} K_G sup", b["holomorphic_sup"], kg, 1e-6))
            if msg:
                return msg
            lo, hi = b["radial_flag_inf"], b["radial_flag_sup"]
            if mid == "disk":
                msg = _first(_close("disk radial flag inf", lo, -4.0, 1e-6),
                             _close("disk radial flag sup", hi, -4.0, 1e-6))
                if msg:
                    return msg
            if mid == "ball" and not (-4.0 - 1e-6 <= lo <= hi <= -1.0 + 1e-6):
                return f"ball radial flag curvature [{lo}, {hi}] outside [-4, -1]"
        for pair in self.config["pairs"]:
            pair_id = f"{pair['map']}__{pair['domain']}__{pair['target']}"
            c = payload("schwarz", pair_id)["certificate"]
            mid = pair["map"]
            if mid == "row_linear":
                if not (abs(c["bound"]) == 0.0 and c["max_ratio"] > 0.0 and not c["passed"]):
                    return (f"{pair_id}: bound {c['bound']}, ratio {c['max_ratio']}, "
                            f"passed {c['passed']}; want 0, > 0, False")
                continue
            if not c["passed"]:
                return f"{pair_id}: certificate failed"
            msg = _close(f"{pair_id} bound", c["bound"], 1.0, 1e-8)
            if msg:
                return msg
            if mid.startswith("power_"):
                p = int(mid.split("_")[1])
                z = c["argmax"]["z"][0]
                t = z["re"] ** 2 + z["im"] ** 2
                want = p * p * t ** (p - 1) * (1.0 - t) ** 2 / (1.0 - t ** p) ** 2
                msg = _close(f"{pair_id} ratio at argmax", c["max_ratio"], want, 1e-9)
            else:
                msg = _close(f"{pair_id} max ratio", c["max_ratio"], 1.0, 1e-8)
            if msg:
                return msg
        return None


WORKLOADS = {"distance": DistanceWorkload, "levi": LeviWorkload, "certify": CertifyWorkload}
