"""Command-line entry point.

    finsler <check|curvature|geodesic|distance|bounds|schwarz>
            --config FILE [--out DIR] [--tolerance X]
    finsler replay --certificate FILE [--tolerance X]

Each command writes, per metric or map pair, a versioned JSON report with the
effective configuration embedded, plus CSV tables. Reports separate a
volatile ``metadata`` block (timestamps, versions) from the deterministic
``payload``; replay recomputes the payload from the embedded plan and
compares byte-for-byte, or within a tolerance when one is given.
``--tolerance`` is the certificate tolerance of ``schwarz`` and the
comparison tolerance of ``replay``. A command refuses every flag it does not
read: ``--tolerance`` outside ``schwarz`` and ``replay``, ``--certificate``
outside ``replay``, and ``--config`` and ``--out`` on ``replay``.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, check_tolerance, load_config, parse_config
from .errors import (SAMPLE_ERRORS, ConfigurationError, FinslerError, NoSamplesError,
                     NonFiniteSampleError, ShootingError)
from .geometry import complex_to_real_components, realify_metric, sample_points
from .metrics import build_map, check_metric, instantiate, plan_directions
from .report import (canonical_json, _clean, evaluate_samples, failure_reasons,
                     require_finite, sample_counts)

SCHEMA = 1


def _metric_specs(config: RunConfig):
    """``(id, spec)`` per config metric, the spec carrying its id: a metric
    without ``id`` is named ``{family}_{index}``, and the metric it
    instantiates (so a certificate naming it) has the id the pairs use. Two
    metrics of one id would write one report over the other, so that is refused."""
    out = {}
    for i, spec in enumerate(config.metrics):
        mid = spec.get("id", f"{spec.get('family', 'metric')}_{i}")
        if mid in out:
            raise ConfigurationError(f"duplicate metric id {mid!r}")
        out[mid] = {**spec, "id": mid}
    return list(out.items())


def _write_report(outdir: Path, command, item_id, payload, config: RunConfig,
                  metadata=None):
    d = outdir / command / item_id
    d.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": SCHEMA,
        "metadata": {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "engine_version": __version__,
            **(metadata or {}),
        },
        "payload": _clean({**payload, "effective_config": config.effective()}),
    }
    with open(d / "report.json", "w") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return d


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fp:
        w = csv.writer(fp)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _instantiate_all(config: RunConfig):
    return [(mid, instantiate(spec)) for mid, spec in _metric_specs(config)]


def cmd_check(config: RunConfig, outdir: Path) -> int:
    from .kahler import classify, weakly_kahler_pde_residual
    status = 0
    for mid, m in _instantiate_all(config):
        plan = config.plan()
        rep = check_metric(m, plan)
        kah = classify(m, plan)
        expectation = m.spec.get("expect", {})
        expect_class = expectation.get("kahler_class",
                                       m.metadata.get("kahler_class"))
        class_ok = True
        if expect_class not in (None, "unknown"):
            class_ok = kah.classification == expect_class
        payload = {
            "metric": mid,
            "validity": rep.to_dict(),
            "kahler": kah.to_dict(),
            "class_matches_expectation": class_ok,
        }
        profile = m.metadata.get("profile")
        if profile is not None:
            pde = weakly_kahler_pde_residual(profile)
            payload["weakly_kahler_pde"] = pde.to_dict()
            expect_pde = expectation.get("weakly_kahler_pde")
            if expect_pde is not None and bool(expect_pde) != pde.passed:
                class_ok = False
                payload["class_matches_expectation"] = False
        _write_report(outdir, "check", mid, payload, config)
        if not rep.passed or not class_ok:
            status = 1
        print(f"check {mid}: validity={'PASS' if rep.passed else 'FAIL'} "
              f"({_samples_summary(rep.stats['samples'])}) class={kah.classification}")
    return status


def _samples_summary(counts):
    return f"samples ok {counts['ok']}/{counts['attempted']}"


def cmd_curvature(config: RunConfig, outdir: Path) -> int:
    from .schwarz import holomorphic_curvature_samples
    status = 0
    for mid, m in _instantiate_all(config):
        samples = holomorphic_curvature_samples(m, config.plan())
        counts = samples.counts
        payload = {"metric": mid, "holomorphic_samples": counts,
                   "min": None, "max": None}
        try:
            lo, hi = samples.extremes()
        except NoSamplesError as exc:
            payload["holomorphic_error"] = str(exc)
            status = 1
            summary = "no K_G sample evaluated"
        else:
            payload.update(min=lo, max=hi)
            summary = f"K in [{lo:.6g}, {hi:.6g}]"
        d = _write_report(outdir, "curvature", mid, payload, config)
        _write_csv(d / "holomorphic_curvature.csv",
                   ["point_index", "dir_index", "K_G"],
                   [[iz, iv, repr(k)] for iz, iv, k in samples.rows])
        expect = m.metadata.get("holomorphic_curvature")
        if expect is not None and any(abs(k - expect) > 1e-5 for _, _, k in samples.rows):
            status = 1
        print(f"curvature {mid}: {summary}; {_samples_summary(counts)}")
    return status


def cmd_geodesic(config: RunConfig, outdir: Path) -> int:
    from .geodesic import integrate_geodesic
    status = 0
    for mid, m in _instantiate_all(config):
        mr = realify_metric(m)
        plan = config.plan()
        rng = np.random.default_rng(plan.seed)
        x0 = np.zeros(mr.dim)
        w = rng.standard_normal(mr.dim)
        u0 = w / math.sqrt(mr.value(x0, w))
        length = float(plan.radial_range[1])
        path = integrate_geodesic(mr, x0, u0, length)
        drift = path.energy_drift()
        d = _write_report(outdir, "geodesic", mid, {
            "metric": mid, "arc_length": path.arc_length,
            "energy_drift": drift, "steps": path.n_steps,
            "nfev": path.nfev, "normal": path.normal,
            "truncated": path.truncated}, config)
        with open(d / "path.csv", "w", newline="") as fp:
            path.to_csv(fp)
        if drift > 1e-8:
            status = 1
        print(f"geodesic {mid}: drift={drift:.2e} steps={path.n_steps}")
    return status


def cmd_distance(config: RunConfig, outdir: Path) -> int:
    from .levi import LeviField
    status = 0
    for mid, m in _instantiate_all(config):
        plan = config.plan()
        # one solver per metric: the rho column shoots with the Levi field's,
        # so a Levi sample starts from the velocity the column converged to
        kg = m.metadata.get("holomorphic_curvature")
        field = LeviField(m, np.zeros(m.n, complex),
                          curvature_K=math.sqrt(-kg) if kg is not None and kg < 0 else 0.0)
        pd = field.pd
        pts = sample_points(m, plan)

        def shoot(z, _):
            r = pd.rho(complex_to_real_components(z))
            return r.value, r.residual

        found, failures = evaluate_samples(shoot, pts, [None])
        rows = [[i, repr(float(rho)), repr(float(res))] for i, _, (rho, res) in found]
        # None where nothing was checked: no samples, or no closed form
        closed = m.metadata.get("distance_from_origin")
        worst = 0.0 if rows and closed else None
        for i, _, (rho, _) in found:
            if closed == "norm":
                worst = max(worst, abs(rho - math.sqrt(m.value(pts[i], pts[i]))))
            elif closed == "atanh":
                # G = scale |v|^2 / (1 - |z|^2)^2 on the disk and along ball radii
                closed_rho = math.sqrt(m.metadata["hermitian_scale"]) * math.atanh(
                    float(np.linalg.norm(pts[i])))
                worst = max(worst, abs(rho - closed_rho))
        rho_errors = {i: type(exc).__name__ for i, _, exc in failures}
        shooting = [{"point_index": i, "starts": exc.starts, "integrations": exc.integrations,
                     "iterations": exc.iterations, "best_residual": exc.best_residual}
                    for i, _, exc in failures if isinstance(exc, ShootingError)]
        rho_counts = sample_counts(len(rows), failure_reasons(failures))
        payload = {"metric": mid, "n_samples": len(rows),
                   "max_closed_form_error": worst,
                   "rho_samples": rho_counts, "shooting_failures": shooting}
        if rho_counts["failed"]:
            status = 1
        levi_rows = None
        summary = f"; rho samples ok {rho_counts['ok']}/{rho_counts['attempted']}"
        summary += "".join(f" (point {f['point_index']}: {f['starts']} starts, "
                           f"{f['integrations']} integrations)" for f in shooting)
        if m.kind == "complex_strongly_convex":
            levi_rows, min_margin, counts = _levi_table(field, pts[:4], plan, rho_errors)
            payload["levi_samples"] = counts
            payload["levi_min_margin"] = min_margin if counts["ok"] else None
            if not counts["ok"] or min_margin < -1e-3:
                status = 1
            summary += f"; levi samples ok {counts['ok']}/{counts['attempted']}"
        cost = {"starts": pd.total_starts,
                "integrations": pd.total_integrations,
                "loose_integrations": pd.loose_integrations,
                "iterations": pd.total_iterations,
                "rhs_evaluations": pd.rhs_evaluations,
                "jacobi_integrations": pd.jacobi_integrations,
                "jacobi_rhs_evaluations": pd.jacobi_rhs_evaluations}
        summary += (f"; shooting {cost['starts']} starts, {cost['integrations']} integrations "
                    f"({cost['loose_integrations']} loose), {cost['iterations']} iterations, "
                    f"{cost['rhs_evaluations']} right-hand sides; jacobi "
                    f"{cost['jacobi_integrations']} integrations, "
                    f"{cost['jacobi_rhs_evaluations']} right-hand sides")
        d = _write_report(outdir, "distance", mid, payload, config,
                          metadata={"shooting": cost})
        _write_csv(d / "distance.csv", ["point_index", "rho", "residual"], rows)
        if levi_rows is not None:
            _write_csv(d / "levi.csv",
                       ["point_index", "levi_value", "rho", "bound", "margin"],
                       levi_rows)
        if worst is not None and worst > 1e-6:
            status = 1
        error = "n/a" if worst is None else f"{worst:.2e}"
        print(f"distance {mid}: max closed-form error {error}{summary}")
    return status


def _levi_table(field, pts, plan, rho_errors):
    """Levi samples of rho^2 from ``field`` at ``pts``: CSV rows, the least
    margin, and the attempted/ok/failed counts with the failures tallied by
    error type. At a point whose rho already failed (``rho_errors``: point
    index to error type name) every direction counts as failed under that
    type, without another shot; a direction whose sample is not finite fails
    on its own."""
    dirs = plan_directions(field.m, 2, plan.seed + 5)
    rows = []
    min_margin = math.inf
    reasons = Counter()
    for i, z in enumerate(pts):
        name = rho_errors.get(i)
        if name is None:
            try:
                samples = field.samples(z, dirs)
            except SAMPLE_ERRORS as exc:
                name = type(exc).__name__
        if name is not None:
            reasons[name] += len(dirs)
            continue
        for s in samples:
            try:
                values = require_finite((s.levi_value, s.rho, s.bound, s.margin))
            except NonFiniteSampleError:
                reasons[NonFiniteSampleError.__name__] += 1
                continue
            rows.append([i] + [repr(float(val)) for val in values])
            min_margin = min(min_margin, s.margin)
    return rows, min_margin, sample_counts(len(rows), reasons)


def cmd_bounds(config: RunConfig, outdir: Path) -> int:
    from .cartan import radial_flag_bounds
    from .schwarz import holomorphic_curvature_samples
    status = 0
    for mid, m in _instantiate_all(config):
        plan = config.plan()
        samples = holomorphic_curvature_samples(m, plan)
        payload = {"metric": mid, "holomorphic_samples": samples.counts}
        try:
            dom = samples.bound("domain")
            payload.update(holomorphic_inf=dom.raw_inf, holomorphic_sup=dom.raw_sup,
                           K1=dom.value, clamped=dom.clamped)
        except NoSamplesError as exc:
            payload["holomorphic_error"] = str(exc)
            status = 1
        try:
            mr = realify_metric(m)
            rb = radial_flag_bounds(mr, np.zeros(mr.dim),
                                    config.plan(n_points=plan.n_points // 2 or 4))
            payload["radial_flag_samples"] = rb.n_samples
            if rb.n_samples == 0:
                payload["radial_flag_error"] = "every radial flag plane was degenerate"
                status = 1
            else:
                payload["radial_flag_inf"] = rb.k_inf
                payload["radial_flag_sup"] = rb.k_sup
                payload["K_constant"] = rb.lower_bound_constant
        except FinslerError as exc:
            payload["radial_flag_samples"] = 0
            payload["radial_flag_error"] = str(exc)
            status = 1
        _write_report(outdir, "bounds", mid, payload, config)
        print(f"bounds {mid}: K1={payload.get('K1', math.nan):.6g} "
              f"({_samples_summary(samples.counts)}) "
              f"radial=[{payload.get('radial_flag_inf', math.nan):.6g}, "
              f"{payload.get('radial_flag_sup', math.nan):.6g}] "
              f"radial_samples={payload['radial_flag_samples']}")
    return status


def _analyses(config: RunConfig, ids):
    """One ``MetricAnalysis`` on the config's plan per metric id in ``ids``.

    An analysis computes each part when first read, so a command that shares
    these across its pairs evaluates every metric once.
    """
    from .schwarz import MetricAnalysis
    specs = dict(_metric_specs(config))
    unknown = sorted(set(ids) - set(specs), key=str)
    if unknown:
        raise ConfigurationError(f"unknown metric id(s) {unknown}")
    plan = config.plan()
    return {mid: MetricAnalysis(instantiate(specs[mid]), plan)
            for mid in dict.fromkeys(ids)}


def _maps(config: RunConfig):
    maps = {}
    for spec in config.maps:
        mp = build_map(spec)
        mid = spec.get("id", mp.id)
        if mid in maps:
            raise ConfigurationError(f"duplicate map id {mid!r}")
        maps[mid] = mp
    return maps


def _certify(config: RunConfig, pair, maps, analyses):
    from .schwarz import certify_schwarz
    map_id = pair["map"]
    if map_id not in maps:
        raise ConfigurationError(f"unknown map id {map_id!r}")
    f, domain, target = maps[map_id], analyses[pair["domain"]], analyses[pair["target"]]
    if (f.n_in, f.n_out) != (domain.m.n, target.m.n):
        raise ConfigurationError(
            f"pair {map_id}__{pair['domain']}__{pair['target']}: map takes "
            f"C^{f.n_in} to C^{f.n_out}, metrics live on C^{domain.m.n} "
            f"and C^{target.m.n}")
    return certify_schwarz(f, domain, target, config.plan(), tolerance=config.tolerance)


def cmd_schwarz(config: RunConfig, outdir: Path) -> int:
    status = 0
    if not config.pairs:
        raise ConfigurationError("schwarz command needs a pairs list")
    for pair in config.pairs:
        if not (isinstance(pair, dict) and all(isinstance(pair.get(role), str)
                                               for role in ("map", "domain", "target"))):
            raise ConfigurationError(f"pair {pair!r} needs map, domain and target ids")
    maps = _maps(config)
    analyses = _analyses(config, [p[role] for p in config.pairs
                                  for role in ("domain", "target")])
    for pair in config.pairs:
        try:
            cert = _certify(config, pair, maps, analyses)
        except ConfigurationError:
            raise
        except FinslerError as exc:
            pair_id = f"{pair['map']}__{pair['domain']}__{pair['target']}"
            error = f"{type(exc).__name__}: {exc}"
            _write_report(outdir, "schwarz", pair_id, {"pair": pair, "error": error},
                          config)
            status = 1
            print(f"schwarz {pair_id}: error {error}")
            continue
        pair_id = f"{cert.map_id}__{cert.domain_id}__{cert.target_id}"
        payload = {"certificate": cert.to_payload()}
        _write_report(outdir, "schwarz", pair_id, payload, config,
                      metadata={"holomorphic_samples": cert.curvature_samples})
        expect_pass = pair.get("expect_pass")
        if expect_pass is not None and bool(expect_pass) != cert.passed:
            status = 1
        print(f"schwarz {pair_id}: ratio={cert.max_ratio:.8g} "
              f"bound={cert.bound:.8g} {'PASS' if cert.passed else 'FAIL'}")
    return status


# certificate values a replay within a tolerance compares
_REPLAY_VALUES = ("K1", "K2", "bound", "max_ratio")


def _read_certificate(cert_path: Path):
    """The stored certificate and the run configuration embedded with it.

    A file that cannot be read, is not JSON or lacks the fields a replay
    needs is a configuration error.
    """
    try:
        doc = json.loads(cert_path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read certificate {cert_path}: {exc}")
    except ValueError as exc:
        raise ConfigurationError(f"certificate {cert_path} is not JSON: {exc}")
    payload = doc.get("payload", doc) if isinstance(doc, dict) else None
    stored = payload.get("certificate") if isinstance(payload, dict) else None
    if not isinstance(stored, dict):
        raise ConfigurationError(f"{cert_path} holds no certificate")
    if stored.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"certificate schema {stored.get('schema')!r} does not match {SCHEMA}")
    missing = [k for k in ("map_id", "domain_id", "target_id", "passed") + _REPLAY_VALUES
               if k not in stored]
    if not isinstance(payload.get("effective_config"), dict):
        missing.append("effective_config")
    if missing:
        raise ConfigurationError(f"certificate {cert_path} lacks {', '.join(missing)}")
    # a replay writes no report, and outputs never reach the certified values, so
    # a certificate whose outputs today's checks would refuse still replays
    effective = {k: v for k, v in payload["effective_config"].items() if k != "outputs"}
    return stored, parse_config(effective)


def cmd_replay(cert_path: Path, tolerance: float | None) -> int:
    stored, config = _read_certificate(cert_path)
    key = (stored["map_id"], stored["domain_id"], stored["target_id"])
    pair = {"map": key[0], "domain": key[1], "target": key[2]}
    for p in config.pairs:
        if (p.get("map"), p.get("domain"), p.get("target")) == key:
            pair = p
            break
    analyses = _analyses(config, [pair["domain"], pair["target"]])
    fresh = _certify(config, pair, _maps(config), analyses).to_payload()
    if tolerance is None:
        ok = canonical_json(fresh) == canonical_json(stored)
        mode = "bitwise"
    else:
        ok = all(abs(float(fresh[k]) - float(stored[k])) <= tolerance
                 for k in _REPLAY_VALUES) and fresh["passed"] == stored["passed"]
        mode = f"tolerance {tolerance:g}"
    print(f"replay {cert_path}: {'PASS' if ok else 'FAIL'} ({mode})")
    return 0 if ok else 1


COMMANDS = {
    "check": cmd_check,
    "curvature": cmd_curvature,
    "geodesic": cmd_geodesic,
    "distance": cmd_distance,
    "bounds": cmd_bounds,
    "schwarz": cmd_schwarz,
}


# the commands that read each optional flag; any other command refuses it
_FLAG_READERS = {"tolerance": ("schwarz", "replay"), "certificate": ("replay",),
                 "config": COMMANDS, "out": COMMANDS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="finsler",
        description="Numerical Finsler geometry engine: validity checks, "
                    "curvatures, geodesics, distance analytics, and "
                    "Schwarz-ratio certification.")
    parser.add_argument("command", choices=list(COMMANDS) + ["replay"])
    parser.add_argument("--config", help="YAML or JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="schwarz: certificate tolerance; replay: compare within it")
    parser.add_argument("--certificate", default=None,
                        help="certificate file for replay")
    args = parser.parse_args(argv)

    try:
        for flag, readers in _FLAG_READERS.items():
            if getattr(args, flag) is not None and args.command not in readers:
                raise ConfigurationError(f"--{flag} is not read by {args.command}")
        if args.tolerance is not None:
            check_tolerance(args.tolerance)
        if args.command == "replay":
            if not args.certificate:
                parser.error("replay needs --certificate FILE")
            return cmd_replay(Path(args.certificate), args.tolerance)
        if not args.config:
            parser.error(f"{args.command} needs --config FILE")
        config = load_config(args.config)
        if args.tolerance is not None:
            config.tolerance = args.tolerance
        outdir = Path(args.out or config.outputs.get("directory", "finsler_out"))
        return COMMANDS[args.command](config, outdir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FinslerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
