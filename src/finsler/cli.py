"""Command-line entry point.

    finsler <check|curvature|geodesic|distance|bounds|schwarz>
            --config FILE [--out DIR] [--tolerance X]
    finsler replay --certificate FILE [--tolerance X]

Each command writes, per metric or map pair, a versioned JSON report with the
effective configuration embedded, plus CSV tables, and prints one line
``<command> <id>: <summary>``; it exits 1 when any item is not ok. Reports
separate a volatile ``metadata`` block (timestamps, versions) from the
deterministic ``payload``; replay recomputes the payload from the embedded plan and
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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import CONFIG_KEYS, RunConfig, check_tolerance, load_config, parse_config
from .errors import (SAMPLE_ERRORS, ConfigurationError, FinslerError, NoSamplesError,
                     NonFiniteSampleError, ShootingError)
from .geometry import complex_to_real_components, realify_metric, sample_points
from .metrics import build_map, check_metric, instantiate, plan_directions
from .report import SampleGrid, canonical_json, _clean, evaluate_samples, require_finite

SCHEMA = 1


def _metric_specs(config: RunConfig):
    """``{id: spec}`` over the config's metrics, the spec carrying its id: a metric
    without ``id`` is named ``{family}_{index}``, and the metric it
    instantiates (so a certificate naming it) has the id the pairs use. Two
    metrics of one id would write one report over the other, so that is refused."""
    out = {}
    for i, spec in enumerate(config.metrics):
        mid = spec.get("id", f"{spec['family']}_{i}")
        if mid in out:
            raise ConfigurationError(f"duplicate metric id {mid!r}")
        out[mid] = {**spec, "id": mid}
    return out


def _write_report(outdir: Path, command, item_id, payload, config: RunConfig, metadata):
    d = outdir / command / item_id
    d.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": SCHEMA,
        "metadata": {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "engine_version": __version__,
            **metadata,
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


def _report_each(config: RunConfig, outdir: Path, command, items) -> int:
    """Write each ``(item_id, (payload, ok, summary, metadata, tables))`` of
    ``items`` as its report and CSV tables (``tables`` maps a file name to
    its header and rows) and print ``<command> <item_id>: <summary>``; the
    exit status is 1 when any item is not ok. ``items`` is read one item at
    a time, so an item is written and printed before the next is computed."""
    status = 0
    for item_id, (payload, ok, summary, metadata, tables) in items:
        d = _write_report(outdir, command, item_id, payload, config, metadata)
        for name, (header, rows) in tables.items():
            _write_csv(d / name, header, rows)
        if not ok:
            status = 1
        print(f"{command} {item_id}: {summary}")
    return status


def _per_metric(command):
    """Make ``measure(config, m)``, the ``_report_each`` item of one metric,
    the ``command(config, outdir)`` that reports every config metric. Every
    metric is instantiated before the first is measured, so a spec that
    cannot be built stops the command before it writes anything."""
    def decorate(measure):
        def run(config: RunConfig, outdir: Path) -> int:
            metrics = [instantiate(spec) for spec in _metric_specs(config).values()]
            return _report_each(config, outdir, command,
                                ((m.family_id, measure(config, m)) for m in metrics))
        return run
    return decorate


def _samples_summary(counts):
    return f"samples ok {counts['ok']}/{counts['attempted']}"


@_per_metric("check")
def cmd_check(config: RunConfig, m):
    from .kahler import classify, weakly_kahler_pde_residual
    plan = config.plan()
    rep = check_metric(m, plan)
    kah = classify(m, plan)
    expectation = m.spec.get("expect", {})
    expect_class = expectation.get("kahler_class", m.metadata.get("kahler_class"))
    class_ok = expect_class in (None, "unknown") or kah.classification == expect_class
    payload = {"metric": m.family_id, "validity": rep.to_dict(), "kahler": kah.to_dict()}
    grids = {"validity": rep.grid, "kahler": kah.samples.grid}
    profile = m.metadata.get("profile")
    if profile is not None:
        pde = weakly_kahler_pde_residual(profile)
        payload["weakly_kahler_pde"] = pde.to_dict()
        grids["weakly_kahler_pde"] = pde.grid
        expect_pde = expectation.get("weakly_kahler_pde")
        if expect_pde is not None and expect_pde != pde.passed:
            class_ok = False
    payload["class_matches_expectation"] = class_ok
    summary = (f"validity={'PASS' if rep.passed else 'FAIL'} "
               f"({_samples_summary(rep.stats['samples'])}) class={kah.classification}")
    return payload, rep.passed and class_ok, summary, {"grids": grids}, {}


@_per_metric("curvature")
def cmd_curvature(config: RunConfig, m):
    from .schwarz import holomorphic_curvature_samples
    samples = holomorphic_curvature_samples(m, config.plan())
    payload = {"metric": m.family_id, "holomorphic_samples": samples.counts,
               "min": None, "max": None}
    try:
        lo, hi = samples.extremes()
    except NoSamplesError as exc:
        payload["holomorphic_error"] = str(exc)
        ok, summary = False, "no K_G sample evaluated"
    else:
        payload.update(min=lo, max=hi)
        ok, summary = True, f"K in [{lo:.6g}, {hi:.6g}]"
    expect = m.metadata.get("holomorphic_curvature")
    if expect is not None and any(abs(k - expect) > 1e-5 for _, _, k in samples.rows):
        ok = False
    table = (["point_index", "dir_index", "K_G"],
             [[iz, iv, repr(k)] for iz, iv, k in samples.rows])
    return (payload, ok, f"{summary}; {_samples_summary(samples.counts)}",
            {"grids": {"holomorphic": samples.grid}}, {"holomorphic_curvature.csv": table})


@_per_metric("geodesic")
def cmd_geodesic(config: RunConfig, m):
    from .geodesic import integrate_geodesic
    mr = realify_metric(m)
    plan = config.plan()
    rng = np.random.default_rng(plan.seed)
    x0 = np.zeros(mr.dim)
    w = rng.standard_normal(mr.dim)
    u0 = w / math.sqrt(mr.value(x0, w))
    fan = integrate_geodesic(mr, x0, u0, float(plan.radial_range[1]))
    drift, nfev, arc = fan.energy_drift(), fan.nfev, fan.arc_lengths[0]
    payload = {"metric": m.family_id, "arc_length": arc, "energy_drift": drift,
               "steps": fan.steps, "nfev": nfev, "normal": fan.normal[0],
               "truncated": fan.truncated[0]}
    # t, x, u and G over an even arc grid, G from one ``value`` call
    arcs = np.linspace(0.0, arc, 65)
    X, U = fan.state_at(0, arcs)
    path = (["t", *(f"{c}{i}" for c in "xu" for i in range(mr.dim)), "G"],
            [[repr(float(c)) for c in (s, *x, *u)] + [repr(G)]
             for s, x, u, G in zip(arcs, X, U, mr.value(X, U).tolist())])
    exited = f" exit at arc {arc:.6g}" if fan.truncated[0] else ""
    # the payload's nfev is the integration's; the reads added the dense output's
    return (payload, not drift > 1e-8, f"drift={drift:.2e} steps={fan.steps} nfev={nfev}{exited}",
            {"rhs_evaluations": fan.nfev}, {"path.csv": path})


@_per_metric("distance")
def cmd_distance(config: RunConfig, m):
    from .levi import LeviField
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

    shots = evaluate_samples(shoot, pts, [None])
    rows = [[i, repr(float(rho)), repr(float(res))] for i, _, (rho, res) in shots.rows]
    # None where nothing was checked: no samples, or no closed form
    closed = m.metadata.get("distance_from_origin")
    worst = None
    if rows and closed:
        reached = np.array([pts[i] for i, _, _ in shots.rows])
        worst = max(abs(rho - c) for (_, _, (rho, _)), c in zip(shots.rows, closed(m, reached)))
    rho_errors = {i: exc for i, _, exc in shots.failures}
    shooting = [{"point_index": i, "best_residual": exc.best_residual,
                 **{k: exc.work[k] for k in ("starts", "integrations", "iterations")}}
                for i, exc in rho_errors.items() if isinstance(exc, ShootingError)]
    payload = {"metric": m.family_id, "n_samples": len(rows),
               "max_closed_form_error": worst,
               "rho_samples": shots.counts, "shooting_failures": shooting}
    ok = not shots.failures and not (worst is not None and worst > 1e-6)
    tables = {"distance.csv": (["point_index", "rho", "residual"], rows)}
    summary = "max closed-form error " + ("n/a" if worst is None else f"{worst:.2e}")
    summary += f"; rho {_samples_summary(shots.counts)}"
    summary += "".join(f" (point {f['point_index']}: {f['starts']} starts, "
                       f"{f['integrations']} integrations)" for f in shooting)
    if m.kind == "complex_strongly_convex":
        levi_rows, min_margin, counts = _levi_table(field, pts[:4], plan, rho_errors)
        payload["levi_samples"] = counts
        payload["levi_min_margin"] = min_margin if counts["ok"] else None
        ok = ok and counts["ok"] > 0 and not min_margin < -1e-3
        tables["levi.csv"] = (["point_index", "levi_value", "rho", "bound", "margin"], levi_rows)
        summary += f"; levi {_samples_summary(counts)}"
    summary += ("; shooting {starts} starts, {integrations} integrations "
                "({loose_integrations} loose), {iterations} iterations, {rhs_evaluations} "
                "right-hand sides; jacobi {jacobi_integrations} integrations, "
                "{jacobi_rhs_evaluations} right-hand sides").format_map(pd.work)
    return payload, ok, summary, {"shooting": dict(pd.work)}, tables


def _levi_table(field, pts, plan, rho_errors):
    """Levi samples of rho^2 from ``field`` at ``pts``: CSV rows, the least
    margin, and the attempted/ok/failed counts. At a point whose rho already
    failed (``rho_errors``: point index to its exception) every direction
    fails with that exception, without another shot; a direction whose sample
    is not finite fails on its own."""
    dirs = plan_directions(field.m, 2, plan.seed + 5)
    grid = SampleGrid([], [])
    for i, z in enumerate(pts):
        exc = rho_errors.get(i)
        if exc is None:
            try:
                samples = field.samples(z, dirs)
            except SAMPLE_ERRORS as err:
                exc = err
        if exc is not None:
            grid.failures.extend((i, j, exc) for j in range(len(dirs)))
            continue
        for j, s in enumerate(samples):
            try:
                values = require_finite((s.levi_value, s.rho, s.bound, s.margin))
            except NonFiniteSampleError as err:
                grid.failures.append((i, j, err))
            else:
                grid.rows.append((i, j, values))
    rows = [[i] + [repr(float(val)) for val in values] for i, _, values in grid.rows]
    min_margin = min((values[3] for _, _, values in grid.rows), default=math.inf)
    return rows, min_margin, grid.counts


@_per_metric("bounds")
def cmd_bounds(config: RunConfig, m):
    from .cartan import radial_flag_bounds
    from .schwarz import holomorphic_curvature_samples
    plan = config.plan()
    samples = holomorphic_curvature_samples(m, plan)
    payload = {"metric": m.family_id, "holomorphic_samples": samples.counts}
    ok = True
    try:
        dom = samples.bound("domain")
        payload.update(holomorphic_inf=dom.raw_inf, holomorphic_sup=dom.raw_sup,
                       K1=dom.value, clamped=dom.clamped)
    except NoSamplesError as exc:
        payload["holomorphic_error"] = str(exc)
        ok = False
    try:
        mr = realify_metric(m)
        rb = radial_flag_bounds(mr, np.zeros(mr.dim),
                                replace(plan, n_points=plan.n_points // 2 or 4))
        payload.update(radial_flag_samples=rb.n_samples, radial_flag_inf=rb.k_inf,
                       radial_flag_sup=rb.k_sup, K_constant=rb.lower_bound_constant)
    except FinslerError as exc:
        payload["radial_flag_samples"] = 0
        payload["radial_flag_error"] = str(exc)
        ok = False
    summary = (f"K1={payload.get('K1', math.nan):.6g} ({_samples_summary(samples.counts)}) "
               f"radial=[{payload.get('radial_flag_inf', math.nan):.6g}, "
               f"{payload.get('radial_flag_sup', math.nan):.6g}] "
               f"radial_samples={payload['radial_flag_samples']}")
    return payload, ok, summary, {"grids": {"holomorphic": samples.grid}}, {}


def _pairs(config: RunConfig, pairs):
    """``{item_id: (pair, map, domain, target)}`` for ``pairs``, all checked
    before one is certified. A metric gets one ``MetricAnalysis``, which
    computes each part when first read, so pairs sharing it evaluate it once.
    A map id or a pair twice is refused: one report would overwrite another."""
    from .schwarz import MetricAnalysis
    maps = {}
    for spec in config.maps:
        mp = build_map(spec)
        mid = spec.get("id", mp.id)
        if mid in maps:
            raise ConfigurationError(f"duplicate map id {mid!r}")
        maps[mid] = mp
    specs = _metric_specs(config)
    ids = [pair[role] for pair in pairs for role in ("domain", "target")]
    unknown = sorted(set(ids) - set(specs))
    if unknown:
        raise ConfigurationError(f"unknown metric id(s) {unknown}")
    plan = config.plan()
    analyses = {mid: MetricAnalysis(instantiate(specs[mid]), plan) for mid in dict.fromkeys(ids)}
    resolved = {}
    for pair in pairs:
        map_id = pair["map"]
        item_id = f"{map_id}__{pair['domain']}__{pair['target']}"
        if map_id not in maps:
            raise ConfigurationError(f"unknown map id {map_id!r}")
        f, domain, target = maps[map_id], analyses[pair["domain"]], analyses[pair["target"]]
        if (f.n_in, f.n_out) != (domain.m.n, target.m.n):
            raise ConfigurationError(
                f"pair {item_id}: map takes C^{f.n_in} to C^{f.n_out}, metrics live "
                f"on C^{domain.m.n} and C^{target.m.n}")
        if item_id in resolved:
            raise ConfigurationError(f"duplicate pair {item_id!r}")
        resolved[item_id] = pair, f, domain, target
    return resolved


def _pair_item(config: RunConfig, pair, f, domain, target):
    """The item of one resolved pair: its certificate, or the engine error
    that stopped it. A certificate whose hypotheses are not met names, after
    its verdict, each one it fails."""
    from .schwarz import certify_schwarz
    try:
        cert = certify_schwarz(f, domain, target, tolerance=config.tolerance)
    except FinslerError as exc:
        error = f"{type(exc).__name__}: {exc}"
        return {"pair": pair, "error": error}, False, f"error {error}", {}, {}
    summary = (f"ratio={cert.max_ratio:.8g} bound={cert.bound:.8g} "
               f"{'PASS' if cert.passed else 'FAIL'}")
    if cert.unmet:
        summary += f"; unmet: {', '.join(cert.unmet)}"
    expect_pass = pair.get("expect_pass")
    return ({"certificate": cert.to_payload()},
            expect_pass is None or expect_pass == cert.passed, summary, cert.metadata, {})


def cmd_schwarz(config: RunConfig, outdir: Path) -> int:
    if not config.pairs:
        raise ConfigurationError("schwarz command needs a pairs list")
    return _report_each(config, outdir, "schwarz", (
        (item_id, _pair_item(config, *resolved))
        for item_id, resolved in _pairs(config, config.pairs).items()))


# certificate ids a replay resolves its pair from, and values a replay within
# a tolerance compares
_REPLAY_IDS = ("map_id", "domain_id", "target_id")
_REPLAY_VALUES = ("K1", "K2", "bound", "max_ratio")


def _read_certificate(cert_path: Path):
    """The stored certificate and the run configuration embedded with it.

    A file that cannot be read, is not JSON, or lacks or mistypes the fields
    a replay reads is a configuration error: an id is a string, and a value a
    number (a bool is not) or the ``"nan"``, ``"inf"`` or ``"-inf"`` of ``_clean``.
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
    missing = [k for k in (*_REPLAY_IDS, "passed", *_REPLAY_VALUES) if k not in stored]
    if not isinstance(payload.get("effective_config"), dict):
        missing.append("effective_config")
    if missing:
        raise ConfigurationError(f"certificate {cert_path} lacks {', '.join(missing)}")
    for key in (*_REPLAY_IDS, *_REPLAY_VALUES):
        value, number = stored[key], key in _REPLAY_VALUES
        if not ((value in ("nan", "inf", "-inf") or type(value) in (int, float)) if number
                else isinstance(value, str)):
            raise ConfigurationError(f"certificate {cert_path}: {key} must be "
                                     f"{'a number' if number else 'a string'}, got {value!r}")
    # a replay writes no report, and outputs never reach the certified values, so
    # a certificate whose outputs today's checks would refuse still replays
    effective = {k: v for k, v in payload["effective_config"].items() if k != "outputs"}
    return stored, parse_config(effective)


def cmd_replay(cert_path: Path, tolerance: float | None) -> int:
    from .schwarz import certify_schwarz
    stored, config = _read_certificate(cert_path)
    pair = {"map": stored["map_id"], "domain": stored["domain_id"],
            "target": stored["target_id"]}
    [(_, f, domain, target)] = _pairs(config, [pair]).values()
    fresh = certify_schwarz(f, domain, target, tolerance=config.tolerance).to_payload()
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
        if args.out is not None:
            CONFIG_KEYS["outputs"]["directory"](args.out, "--out")
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
