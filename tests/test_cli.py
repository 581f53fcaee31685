"""CLI wiring: config parsing, report layout, determinism, replay."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from finsler.cli import main
from finsler.config import load_config, parse_config
from finsler.errors import ConfigurationError
from finsler.metrics import instantiate
from finsler.report import canonical_json

BASE_CONFIG = {
    "seed": 7,
    "metrics": [
        {"family": "hermitian", "complex_dim": 1,
         "params": {"catalog": "poincare_disk"}, "id": "poincare"},
        {"family": "minkowski", "complex_dim": 2,
         "params": {"k": 2, "eps": 1.0}, "id": "minkowski"},
    ],
    "maps": [
        {"map": "identity", "params": {"n": 1}, "id": "identity"},
        {"map": "power", "params": {"m": 2}, "id": "square"},
    ],
    "pairs": [
        {"map": "identity", "domain": "poincare", "target": "poincare",
         "expect_pass": True},
    ],
    "plans": {"default": {"n_points": 5, "n_dirs": 3, "radial_range": [0.1, 0.6]}},
}


_DISK = BASE_CONFIG["metrics"][0]
_IDENTITY = BASE_CONFIG["maps"][0]


def write_config(tmp_path, doc=None, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc or BASE_CONFIG))
    return p


def test_config_requires_seed(tmp_path):
    bad = dict(BASE_CONFIG)
    bad.pop("seed")
    p = write_config(tmp_path, bad)
    with pytest.raises(ConfigurationError, match="seed"):
        load_config(p)


def test_config_yaml_alternate(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text("seed: 3\nmetrics:\n  - family: hermitian\n    complex_dim: 1\n"
                 "    params: {catalog: poincare_disk}\n")
    cfg = load_config(p)
    assert cfg.seed == 3
    assert cfg.metrics[0]["family"] == "hermitian"
    assert cfg.plan().n_points == 10  # defaults merged


def test_a_tolerance_string_is_read_as_its_number():
    # YAML loads an unquoted 1e-3 as the string "1e-3"; a bool, which float()
    # would read as 0 or 1, is refused (test_malformed_config_...[tolerance_a_bool])
    assert parse_config({**BASE_CONFIG, "tolerance": "1e-3"}).tolerance == 1e-3


def test_effective_config_echo():
    cfg = parse_config(dict(BASE_CONFIG))
    eff = cfg.effective()
    assert eff["seed"] == 7
    assert eff["plans"] == BASE_CONFIG["plans"]
    assert eff["tolerance"] == pytest.approx(1e-6)
    # a partial plan is echoed merged over the defaults, as the commands run it
    eff = parse_config({"seed": 1, "plans": {"default": {"n_points": 3}}}).effective()
    assert eff["plans"] == {"default": {"n_points": 3, "n_dirs": 5, "radial_range": [0.1, 0.7]}}


def test_usage_error_exit_code(tmp_path):
    p = tmp_path / "nope.json"
    assert main(["check", "--config", str(p)]) == 2


def test_an_engine_error_escaping_a_command_exits_1(tmp_path, monkeypatch, capsys):
    from finsler.errors import ShootingError

    def failing(*args, **kwargs):
        raise ShootingError("injected")

    monkeypatch.setattr("finsler.geodesic.integrate_geodesic", failing)
    p = write_config(tmp_path)
    assert main(["geodesic", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: injected\n"


def test_cmd_schwarz_tolerance_sets_the_certificate_tolerance_and_verdict(tmp_path, capsys):
    # z -> 1.2 z keeps the disk's sample points inside it and exceeds the
    # bound 1 by a margin of about 1.13: a tolerance below it fails the
    # certificate, one above passes it
    cfg = {**BASE_CONFIG, "maps": [{"map": "linear", "params": {"matrix": [[1.2]]},
                                    "id": "stretch"}],
           "pairs": [{"map": "stretch", "domain": "poincare", "target": "poincare"}]}
    p = write_config(tmp_path, cfg)
    rel = Path("schwarz") / "stretch__poincare__poincare" / "report.json"
    for tolerance, passed in (("1.1", False), ("1.2", True)):
        out = tmp_path / tolerance
        assert main(["schwarz", "--config", str(p), "--out", str(out),
                     "--tolerance", tolerance]) == 0
        cert = json.loads((out / rel).read_text())["payload"]["certificate"]
        assert cert["tolerance"] == float(tolerance) and cert["passed"] is passed
        assert 1.1 < cert["max_ratio"] - cert["bound"] < 1.2
        assert capsys.readouterr().out.strip().endswith("PASS" if passed else "FAIL")


def test_cmd_check_writes_reports(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["check", "--config", str(p), "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "check" / "poincare" / "report.json").read_text())
    assert rep["schema"] == 1
    assert rep["payload"]["kahler"]["classification"] == "strongly_kahler"
    assert rep["payload"]["effective_config"]["seed"] == 7


def test_cmd_curvature_and_csv(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["curvature", "--config", str(p), "--out", str(out)])
    assert rc == 0
    csv_text = (out / "curvature" / "poincare" / "holomorphic_curvature.csv").read_text()
    rows = csv_text.strip().splitlines()
    assert rows[0] == "point_index,dir_index,K_G"
    vals = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(abs(v + 4.0) < 1e-5 for v in vals)


def test_cmd_geodesic_and_distance(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["metrics"] = [BASE_CONFIG["metrics"][1]]  # minkowski only, fast
    p = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["geodesic", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "geodesic" / "minkowski" / "path.csv").exists()
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "distance" / "minkowski" / "report.json").read_text())
    assert rep["payload"]["max_closed_form_error"] < 1e-6


def _disk_distance_config(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["metrics"] = [BASE_CONFIG["metrics"][0]]  # Poincare disk
    cfg["plans"] = {"default": {"n_points": 2, "n_dirs": 2, "radial_range": [0.2, 0.5]}}
    return write_config(tmp_path, cfg)


def _szabo_distance_config(tmp_path):
    # the chords of the Szabo polydisk are no geodesics, so its queries iterate
    disk = {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}
    cfg = dict(BASE_CONFIG)
    cfg["metrics"] = [{"family": "szabo", "id": "szabo",
                       "params": {"k": 2, "eps": 0.5, "factor1": disk, "factor2": disk}}]
    cfg["plans"] = {"default": {"n_points": 2, "n_dirs": 2, "radial_range": [0.2, 0.5]}}
    return write_config(tmp_path, cfg)


# the disk, the ball, a Minkowski norm, a non-Kahler Hermitian metric and the
# disk at scale 1e-3, whose geodesic from the origin leaves the domain near
# arc length 0.34, before the plan's radial_range[1] = 0.7
GEODESIC_CONFIG = {
    "seed": 7,
    "metrics": [
        _DISK,
        {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "poincare_ball"},
         "id": "ball"},
        BASE_CONFIG["metrics"][1],
        {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "nonkahler"},
         "id": "nonkahler"},
        {"family": "hermitian", "complex_dim": 1,
         "params": {"catalog": "poincare_disk", "scale": 1e-3}, "id": "small_disk"},
    ],
    "plans": {"default": {"n_points": 5, "n_dirs": 3, "radial_range": [0.1, 0.7]}},
}


def test_cmd_geodesic_output_is_pinned(tmp_path):
    out = tmp_path / "out"
    # the small disk's energy drifts by 4.7e-7 on its way to the edge: status 1
    assert main(["geodesic", "--config", str(write_config(tmp_path, GEODESIC_CONFIG)),
                 "--out", str(out)]) == 1
    digest = hashlib.sha256()
    for spec in GEODESIC_CONFIG["metrics"]:
        d = out / "geodesic" / spec["id"]
        payload = json.loads((d / "report.json").read_text())["payload"]
        digest.update(canonical_json(payload).encode())
        digest.update((d / "path.csv").read_bytes())
    assert payload["truncated"] and payload["arc_length"] == pytest.approx(0.3386, abs=1e-4)
    assert digest.hexdigest() == "bba92cb5ce227a50c2a67406260a891ac20c0607823dd20cc063e49ddc6c94f2"


def test_cmd_geodesic_metadata_counts_the_dense_output(tmp_path):
    # the payload's nfev is the integration's, counted before the 65 reads of
    # path.csv build the 3 dense-output stages of every step; the metadata
    # holds the total, 98 + 3 * 8 on the disk from the origin to arc 0.7
    out = tmp_path / "out"
    config = write_config(tmp_path, {**GEODESIC_CONFIG, "metrics": [_DISK]})
    assert main(["geodesic", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((out / "geodesic" / _DISK["id"] / "report.json").read_text())
    payload = doc["payload"]
    assert (payload["nfev"], payload["steps"], doc["metadata"]["rhs_evaluations"]) == (98, 8, 122)


def test_cmd_distance_rho_column_is_pinned(tmp_path):
    # the rho column comes from plain shots, which the Levi samples' Hessian
    # queries never move: distance.csv of the disk, the ball, a Minkowski
    # norm, a non-Kahler Hermitian metric and the Szabo polydisk is pinned
    # byte for byte, and so is each levi.csv, read off the systems of the
    # Hessian queries' variational shots. The queries that iterate (the
    # last two metrics) move in their last bits with their shooting
    # Jacobians, which are Y_x(1) / rho of a variational shot
    disk = {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}
    metrics = [_DISK, *GEODESIC_CONFIG["metrics"][1:4],
               {"family": "szabo", "id": "szabo",
                "params": {"k": 2, "eps": 0.5, "factor1": disk, "factor2": disk}}]
    p = write_config(tmp_path, {
        "seed": 7, "metrics": metrics,
        "plans": {"default": {"n_points": 3, "n_dirs": 2, "radial_range": [0.2, 0.6]}}})
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 0
    digest, levi_digest = hashlib.sha256(), hashlib.sha256()
    for spec in metrics:
        d = out / "distance" / spec["id"]
        digest.update((d / "distance.csv").read_bytes())
        levi_digest.update((d / "levi.csv").read_bytes())
    assert digest.hexdigest() == "28149c04ea266e28a2d66a39581d3ef5a3552129ef25070086b149ae2c4240a0"
    assert levi_digest.hexdigest() == (
        "ebad5cab01c14c01a4d0d2211f999230ad35be511a7b2a785e6670210c12c796")


def test_cmd_distance_reports_levi_margin(tmp_path, capsys):
    p = _disk_distance_config(tmp_path)
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 0
    payload = json.loads((out / "distance" / "poincare" / "report.json").read_text())["payload"]
    levi_rows = (out / "distance" / "poincare" / "levi.csv").read_text().splitlines()[1:]
    margins = [float(row.split(",")[-1]) for row in levi_rows]
    assert payload["levi_samples"] == {"attempted": 4, "ok": 4, "failed": 0,
                                       "failure_reasons": {}}
    assert len(margins) == 4
    assert payload["levi_min_margin"] == min(margins)
    assert "levi samples ok 4/4" in capsys.readouterr().out


def test_cmd_distance_fails_when_every_levi_sample_fails(tmp_path, monkeypatch):
    from finsler import levi
    from finsler.errors import ShootingError

    def refuse(pd, x):
        raise ShootingError("refused")

    # every Levi sample at a point reads the one distance Hessian there
    monkeypatch.setattr(levi, "distance_hessian", refuse)
    p = _disk_distance_config(tmp_path)
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 1
    payload = json.loads((out / "distance" / "poincare" / "report.json").read_text())["payload"]
    assert payload["levi_samples"] == {"attempted": 4, "ok": 0, "failed": 4,
                                       "failure_reasons": {"ShootingError": 4}}
    assert payload["levi_min_margin"] is None


@pytest.mark.parametrize("plan", [
    {"n_points": 0},
    {"n_dirs": -1},
    {"n_points": 2.5},
    {"n_dirs": True},
    {"radial_range": [0.5, 0.2]},
    {"radial_range": [-0.1, 0.5]},
    {"radial_range": [0.1]},
    {"radial_range": "wide"},
    {"radial_range": [0.1, math.inf]},
])
def test_bad_plan_is_a_configuration_error(tmp_path, capsys, plan):
    cfg = dict(BASE_CONFIG)
    cfg["plans"] = {"default": plan}
    p = write_config(tmp_path, cfg)
    assert main(["curvature", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    with pytest.raises(ConfigurationError, match=r"plans\.default\."):
        parse_config(cfg)


@pytest.mark.parametrize("plans", [
    {"fine": {"n_points": 3}},
    {"default": {"n_points": 3}, "coarse": {"n_points": 2}},
])
def test_plan_other_than_default_is_a_configuration_error(tmp_path, capsys, plans):
    # only the default plan is read, so another one would be silently ignored
    p = write_config(tmp_path, {**BASE_CONFIG, "plans": plans})
    assert main(["check", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: plan ") and "Traceback" not in err
    with pytest.raises(ConfigurationError, match="commands read only plan 'default'"):
        parse_config({**BASE_CONFIG, "plans": plans})


@pytest.mark.parametrize("command, change", [
    ("check", {"metrics": [1]}),
    ("check", {"metrics": [{"family": ["hermitian"]}]}),
    ("check", {"tolerance": "abc"}),
    ("check", {"outputs": 5}),
    ("schwarz", {"maps": [1]}),
    ("check", {"metrics": [{"family": "hermitian", "complex_dim": "two"}]}),
    ("check", {"metrics": [{"family": "hermitian", "params": {"scale": "x"}}]}),
    ("check", {"metrics": [{"family": "hermitian", "params": [1]}]}),
    ("schwarz", {"maps": [{"map": "linear", "id": "identity"}]}),
    ("schwarz", {"maps": [{"map": "linear", "id": "identity",
                           "params": {"matrix": [[1, 2]]}}]}),
    ("check", {"metrics": [{"family": "hermitian", "complex_dim": 0}]}),
    ("check", {"metrics": [{"family": "minkowski", "complex_dim": 0}]}),
    ("schwarz", {"tolerance": "nan"}),
    ("check", {"tolerance": -1}),
    ("check", {"seed": 1.5}),
    ("check", {"seed": True}),
    ("check", {"seed": -1}),
    ("check", {"metrics": [{**_DISK, "complex_dim": 1.9}]}),
    ("schwarz", {"maps": [_IDENTITY, {"map": "power", "params": {"m": 2.7}, "id": "square"}]}),
    ("check", {"metrics": [{**_DISK, "params": {"catalog": "poincare_disk", "scale": math.inf}}]}),
    ("check", {"metrics": [{"family": "szabo", "params": {"eps": math.nan}}]}),
    ("schwarz", {"maps": [{"map": "mobius", "params": {"a": [math.nan, 0.0]}, "id": "identity"}]}),
    ("check", {"metrics": _DISK}),
    ("check", {"metrics": [{"family": "hermitian", "complex_dim": 2, "params": {
        "catalog": "constant", "matrix": [[2, 1], [1.00001, 2]]}}]}),
    ("schwarz", {"tolerance": True}),
], ids=["metric_not_a_mapping", "family_not_a_name", "tolerance_not_a_number",
        "outputs_not_a_mapping", "map_not_a_mapping", "complex_dim_not_an_integer",
        "scale_not_a_number", "params_not_a_mapping", "linear_map_without_matrix",
        "map_dimensions_do_not_match_pair", "hermitian_complex_dim_zero",
        "minkowski_complex_dim_zero", "tolerance_nan", "tolerance_negative",
        "seed_not_an_integer", "seed_a_bool", "seed_negative", "complex_dim_fractional",
        "power_m_fractional", "scale_infinite", "eps_nan", "mobius_a_nan", "metrics_not_a_list",
        "matrix_not_hermitian", "tolerance_a_bool"])
def test_malformed_config_is_a_configuration_error(tmp_path, capsys, command, change):
    p = write_config(tmp_path, {**BASE_CONFIG, **change})
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


UNREADABLE = {"not_utf8": ("run.yaml", b"seed: 7\nmetrics: []\n# \xff\xfe\n"),
              "directory": ("run.yaml", None),
              "json_cut_short": ("run.json", b'{"seed": 7,'),
              "yaml_unclosed": ("run.yaml", b"seed: [7\n"),
              "root_a_list": ("run.json", b"[7]")}


@pytest.mark.parametrize("kind", UNREADABLE)
def test_unreadable_config_is_a_configuration_error(tmp_path, capsys, kind):
    name, content = UNREADABLE[kind]
    p = tmp_path / name
    if content is None:
        p.mkdir()
    else:
        p.write_bytes(content)
    assert main(["check", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_bad_tolerance_flag_is_a_configuration_error(tmp_path, capsys, value):
    golden = Path(__file__).parent / "golden" / "golden_config.json"
    cert = Path(__file__).parent / "golden" / "cert_identity.json"
    assert main(["schwarz", "--config", str(golden), "--out", str(tmp_path / "o"),
                 f"--tolerance={value}"]) == 2
    assert main(["replay", "--certificate", str(cert), f"--tolerance={value}"]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error: tolerance") == 2 and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "curvature", "geodesic", "distance", "bounds"])
def test_tolerance_flag_is_refused_where_nothing_reads_it(tmp_path, capsys, command):
    p = write_config(tmp_path)
    out = tmp_path / "o"
    assert main([command, "--config", str(p), "--out", str(out), "--tolerance", "1e-3"]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: --tolerance is not read by {command}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["check", "curvature", "geodesic", "distance", "bounds",
                                     "schwarz"])
def test_certificate_flag_is_refused_where_nothing_reads_it(tmp_path, capsys, command):
    p = write_config(tmp_path)
    out = tmp_path / "o"
    cert = Path(__file__).parent / "golden" / "cert_identity.json"
    assert main([command, "--config", str(p), "--out", str(out), "--certificate", str(cert)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: --certificate is not read by {command}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--out"])
def test_replay_refuses_config_and_out(tmp_path, capsys, flag):
    cert = Path(__file__).parent / "golden" / "cert_identity.json"
    assert main(["replay", "--certificate", str(cert), flag, str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {flag} is not read by replay" in err
    assert "Traceback" not in err and not (tmp_path / "x").exists()
    # nor does --config name the certificate in place of --certificate
    assert main(["replay", flag, str(cert)]) == 2


_FACTOR = {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}
_SZABO = {"family": "szabo", "id": "szabo",
          "params": {"k": 2, "eps": 0.5, "factor1": _FACTOR, "factor2": _FACTOR}}
_UN = {"family": "un_invariant", "complex_dim": 2, "id": "un",
       "params": {"profile": {"form": "gradient", "f": "exp", "c": 0.5}}}


def _with(spec, **params):
    return {**spec, "params": {**spec["params"], **params}}


# the ball, the Szabo polydisk of disks, a non-Kahler Hermitian metric, the
# n = 2 Minkowski norm and the free U(n)-invariant profile 1 + s^2, with
# three identity pairs; the Szabo -> nonkahler pair does not meet its
# hypotheses
REPORT_CONFIG = {
    "seed": 7,
    "metrics": [GEODESIC_CONFIG["metrics"][1], _SZABO, GEODESIC_CONFIG["metrics"][3],
                BASE_CONFIG["metrics"][1],
                {"family": "un_invariant", "complex_dim": 2, "id": "un_s2",
                 "params": {"profile": {"form": "free", "expr": "one_plus_s2"}}}],
    "maps": [{"map": "identity", "params": {"n": 2}, "id": "identity"}],
    "pairs": [{"map": "identity", "domain": "ball", "target": "ball"},
              {"map": "identity", "domain": "szabo", "target": "nonkahler"},
              {"map": "identity", "domain": "minkowski", "target": "ball"}],
    "plans": {"default": {"n_points": 6, "n_dirs": 3, "radial_range": [0.1, 0.7]}},
}


def test_cmd_check_curvature_bounds_and_schwarz_output_is_pinned(tmp_path, capsys):
    # every file the four commands write, each report without its
    # generated_at, and their stdout, pinned byte for byte; the suffix that
    # names unmet hypotheses has its own test
    p = write_config(tmp_path, REPORT_CONFIG)
    out = tmp_path / "out"
    assert [main([command, "--config", str(p), "--out", str(out)])
            for command in ("check", "curvature", "bounds", "schwarz")] == [0, 0, 0, 0]
    digest = hashlib.sha256()
    for path in sorted(path for path in out.rglob("*") if path.is_file()):
        digest.update(str(path.relative_to(out)).encode())
        if path.name == "report.json":
            doc = json.loads(path.read_text())
            del doc["metadata"]["generated_at"]
            digest.update(canonical_json(doc).encode())
        else:
            digest.update(path.read_bytes())
    digest.update(re.sub(r"; unmet: .*", "", capsys.readouterr().out).encode())
    assert digest.hexdigest() == "30d5f0a07684d1b56bef6953d56d78961724ab3a7d2a38bc5c87100f46bb6ebc"


@pytest.mark.parametrize("command, change, message", [
    ("check", {"outputs": {"directory": 5}}, "outputs.directory must be a string"),
    ("check", {"outputs": {"directory": ""}}, "outputs.directory must be a string, not empty"),
    ("check", {"metrics": [{**_DISK, "id": 7}]}, "metrics[0].id must be a non-empty name"),
    ("check", {"metrics": [{**_DISK, "id": ["a"]}]}, "metrics[0].id"),
    ("schwarz", {"maps": [{**_IDENTITY, "id": ["x"]}]}, "maps[0].id"),
    ("check", {"metrics": [{**_DISK, "id": "../../x"}]}, "metrics[0].id"),
    ("check", {"metrics": [{**_DISK, "id": ""}]}, "metrics[0].id"),
    ("check", {"metrics": [{**_DISK, "id": ".."}]}, "metrics[0].id"),
    ("schwarz", {"maps": [{**_IDENTITY, "id": "../m"}],
                 "pairs": [{"map": "../m", "domain": "poincare", "target": "poincare"}]},
     "maps[0].id"),
    ("check", {"metrics": [{**_DISK, "id": "a\0b"}]}, "metrics[0].id"),
    ("schwarz", {"pairs": [{"map": ["identity"], "domain": "poincare", "target": "poincare"}]},
     "pairs[0].map must be a string"),
    ("schwarz", {"pairs": [{"map": "identity", "domain": ["poincare"], "target": "poincare"}]},
     "pairs[0].domain must be a string"),
    ("check", {"metrics": [_DISK, _DISK]}, "duplicate metric id 'poincare'"),
    ("curvature", {"metrics": [{**_DISK, "id": "hermitian_1"},
                               {k: v for k, v in _DISK.items() if k != "id"}]},
     "duplicate metric id 'hermitian_1'"),
    ("geodesic", {"metrics": [_DISK, _DISK]}, "duplicate metric id"),
    ("distance", {"metrics": [_DISK, _DISK]}, "duplicate metric id"),
    ("bounds", {"metrics": [_DISK, _DISK]}, "duplicate metric id"),
    ("schwarz", {"metrics": [_DISK, _DISK]}, "duplicate metric id"),
    ("schwarz", {"maps": [_IDENTITY, _IDENTITY]}, "duplicate map id"),
    ("check", {"metrics": [], "metric": [_DISK]}, "unknown config key metric"),
    ("check", {"outputs": {"directory": "o", "format": ["csv"]}},
     "unknown config key outputs.format"),
    ("check", {"outputs": {"formats": ["csv"]}}, "outputs.formats must be"),
    # one key outside the table per section, each named by its dotted path
    ("check", {"metrics": [{**_DISK, "expct": {"kahler_class": "none"}}]},
     "unknown config key metrics[0].expct"),
    ("check", {"metrics": [{k: v for k, v in _DISK.items() if k != "family"}]},
     "metrics[0] must declare family"),
    ("check", {"metrics": [_with(_DISK, scal=4.0)]}, "unknown config key metrics[0].params.scal"),
    ("check", {"metrics": [_DISK, _with(BASE_CONFIG["metrics"][1], kk=3)]},
     "unknown config key metrics[1].params.kk"),
    ("check", {"metrics": [_with(_SZABO, epsilon=2.0)]},
     "unknown config key metrics[0].params.epsilon"),
    ("check", {"metrics": [_with(_SZABO, factor2=_with(_FACTOR, scal=4.0))]},
     "unknown config key metrics[0].params.factor2.params.scal"),
    ("check", {"metrics": [_with(_SZABO, factor1={**_FACTOR, "family": "hermitian"})]},
     "unknown config key metrics[0].params.factor1.family"),
    ("check", {"metrics": [_with(_UN, profil={"form": "free"})]},
     "unknown config key metrics[0].params.profil"),
    ("check", {"metrics": [_with(_UN, profile={"form": "gradient", "f": "exp", "cc": 2.0})]},
     "unknown config key metrics[0].params.profile.cc"),
    ("schwarz", {"maps": [_IDENTITY, {"map": "power", "params": {"mm": 3}, "id": "square"}]},
     "unknown config key maps[1].params.mm"),
    ("schwarz", {"maps": [{**_IDENTITY, "idd": "x"}]}, "unknown config key maps[0].idd"),
    ("schwarz", {"pairs": [{"map": "identity", "domain": "poincare", "target": "poincare",
                            "expect_pas": False}]}, "unknown config key pairs[0].expect_pas"),
    ("schwarz", {"pairs": [{"map": "identity", "domain": "poincare"}]},
     "pairs[0] must declare target"),
    ("check", {"metrics": [{**_DISK, "expect": {"kahler_clas": "none"}}]},
     "unknown config key metrics[0].expect.kahler_clas"),
    ("check", {"plans": {"default": {"n_points": 4, "n_point": 99}}},
     "unknown config key plans.default.n_point"),
    # a key that the chosen catalog entry, profile form or Szabo shorthand never reads
    ("check", {"metrics": [_with(_DISK, matrix=[[2.0]])]},
     "unknown config key metrics[0].params.matrix"),
    ("check", {"metrics": [_with(_UN, profile={"form": "free", "c": 3.0})]},
     "unknown config key metrics[0].params.profile.c"),
    ("check", {"metrics": [_with(_SZABO, factors=[[[1.0]], [[2.0]]])]},
     "unknown config key metrics[0].params.factor1"),
    # expectations are read as written: a mapping, booleans and a class name
    ("check", {"metrics": [{**_DISK, "expect": 5}]}, "metrics[0].expect must be a mapping"),
    ("check", {"metrics": [{**_DISK, "expect": {"kahler_class": "strong"}}]},
     "metrics[0].expect.kahler_class must be one of"),
    ("check", {"metrics": [{**_UN, "expect": {"weakly_kahler_pde": "yes"}}]},
     "metrics[0].expect.weakly_kahler_pde must be true or false"),
    # only a profile metric has the PDE that check compares with its expectation
    ("check", {"metrics": [{**_DISK, "expect": {"weakly_kahler_pde": False}}]},
     "unknown config key metrics[0].expect.weakly_kahler_pde"),
    ("schwarz", {"pairs": [{"map": "identity", "domain": "poincare", "target": "poincare",
                            "expect_pass": "no"}]},
     "pairs[0].expect_pass must be true or false"),
], ids=["directory_not_a_string", "directory_empty", "metric_id_a_number", "metric_id_a_list",
        "map_id_a_list", "metric_id_leaves_out", "metric_id_empty", "metric_id_parent",
        "map_id_leaves_out", "metric_id_with_nul", "pair_map_a_list", "pair_domain_a_list",
        "duplicate_metric_id",
        "metric_id_equal_to_a_generated_id", "duplicate_metric_id_geodesic",
        "duplicate_metric_id_distance", "duplicate_metric_id_bounds",
        "duplicate_metric_id_schwarz", "duplicate_map_id", "unknown_key",
        "unknown_outputs_key", "formats_not_the_default", "unknown_metric_key",
        "metric_without_family", "unknown_hermitian_param", "unknown_minkowski_param",
        "unknown_szabo_param", "unknown_szabo_factor_param", "unknown_szabo_factor_key",
        "unknown_un_invariant_param", "unknown_profile_key", "unknown_map_param",
        "unknown_map_key", "unknown_pair_key", "pair_without_target",
        "unknown_expectation_key", "unknown_plan_key", "param_of_another_catalog",
        "param_of_another_form", "szabo_factors_beside_factor1", "expectation_not_a_mapping",
        "kahler_class_not_a_class", "weakly_kahler_pde_not_a_bool",
        "weakly_kahler_pde_without_profile", "expect_pass_not_a_bool"])
def test_bad_id_or_output_directory_is_a_configuration_error(tmp_path, capsys, command, change,
                                                             message):
    # reports land in <out>/<command>/<id>, so an id must be one path component
    # and name one metric or map: a second report of one id would overwrite the first.
    # A misspelt key, an expectation that is not read as written, or an output
    # format no command writes would run with defaults.
    p = write_config(tmp_path, {**BASE_CONFIG, **change})
    out = tmp_path / "runs" / "o"
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert message in err
    assert list(tmp_path.rglob("*")) == [p]


def test_an_empty_out_flag_is_a_configuration_error(tmp_path, monkeypatch, capsys):
    # Path("") is the working directory: --out "" would write the report
    # trees there, or, read as no flag, into the config's directory
    p = write_config(tmp_path, {**BASE_CONFIG, "outputs": {"directory": "o"}})
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--config", str(p), "--out", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --out must be a string, not empty")
    assert list(tmp_path.rglob("*")) == [p]


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(yaml.safe_load(example))
    assert [spec["id"] for spec in cfg.metrics] == ["poincare", "minkowski"]
    assert cfg.pairs[0]["expect_pass"] is True


def test_default_formats_are_accepted_and_echoed():
    cfg = parse_config({**BASE_CONFIG, "outputs": {"formats": ["json", "csv"]}})
    assert cfg.effective() == parse_config(BASE_CONFIG).effective()


def test_cmd_bounds(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["metrics"] = [BASE_CONFIG["metrics"][0]]
    cfg["plans"] = {"default": {"n_points": 4, "n_dirs": 3, "radial_range": [0.1, 0.5]}}
    p = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "bounds" / "poincare" / "report.json").read_text())
    assert rep["payload"]["K1"] == pytest.approx(-4.0, abs=1e-5)
    assert rep["payload"]["radial_flag_inf"] == pytest.approx(-4.0, abs=1e-3)
    assert rep["payload"]["radial_flag_samples"] > 0


def test_cmd_bounds_fails_without_radial_flag_samples(tmp_path, monkeypatch, capsys):
    from finsler.errors import NoSamplesError

    def degenerate(*args, **kwargs):
        raise NoSamplesError("every radial flag plane was degenerate")

    # the package re-exports the function cartan under the module's name
    monkeypatch.setattr(sys.modules["finsler.cartan"], "radial_flag_bounds", degenerate)
    cfg = dict(BASE_CONFIG)
    cfg["metrics"] = [BASE_CONFIG["metrics"][0]]
    cfg["plans"] = {"default": {"n_points": 4, "n_dirs": 3, "radial_range": [0.1, 0.5]}}
    p = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["bounds", "--config", str(p), "--out", str(out)]) == 1
    payload = json.loads((out / "bounds" / "poincare" / "report.json").read_text())["payload"]
    assert payload["radial_flag_samples"] == 0
    assert "radial_flag_error" in payload
    assert "K_constant" not in payload
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].endswith("radial_samples=0")


def test_schwarz_determinism_and_replay(tmp_path):
    p = write_config(tmp_path)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["schwarz", "--config", str(p), "--out", str(out1)]) == 0
    assert main(["schwarz", "--config", str(p), "--out", str(out2)]) == 0
    rel = Path("schwarz") / "identity__poincare__poincare" / "report.json"
    d1 = json.loads((out1 / rel).read_text())
    d2 = json.loads((out2 / rel).read_text())
    assert canonical_json(d1["payload"]) == canonical_json(d2["payload"])

    cert_file = out1 / rel
    assert main(["replay", "--certificate", str(cert_file)]) == 0

    # tampering with the recorded extremum must fail the replay
    tampered = json.loads(cert_file.read_text())
    tampered["payload"]["certificate"]["max_ratio"] = 0.5
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered))
    assert main(["replay", "--certificate", str(bad)]) == 1
    # but passes a loose numeric tolerance on the other fields
    tampered["payload"]["certificate"]["max_ratio"] = \
        d1["payload"]["certificate"]["max_ratio"] + 1e-9
    bad.write_text(json.dumps(tampered))
    assert main(["replay", "--certificate", str(bad), "--tolerance", "1e-6"]) == 0


def test_cmd_check_profile_expectation(tmp_path):
    cfg = {
        "seed": 5,
        "metrics": [
            {"family": "un_invariant", "complex_dim": 2, "id": "free_profile",
             "params": {"profile": {"form": "free", "expr": "one_plus_s2"}},
             "expect": {"weakly_kahler_pde": False}},
        ],
        "plans": {"default": {"n_points": 4, "n_dirs": 3, "radial_range": [0.1, 0.4]}},
    }
    p = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["check", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "check" / "free_profile" / "report.json").read_text())
    assert rep["payload"]["weakly_kahler_pde"]["passed"] is False

    # expecting the profile to satisfy the characterization must fail the run
    cfg["metrics"][0]["expect"] = {"weakly_kahler_pde": True}
    p2 = write_config(tmp_path, cfg, name="run2.json")
    assert main(["check", "--config", str(p2), "--out", str(tmp_path / "o2")]) == 1


def test_cmd_check_records_the_profile_pde_grid(tmp_path):
    # the PDE residual of a profile metric is one stacked grid of 400 rows; a
    # metric without a profile records no such grid, and no payload holds one
    cfg = {"seed": 5, "metrics": [_UN, _DISK],
           "plans": {"default": {"n_points": 3, "n_dirs": 2, "radial_range": [0.1, 0.5]}}}
    out = tmp_path / "out"
    assert main(["check", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    un, disk = (json.loads((out / "check" / mid / "report.json").read_text())
                for mid in ("un", "poincare"))
    assert un["metadata"]["grids"]["weakly_kahler_pde"] == {"rows": 400, "stacked": True}
    assert "weakly_kahler_pde" not in disk["metadata"]["grids"]
    assert sorted(un["payload"]["weakly_kahler_pde"]) == [
        "errors", "name", "passed", "samples", "stats", "tolerance"]


def test_no_command_computes_on_jet_objects(tmp_path, monkeypatch):
    # every jet a command reads is replayed from a recorded program: with the
    # product of Jet objects refused, each command still succeeds
    from finsler.jets import Jet

    def refuse(*args):
        raise AssertionError("arithmetic on Jet objects")

    monkeypatch.setattr(Jet, "__mul__", refuse)
    monkeypatch.setattr(Jet, "__rmul__", refuse)
    golden = json.loads((Path(__file__).parent / "golden" / "golden_config.json").read_text())
    out = tmp_path / "out"
    with_profile = write_config(tmp_path, {**golden, "metrics": golden["metrics"] + [_UN]},
                                name="profile.json")
    assert main(["check", "--config", str(with_profile), "--out", str(out)]) == 0
    p = write_config(tmp_path, golden, name="golden.json")
    for command in ("curvature", "bounds", "schwarz"):
        assert main([command, "--config", str(p), "--out", str(out)]) == 0
    for pair in ("identity", "mobius", "square"):
        cert = out / "schwarz" / f"{pair}__poincare__poincare" / "report.json"
        assert main(["replay", "--certificate", str(cert)]) == 0
    p = _disk_distance_config(tmp_path)
    for command in ("geodesic", "distance"):
        assert main([command, "--config", str(p), "--out", str(out)]) == 0


def test_no_command_runs_a_formula_outside_its_recording(tmp_path, monkeypatch):
    # values come from the recorded programs as well as derivatives: with every
    # metric, map and profile formula refusing an argument that is not a
    # recording jet (or a CJet of two), each command still succeeds
    from finsler.geometry import MetricDef
    from finsler.jets import CJet, _RecordedJet
    from finsler.metrics import HoloMap, UnitaryProfile

    def recording(fn):
        def call(*args):
            scalars = [w for arg in args for w in (arg if isinstance(arg, list) else [arg])]
            parts = [p for w in scalars for p in ((w.re, w.im) if isinstance(w, CJet) else (w,))]
            if not all(isinstance(p, _RecordedJet) for p in parts):
                raise AssertionError(f"a formula ran on {[type(p).__name__ for p in parts]}")
            return fn(*args)
        return call

    # the index of the formula among each constructor's positional arguments
    for cls, at in ((MetricDef, 1), (HoloMap, 3), (UnitaryProfile, 1)):
        init = cls.__init__

        def refusing(self, *args, _init=init, _at=at, **kwargs):
            args = list(args)
            args[_at] = recording(args[_at])
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", refusing)
    golden = json.loads((Path(__file__).parent / "golden" / "golden_config.json").read_text())
    out = tmp_path / "out"
    with_profile = write_config(tmp_path, {**golden, "metrics": golden["metrics"] + [_UN]},
                                name="profile.json")
    assert main(["check", "--config", str(with_profile), "--out", str(out)]) == 0
    p = write_config(tmp_path, golden, name="golden.json")
    for command in ("curvature", "bounds", "schwarz"):
        assert main([command, "--config", str(p), "--out", str(out)]) == 0
    for pair in ("identity", "mobius", "square"):
        cert = out / "schwarz" / f"{pair}__poincare__poincare" / "report.json"
        assert main(["replay", "--certificate", str(cert)]) == 0
    # the disk and a Minkowski norm, whose closed-form distances read G
    p = write_config(tmp_path, {**BASE_CONFIG, "plans": {"default": {
        "n_points": 2, "n_dirs": 2, "radial_range": [0.2, 0.5]}}}, name="distance.json")
    for command in ("geodesic", "distance"):
        assert main([command, "--config", str(p), "--out", str(out)]) == 0


def test_cmd_schwarz_records_the_target_validity(tmp_path, monkeypatch, capsys):
    # a target that fails its validity check fails the certificate's
    # hypotheses; the metadata and the summary line say so, and the payload
    # has no key for it
    from finsler.errors import DegenerateMetricError
    from finsler.geometry import MetricDef
    fundamental_real = MetricDef.fundamental_real

    def degenerate_target(self, x, u):
        if self.family_id == "target":
            raise DegenerateMetricError("fundamental tensor singular")
        return fundamental_real(self, x, u)

    monkeypatch.setattr(MetricDef, "fundamental_real", degenerate_target)
    p = write_config(tmp_path, {
        **BASE_CONFIG,
        "metrics": [_DISK, {**_DISK, "id": "target"}],
        "pairs": [{"map": "identity", "domain": "poincare", "target": target}
                  for target in ("poincare", "target")]})
    out = tmp_path / "out"
    assert main(["schwarz", "--config", str(p), "--out", str(out)]) == 0
    good, bad = (json.loads((out / "schwarz" / f"identity__poincare__{t}" / "report.json")
                            .read_text()) for t in ("poincare", "target"))
    assert good["metadata"]["target_valid_metric"] is True
    assert bad["metadata"]["target_valid_metric"] is False
    assert good["metadata"]["grids"]["target_validity"] == {"rows": 24, "stacked": True}
    assert bad["metadata"]["grids"]["target_validity"] == {"rows": 24, "stacked": False}
    good_line, bad_line = capsys.readouterr().out.splitlines()
    assert good_line.endswith(" PASS") and bad_line.endswith(" PASS; unmet: target_valid_metric")
    good, bad = good["payload"]["certificate"], bad["payload"]["certificate"]
    assert good["hypotheses"]["met"] is True and bad["hypotheses"]["met"] is False
    assert sorted(bad["hypotheses"]) == sorted(good["hypotheses"])
    assert bad["passed"] is good["passed"] is True


def test_no_grid_command_replays_a_single_point(tmp_path, monkeypatch):
    # every sample grid of these commands is read from stacked rows: with the
    # single-point jet and every one-row replay refused, each still succeeds
    from finsler.geometry import MetricDef
    from finsler.jets import JetProgram

    def refuse(*args):
        raise AssertionError("single-point jet in a grid command")

    replay_rows = JetProgram.replay_rows

    def several_rows(program, values, order):
        if len(values) == 1:
            raise AssertionError("one-row replay in a grid command")
        return replay_rows(program, values, order)

    monkeypatch.setattr(MetricDef, "real_jet", refuse)
    monkeypatch.setattr(JetProgram, "replay_rows", several_rows)
    golden = json.loads((Path(__file__).parent / "golden" / "golden_config.json").read_text())
    out = tmp_path / "out"
    p = write_config(tmp_path, golden, name="golden.json")
    for command in ("check", "curvature", "bounds", "schwarz"):
        assert main([command, "--config", str(p), "--out", str(out)]) == 0
    for pair in ("identity", "mobius", "square"):
        cert = out / "schwarz" / f"{pair}__poincare__poincare" / "report.json"
        assert main(["replay", "--certificate", str(cert)]) == 0


@pytest.mark.parametrize("spec", [_SZABO, _UN], ids=["szabo_of_disks", "gradient_profile"])
def test_cmd_check_kahler_families_declare_strongly_kahler(tmp_path, capsys, spec):
    # the kahler level is empty (Chen and Shen): a metric whose declared class
    # is Kahler must be declared strongly Kahler, or its own check fails it
    cfg = {"seed": 5, "metrics": [spec],
           "plans": {"default": {"n_points": 3, "n_dirs": 2, "radial_range": [0.1, 0.5]}}}
    out = tmp_path / "out"
    assert main(["check", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert instantiate(spec).metadata["kahler_class"] == "strongly_kahler"
    payload = json.loads((out / "check" / spec["id"] / "report.json").read_text())["payload"]
    assert payload["kahler"]["classification"] == "strongly_kahler"
    assert payload["class_matches_expectation"] is True
    assert "class=strongly_kahler" in capsys.readouterr().out


def test_replay_schema_mismatch(tmp_path):
    golden = Path(__file__).parent / "golden" / "cert_identity.json"
    doc = json.loads(golden.read_text())
    doc["payload"]["certificate"]["schema"] = 99
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps(doc))
    assert main(["replay", "--certificate", str(bad)]) == 2


def test_golden_certificates_replay(tmp_path):
    for name in ("identity", "mobius", "square"):
        golden = Path(__file__).parent / "golden" / f"cert_{name}.json"
        assert main(["replay", "--certificate", str(golden)]) == 0


def test_replay_ignores_the_certificates_outputs(tmp_path):
    # outputs written before formats and outputs keys were checked do not stop a replay
    doc = json.loads((Path(__file__).parent / "golden" / "cert_identity.json").read_text())
    doc["payload"]["effective_config"]["outputs"] = {"directory": "x", "formats": ["json"],
                                                      "extra": 1}
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    assert main(["replay", "--certificate", str(cert)]) == 0


def test_replay_refuses_a_key_outside_the_table(tmp_path, capsys):
    # only the embedded outputs are dropped; any other unknown key is refused
    doc = json.loads((Path(__file__).parent / "golden" / "cert_identity.json").read_text())
    doc["payload"]["effective_config"]["pairs"][0]["expect_pas"] = False
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    assert main(["replay", "--certificate", str(cert)]) == 2
    assert ("configuration error: unknown config key pairs[0].expect_pas"
            in capsys.readouterr().err)


def _two_pair_config():
    cfg = dict(BASE_CONFIG)
    cfg["pairs"] = [
        {"map": "identity", "domain": "poincare", "target": "poincare",
         "expect_pass": True},
        {"map": "square", "domain": "poincare", "target": "poincare",
         "expect_pass": True},
    ]
    cfg["plans"] = {"default": {"n_points": 3, "n_dirs": 2, "radial_range": [0.1, 0.6]}}
    return cfg


@pytest.mark.parametrize("command", ["bounds", "curvature", "schwarz"])
def test_zero_curvature_samples_fail_each_item(tmp_path, monkeypatch, capsys, command):
    from finsler import chern
    from finsler.errors import DegenerateMetricError

    def refuse(m, z, v):
        raise DegenerateMetricError("singular Levi matrix")

    monkeypatch.setattr(chern, "holomorphic_sectional_curvature", refuse)
    p = write_config(tmp_path, _two_pair_config())
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(p), "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # two metrics, or two pairs
    if command == "schwarz":
        assert all("error NoSamplesError" in line for line in lines)
        rep = json.loads((out / "schwarz" / "square__poincare__poincare"
                          / "report.json").read_text())
        assert rep["payload"]["error"].startswith("NoSamplesError")
        return
    payload = json.loads((out / command / "poincare" / "report.json").read_text())["payload"]
    assert payload["holomorphic_samples"] == {
        "attempted": 6, "ok": 0, "failed": 6,
        "failure_reasons": {"DegenerateMetricError": 6}}
    assert "holomorphic_error" in payload
    assert all("samples ok 0/6" in line for line in lines)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_underflowing_curvature_samples_fail(tmp_path, capsys):
    # G ~ 1e-300 makes G^2 underflow, so every K_G = 2 num / G^2 is NaN; the
    # validity values stay finite and positive
    p = write_config(tmp_path, {
        "seed": 7,
        "metrics": [{"family": "hermitian", "complex_dim": 1, "id": "tiny",
                     "params": {"catalog": "poincare_disk", "scale": 1e-300}}],
        "plans": {"default": {"n_points": 3, "n_dirs": 2, "radial_range": [0.1, 0.6]}}})
    out = tmp_path / "out"
    capsys.readouterr()
    for command, code in (("curvature", 1), ("bounds", 1), ("check", 0)):
        assert main([command, "--config", str(p), "--out", str(out)]) == code
        if command == "check":
            continue
        payload = json.loads((out / command / "tiny" / "report.json").read_text())["payload"]
        assert payload["holomorphic_samples"] == {
            "attempted": 6, "ok": 0, "failed": 6,
            "failure_reasons": {"NonFiniteSampleError": 6}}
        assert "holomorphic_error" in payload
    assert "curvature tiny: no K_G sample evaluated; samples ok 0/6" in \
        capsys.readouterr().out


def test_cmd_curvature_records_a_failing_sample(tmp_path, monkeypatch):
    from finsler import chern
    from finsler.errors import DegenerateMetricError
    real = chern.holomorphic_sectional_curvature
    first = {}

    def flaky(m, z, v):
        # the first sample fails in every call whose rows hold it: the stacked
        # call, whose first row it is, and its own one-row call
        key = first.setdefault("sample", (z[0].tobytes(), v[0].tobytes()))
        if any((zb.tobytes(), vb.tobytes()) == key for zb, vb in zip(z, v)):
            raise DegenerateMetricError("singular Levi matrix")
        return real(m, z, v)

    monkeypatch.setattr(chern, "holomorphic_sectional_curvature", flaky)
    cfg = dict(BASE_CONFIG)
    cfg["metrics"] = [BASE_CONFIG["metrics"][0]]
    p = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["curvature", "--config", str(p), "--out", str(out)]) == 0
    d = out / "curvature" / "poincare"
    payload = json.loads((d / "report.json").read_text())["payload"]
    assert payload["holomorphic_samples"] == {
        "attempted": 15, "ok": 14, "failed": 1,
        "failure_reasons": {"DegenerateMetricError": 1}}
    rows = (d / "holomorphic_curvature.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 14 and rows[0].startswith("0,1,")
    assert payload["min"] == pytest.approx(-4.0, abs=1e-6)


def test_grids_record_rows_and_whether_one_call_evaluated_them(tmp_path, monkeypatch):
    from finsler import chern, kahler
    from finsler.errors import DegenerateMetricError
    from finsler.geometry import sample_points
    from finsler.metrics import instantiate
    cfg = _two_pair_config()
    p = write_config(tmp_path, cfg)

    def grids(out, command, item):
        report = json.loads((out / command / item / "report.json").read_text())
        return report["metadata"]["grids"], report["payload"]

    def run(out):
        for command in ("check", "bounds", "curvature", "schwarz"):
            main([command, "--config", str(p), "--out", str(out)])

    def expected(stacked):
        # the validity grid reads no Chern-Finsler data and stays stacked
        six = {"rows": 6, "stacked": stacked}
        return {("check", "poincare"): {"validity": {"rows": 6, "stacked": True},
                                        "kahler": six},
                ("bounds", "poincare"): {"holomorphic": six},
                ("curvature", "poincare"): {"holomorphic": six},
                ("schwarz", "square__poincare__poincare"): {
                    "domain_validity": {"rows": 24, "stacked": True},
                    "domain_kahler": {"rows": 20, "stacked": stacked},
                    "domain_holomorphic": six,
                    "target_validity": {"rows": 24, "stacked": True},
                    "target_holomorphic": six}}

    run(tmp_path / "stacked")
    for (command, item), want in expected(True).items():
        assert grids(tmp_path / "stacked", command, item)[0] == want

    # every sample at the plan's first disk point fails, in every call whose
    # rows hold it, so each disk grid runs again one row at a time
    z0 = sample_points(instantiate(_DISK), load_config(p).plan())[0]
    real = chern.chern_finsler

    def failing(m, z, v):
        if np.any(np.all(z == z0, axis=-1)):
            raise DegenerateMetricError("Levi matrix singular")
        return real(m, z, v)

    monkeypatch.setattr(chern, "chern_finsler", failing)
    monkeypatch.setattr(kahler, "chern_finsler", failing)
    run(tmp_path / "fallback")
    for (command, item), want in expected(False).items():
        assert grids(tmp_path / "fallback", command, item)[0] == want
    payload = grids(tmp_path / "fallback", "curvature", "poincare")[1]
    assert payload["holomorphic_samples"]["failure_reasons"] == {"DegenerateMetricError": 2}
    payload = grids(tmp_path / "fallback", "check", "poincare")[1]
    assert payload["kahler"]["errors"] == ["DegenerateMetricError: Levi matrix singular"] * 2
    # the Minkowski grids hold no failing sample and stay stacked
    assert grids(tmp_path / "fallback", "curvature", "minkowski")[0] == {
        "holomorphic": {"rows": 6, "stacked": True}}


def test_bench_certify_traffic_runs_every_grid_stacked(tmp_path, monkeypatch):
    # the certify benchmark times these commands on this config; a grid that
    # fell back to one sample at a time would cost several times more there
    import importlib.util
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    cfg = workloads.CertifyWorkload(3001).config
    p = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    for command in ("check", "schwarz"):
        main([command, "--config", str(p), "--out", str(out)])
    reports = sorted(out.glob("*/*/report.json"))
    assert len(reports) == len(cfg["metrics"]) + len(cfg["pairs"])
    names = set()
    for report in reports:
        grids = json.loads(report.read_text())["metadata"]["grids"]
        names |= set(grids)
        assert all(g["stacked"] and g["rows"] > 0 for g in grids.values()), (report, grids)
    assert names == {"validity", "kahler", "domain_validity", "domain_kahler",
                     "domain_holomorphic", "target_validity", "target_holomorphic"}


def _count_chern_finsler(monkeypatch):
    from finsler import chern, kahler
    real = chern.chern_finsler
    seen = {}

    def counted(m, z, v):
        # a call evaluates each of its rows
        for zb, vb in zip(z, v):
            key = (m.family_id, zb.tobytes(), vb.tobytes())
            seen[key] = seen.get(key, 0) + 1
        return real(m, z, v)

    monkeypatch.setattr(chern, "chern_finsler", counted)
    monkeypatch.setattr(kahler, "chern_finsler", counted)
    return seen


def test_schwarz_analyses_each_metric_once(tmp_path, monkeypatch, capsys):
    cfg = _two_pair_config()
    cfg["maps"] = cfg["maps"] + [{"map": "linear", "id": "row_linear",
                                  "params": {"matrix": [[0.25, 0.1]]}}]
    cfg["pairs"] = cfg["pairs"] + [{"map": "row_linear", "domain": "minkowski",
                                    "target": "poincare", "expect_pass": False}]
    seen = _count_chern_finsler(monkeypatch)
    p = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["schwarz", "--config", str(p), "--out", str(out)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    # per domain metric: classify on 5 x 4 and K_G on 3 x 2 samples
    assert len(seen) == 2 * (5 * 4 + 3 * 2)
    assert set(seen.values()) == {1}

    # each certificate equals the one from a config holding that pair alone
    for i, pair in enumerate(cfg["pairs"]):
        pair_id = f"{pair['map']}__{pair['domain']}__{pair['target']}"
        alone = dict(cfg, pairs=[pair])
        p1 = write_config(tmp_path, alone, name=f"alone{i}.json")
        assert main(["schwarz", "--config", str(p1), "--out", str(tmp_path / f"a{i}")]) == 0
        shared = json.loads((out / "schwarz" / pair_id / "report.json").read_text())
        single = json.loads((tmp_path / f"a{i}" / "schwarz" / pair_id
                             / "report.json").read_text())
        assert canonical_json(shared["payload"]["certificate"]) == \
            canonical_json(single["payload"]["certificate"])
        assert shared["metadata"]["holomorphic_samples"]["target"] == {
            "attempted": 6, "ok": 6, "failed": 0, "failure_reasons": {}}


def test_disk_replay_samples_curvature_once(tmp_path, monkeypatch):
    from finsler import schwarz
    p = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["schwarz", "--config", str(p), "--out", str(out)]) == 0
    real = schwarz.holomorphic_curvature_samples
    calls = []

    def counted(m, plan):
        calls.append(m.family_id)
        return real(m, plan)

    monkeypatch.setattr(schwarz, "holomorphic_curvature_samples", counted)
    cert = out / "schwarz" / "identity__poincare__poincare" / "report.json"
    assert main(["replay", "--certificate", str(cert)]) == 0
    assert calls == ["poincare"]


def _golden_without(*path):
    doc = json.loads((Path(__file__).parent / "golden" / "cert_identity.json").read_text())
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    del owner[path[-1]]
    return json.dumps(doc)


@pytest.mark.parametrize("content", [
    None,
    "{not json",
    "[1, 2]",
    _golden_without("payload", "effective_config"),
    _golden_without("payload", "certificate", "map_id"),
    _golden_without("payload", "certificate", "K1"),
], ids=["missing_file", "invalid_json", "not_a_mapping", "no_effective_config",
        "no_map_id", "no_K1"])
def test_replay_bad_input_is_a_configuration_error(tmp_path, capsys, content):
    cert = tmp_path / "cert.json"
    if content is not None:
        cert.write_text(content)
    assert main(["replay", "--certificate", str(cert), "--tolerance", "1e-6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


def _golden_with(**fields):
    doc = json.loads((Path(__file__).parent / "golden" / "cert_identity.json").read_text())
    doc["payload"]["certificate"].update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize("flags", [[], ["--tolerance", "1e-6"]], ids=["bitwise", "tolerance"])
@pytest.mark.parametrize("field, value", [
    ("K1", None), ("K1", "abc"), ("bound", True), ("max_ratio", [1.0]),
    ("domain_id", ["poincare"]), ("map_id", 1),
])
def test_replay_of_a_mistyped_certificate_is_a_configuration_error(
        tmp_path, capsys, flags, field, value):
    cert = tmp_path / "cert.json"
    cert.write_text(_golden_with(**{field: value}))
    assert main(["replay", "--certificate", str(cert), *flags]) == 2
    kind = "a string" if field.endswith("_id") else "a number"
    assert capsys.readouterr().err == (
        f"configuration error: certificate {cert}: {field} must be {kind}, got {value!r}\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_replay_reads_the_non_finite_values_a_report_writes(tmp_path, capsys, value):
    # _clean writes a non-finite value as a string; such a certificate
    # replays, and fails, as the recomputed max_ratio is finite
    cert = tmp_path / "cert.json"
    cert.write_text(_golden_with(max_ratio=value))
    assert main(["replay", "--certificate", str(cert), "--tolerance", "1e-6"]) == 1
    assert capsys.readouterr().out == f"replay {cert}: FAIL (tolerance 1e-06)\n"


def test_cmd_distance_builds_one_hessian_per_point(tmp_path, monkeypatch):
    from finsler import geodesic
    real = geodesic._integrate
    calls = []

    def counted(*args, **kw):
        if kw.get("Y0") is not None:
            calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(geodesic, "_integrate", counted)
    p = _disk_distance_config(tmp_path)
    assert main(["distance", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    # two points, two directions each: one landing shot with its Jacobi fields a point
    assert len(calls) == 2


def test_replay_of_a_metric_without_id(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["metrics"] = [{"family": "hermitian", "complex_dim": 1,
                       "params": {"catalog": "poincare_disk"}}]
    cfg["pairs"] = [{"map": "square", "domain": "hermitian_0", "target": "hermitian_0",
                     "expect_pass": True}]
    p = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["schwarz", "--config", str(p), "--out", str(out)]) == 0
    cert = out / "schwarz" / "square__hermitian_0__hermitian_0" / "report.json"
    stored = json.loads(cert.read_text())["payload"]["certificate"]
    assert (stored["domain_id"], stored["target_id"]) == ("hermitian_0", "hermitian_0")
    assert main(["replay", "--certificate", str(cert)]) == 0
    assert "PASS (bitwise)" in capsys.readouterr().out


def test_cmd_check_summary_counts_samples(tmp_path, capsys):
    p = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["check", "--config", str(p), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all("samples ok 15/15" in line for line in lines)
    stats = json.loads((out / "check" / "poincare" / "report.json").read_text())[
        "payload"]["validity"]["stats"]
    assert stats["samples"] == {"attempted": 15, "ok": 15, "failed": 0,
                                "failure_reasons": {}}


def test_cmd_distance_reports_shooting_cost(tmp_path, monkeypatch, capsys):
    from finsler import geodesic
    from finsler.geodesic import PoleDistance
    rho, shoot, integrate = PoleDistance.rho, PoleDistance._shoot, geodesic._integrate
    gauss_newton = PoleDistance._gauss_newton
    solves, shots, nfev, starts, jacobi_nfev = [], [], [], [], []

    def counted_rho(self, q, **kwargs):
        solves.append((self, rho(self, q, **kwargs)))
        return solves[-1][1]

    def counted_start(self, *args):
        starts.append(self)
        return gauss_newton(self, *args)

    def counted_shoot(self, w, kind=False):
        shots.append((self, kind))
        return shoot(self, w, kind)

    def counted_integration(*args, **kwargs):
        sol, readout = integrate(*args, **kwargs)
        (nfev if readout is None else jacobi_nfev).append(sol.nfev)
        return sol, readout

    monkeypatch.setattr(PoleDistance, "rho", counted_rho)
    monkeypatch.setattr(PoleDistance, "_shoot", counted_shoot)
    monkeypatch.setattr(geodesic, "_integrate", counted_integration)
    monkeypatch.setattr(PoleDistance, "_gauss_newton", counted_start)
    p = _szabo_distance_config(tmp_path)
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 0
    doc = json.loads((out / "distance" / "szabo" / "report.json").read_text())
    # one solver shoots the rho column and the Levi samples' distance Hessians
    assert len({id(owner) for owner, _ in solves + shots} | {id(o) for o in starts}) == 1
    assert len(solves) == 4
    # one start per solve: the two column points, then their repeats
    cost = {"starts": len(starts),
            "integrations": len(shots),
            "loose_integrations": sum(loose is True for _, loose in shots),
            "iterations": sum(r.work["iterations"] for _, r in solves),
            "rhs_evaluations": sum(nfev) + sum(jacobi_nfev),
            "jacobi_integrations": len(jacobi_nfev),
            "jacobi_rhs_evaluations": sum(jacobi_nfev)}
    assert cost["starts"] == 4
    assert cost["integrations"] == sum(r.work["integrations"] for _, r in solves) == 14
    # each Levi point lands at one variational shot, and the first column
    # point's shooting Jacobian is read off one; the rest are plain
    assert cost["jacobi_integrations"] == 3 and len(nfev) == 11
    assert [loose for _, loose in shots].count("variational") == 3
    assert doc["metadata"]["shooting"] == cost
    assert 0 < cost["loose_integrations"] < cost["integrations"]
    assert "shooting" not in doc["payload"]
    assert capsys.readouterr().out.strip().endswith(
        f"; shooting {cost['starts']} starts, {cost['integrations']} integrations "
        f"({cost['loose_integrations']} loose), {cost['iterations']} iterations, "
        f"{cost['rhs_evaluations']} right-hand sides; jacobi {cost['jacobi_integrations']} "
        f"integrations, {cost['jacobi_rhs_evaluations']} right-hand sides")


@pytest.mark.parametrize("config, mid, measured", [
    (_szabo_distance_config, "szabo", False), (_disk_distance_config, "poincare", True)])
def test_cmd_distance_reports_a_closed_form_error_only_where_measured(
        tmp_path, capsys, config, mid, measured):
    # the disk's distance has the atanh closed form; the Szabo polydisk's has
    # none, so no error was measured
    from finsler.geodesic import WORK
    out = tmp_path / "out"
    assert main(["distance", "--config", str(config(tmp_path)), "--out", str(out)]) == 0
    doc = json.loads((out / "distance" / mid / "report.json").read_text())
    error = doc["payload"]["max_closed_form_error"]
    shooting = doc["metadata"]["shooting"]
    # every count is reported, those that read 0 too
    assert sorted(shooting) == sorted(WORK)
    line = capsys.readouterr().out
    if measured:
        assert 0.0 <= error < 1e-6
        assert f"max closed-form error {error:.2e};" in line
        # the two column points and their two Levi points each land at one tight shot
        assert [shooting[k] for k in ("starts", "integrations", "loose_integrations",
                                      "iterations")] == [4, 4, 0, 0]
    else:
        assert error is None
        assert "max closed-form error n/a;" in line


def test_cmd_distance_runs_leave_no_state_behind(tmp_path):
    # two runs in one process write the same files and report the same cost
    p = _szabo_distance_config(tmp_path)
    runs = []
    for name in ("first", "second"):
        d = tmp_path / name / "distance" / "szabo"
        assert main(["distance", "--config", str(p), "--out", str(tmp_path / name)]) == 0
        doc = json.loads((d / "report.json").read_text())
        runs.append(((d / "distance.csv").read_bytes(), (d / "levi.csv").read_bytes(),
                     json.dumps(doc["payload"]), doc["metadata"]["shooting"]))
    assert runs[0] == runs[1]


def test_cmd_distance_levi_samples_reuse_the_rho_column_shots(tmp_path, monkeypatch):
    from finsler.geodesic import PoleDistance
    rho = PoleDistance.rho
    solves = []

    def counted_rho(self, q, **kwargs):
        solves.append(rho(self, q, **kwargs))
        return solves[-1]

    monkeypatch.setattr(PoleDistance, "rho", counted_rho)
    p = _szabo_distance_config(tmp_path)
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 0
    # two rho-column solves, then one distance Hessian per Levi point, each
    # starting from the velocity its column solve converged to
    assert len(solves) == 4
    assert all(r.work["integrations"] > 1 for r in solves[:2])
    assert [(r.work["integrations"], r.work["iterations"]) for r in solves[2:]] == [(1, 0), (1, 0)]
    d = out / "distance" / "szabo"
    column = dict(row.split(",")[:2] for row in
                  (d / "distance.csv").read_text().splitlines()[1:])
    levi_rows = [row.split(",") for row in (d / "levi.csv").read_text().splitlines()[1:]]
    assert sorted({row[0] for row in levi_rows}) == ["0", "1"]
    assert all(row[2] == column[row[0]] for row in levi_rows)


def test_cmd_distance_levi_points_of_a_long_plan_stay_one_integration(tmp_path, monkeypatch):
    # the solver keeps every converged query, so however long the rho column,
    # each Levi point shoots its own column velocity once; a plan of more
    # than 48 points once evicted them, and the Szabo polydisk's Levi points
    # then iterated anew (its chords are no geodesics, so no first shot lands)
    from finsler.geodesic import PoleDistance
    rho, shoot = PoleDistance.rho, PoleDistance._shoot
    solves, shots = [], []   # (shots, result) per rho call; one entry per shot

    def counted_rho(self, q, **kwargs):
        start = len(shots)
        result = rho(self, q, **kwargs)
        solves.append((len(shots) - start, result))
        return result

    def counted_shoot(self, w, kind=False):
        shots.append(kind)
        return shoot(self, w, kind)

    monkeypatch.setattr(PoleDistance, "rho", counted_rho)
    monkeypatch.setattr(PoleDistance, "_shoot", counted_shoot)
    cfg = json.loads(_szabo_distance_config(tmp_path).read_text())
    cfg["plans"]["default"]["n_points"] = 49
    out = tmp_path / "out"
    assert main(["distance", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert all(n > 1 for n, _ in solves[:49])
    levi = solves[49:]
    assert len(levi) == 4
    assert all(n == result.work["integrations"] == 1 for n, result in levi)


def test_cmd_distance_reports_shooting_failures(tmp_path, monkeypatch, capsys):
    from finsler.errors import DomainError
    from finsler.geodesic import PoleDistance

    def outside(self, w, kind=False):
        self.work["integrations"] += 1
        raise DomainError("injected")

    monkeypatch.setattr(PoleDistance, "_shoot", outside)
    p = _disk_distance_config(tmp_path)
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 1
    payload = json.loads((out / "distance" / "poincare" / "report.json").read_text())["payload"]
    assert payload["rho_samples"] == {"attempted": 2, "ok": 0, "failed": 2,
                                      "failure_reasons": {"ShootingError": 2}}
    # each cold disk query tries the chord start, the straight start and 5
    # grid directions
    assert [(f["point_index"], f["starts"], f["integrations"])
            for f in payload["shooting_failures"]] == [(0, 7, 7), (1, 7, 7)]
    assert [f["iterations"] for f in payload["shooting_failures"]] == [0, 0]
    assert payload["max_closed_form_error"] is None
    line = capsys.readouterr().out.strip()
    assert "error n/a; rho samples ok 0/2 (point 0: 7 starts, 7 integrations)" in line


def test_cmd_distance_a_failed_probe_ends_its_start_not_the_query(tmp_path, monkeypatch, capsys):
    # every Jacobian shot raises a bare ShootingError, as an integration
    # failing inside the integrator does: each start ends at its Jacobian
    # shot, the next is tried, and each query's failure reports its counts
    from finsler.errors import ShootingError
    from finsler.geodesic import VARIATIONAL, PoleDistance
    shoot = PoleDistance._shoot

    def failing_probe(self, w, kind=False):
        if kind == VARIATIONAL:
            raise ShootingError("injected")
        return shoot(self, w, kind)

    monkeypatch.setattr(PoleDistance, "_shoot", failing_probe)
    p = _szabo_distance_config(tmp_path)
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 1
    payload = json.loads((out / "distance" / "szabo" / "report.json").read_text())["payload"]
    assert payload["rho_samples"]["failure_reasons"] == {"ShootingError": 2}
    failures = payload["shooting_failures"]
    assert [f["point_index"] for f in failures] == [0, 1]
    for f in failures:
        # one first shot per start, none of which lands, and no step
        assert f["starts"] > 1 and f["integrations"] == f["starts"] and f["iterations"] == 0
        assert all(type(f[k]) is int for k in ("starts", "integrations", "iterations"))
    assert "None" not in capsys.readouterr().out


def test_cmd_distance_levi_skips_points_whose_rho_failed(tmp_path, monkeypatch):
    from finsler.errors import DomainError
    from finsler.geodesic import PoleDistance
    calls = []

    def outside(self, w, kind=False):
        calls.append(1)
        raise DomainError("injected")

    monkeypatch.setattr(PoleDistance, "_shoot", outside)
    p = _disk_distance_config(tmp_path)
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 1
    payload = json.loads((out / "distance" / "poincare" / "report.json").read_text())["payload"]
    # the two failed rho solves shoot 7 starts each; their Levi samples shoot none
    assert len(calls) == 14
    assert payload["levi_samples"] == {"attempted": 4, "ok": 0, "failed": 4,
                                       "failure_reasons": {"ShootingError": 4}}
    assert payload["levi_min_margin"] is None


def test_cmd_distance_shoots_each_radius_once(tmp_path, capsys):
    # every radius of the disk, the ball and a Minkowski norm is a geodesic,
    # so each of the 10 column points and 4 Levi points costs one integration
    metrics = [{"family": "hermitian", "complex_dim": 1, "id": "disk",
                "params": {"catalog": "poincare_disk"}},
               {"family": "hermitian", "complex_dim": 2, "id": "ball",
                "params": {"catalog": "poincare_ball"}},
               {**BASE_CONFIG["metrics"][1]}]
    p = write_config(tmp_path, {
        "seed": 7, "metrics": metrics,
        "plans": {"default": {"n_points": 10, "n_dirs": 3, "radial_range": [0.1, 0.7]}}})
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 0
    for mid in ("disk", "ball", "minkowski"):
        doc = json.loads((out / "distance" / mid / "report.json").read_text())
        assert doc["payload"]["rho_samples"]["ok"] == 10
        assert doc["metadata"]["shooting"]["integrations"] <= 14


@pytest.mark.parametrize("catalog, n", [("poincare_disk", 1), ("poincare_ball", 2)])
def test_distance_closed_form_scales_with_the_metric(tmp_path, capsys, catalog, n):
    # G = 4 |v|^2 / (1 - |z|^2)^2 along radii, so rho = 2 atanh |z|
    p = write_config(tmp_path, {
        "seed": 7,
        "metrics": [{"family": "hermitian", "complex_dim": n, "id": "scaled",
                     "params": {"catalog": catalog, "scale": 4}}],
        "plans": {"default": {"n_points": 2, "n_dirs": 2, "radial_range": [0.2, 0.5]}}})
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 0
    payload = json.loads((out / "distance" / "scaled" / "report.json").read_text())["payload"]
    assert payload["max_closed_form_error"] < 1e-6
    assert payload["rho_samples"]["ok"] == 2


def test_cmd_distance_fails_non_finite_levi_samples(tmp_path, monkeypatch):
    from dataclasses import replace
    from finsler.levi import LeviField
    samples = LeviField.samples

    def nan_margins(self, z, dirs):
        return [replace(s, margin=math.nan) for s in samples(self, z, dirs)]

    monkeypatch.setattr(LeviField, "samples", nan_margins)
    p = _disk_distance_config(tmp_path)
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 1
    payload = json.loads((out / "distance" / "poincare" / "report.json").read_text())["payload"]
    assert payload["levi_samples"] == {"attempted": 4, "ok": 0, "failed": 4,
                                       "failure_reasons": {"NonFiniteSampleError": 4}}
    assert payload["levi_min_margin"] is None
    assert (out / "distance" / "poincare" / "levi.csv").read_text().splitlines()[1:] == []


def test_cmd_bounds_fails_on_non_finite_flag_curvatures(tmp_path, monkeypatch):
    # every flag curvature of the fan is one `_flag_ratio`
    monkeypatch.setattr(sys.modules["finsler.cartan"], "_flag_ratio", lambda *a: math.nan)
    cfg = dict(BASE_CONFIG)
    cfg["metrics"] = [BASE_CONFIG["metrics"][0]]
    cfg["plans"] = {"default": {"n_points": 4, "n_dirs": 3, "radial_range": [0.1, 0.5]}}
    p = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(p), "--out", str(out)]) == 1
    payload = json.loads((out / "bounds" / "poincare" / "report.json").read_text())["payload"]
    assert payload["radial_flag_samples"] == 0
    assert "not finite" in payload["radial_flag_error"]
    assert "K_constant" not in payload


def test_cmd_schwarz_fails_on_non_finite_ratios(tmp_path, monkeypatch, capsys):
    from finsler.geometry import MetricDef
    value = MetricDef.value

    def nan_target(self, z, v):
        return np.full(len(z), math.nan) if self.family_id == "target" else value(self, z, v)

    monkeypatch.setattr(MetricDef, "value", nan_target)
    disk = BASE_CONFIG["metrics"][0]
    p = write_config(tmp_path, {
        **BASE_CONFIG,
        "metrics": [disk, {**disk, "id": "target"}],
        "pairs": [{"map": "identity", "domain": "poincare", "target": "target"}]})
    out = tmp_path / "out"
    assert main(["schwarz", "--config", str(p), "--out", str(out)]) == 1
    payload = json.loads((out / "schwarz" / "identity__poincare__target" / "report.json")
                         .read_text())["payload"]
    assert payload["error"].startswith("NonFiniteSampleError")
    assert "certificate" not in payload


def test_cmd_schwarz_names_the_hypotheses_a_certificate_does_not_meet(tmp_path, capsys):
    # the Szabo polydisk is not declared complete, so its certificate passes
    # without meeting its hypotheses; the pairs that meet theirs end their
    # lines at the verdict
    p = write_config(tmp_path, REPORT_CONFIG)
    out = tmp_path / "out"
    assert main(["schwarz", "--config", str(p), "--out", str(out)]) == 0
    report = out / "schwarz" / "identity__szabo__nonkahler" / "report.json"
    hypotheses = json.loads(report.read_text())["payload"]["certificate"]["hypotheses"]
    assert {k for k, v in hypotheses.items() if v is False} == {"domain_complete", "met"}
    assert capsys.readouterr().out.splitlines() == [
        "schwarz identity__ball__ball: ratio=1 bound=1 PASS",
        "schwarz identity__szabo__nonkahler: ratio=0.72793421 bound=6.4941566 PASS; "
        "unmet: domain_complete",
        "schwarz identity__minkowski__ball: ratio=1.6218854 bound=0 FAIL"]


@pytest.mark.parametrize("name", ["domain_valid_metric", "domain_weakly_kahler",
                                  "domain_complete", "target_valid_metric"])
def test_each_hypothesis_forced_false_is_the_one_unmet(tmp_path, monkeypatch, capsys, name):
    # the disk-to-disk identity meets every hypothesis; with one verdict of
    # MetricAnalysis.hypotheses forced false, met is false, the summary names
    # that hypothesis alone, and the payload keeps its keys
    from finsler.schwarz import MetricAnalysis
    hypotheses = MetricAnalysis.hypotheses
    monkeypatch.setattr(MetricAnalysis, "hypotheses", lambda self, role: {
        k: v and k != name for k, v in hypotheses(self, role).items()})
    out = tmp_path / "out"
    assert main(["schwarz", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    report = json.loads((out / "schwarz" / "identity__poincare__poincare" / "report.json")
                        .read_text())
    held = report["payload"]["certificate"]["hypotheses"]
    assert held["met"] is False and held.get(name, False) is False
    assert sorted(held) == ["checked", "domain_complete", "domain_kahler_class",
                            "domain_valid_metric", "domain_weakly_kahler", "met"]
    assert report["metadata"]["target_valid_metric"] is (name != "target_valid_metric")
    assert capsys.readouterr().out.splitlines() == [
        f"schwarz identity__poincare__poincare: ratio=1 bound=1 PASS; unmet: {name}"]


FRESH_PROCESS = """
import sys
from finsler.cli import main
for command in ("check", "bounds", "distance"):
    assert main([command, "--config", sys.argv[1], "--out", sys.argv[2]]) == 0, command
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:5]}"
"""


def test_fresh_processes_never_import_scipy(tmp_path):
    # the package integrates with its own DOP853, so no command pays for
    # importing scipy, not even bounds and distance, which integrate
    doc = {"seed": 7, "metrics": BASE_CONFIG["metrics"][:1],
           "plans": {"default": {"n_points": 3, "n_dirs": 2}}}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS, str(write_config(tmp_path, doc)),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- exits no other test reaches -------------------------------------------------


def test_cmd_curvature_exits_1_when_a_sample_departs_from_the_declared_curvature(
        tmp_path, monkeypatch, capsys):
    from finsler import chern
    real = chern.holomorphic_sectional_curvature
    monkeypatch.setattr(chern, "holomorphic_sectional_curvature",
                        lambda m, z, v: real(m, z, v) + 1e-3)
    p = write_config(tmp_path, {**BASE_CONFIG, "metrics": [_DISK]})
    out = tmp_path / "out"
    assert main(["curvature", "--config", str(p), "--out", str(out)]) == 1
    payload = json.loads((out / "curvature" / "poincare" / "report.json").read_text())["payload"]
    assert payload["min"] == pytest.approx(-4.0 + 1e-3, abs=1e-9)
    assert capsys.readouterr().out.startswith("curvature poincare: K in [")


def test_cmd_distance_exits_1_above_the_closed_form_error(tmp_path, monkeypatch, capsys):
    # the disk's closed form is sqrt(scale) atanh|z|: one 10% off puts
    # every rho 10% away from it
    from finsler import cli

    def misdeclared(spec):
        m = instantiate(spec)
        closed = m.metadata["distance_from_origin"]
        m.metadata["distance_from_origin"] = lambda m, Z: [1.1 * c for c in closed(m, Z)]
        return m

    monkeypatch.setattr(cli, "instantiate", misdeclared)
    p = write_config(tmp_path, {**BASE_CONFIG, "metrics": [_DISK], "plans": {"default": {
        "n_points": 2, "n_dirs": 2, "radial_range": [0.2, 0.5]}}})
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 1
    payload = json.loads((out / "distance" / "poincare" / "report.json").read_text())["payload"]
    rows = (out / "distance" / "poincare" / "distance.csv").read_text().splitlines()[1:]
    rho = max(float(row.split(",")[1]) for row in rows)
    assert len(rows) == payload["rho_samples"]["ok"] == 2
    assert payload["max_closed_form_error"] == pytest.approx(0.1 * rho, rel=1e-6)
    error = f"{payload['max_closed_form_error']:.2e}"
    assert capsys.readouterr().out.startswith(f"distance poincare: max closed-form error {error};")


@pytest.mark.parametrize("pair, message", [
    ({"map": "identity", "domain": "nowhere", "target": "poincare"},
     "unknown metric id(s) ['nowhere']"),
    ({"map": "nothing", "domain": "poincare", "target": "poincare"},
     "unknown map id 'nothing'"),
])
def test_cmd_schwarz_exits_2_on_an_unknown_id_in_a_pair(tmp_path, capsys, pair, message):
    p = write_config(tmp_path, {**BASE_CONFIG, "pairs": [pair]})
    assert main(["schwarz", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


_ROW_LINEAR = {"map": "linear", "id": "row_linear", "params": {"matrix": [[0.25, 0.1]]}}


@pytest.mark.parametrize("pair, message", [
    ({"map": "nothing", "domain": "poincare", "target": "poincare"},
     "unknown map id 'nothing'"),
    ({"map": "row_linear", "domain": "poincare", "target": "poincare"},
     "pair row_linear__poincare__poincare: map takes C^2 to C^1, metrics live on C^1 and C^1"),
    ({**BASE_CONFIG["pairs"][0], "expect_pass": False},
     "duplicate pair 'identity__poincare__poincare'"),
], ids=["unknown_map_id", "map_dimensions", "duplicate_pair"])
def test_cmd_schwarz_checks_every_pair_before_it_writes(tmp_path, capsys, pair, message):
    # the first pair is good: a bad second one stops the command before the
    # first is certified, and a pair twice would write one report over the other
    p = write_config(tmp_path, {**BASE_CONFIG, "maps": [*BASE_CONFIG["maps"], _ROW_LINEAR],
                                "pairs": [*BASE_CONFIG["pairs"], pair]})
    out = tmp_path / "o"
    assert main(["schwarz", "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"configuration error: {message}\n")
    assert not out.exists()


def test_cmd_schwarz_exits_2_without_pairs(tmp_path, capsys):
    p = write_config(tmp_path, {k: v for k, v in BASE_CONFIG.items() if k != "pairs"})
    assert main(["schwarz", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "configuration error: schwarz command needs a pairs list\n"


def test_cmd_schwarz_exits_1_when_a_verdict_departs_from_expect_pass(tmp_path, capsys):
    # the identity of the disk passes; expecting it to fail is a failed run,
    # which still writes the certificate
    p = write_config(tmp_path, {**BASE_CONFIG, "pairs": [
        {**BASE_CONFIG["pairs"][0], "expect_pass": False}]})
    out = tmp_path / "out"
    assert main(["schwarz", "--config", str(p), "--out", str(out)]) == 1
    cert = json.loads((out / "schwarz" / "identity__poincare__poincare" / "report.json")
                      .read_text())["payload"]["certificate"]
    assert cert["passed"] is True
    assert capsys.readouterr().out.rstrip().endswith(" PASS")


@pytest.mark.parametrize("argv, message", [
    (["replay"], "replay needs --certificate FILE"),
    (["check"], "check needs --config FILE"),
])
def test_a_missing_file_flag_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")


# -- catalog branches that users' configs reach ----------------------------------


_CATALOG_CONFIG = {
    "seed": 7,
    "metrics": [
        {"family": "hermitian", "complex_dim": 2, "params": {"catalog": "product_disks"},
         "id": "polydisk"},
        {"family": "hermitian", "complex_dim": 2, "id": "constant",
         "params": {"catalog": "constant", "matrix": [[2.0, [0.5, 0.5]], [[0.5, -0.5], 1.0]]}},
        {"family": "minkowski", "complex_dim": 2, "id": "minkowski_factors",
         "params": {"k": 3, "eps": 0.5,
                    "factors": [[[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]]}},
        {"family": "szabo", "id": "szabo_factors",
         "params": {"k": 2, "eps": 0.5, "factors": [[[1.0]], [[2.0]]]}},
        {"family": "un_invariant", "complex_dim": 2, "id": "f_one",
         "params": {"profile": {"form": "gradient", "f": "one"}}},
        {"family": "un_invariant", "complex_dim": 2, "id": "f_inv",
         "params": {"profile": {"form": "gradient", "f": "inv_one_minus_t"}}},
        {"family": "un_invariant", "complex_dim": 2, "id": "one_plus_ts2",
         "params": {"profile": {"form": "free", "expr": "one_plus_ts2"}}},
    ],
    "maps": [
        {"map": "constant", "params": {"value": [0.1, [0.2, -0.1]], "n_in": 2}, "id": "const"},
        {"map": "linear", "params": {"matrix": [[0.5, 0.0], [0.0, 0.0]]}, "id": "half_first"},
    ],
    "pairs": [
        {"map": "const", "domain": "constant", "target": "polydisk", "expect_pass": True},
        {"map": "half_first", "domain": "minkowski_factors", "target": "polydisk",
         "expect_pass": False},
    ],
    "plans": {"default": {"n_points": 4, "n_dirs": 3, "radial_range": [0.1, 0.6]}},
}


def test_the_catalog_branches_run_through_check_and_schwarz(tmp_path, capsys):
    p = write_config(tmp_path, _CATALOG_CONFIG)
    out = tmp_path / "out"
    assert main(["check", "--config", str(p), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"check {spec['id']}: validity=PASS (samples ok 12/12) class="
                     f"{'none' if spec['id'] == 'one_plus_ts2' else 'strongly_kahler'}"
                     for spec in _CATALOG_CONFIG["metrics"]]
    assert main(["schwarz", "--config", str(p), "--out", str(out)]) == 0
    certs = [json.loads((out / "schwarz" / f"{pair['map']}__{pair['domain']}__polydisk"
                         / "report.json").read_text())["payload"]["certificate"]
             for pair in _CATALOG_CONFIG["pairs"]]
    # both domains are flat: the bound is +0.0, met by the constant map only
    assert [(c["bound"], c["hypotheses"]["met"]) for c in certs] == [(0.0, True)] * 2
    assert [c["max_ratio"] == 0.0 for c in certs] == [True, False]
    assert [c["passed"] for c in certs] == [True, False]
