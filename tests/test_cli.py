"""CLI wiring: config parsing, report layout, determinism, replay."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finsler.cli import main
from finsler.config import load_config, parse_config
from finsler.errors import ConfigurationError
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


def test_effective_config_echo():
    cfg = parse_config(dict(BASE_CONFIG))
    eff = cfg.effective()
    assert eff["seed"] == 7
    assert eff["plans"]["default"]["n_points"] == 10 or "default" in eff["plans"]
    assert eff["tolerance"] == pytest.approx(1e-6)


def test_usage_error_exit_code(tmp_path):
    p = tmp_path / "nope.json"
    assert main(["check", "--config", str(p)]) == 2


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
])
def test_bad_plan_is_a_configuration_error(tmp_path, capsys, plan):
    cfg = dict(BASE_CONFIG)
    cfg["plans"] = {"default": plan}
    p = write_config(tmp_path, cfg)
    assert main(["curvature", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    with pytest.raises(ConfigurationError, match="plan 'default'"):
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
], ids=["metric_not_a_mapping", "family_not_a_name", "tolerance_not_a_number",
        "outputs_not_a_mapping", "map_not_a_mapping", "complex_dim_not_an_integer",
        "scale_not_a_number", "params_not_a_mapping", "linear_map_without_matrix",
        "map_dimensions_do_not_match_pair", "hermitian_complex_dim_zero",
        "minkowski_complex_dim_zero", "tolerance_nan", "tolerance_negative",
        "seed_not_an_integer", "seed_a_bool", "seed_negative"])
def test_malformed_config_is_a_configuration_error(tmp_path, capsys, command, change):
    p = write_config(tmp_path, {**BASE_CONFIG, **change})
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


@pytest.mark.parametrize("kind", ["not_utf8", "directory"])
def test_unreadable_config_is_a_configuration_error(tmp_path, capsys, kind):
    p = tmp_path / "run.yaml"
    if kind == "directory":
        p.mkdir()
    else:
        p.write_bytes(b"seed: 7\nmetrics: []\n# \xff\xfe\n")
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


_DISK = BASE_CONFIG["metrics"][0]
_IDENTITY = BASE_CONFIG["maps"][0]


@pytest.mark.parametrize("command, change", [
    ("check", {"outputs": {"directory": 5}}),
    ("check", {"metrics": [{**_DISK, "id": 7}]}),
    ("check", {"metrics": [{**_DISK, "id": ["a"]}]}),
    ("schwarz", {"maps": [{**_IDENTITY, "id": ["x"]}]}),
    ("check", {"metrics": [{**_DISK, "id": "../../x"}]}),
    ("check", {"metrics": [{**_DISK, "id": ""}]}),
    ("check", {"metrics": [{**_DISK, "id": ".."}]}),
    ("schwarz", {"maps": [{**_IDENTITY, "id": "../m"}],
                 "pairs": [{"map": "../m", "domain": "poincare", "target": "poincare"}]}),
    ("check", {"metrics": [{**_DISK, "id": "a\0b"}]}),
    ("schwarz", {"pairs": [{"map": ["identity"], "domain": "poincare", "target": "poincare"}]}),
    ("schwarz", {"pairs": [{"map": "identity", "domain": ["poincare"], "target": "poincare"}]}),
    ("check", {"metrics": [_DISK, _DISK]}),
    ("curvature", {"metrics": [{**_DISK, "id": "hermitian_1"},
                               {k: v for k, v in _DISK.items() if k != "id"}]}),
    ("geodesic", {"metrics": [_DISK, _DISK]}),
    ("distance", {"metrics": [_DISK, _DISK]}),
    ("bounds", {"metrics": [_DISK, _DISK]}),
    ("schwarz", {"metrics": [_DISK, _DISK]}),
    ("schwarz", {"maps": [_IDENTITY, _IDENTITY]}),
    ("check", {"metrics": [], "metric": [_DISK]}),
    ("check", {"outputs": {"directory": "o", "format": ["csv"]}}),
    ("check", {"outputs": {"formats": ["csv"]}}),
], ids=["directory_not_a_string", "metric_id_a_number", "metric_id_a_list", "map_id_a_list",
        "metric_id_leaves_out", "metric_id_empty", "metric_id_parent", "map_id_leaves_out",
        "metric_id_with_nul", "pair_map_a_list", "pair_domain_a_list", "duplicate_metric_id",
        "metric_id_equal_to_a_generated_id", "duplicate_metric_id_geodesic",
        "duplicate_metric_id_distance", "duplicate_metric_id_bounds",
        "duplicate_metric_id_schwarz", "duplicate_map_id", "unknown_key",
        "unknown_outputs_key", "formats_not_the_default"])
def test_bad_id_or_output_directory_is_a_configuration_error(tmp_path, capsys, command, change):
    # reports land in <out>/<command>/<id>, so an id must be one path component
    # and name one metric or map: a second report of one id would overwrite the first.
    # A misspelt key or an output format no command writes would run with defaults.
    p = write_config(tmp_path, {**BASE_CONFIG, **change})
    out = tmp_path / "runs" / "o"
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert list(tmp_path.rglob("*")) == [p]


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
    from finsler.cartan import RadialFlagBounds

    # the package re-exports the function cartan under the module's name
    monkeypatch.setattr(sys.modules["finsler.cartan"], "radial_flag_bounds", lambda *a, **k: RadialFlagBounds(
        k_inf=float("inf"), k_sup=float("-inf"), n_samples=0))
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

    def refuse(m, z, v, **kw):
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
    calls = []

    def flaky(m, z, v, **kw):
        calls.append(1)
        if len(calls) == 1:
            raise DegenerateMetricError("singular Levi matrix")
        return real(m, z, v, **kw)

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


def _count_chern_finsler(monkeypatch):
    from finsler import chern, kahler
    real = chern.chern_finsler
    seen = {}

    def counted(m, z, v, *args, **kw):
        key = (m.family_id, np.asarray(z).tobytes(), np.asarray(v).tobytes())
        seen[key] = seen.get(key, 0) + 1
        return real(m, z, v, *args, **kw)

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


def test_cmd_distance_builds_one_hessian_per_point(tmp_path, monkeypatch):
    from finsler import geodesic
    real = geodesic.jacobi_boundary_field
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(geodesic, "jacobi_boundary_field", counted)
    p = _disk_distance_config(tmp_path)
    assert main(["distance", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 2  # two points, two directions each


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
    rho, endpoint, integrate = PoleDistance.rho, PoleDistance._endpoint, geodesic._integrate_affine
    gauss_newton, integrate_jacobi = PoleDistance._gauss_newton, geodesic._integrate_jacobi
    solves, shots, nfev, starts, jacobi_nfev = [], [], [], [], []

    def counted_rho(self, q):
        solves.append((self, rho(self, q)))
        return solves[-1][1]

    def counted_start(self, *args):
        starts.append(self)
        return gauss_newton(self, *args)

    def counted_endpoint(self, w, loose=False):
        shots.append((self, loose))
        return endpoint(self, w, loose)

    def counted_integration(*args, **kwargs):
        sol = integrate(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    def counted_jacobi(*args, **kwargs):
        path = integrate_jacobi(*args, **kwargs)
        jacobi_nfev.append(path.nfev)
        return path

    monkeypatch.setattr(PoleDistance, "rho", counted_rho)
    monkeypatch.setattr(geodesic, "_integrate_jacobi", counted_jacobi)
    monkeypatch.setattr(PoleDistance, "_endpoint", counted_endpoint)
    monkeypatch.setattr(geodesic, "_integrate_affine", counted_integration)
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
            "loose_integrations": sum(loose for _, loose in shots),
            "iterations": sum(r.iterations for _, r in solves),
            "rhs_evaluations": sum(nfev),
            "jacobi_integrations": len(jacobi_nfev),
            "jacobi_rhs_evaluations": sum(jacobi_nfev)}
    assert cost["starts"] == 4
    assert cost["integrations"] == sum(r.n_integrations for _, r in solves) == len(nfev) == 17
    # one Jacobi system per Levi point
    assert cost["jacobi_integrations"] == 2
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
    out = tmp_path / "out"
    assert main(["distance", "--config", str(config(tmp_path)), "--out", str(out)]) == 0
    error = json.loads((out / "distance" / mid / "report.json").read_text())["payload"][
        "max_closed_form_error"]
    line = capsys.readouterr().out
    if measured:
        assert 0.0 <= error < 1e-6
        assert f"max closed-form error {error:.2e};" in line
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

    def counted_rho(self, q):
        solves.append(rho(self, q))
        return solves[-1]

    monkeypatch.setattr(PoleDistance, "rho", counted_rho)
    p = _szabo_distance_config(tmp_path)
    out = tmp_path / "out"
    assert main(["distance", "--config", str(p), "--out", str(out)]) == 0
    # two rho-column solves, then one distance Hessian per Levi point, each
    # starting from the velocity its column solve converged to
    assert len(solves) == 4
    assert all(r.n_integrations > 1 for r in solves[:2])
    assert [(r.n_integrations, r.iterations) for r in solves[2:]] == [(1, 0), (1, 0)]
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
    rho, endpoint = PoleDistance.rho, PoleDistance._endpoint
    solves, shots = [], []   # (shots, result) per rho call; one entry per shot

    def counted_rho(self, q):
        start = len(shots)
        result = rho(self, q)
        solves.append((len(shots) - start, result))
        return result

    def counted_endpoint(self, w, loose=False):
        shots.append(loose)
        return endpoint(self, w, loose)

    monkeypatch.setattr(PoleDistance, "rho", counted_rho)
    monkeypatch.setattr(PoleDistance, "_endpoint", counted_endpoint)
    cfg = json.loads(_szabo_distance_config(tmp_path).read_text())
    cfg["plans"]["default"]["n_points"] = 49
    out = tmp_path / "out"
    assert main(["distance", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert all(n > 1 for n, _ in solves[:49])
    levi = solves[49:]
    assert len(levi) == 4
    assert all(n == result.n_integrations == 1 for n, result in levi)


def test_cmd_distance_reports_shooting_failures(tmp_path, monkeypatch, capsys):
    from finsler.errors import DomainError
    from finsler.geodesic import PoleDistance

    def outside(self, w):
        self.total_integrations += 1
        raise DomainError("injected")

    monkeypatch.setattr(PoleDistance, "_endpoint", outside)
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


def test_cmd_distance_levi_skips_points_whose_rho_failed(tmp_path, monkeypatch):
    from finsler.errors import DomainError
    from finsler.geodesic import PoleDistance
    calls = []

    def outside(self, w):
        calls.append(1)
        raise DomainError("injected")

    monkeypatch.setattr(PoleDistance, "_endpoint", outside)
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
    monkeypatch.setattr(sys.modules["finsler.cartan"], "flag_curvature",
                        lambda *a, **k: math.nan)
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
        return math.nan if self.family_id == "target" else value(self, z, v)

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


FRESH_PROCESS = """
import sys
from finsler.cli import main
assert main(["check", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert "scipy.integrate" not in sys.modules, "check imported scipy.integrate"
import numpy as np
from finsler.geodesic import integrate_geodesic
from finsler.geometry import realify_metric
from finsler.metrics import instantiate
disk = realify_metric(instantiate({"family": "hermitian", "complex_dim": 1,
                                   "params": {"catalog": "poincare_disk"}}))
integrate_geodesic(disk, np.zeros(2), np.array([1.0, 0.0]), 0.5)
assert "scipy.integrate" in sys.modules, "integrating did not import scipy.integrate"
"""


def test_fresh_process_imports_scipy_integrate_on_first_integration(tmp_path):
    # check, curvature, schwarz and replay never integrate, so a process that
    # runs one of them does not pay for importing scipy.integrate
    doc = {"seed": 7, "metrics": BASE_CONFIG["metrics"][:1],
           "plans": {"default": {"n_points": 3, "n_dirs": 2}}}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS, str(write_config(tmp_path, doc)),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
