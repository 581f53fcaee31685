"""CLI wiring: config parsing, report layout, determinism, replay."""

import json
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
], ids=["metric_not_a_mapping", "family_not_a_name", "tolerance_not_a_number",
        "outputs_not_a_mapping", "map_not_a_mapping", "complex_dim_not_an_integer",
        "scale_not_a_number", "params_not_a_mapping", "linear_map_without_matrix",
        "map_dimensions_do_not_match_pair", "hermitian_complex_dim_zero",
        "minkowski_complex_dim_zero"])
def test_malformed_config_is_a_configuration_error(tmp_path, capsys, command, change):
    p = write_config(tmp_path, {**BASE_CONFIG, **change})
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


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
    # each cold disk query tries the straight start and 5 grid directions
    assert [(f["point_index"], f["starts"], f["integrations"])
            for f in payload["shooting_failures"]] == [(0, 6, 6), (1, 6, 6)]
    assert payload["max_closed_form_error"] is None
    line = capsys.readouterr().out.strip()
    assert "error n/a; rho samples ok 0/2 (point 0: 6 starts, 6 integrations)" in line


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
    # the two failed rho solves shoot 6 starts each; their Levi samples shoot none
    assert len(calls) == 12
    assert payload["levi_samples"] == {"attempted": 4, "ok": 0, "failed": 4,
                                       "failure_reasons": {"ShootingError": 4}}
    assert payload["levi_min_margin"] is None
