"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single summary line; runtime limits are asserted against
wall-clock time. Golden values marked as pinned were produced by the first
run of this suite and are replayed verbatim thereafter.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from finsler.chern import chern_finsler, holomorphic_sectional_curvature
from finsler.geodesic import (PoleDistance, distance_hessian, hessian_rho,
                              integrate_geodesic)
from finsler.geometry import (SamplePlan, complex_to_real_components,
                              realify_metric)
from finsler.kahler import classify, is_at_least, weakly_kahler_pde_residual
from finsler.levi import LeviField
from finsler.metrics import build_map, build_profile, instantiate
from finsler.schwarz import MetricAnalysis, certify_schwarz
from finsler.cli import main as cli_main
from finsler.report import canonical_json

from oracles import (EagerSpace, at_point, endpoint, flag_curvature, gaussian_curvature,
                     gradient_identity, hyperbolic_distance, hyperbolic_hessian_tangential,
                     levi_identity_residual, probe_catalog, pullback_density, random_expression,
                     richardson_partial, un_invariant_kahler_check)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _report(n, label, elapsed, limit, extra=""):
    print(f"\nACCEPTANCE {n}: {label} PASS in {elapsed:.1f}s (limit {limit}s) {extra}")
    assert elapsed < limit, f"criterion {n} exceeded its runtime limit"


def spec(family, n=None, **params):
    doc = {"family": family, "params": params}
    if n is not None:
        doc["complex_dim"] = n
    return doc


POINCARE = instantiate(spec("hermitian", 1, catalog="poincare_disk"))
EUCLID1 = instantiate(spec("hermitian", 1, catalog="euclidean"))
EUCLID2 = instantiate(spec("hermitian", 2, catalog="euclidean"))
BALL2 = instantiate(spec("hermitian", 2, catalog="poincare_ball"))
MINKOWSKI = instantiate(spec("minkowski", 2, k=2, eps=1.0))
SZABO = instantiate({"family": "szabo", "params": {
    "k": 2, "eps": 0.5,
    "factor1": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}},
    "factor2": {"complex_dim": 1, "params": {"catalog": "poincare_disk"}}}})


def test_criterion_01_jet_correctness():
    t0 = time.time()
    rng = np.random.default_rng(12345)
    checked = 0
    worst = 0.0
    while checked < 100:
        nvars = int(rng.integers(1, 4))
        expr = random_expression(rng, nvars)
        x0 = rng.uniform(0.6, 1.4, size=nvars)
        jet = expr(EagerSpace.get(nvars, 4).variables(x0))
        if not hasattr(jet, "partial"):
            continue  # tree degenerated to a constant; draw again
        checked += 1

        def plain(y):
            return expr(list(y))

        for mono in jet.space.exponents.tolist():
            if sum(mono) == 0:
                continue
            multi = [i for i, e in enumerate(mono) for _ in range(e)]
            fd = richardson_partial(plain, x0, multi)
            exact = jet.partial(multi)
            rel = abs(exact - fd) / max(1.0, abs(fd), abs(exact))
            worst = max(worst, rel)
            assert rel < 1e-6, (checked, mono, exact, fd)
    _report(1, f"jets vs Richardson FD on {checked} composites, worst rel {worst:.1e}",
            time.time() - t0, 10)


def test_criterion_02_poincare_curvatures():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = np.array([0.85 * rng.uniform(0.05, 1.0) *
                      np.exp(2j * math.pi * rng.uniform())])
        v = np.array([(rng.standard_normal() + 1j * rng.standard_normal())])
        k = at_point(holomorphic_sectional_curvature, POINCARE, z, v)
        assert abs(k + 4.0) < 1e-5
    density = lambda zc: (1.0 - zc.abs2()) ** -2
    for _ in range(10):
        zeta = 0.9 * rng.uniform(0.0, 1.0) * np.exp(2j * math.pi * rng.uniform())
        assert abs(gaussian_curvature(density, zeta) + 4.0) < 1e-8
    _report(2, "Poincare disk K_G and density curvature both -4",
            time.time() - t0, 5)


def test_criterion_03_minkowski_family():
    t0 = time.time()
    rng = np.random.default_rng(11)
    mr = realify_metric(MINKOWSKI)
    worst_gamma = 0.0
    worst_k = 0.0
    worst_flag = 0.0
    for _ in range(10):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        data = at_point(chern_finsler, MINKOWSKI, z, v)
        worst_gamma = max(worst_gamma, float(np.abs(data.gamma_h).max()))
        worst_k = max(worst_k, abs(at_point(holomorphic_sectional_curvature,
                                            MINKOWSKI, z, v)))
        x = complex_to_real_components(z)
        u = complex_to_real_components(v)
        X = rng.standard_normal(4)
        worst_flag = max(worst_flag, abs(flag_curvature(mr, x, u, X)))
    assert worst_gamma < 1e-9
    assert worst_k < 1e-7
    assert worst_flag < 1e-6
    worst_ray = 0.0
    for _ in range(5):
        u0 = rng.standard_normal(4)
        u0 /= math.sqrt(mr.value(np.zeros(4), u0))
        path = integrate_geodesic(mr, np.zeros(4), u0, 2.0)
        x_end, _ = endpoint(path)
        worst_ray = max(worst_ray, float(np.linalg.norm(x_end - 2.0 * u0)))
    assert worst_ray < 1e-9
    rep = classify(MINKOWSKI, SamplePlan(seed=1, n_points=6, n_dirs=4))
    assert rep.classification == "strongly_kahler"
    _report(3, f"Minkowski: gamma {worst_gamma:.1e}, K {worst_k:.1e}, "
               f"flag {worst_flag:.1e}, rays {worst_ray:.1e}, strongly Kahler",
            time.time() - t0, 30)


def test_criterion_04_kahler_chain_and_pde():
    t0 = time.time()
    gradient_profiles = [
        build_profile({"form": "gradient", "f": "one"}),
        build_profile({"form": "gradient", "f": "exp", "c": 1.0}),
        build_profile({"form": "gradient", "f": "inv_one_minus_t"}),
    ]
    for prof in gradient_profiles:
        pde = weakly_kahler_pde_residual(prof)  # 20 x 20 grid default
        assert pde.stats["n_grid"] == 400
        assert pde.stats["max_residual"] < 1e-8 * pde.stats["scale"]
        predicted, observed = un_invariant_kahler_check(prof)
        assert predicted and is_at_least(observed, "kahler")
    bad = build_profile({"form": "free", "expr": "one_plus_s2"})
    pde_bad = weakly_kahler_pde_residual(bad)
    assert not pde_bad.passed
    assert pde_bad.stats["max_residual"] > 1e-3
    predicted, observed = un_invariant_kahler_check(bad)
    # prediction (not Kahler) matches classification
    assert not predicted and not is_at_least(observed, "kahler")
    _report(4, "gradient-form profiles Kahler with zero residual; "
               "free profile fails both routes", time.time() - t0, 20)


HYPERBOLIC = realify_metric(POINCARE)
EUCLID2R = realify_metric(EUCLID2)


def test_criterion_05_distance_analytics():
    t0 = time.time()
    pd_h = PoleDistance(HYPERBOLIC, np.zeros(2))
    pd_e = PoleDistance(EUCLID2R, np.zeros(4))
    rng = np.random.default_rng(19)

    # closed forms and two-route agreement
    for _ in range(5):
        ang = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0.25, 0.7)
        q = radius * np.array([math.cos(ang), math.sin(ang)])
        rho = hyperbolic_distance(radius)
        tang = np.array([-math.sin(ang), math.cos(ang)])
        res = hessian_rho(HYPERBOLIC, np.zeros(2), q, tang, pd=pd_h)
        assert abs(res.value - hyperbolic_hessian_tangential(rho)) < 1e-8
        assert res.value <= 1.0 / rho + 2.0 + 1e-3
        assert res.discrepancy < 1e-4 * max(1.0, abs(res.value))

        qe = rng.standard_normal(4)
        qe *= rng.uniform(0.4, 0.9) / np.linalg.norm(qe)
        te = rng.standard_normal(4)
        te -= (te @ qe) / (qe @ qe) * qe
        res_e = hessian_rho(EUCLID2R, np.zeros(4), qe, te, pd=pd_e)
        rho_e = np.linalg.norm(qe)
        assert abs(res_e.value - 1.0 / rho_e) < 1e-8
        assert res_e.value <= 1.0 / rho_e + 0.0 + 1e-3
        assert res_e.discrepancy < 1e-4 * max(1.0, abs(res_e.value))

    # normal-coordinate bound on rho^2 over annulus samples
    def coordinate_bound_check(m, pd, dim, K, count):
        for _ in range(count):
            q = rng.standard_normal(dim)
            q *= rng.uniform(0.2, 0.7) / np.linalg.norm(q)
            u = rng.standard_normal(dim)
            system = distance_hessian(pd, q)
            u = u / math.sqrt(u @ system.g @ u)
            drho_u = float(u @ system.g @ system.T)
            lhs = 2.0 * drho_u ** 2 + 2.0 * system.r * float(u @ system.boundary_form() @ u)
            assert lhs <= 2.0 * (2.0 + system.r * K) + 1e-3

    coordinate_bound_check(HYPERBOLIC, pd_h, 2, 2.0, 25)
    coordinate_bound_check(EUCLID2R, pd_e, 4, 0.0, 25)

    # Levi bound on rho^2 over annulus samples
    lf_h = LeviField(POINCARE, np.zeros(1, complex), curvature_K=2.0)
    lf_e = LeviField(EUCLID1, np.zeros(1, complex), curvature_K=0.0)
    for _ in range(25):
        ang = rng.uniform(0, 2 * math.pi)
        z = np.array([rng.uniform(0.2, 0.7) * np.exp(1j * ang)])
        v = np.array([np.exp(1j * rng.uniform(0, 2 * math.pi))])
        s = lf_h.sample(z, v)
        assert s.margin >= -1e-3
        z_e = np.array([rng.uniform(0.2, 0.9) * np.exp(1j * ang)])
        s_e = lf_e.sample(z_e, v)
        assert s_e.margin >= -1e-3
        assert abs(s_e.levi_value - 1.0) < 1e-8
    _report(5, "distance Hessians match closed forms; comparison bounds hold "
               "on 100 annulus samples; routes agree", time.time() - t0, 120)


def test_criterion_06_gradient_identities():
    t0 = time.time()
    cases = [
        (EUCLID1, np.array([0.5 + 0.2j])),
        (POINCARE, np.array([0.45 - 0.3j])),
        (MINKOWSKI, np.array([0.4 + 0.1j, -0.3 + 0.5j])),
    ]
    for m, z in cases:
        rep = gradient_identity(m, np.zeros(m.n, complex), z)
        assert rep["relative_error_real"] < 1e-6, rep
        assert rep["relative_error_complex"] < 1e-6, rep
    _report(6, "radial pairings equal 2 rho and rho on all three families",
            time.time() - t0, 60)


def test_criterion_07_realification_identities():
    t0 = time.time()
    members = [EUCLID2, POINCARE, BALL2, MINKOWSKI, SZABO]
    rng = np.random.default_rng(23)
    from test_geometry import realification_pairing_residual
    for m in members:
        for _ in range(10):
            w = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
            z = 0.3 * rng.uniform(0.2, 1.0) * w / np.linalg.norm(w)
            v = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
            V = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
            W = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
            assert realification_pairing_residual(m, z, v, V, W) < 1e-6

    def f_a(xs):
        return sum(x * x for x in xs)

    def f_b(xs):
        return xs[0] + 0.2 * xs[0] * xs[len(xs) // 2]

    for m in members:
        for f in (f_a, f_b):
            for _ in range(5):
                w = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
                z = 0.3 * rng.uniform(0.2, 1.0) * w / np.linalg.norm(w)
                X = rng.standard_normal(2 * m.n)
                out = levi_identity_residual(m, f, z, X)
                assert out["relative_residual"] < 1e-6, (m.family_id, out)
    _report(7, "vertical-pairing and Hessian/Levi identities on 5 members "
               "(50 samples each)", time.time() - t0, 60)


def test_criterion_08_schwarz_certificates():
    t0 = time.time()
    plan = SamplePlan(seed=3, n_points=10, n_dirs=4, radial_range=(0.05, 0.8))
    disk = MetricAnalysis(POINCARE, plan)
    ident = build_map({"map": "identity", "params": {"n": 1}})
    cert_i = certify_schwarz(ident, disk, disk)
    assert abs(cert_i.max_ratio - 1.0) < 1e-6
    assert abs(cert_i.bound - 1.0) < 1e-6
    assert cert_i.passed

    mob = build_map({"map": "mobius", "params": {"a": [0.3, -0.2]}})
    cert_m = certify_schwarz(mob, disk, disk)
    assert abs(cert_m.max_ratio - 1.0) < 1e-6
    assert cert_m.passed

    sq = build_map({"map": "power", "params": {"m": 2}})
    for zeta in [0.2 + 0.1j, 0.5 - 0.3j, -0.4 + 0.35j, 0.66 + 0.0j]:
        z, v = np.array([zeta]), np.array([1.0])
        fz, jac = sq.evaluate(z[None])
        ratio = POINCARE.value(fz[0], jac[0] @ v) / POINCARE.value(z, v)
        tt = abs(zeta) ** 2
        assert abs(ratio - 4 * tt / (1 + tt) ** 2) < 1e-8
    cert_s = certify_schwarz(sq, disk, disk)
    assert cert_s.max_ratio < 1.0 and cert_s.passed

    lin = build_map({"map": "linear", "params": {"matrix": [[0.25, 0.1]]},
                     "id": "row_linear"})
    flat_plan = SamplePlan(seed=5, n_points=6, n_dirs=4)
    cert_f = certify_schwarz(lin, MetricAnalysis(MINKOWSKI, flat_plan),
                             MetricAnalysis(POINCARE, flat_plan))
    assert abs(cert_f.bound) < 1e-7
    assert cert_f.max_ratio > 1e-3
    assert not cert_f.passed
    _report(8, f"identity/Mobius ratio 1.0, square map matches 4t/(1+t)^2, "
               f"flat-to-hyperbolic constancy FAIL as required",
            time.time() - t0, 60)


# pinned by the first run of this suite (seed 2024 sampling below)
SZABO_PINNED = [
    ((+0.14637714489782799 + 0.16314565707880935j,
      +0.23359864116066001 - 0.1384558363313011j),
     (+0.067196355071097225 + 0.50918679884568796j,
      +0.86135091794042629 + 1.8102855742952833j),
     -2.4606462078029274),
    ((+0.11060151565524097 - 0.10772602036614617j,
      +0.094238518212750838 - 0.16317007123679259j),
     (+0.048912403069534136 - 1.3764228399745688j,
      +0.81152011698155757 - 0.43637073584081926j),
     -1.6940696581682504),
    ((-0.097306631465768761 + 0.068061804310877341j,
      -0.058461133132615424 - 0.11158803730704918j),
     (+0.16378857220098098 - 0.25228975964635664j,
      -0.66847030491551651 - 0.22186154087661292j),
     -2.1400709170895227),
    ((+0.11063734757832956 + 0.07203879686588005j,
      -0.11410776909121857 + 0.015034071322449067j),
     (+0.22494338807029399 - 0.6636760694670103j,
      +1.6576840551979304 + 1.1991871656162354j),
     -2.2984342970857363),
    ((-0.079498448886537121 + 0.23915824572423566j,
      -0.1891487691365582 - 0.086783306601527749j),
     (-1.3886836827516753 + 0.63430094144401827j,
      -2.0981967905109227 - 1.1652663772886236j),
     -1.7337131533678589),
    ((+0.063372922814283014 - 0.0093477243274039858j,
      +0.15049187735586153 - 0.091737594504913741j),
     (+0.76172847045416603 + 0.017464490835138562j,
      -0.26179037875573763 + 1.335270728748762j),
     -1.9113678902446458),
]


def test_criterion_09_disk_probe_maximality():
    t0 = time.time()
    rng = np.random.default_rng(31)
    # Poincare ball: every probe curvature below K_G, geodesic probe attains
    for _ in range(6):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = 0.4 * rng.uniform(0.2, 1.0) * w / np.linalg.norm(w)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        kg = at_point(holomorphic_sectional_curvature, BALL2, z, v)
        best = -math.inf
        for p in probe_catalog(BALL2, z, v, quadratic_coeff=b).values():
            k = gaussian_curvature(pullback_density(BALL2, p), 0.0 + 0.0j)
            assert k <= kg + 1e-6
            best = max(best, k)
        assert abs(best - kg) < 1e-4

    # Szabo: probes below K_G; curvature values replay the pinned run
    for (z_t, v_t, k_pin) in SZABO_PINNED:
        z = np.array(z_t)
        v = np.array(v_t)
        k = at_point(holomorphic_sectional_curvature, SZABO, z, v)
        assert k == pytest.approx(k_pin, abs=1e-10)
        b = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        for p in probe_catalog(SZABO, z, v, quadratic_coeff=b).values():
            kp = gaussian_curvature(pullback_density(SZABO, p), 0.0 + 0.0j)
            assert kp <= k + 1e-6
    _report(9, "probe curvatures never exceed K_G; Szabo values replay pinned run",
            time.time() - t0, 120)


def test_criterion_10_replay_determinism(tmp_path):
    t0 = time.time()
    # regenerate the three golden certificates and replay them byte-exactly
    out = tmp_path / "golden_out"
    rc = cli_main(["schwarz", "--config", str(GOLDEN_DIR / "golden_config.json"),
                   "--out", str(out)])
    assert rc == 0
    for name in ("identity", "mobius", "square"):
        fresh = out / "schwarz" / f"{name}__poincare__poincare" / "report.json"
        golden = GOLDEN_DIR / f"cert_{name}.json"
        fresh_payload = json.loads(fresh.read_text())["payload"]
        golden_payload = json.loads(golden.read_text())["payload"]
        assert canonical_json(fresh_payload) == canonical_json(golden_payload)
        assert cli_main(["replay", "--certificate", str(golden)]) == 0
    _report(10, "three golden certificates replay bitwise",
            time.time() - t0, 120)
