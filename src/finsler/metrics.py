"""Built-in metric families, holomorphic map catalog, and metric validation.

Families are written against the generic scalar protocol of :mod:`finsler.jets`
so the same formula evaluates on plain complex numbers (fast values) and on
CJets over real coordinates (full jets). Pure p-norm metrics are not smooth
where a component vanishes, so the point-independent norm family is built
from p-th-root combinations of Hermitian quadratics with a full-rank base
term, which keeps it smooth on the slit bundle.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigurationError
from .geometry import (Domain, MetricDef, SamplePlan, complex_coordinates,
                       complex_to_real_components, product_domain, sample_points,
                       sample_vectors, unit_directions)
from .jets import JetSpace, cabs2, cconj, creal, sexp, spow
from .report import (VerificationReport, evaluate_samples, failure_reasons,
                     sample_counts)


def _complex(e):
    """A complex number given as a scalar or as an [re, im] pair."""
    return complex(e[0], e[1]) if isinstance(e, (list, tuple)) else complex(e)


def _hermitian(m, n, what):
    """Parse an n x n complex matrix given as nested lists of ``_complex``
    entries and check that it is Hermitian."""
    arr = np.array([[_complex(m[i][j]) for j in range(n)] for i in range(n)],
                   dtype=complex)
    if not np.allclose(arr, arr.conj().T, atol=1e-12):
        raise ConfigurationError(f"{what}: matrix must be Hermitian")
    return arr


def _as_matrix(m, n, what):
    """``_hermitian`` of the nested lists, checked positive definite."""
    arr = _hermitian(m, n, what)
    if np.linalg.eigvalsh(arr).min() <= 0:
        raise ConfigurationError(f"{what}: matrix must be positive definite")
    return arr


def _hermitian_form(H, v):
    """sum_ab H[a,b] v_a conj(v_b) as a real scalar, for a Hermitian H (entries
    scalars): each off-diagonal pair is summed once, over a < b, as
    2 Re(v_a conj(v_b) H_ab)."""
    s = None
    n = len(v)
    for a in range(n):
        for b in range(a, n):
            h = H[a][b] if not isinstance(H, np.ndarray) else H[a, b]
            if isinstance(h, numbers.Number) and h == 0:
                continue
            if a == b:
                # real part of v_a conj(v_a) H_aa, computed in real arithmetic
                term = cabs2(v[a]) * creal(h)
            else:
                term = creal((v[a] * cconj(v[b])) * h) * 2.0
            s = term if s is None else s + term
    return s


# -- Hermitian catalog -----------------------------------------------------------


def _complex_dim(spec, default):
    """The spec's ``complex_dim``, which must be an integer >= 1."""
    n = int(spec.get("complex_dim", default))
    if n < 1:
        raise ConfigurationError(f"complex_dim must be >= 1, got {n}")
    return n


def _make_hermitian(spec):
    n = _complex_dim(spec, 1)
    params = spec.get("params", {})
    catalog = params.get("catalog", "euclidean")
    scale = float(params.get("scale", 1.0))
    if scale <= 0:
        raise ConfigurationError("hermitian: scale must be positive")

    meta = {"complete": True}
    domain = Domain()

    if catalog == "euclidean":
        H = np.eye(n, dtype=complex)

        def matrix_fn(z):
            return H

        meta.update(holomorphic_curvature=0.0, kahler_class="strongly_kahler")
    elif catalog == "constant":
        H = _as_matrix(params["matrix"], n, "hermitian constant")

        def matrix_fn(z):
            return H

        meta.update(holomorphic_curvature=0.0, kahler_class="strongly_kahler")
    elif catalog == "poincare_disk":
        if n != 1:
            raise ConfigurationError("poincare_disk is one-dimensional")
        domain = Domain("ball", 1.0)

        def matrix_fn(z):
            w = 1.0 - cabs2(z[0])
            return [[spow(w, -2)]]

        meta.update(holomorphic_curvature=-4.0 / scale,
                    kahler_class="strongly_kahler",
                    distance_from_origin="atanh", complete=True)
    elif catalog == "poincare_ball":
        domain = Domain("ball", 1.0)

        def matrix_fn(z):
            t = cabs2(z[0])
            for a in range(1, n):
                t = t + cabs2(z[a])
            w = spow(1.0 - t, -2)
            mat = [[None] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    entry = cconj(z[a]) * z[b] if a != b else cabs2(z[a])
                    if a == b:
                        entry = entry + (1.0 - t)
                    mat[a][b] = entry * w
            return mat

        meta.update(holomorphic_curvature=-4.0 / scale,
                    kahler_class="strongly_kahler",
                    distance_from_origin="atanh", complete=True)
    elif catalog == "product_disks":
        if n < 2:
            raise ConfigurationError("product_disks needs complex_dim >= 2")
        domain = Domain("polydisk", blocks=tuple((1, 1.0) for _ in range(n)))

        def matrix_fn(z):
            mat = [[0.0] * n for _ in range(n)]
            for a in range(n):
                mat[a][a] = spow(1.0 - cabs2(z[a]), -2)
            return mat

        meta.update(kahler_class="strongly_kahler", complete=True)
    elif catalog == "nonkahler":
        if n < 2:
            raise ConfigurationError("nonkahler catalog needs complex_dim >= 2")

        def matrix_fn(z):
            mat = [[0.0] * n for _ in range(n)]
            mat[0][0] = 1.0
            for a in range(1, n):
                mat[a][a] = 1.0 + cabs2(z[0])
            return mat

        meta.update(kahler_class="none")
    else:
        raise ConfigurationError(f"unknown hermitian catalog entry {catalog!r}")

    def formula(z, v):
        mat = matrix_fn(z)
        g = _hermitian_form(mat, v)
        return g * scale if scale != 1.0 else g

    meta.update(hermitian_matrix=matrix_fn, hermitian_scale=scale)
    fam_id = spec.get("id", f"hermitian_{catalog}_{n}")
    return MetricDef("complex_strongly_convex", formula, n_complex=n,
                     domain=domain, metadata=meta, family_id=fam_id, spec=spec)


# -- point-independent complex norms ----------------------------------------------


def _make_minkowski(spec):
    n = _complex_dim(spec, 1)
    params = spec.get("params", {})
    eps = float(params.get("eps", 1.0))
    k = params.get("k", 2)
    if eps < 0:
        raise ConfigurationError("minkowski: eps must be >= 0")
    if eps > 0 and (int(k) != k or k < 2):
        raise ConfigurationError("minkowski: k must be an integer >= 2")
    k = int(k)
    base = params.get("base")
    B = np.eye(n, dtype=complex) if base is None else _as_matrix(base, n, "minkowski base")
    factors = params.get("factors")
    if factors is None:
        Hs = [np.diag(np.eye(n)[a]).astype(complex) for a in range(n)]
    else:
        Hs = [_hermitian(f, n, "minkowski factors") for f in factors]
        if any(np.linalg.eigvalsh(H).min() < -1e-12 for H in Hs):
            raise ConfigurationError("minkowski: factors must be positive semidefinite")

    def formula(z, v):
        g = _hermitian_form(B, v)
        if eps > 0:
            q = None
            for H in Hs:
                term = spow(_hermitian_form(H, v), k)
                q = term if q is None else q + term
            g = g + eps * spow(q, 1.0 / k)
        return g

    meta = {"kahler_class": "strongly_kahler", "holomorphic_curvature": 0.0,
            "complete": True, "distance_from_origin": "norm"}
    fam_id = spec.get("id", f"minkowski_{n}_k{k}")
    return MetricDef("complex_strongly_convex", formula, n_complex=n,
                     domain=Domain(), metadata=meta, family_id=fam_id, spec=spec)


# -- two-factor product norms -----------------------------------------------------


def _make_szabo(spec):
    params = spec.get("params", {})
    k = params.get("k", 2)
    eps = float(params.get("eps", 1.0))
    if eps <= 0:
        raise ConfigurationError("szabo: eps must be positive")
    if int(k) != k or k < 2:
        raise ConfigurationError("szabo: k must be an integer >= 2")
    k = int(k)
    if "factors" in params:
        # shorthand: two constant Hermitian matrices
        if len(params["factors"]) != 2:
            raise ConfigurationError("szabo: factors must list two matrices")
        f1_spec, f2_spec = ({
            "complex_dim": len(mat),
            "params": {"catalog": "constant", "matrix": mat},
        } for mat in params["factors"])
    else:
        f1_spec = params.get("factor1", {"complex_dim": 1})
        f2_spec = params.get("factor2", {"complex_dim": 1})
    f1 = _make_hermitian(f1_spec)
    f2 = _make_hermitian(f2_spec)
    n1, n2 = f1.n, f2.n
    n = n1 + n2

    def formula(z, v):
        a2 = f1.formula(z[:n1], v[:n1])
        b2 = f2.formula(z[n1:], v[n1:])
        return a2 + b2 + eps * spow(spow(a2, k) + spow(b2, k), 1.0 / k)

    factors_kahler = all(
        f.metadata.get("kahler_class", "none") in ("strongly_kahler", "kahler")
        for f in (f1, f2))
    meta = {"kahler_class": "kahler" if factors_kahler else "none"}
    fam_id = spec.get("id", f"szabo_k{k}_{f1.family_id}_{f2.family_id}")
    return MetricDef("complex_strongly_convex", formula, n_complex=n,
                     domain=product_domain(f1.domain, n1, f2.domain, n2),
                     metadata=meta, family_id=fam_id, spec=spec)


# -- unitary-invariant metrics G = r * phi(t, s) -----------------------------------


class UnitaryProfile:
    """Profile phi(t, s) with t = |z|^2, s = |<z,v>|^2 / |v|^2.

    ``is_gradient_form`` marks profiles known to be of the shape
    f(t) + f'(t) s, the closed-form characterization of the Kaehler class
    for this family.
    """

    def __init__(self, profile_id, fn, *, is_gradient_form, t_max=math.inf):
        self.id = profile_id
        self._fn = fn
        self.is_gradient_form = is_gradient_form
        self.t_max = t_max

    def __call__(self, t, s):
        return self._fn(t, s)


def build_profile(params) -> UnitaryProfile:
    form = params.get("form", "gradient")
    if form == "gradient":
        fname = params.get("f", "one")
        c = float(params.get("c", 1.0))
        if fname == "one":
            return UnitaryProfile("phi_f_one", lambda t, s: 1.0 + 0.0 * creal(t),
                                  is_gradient_form=True)
        if fname == "exp":
            def fn(t, s):
                return sexp(t * c) * (1.0 + c * s)
            return UnitaryProfile(f"phi_f_exp_c{c:g}", fn, is_gradient_form=True)
        if fname == "inv_one_minus_t":
            def fn(t, s):
                w = 1.0 - t
                return spow(w, -1) + s * spow(w, -2)
            return UnitaryProfile("phi_f_inv", fn, is_gradient_form=True, t_max=1.0)
        raise ConfigurationError(f"unknown gradient profile f {fname!r}")
    if form == "free":
        expr = params.get("expr", "one_plus_s2")
        if expr == "one_plus_s2":
            return UnitaryProfile("phi_one_plus_s2", lambda t, s: 1.0 + s * s,
                                  is_gradient_form=False)
        if expr == "one_plus_ts2":
            return UnitaryProfile("phi_one_plus_ts2", lambda t, s: 1.0 + t * (s * s),
                                  is_gradient_form=False)
        raise ConfigurationError(f"unknown free profile {expr!r}")
    raise ConfigurationError(f"unknown profile form {form!r}")


def _make_un_invariant(spec):
    profile = build_profile(spec.get("params", {}).get("profile", {}))
    return un_invariant_metric(profile, _complex_dim(spec, 2), spec)


def un_invariant_metric(profile: UnitaryProfile, n: int, spec) -> MetricDef:
    """The metric G = |v|^2 phi(|z|^2, |<z,v>|^2 / |v|^2) on C^n, defined where
    |z|^2 < profile.t_max; ``metadata["profile"]`` holds the profile."""
    radius = math.sqrt(profile.t_max) if math.isfinite(profile.t_max) else math.inf
    domain = Domain("ball", radius) if math.isfinite(radius) else Domain()

    def formula(z, v):
        r = cabs2(v[0])
        t = cabs2(z[0])
        ip = v[0] * cconj(z[0])
        for a in range(1, n):
            r = r + cabs2(v[a])
            t = t + cabs2(z[a])
            ip = ip + v[a] * cconj(z[a])
        s = cabs2(ip) / r
        return r * profile(t, s)

    meta = {"profile": profile,
            "kahler_class": "kahler" if profile.is_gradient_form else "unknown"}
    fam_id = spec.get("id", f"un_{profile.id}_{n}")
    return MetricDef("complex", formula, n_complex=n, domain=domain,
                     metadata=meta, family_id=fam_id, spec=spec)


_FAMILIES = {
    "hermitian": _make_hermitian,
    "minkowski": _make_minkowski,
    "szabo": _make_szabo,
    "un_invariant": _make_un_invariant,
}


def _parsed(what, build, spec):
    """``build(spec)``, where a spec value of the wrong type or shape, or a
    missing key, raises a ``ConfigurationError`` naming the spec. Builders
    only parse and make closures, so these errors come from nothing else."""
    try:
        return build(spec)
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise ConfigurationError(f"{what} spec {spec!r}: {type(exc).__name__}: {exc}") from exc


def instantiate(spec) -> MetricDef:
    """Build a metric from a family spec document."""
    family = spec.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigurationError(
            f"unknown metric family {family!r}; expected one of {sorted(_FAMILIES)}")
    return _parsed("metric", _FAMILIES[family], spec)


# -- metric validation -------------------------------------------------------------


def check_metric(m: MetricDef, plan: SamplePlan | None = None) -> VerificationReport:
    """Positivity, homogeneity, strong pseudoconvexity and strong convexity.

    Reports the minimum eigenvalues of the Levi matrix and of the real
    fundamental tensor over the sample grid, plus homogeneity residuals.
    Per-sample evaluation failures are recorded, not raised: ``stats["samples"]``
    holds the attempted/ok/failed counts with failures tallied by error type,
    and a check with a failed sample, or with no evaluated one, fails.
    """
    plan = plan or SamplePlan()
    rng = np.random.default_rng(plan.seed + 7)

    def sample(z, v):
        """(G, least real eigenvalue, homogeneity residual[, least Levi eigenvalue])."""
        G = m.value(z, v)
        levi = ()
        x, u = z, v
        if m.is_complex:
            levi = (float(np.linalg.eigvalsh(m.levi_matrix(z, v)).min()),)
            x, u = complex_to_real_components(z), complex_to_real_components(v)
        evr = float(np.linalg.eigvalsh(m.fundamental_real(x, u)).min())
        if m.is_complex:
            s = complex(rng.standard_normal(), rng.standard_normal())
        else:
            s = float(rng.standard_normal())
            if abs(s) < 0.1:
                s = 0.5
        ref = m.value(z, s * v)
        return (G, evr, abs(ref - abs(s) ** 2 * G) / max(1.0, abs(ref))) + levi

    rows, failures = evaluate_samples(sample, sample_points(m, plan),
                                      sample_vectors(m, plan))
    min_value = min((val[0] for _, _, val in rows), default=math.inf)
    min_real = min((val[1] for _, _, val in rows), default=None)
    hom_res = max((val[2] for _, _, val in rows), default=0.0)
    min_levi = min((val[3] for _, _, val in rows), default=None) if m.is_complex else None
    tol = 1e-10
    passed = (rows and min_value > 0 and min_real > 0 and hom_res < tol
              and (min_levi is None or min_levi > 0) and not failures)
    return VerificationReport(
        name=f"check_metric:{m.family_id}",
        passed=bool(passed),
        tolerance=tol,
        stats={
            "min_levi_eigenvalue": min_levi,
            "min_real_hessian_eigenvalue": min_real,
            "min_value": min_value,
            "homogeneity_residual": hom_res,
            "samples": sample_counts(len(rows), failure_reasons(failures)),
        },
        samples=[{"point_index": i, "dir_index": j, "G": value[0]}
                 for i, j, value in rows[:4]],
        errors=[f"sample ({i},{j}): {type(exc).__name__}: {exc}"
                for i, j, exc in failures],
    )


# -- holomorphic map catalog ---------------------------------------------------------


class HoloMap:
    """Holomorphic map from the catalog, evaluable on complex scalars or CJets."""

    def __init__(self, map_id, n_in, n_out, fn):
        self.id = map_id
        self.n_in = n_in
        self.n_out = n_out
        self._fn = fn

    def __call__(self, z):
        return self._fn(list(z))

    def apply_values(self, z):
        return np.array([complex(w) for w in self._fn([complex(c) for c in z])])

    def jacobian(self, z):
        """Exact complex Jacobian dF/dz at a point, via first-order jets."""
        return _holomorphic_jacobian(self._fn, z)


def _holomorphic_jacobian(fn, z):
    """Complex Jacobian dF/dz of a holomorphic map on generic scalars at z.

    F is evaluated on first-order jets over (Re z, Im z); by the
    Cauchy-Riemann equations dF/dz = dF/dRe z, read from the gradients.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size
    seeds = JetSpace.get(2 * n, 1, False).variables(complex_to_real_components(z))
    out = fn(complex_coordinates(seeds))
    return np.array([w.re.gradient()[:n] + 1j * w.im.gradient()[:n] for w in out])


def build_map(spec) -> HoloMap:
    """Build a holomorphic map from a catalog spec document."""
    return _parsed("map", _build_map, spec)


def _build_map(spec) -> HoloMap:
    kind = spec.get("map")
    params = spec.get("params", {})
    if kind == "identity":
        n = int(params.get("n", 1))
        return HoloMap(spec.get("id", f"identity_{n}"), n, n, lambda z: z)
    if kind == "power":
        mdeg = int(params.get("m", 2))
        if mdeg < 1:
            raise ConfigurationError("power map needs m >= 1")

        def fn(z):
            w = z[0]
            out = w
            for _ in range(mdeg - 1):
                out = out * w
            return [out]
        return HoloMap(spec.get("id", f"power_{mdeg}"), 1, 1, fn)
    if kind == "mobius":
        a = _complex(params.get("a", 0.3))
        if abs(a) >= 1:
            raise ConfigurationError("mobius parameter must satisfy |a| < 1")

        def fn(z):
            w = z[0]
            return [(a - w) / (1.0 - w * a.conjugate())]
        return HoloMap(spec.get("id", f"mobius_{a.real:g}_{a.imag:g}"), 1, 1, fn)
    if kind == "linear":
        A = np.asarray([[_complex(e) for e in row] for row in params["matrix"]],
                       dtype=complex)
        n_out, n_in = A.shape

        def fn(z):
            out = []
            for i in range(n_out):
                acc = None
                for j in range(n_in):
                    if A[i, j] == 0:
                        continue
                    term = z[j] * A[i, j]
                    acc = term if acc is None else acc + term
                if acc is None:
                    acc = z[0] * 0.0
                out.append(acc)
            return out
        return HoloMap(spec.get("id", "linear"), n_in, n_out, fn)
    if kind == "constant":
        c = [_complex(e) for e in params.get("value", [0.0])]
        n_in = int(params.get("n_in", 1))

        def fn(z):
            zero = z[0] * 0.0
            return [zero + ci for ci in c]
        return HoloMap(spec.get("id", "constant"), n_in, len(c), fn)
    raise ConfigurationError(f"unknown holomorphic map {kind!r}")


def plan_directions(m: MetricDef, k: int, seed=0):
    """k deterministic complex unit directions for curvature/ratio fans."""
    dirs = unit_directions(k, 2 * m.n, seed)
    return [d[:m.n] + 1j * d[m.n:] for d in dirs]
