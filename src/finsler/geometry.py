"""Points, tangent vectors, the complex structure J, and the metric interface.

All computation happens in a single coordinate domain. A complex manifold of
complex dimension n is identified with R^{2n} through z^a = x^a + i x^{n+a},
so the complex structure acts as J(d/dx^a) = d/dx^{n+a} and
J(d/dx^{n+a}) = -d/dx^a. Every realification formula depends on this one
convention, which is fixed here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateMetricError, DomainError, SlitBundleError, StructuralError
from .jets import CJet, Jet, JetProgram, JetSpace, creal, wirtinger, wirtinger_coeffs

#: Metric derivatives are never requested at smaller relative vector norms;
#: callers must renormalize using homogeneity.
EPS_SLIT = 1e-8


def _norm(a) -> float:
    """``np.linalg.norm`` of a 1-D float or complex array, bit for bit: the
    root of the dots of its raveled real and imaginary parts with
    themselves, as ``norm`` takes it, without ``norm``'s dispatch."""
    a = a.ravel(order="K")
    if a.dtype.kind == "c":
        return math.sqrt(a.real.dot(a.real) + a.imag.dot(a.imag))
    return math.sqrt(a.dot(a))


def apply_J(u):
    """Complex structure on real tangent components."""
    u = np.asarray(u, dtype=float)
    if u.size % 2:
        raise StructuralError("J needs an even number of real components")
    n = u.size // 2
    out = np.empty_like(u)
    out[:n] = -u[n:]
    out[n:] = u[:n]
    return out


def real_to_complex_components(u):
    """The inverse of ``complex_to_real_components``, on a vector or on rows."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1] % 2:
        raise StructuralError("complexification needs an even real dimension")
    n = u.shape[-1] // 2
    return u[..., :n] + 1j * u[..., n:]


def complex_to_real_components(v):
    """Real components (real parts, then imaginary parts) of a complex vector,
    or of each row of an array of them."""
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag], axis=-1)


def complex_coordinates(x) -> list:
    """The complex coordinates z^a = x^a + i x^{n+a}, as CJets, of the real
    components of a point as jets (x block, then y block)."""
    n = len(x) // 2
    return [CJet(x[a], x[n + a]) for a in range(n)]


# -- validity domains ----------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """Region of the coordinate chart on which a metric family is defined.

    kind 'all' is the whole space, 'ball' the open norm ball of ``radius``,
    'polydisk' a product of balls over the listed blocks of complex
    coordinates. A point is given either as complex coordinates (a complex
    array) or as their real components (a real array, x block then y block);
    the norm of the real components is |z|, so only a polydisk converts them.
    """

    kind: str = "all"
    radius: float = math.inf
    blocks: tuple = ()

    def margin(self, z) -> float:
        """Positive inside the domain, <= 0 outside (in point-norm units)."""
        z = np.asarray(z)
        if self.kind == "all":
            return math.inf
        if self.kind == "ball":
            return self.radius - _norm(z)
        if self.kind == "polydisk":
            if not np.iscomplexobj(z):
                z = real_to_complex_components(z)
            # np.minimum, unlike min, keeps a NaN, which no domain contains
            lo = math.inf
            start = 0
            for size, radius in self.blocks:
                lo = np.minimum(lo, radius - _norm(z[start:start + size]))
                start += size
            return float(lo)
        raise StructuralError(f"unknown domain kind {self.kind!r}")

    def row_margins(self, x) -> np.ndarray:
        """``margin`` of each row of x, rows of real components, at once; each
        within rounding of its row's ``margin``, and NaN where that is NaN."""
        x = np.asarray(x, dtype=float)
        if self.kind == "all":
            return np.full(len(x), math.inf)
        if self.kind == "ball":
            return self.radius - np.linalg.norm(x, axis=1)
        if self.kind == "polydisk":
            z = real_to_complex_components(x)
            lo = np.full(len(x), math.inf)
            start = 0
            for size, radius in self.blocks:
                lo = np.minimum(lo, radius - np.linalg.norm(z[:, start:start + size], axis=1))
                start += size
            return lo
        raise StructuralError(f"unknown domain kind {self.kind!r}")

    def contains(self, z) -> bool:
        return self.margin(z) > 0.0

    def require(self, z):
        if not self.contains(z):
            raise DomainError(f"point {np.asarray(z)} outside {self.kind} domain")


def product_domain(d1: Domain, n1: int, d2: Domain, n2: int) -> Domain:
    def block(d, n):
        if d.kind == "all":
            return ((n, math.inf),)
        if d.kind == "ball":
            return ((n, d.radius),)
        return d.blocks
    return Domain(kind="polydisk", blocks=block(d1, n1) + block(d2, n2))


# -- metric definitions ---------------------------------------------------------


class MetricDef:
    """A Finsler metric as a jet-polymorphic evaluator plus metadata.

    ``formula`` maps (point scalars, vector scalars) to a real scalar. It runs
    only while its jet program is recorded (``program``), on recording jets:
    one CJet per complex coordinate for complex kinds, one real jet per real
    coordinate for the real kind. Every value and derivative of G is replayed
    from that program.
    Homogeneity of degree 2 in the vector argument is assumed and checked by
    the validation suite, not enforced here.
    """

    def __init__(self, kind, formula, *, n_complex=None, dim_real=None,
                 domain=None, metadata=None, family_id="anonymous", spec=None):
        if kind not in ("real", "complex", "complex_strongly_convex"):
            raise StructuralError(f"unknown metric kind {kind!r}")
        self.kind = kind
        self.formula = formula
        self.n = n_complex
        self.dim = dim_real if dim_real is not None else (2 * n_complex if n_complex else None)
        if self.dim is None:
            raise StructuralError("metric needs a real dimension")
        self.domain = domain or Domain()
        self.metadata = dict(metadata or {})
        self.family_id = family_id
        self.spec = dict(spec or {})

    @property
    def is_complex(self):
        return self.kind != "real"

    # -- guards -----------------------------------------------------------

    def _check_slit(self, x, u):
        nx = _norm(x)
        if _norm(u) < EPS_SLIT * (1.0 + nx):
            raise SlitBundleError(
                "vector too close to the zero section; renormalize by homogeneity")

    # -- values -------------------------------------------------------------

    def value(self, point, vector):
        """G at a point and a vector, a float, or at the B rows of shape (B, n)
        of either, broadcast against the other, an array (B,): complex
        coordinates for complex kinds, real components for the real kind.

        G is the constant coefficient of one order-0 ``real_rows`` replay of
        ``program``, a point being one row, and each row is guarded as there.
        A zero vector gives 0, and a vector the slit guard could refuse is
        read at its unit vector and scaled back by homogeneity.
        """
        dtype = complex if self.is_complex else float
        z, v = np.asarray(point, dtype=dtype), np.asarray(vector, dtype=dtype)
        x, u = np.broadcast_arrays(np.atleast_2d(z), np.atleast_2d(v))
        if self.is_complex:
            x, u = complex_to_real_components(x), complex_to_real_components(u)
        nu = np.linalg.norm(u, axis=1)
        small = nu <= (1.0 + 1e-9) * EPS_SLIT * (1.0 + np.linalg.norm(x, axis=1))
        if small.any():
            u = u.copy()
            for b in np.flatnonzero(small):
                # a zero vector reads G at e_0, scaled back by 0
                u[b] = u[b] / nu[b] if nu[b] > 0 else np.eye(self.dim)[0]
        G = self.real_rows(x, u, 0)[:, 0]
        G[small] *= nu[small] ** 2
        return float(G[0]) if z.ndim == v.ndim == 1 else G

    # -- jet evaluation ------------------------------------------------------

    def real_jet(self, x, u, basis) -> Jet:
        """Jet of G over the 2*dim real variables (x block, then u block) at
        one point: its ``real_rows`` replay as one row, guarded as there."""
        x, u = np.asarray(x, dtype=float).reshape(1, -1), np.asarray(u, dtype=float).reshape(1, -1)
        sp = JetSpace.of(2 * self.dim, basis)
        return Jet(sp, self.real_rows(x, u, sp)[0])

    def fibre_space(self, order, reach) -> JetSpace:
        """The basis over (x, u) that keeps the monomials whose degree in u is
        at least their degree - reach: the part of the jet a reader gathers."""
        return JetSpace.get(2 * self.dim, order, fibre=range(self.dim, 2 * self.dim), reach=reach)

    @cached_property
    def spray_space(self) -> JetSpace:
        """``fibre_space(2, 1)``, the basis of every spray, looked up once."""
        return self.fibre_space(2, 1)

    def real_rows(self, x, u, basis) -> np.ndarray:
        """Coefficient rows (B, n) over ``basis`` of the real jets of G at the B
        points of x, u of shape (B, dim), from one replay of ``program``,
        recorded once, on the first use (:class:`finsler.jets.JetProgram`).
        Each row must lie in the domain (``Domain.require``) and clear the slit
        guard (``_check_slit``): a point takes those exact checks, and of
        several rows only those within rounding of failing them, or not finite."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.ndim != 2 or x.shape != u.shape or x.shape[1] != self.dim:
            raise StructuralError(f"expected rows of {self.dim} real components")
        # the array screen costs several points' exact checks (12-15 us
        # against 1.8-2.6 us a point), so a point skips it
        doubtful = range(len(x))
        if len(x) > 1:
            nx = np.linalg.norm(x, axis=1)
            doubtful = np.flatnonzero(~((self.domain.row_margins(x) > 1e-12 * (1.0 + nx))
                                        & (np.linalg.norm(u, axis=1)
                                           > (1.0 + 1e-9) * EPS_SLIT * (1.0 + nx))))
        for b in doubtful:
            self.domain.require(x[b])
            self._check_slit(x[b], u[b])
        return self.program.replay_rows(np.concatenate([x, u], axis=1), basis)

    @cached_property
    def program(self) -> JetProgram:
        """``real_formula`` recorded as a jet program over (x, u)."""
        return JetProgram.record(
            lambda seeds: self.real_formula(seeds[:self.dim], seeds[self.dim:]), 2 * self.dim)

    def real_formula(self, x, u):
        """The formula on real components of the point and the vector, as a
        real scalar."""
        if self.is_complex:
            return creal(self.formula(complex_coordinates(x), complex_coordinates(u)))
        return self.formula(x, u)

    def complex_jet(self, z, v, order) -> Jet:
        """Wirtinger jet of G over (z_a, v_a, conj z_a, conj v_a) at one point:
        the reference ``complex_rows`` rows are pinned to, which no engine
        route reads."""
        if not self.is_complex:
            raise StructuralError("complex jets need a complex metric")
        z = np.asarray(z, dtype=complex)
        v = np.asarray(v, dtype=complex)
        x = complex_to_real_components(z)
        u = complex_to_real_components(v)
        return wirtinger(self.real_jet(x, u, order), self._wirtinger_pairs)

    def complex_rows(self, z, v, basis):
        """``(space, rows)``: the Wirtinger jets at the B rows of z, v of shape
        (B, n) over the complex space the image of the real ``basis`` keeps,
        row b the coefficients of ``complex_jet(z[b], v[b], basis)`` bit for
        bit, from one ``real_rows`` replay; each point is guarded as there."""
        if not self.is_complex:
            raise StructuralError("complex jets need a complex metric")
        x, u = complex_to_real_components(z), complex_to_real_components(v)
        sp = JetSpace.of(2 * self.dim, basis)
        return wirtinger_coeffs(self.real_rows(x, u, sp), sp, self._wirtinger_pairs)

    @property
    def _wirtinger_pairs(self):
        """(real, imaginary) variable pairs of z, then of v, over (x, u)."""
        n = self.n
        return [(a, n + a) for a in range(n)] + [(2 * n + a, 3 * n + a) for a in range(n)]

    # -- frequently used tensors ---------------------------------------------

    def fundamental_real(self, x, u) -> np.ndarray:
        """Real fundamental tensor g_ij = (1/2) d^2 G / du_i du_j at the rows x, u
        (B, dim), from one order-2 ``real_rows`` replay over u alone; L = levi_matrix(g)."""
        sp, U = self.fibre_space(2, 0), slice(self.dim, 2 * self.dim)
        return 0.5 * sp.gather(self.real_rows(x, u, sp), 2, U, U)


def levi_matrix(g) -> np.ndarray:
    """The Levi matrix (G_{a bbar}) of each real fundamental tensor g of shape
    (..., 2n, 2n) of a complex metric (``MetricDef.fundamental_real`` at
    realified rows): with p, q the real and imaginary parts of v,
    L = (g_pp + g_qq)/2 + i (g_pq - g_qp)/2 (Abate & Patrizio, LNM 1591,
    ch. 2). Each part sums two coefficients from +0.0, as the order-2
    Wirtinger jet (``MetricDef.complex_rows``) does, so L is its (v, vbar)
    block bit for bit."""
    n = g.shape[-1] // 2
    P, Q = slice(None, n), slice(n, None)
    levi = np.empty(g.shape[:-2] + (n, n), dtype=complex)
    levi.real = 0.5 * (g[..., P, P] + g[..., Q, Q]) + 0.0
    levi.imag = 0.5 * (g[..., P, Q] - g[..., Q, P]) + 0.0
    return levi


def one_norm_condition(a, inv) -> np.ndarray:
    """|a|_1 |inv|_1 of a matrix, or of each of a stack, flattened: the 1-norm
    reduction of ``np.linalg.norm``, bit for bit, without its dispatch."""
    return np.ravel(np.abs(a).sum(-2).max(-1) * np.abs(inv).sum(-2).max(-1))


def well_conditioned_inverse(a, what) -> np.ndarray:
    """``np.linalg.inv`` of a symmetric or Hermitian matrix ``what``, or of each
    of a stack of them, which must be regular with |a|_1 |a^-1|_1 (>= its
    2-norm condition) <= 1e10, or raise ``DegenerateMetricError`` with the
    condition number of the first row in row order that is not (NaN included)."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"{what} singular") from exc
    cond = one_norm_condition(a, inv)
    bad = np.flatnonzero(~(cond <= 1e10))
    if bad.size:
        raise DegenerateMetricError(f"{what} condition number {cond[bad[0]]:.2e}")
    return inv


def realify_metric(m: MetricDef) -> MetricDef:
    """View a strongly convex complex metric as a real Finsler metric on R^{2n}."""
    if not m.is_complex:
        raise StructuralError("realify_metric expects a complex metric")
    return MetricDef(
        "real", m.real_formula, dim_real=m.dim, domain=m.domain,
        metadata=m.metadata,
        family_id=m.family_id + "_real", spec=m.spec)


# -- deterministic sampling helpers ---------------------------------------------


def unit_directions(k, dim, seed=0):
    """k deterministic unit vectors in R^dim: a golden-angle lattice on the
    circle for dim 2, normalized Gaussian draws from ``seed`` above."""
    if dim == 2:
        golden = (1 + math.sqrt(5)) / 2
        ang = 2 * math.pi * np.arange(k) / golden
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((k, dim))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


@dataclass
class SamplePlan:
    """Deterministic point/vector sampling grid for verification runs."""

    seed: int = 0
    n_points: int = 20
    n_dirs: int = 5
    radial_range: tuple = (0.05, 0.85)

    def to_dict(self):
        return {**asdict(self), "radial_range": list(self.radial_range)}


def sample_points(m: MetricDef, plan: SamplePlan):
    """Deterministic points inside the metric's domain (complex for complex kinds)."""
    rng = np.random.default_rng(plan.seed)
    dim = m.dim
    lo, hi = plan.radial_range
    pts = []
    guard = 0
    while len(pts) < plan.n_points and guard < 50 * plan.n_points:
        guard += 1
        w = rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        r = lo + (hi - lo) * rng.random()
        scale = m.domain.radius if m.domain.kind == "ball" else 1.0
        x = r * scale * w
        z = real_to_complex_components(x) if m.is_complex else x
        if m.domain.contains(z):
            pts.append(z)
    if len(pts) < plan.n_points:
        raise DomainError("could not draw the requested number of in-domain points")
    return pts


def sample_vectors(m: MetricDef, plan: SamplePlan):
    """Deterministic nonzero vectors (complex for complex kinds)."""
    rng = np.random.default_rng(plan.seed + 1)
    dim = m.dim
    vecs = []
    for _ in range(plan.n_dirs):
        w = rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        vecs.append(real_to_complex_components(w) if m.is_complex else w)
    return vecs
