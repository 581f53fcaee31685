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
    u = np.asarray(u, dtype=float)
    if u.size % 2:
        raise StructuralError("complexification needs an even real dimension")
    n = u.size // 2
    return u[:n] + 1j * u[n:]


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
            return self.radius - float(np.linalg.norm(z))
        if self.kind == "polydisk":
            if not np.iscomplexobj(z):
                z = real_to_complex_components(z)
            # np.minimum, unlike min, keeps a NaN, which no domain contains
            lo = math.inf
            start = 0
            for size, radius in self.blocks:
                lo = np.minimum(lo, radius - float(np.linalg.norm(z[start:start + size])))
                start += size
            return float(lo)
        raise StructuralError(f"unknown domain kind {self.kind!r}")

    def row_margins(self, x) -> np.ndarray:
        """``margin`` of each row of x, rows of real components, at once; each
        within rounding of its row's ``margin``."""
        x = np.asarray(x, dtype=float)
        if self.kind == "all":
            return np.full(len(x), math.inf)
        if self.kind == "ball":
            return self.radius - np.linalg.norm(x, axis=1)
        if self.kind == "polydisk":
            n = x.shape[1] // 2
            z = x[:, :n] + 1j * x[:, n:]
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
        nx = float(np.linalg.norm(x))
        if float(np.linalg.norm(u)) < EPS_SLIT * (1.0 + nx):
            raise SlitBundleError(
                "vector too close to the zero section; renormalize by homogeneity")

    # -- values -------------------------------------------------------------

    def value(self, point, vector):
        """G at a point and a vector, a float, or at the B rows of shape (B, n)
        of either, broadcast against the other, an array (B,): complex
        coordinates for complex kinds, real components for the real kind.

        G is the constant coefficient of one order-0 replay of ``program``:
        ``real_rows`` for several rows, and for a single one its point's
        ``real_jet``, which is bit for bit its row and costs about half of a
        one-row replay. Each point is guarded as there. A zero vector gives
        0, and a vector the slit guard could refuse is read at its unit
        vector and scaled back by homogeneity.
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
        G = self.real_jet(x[0], u[0], 0).coeffs if len(x) == 1 else self.real_rows(x, u, 0)[:, 0]
        G[small] *= nu[small] ** 2
        return float(G[0]) if z.ndim == v.ndim == 1 else G

    # -- jet evaluation ------------------------------------------------------

    def real_jet(self, x, u, order) -> Jet:
        """Jet of G over the 2*dim real variables (x block, then u block).

        The formula is recorded once, on the first use, as a straight-line
        jet program (:class:`finsler.jets.JetProgram`); every call replays it
        at the requested order.
        """
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.size != self.dim or u.size != self.dim:
            raise StructuralError(f"expected {self.dim} real components")
        self.domain.require(x)
        self._check_slit(x, u)
        return self.program.replay(np.concatenate([x, u]), order)

    def real_rows(self, x, u, order) -> np.ndarray:
        """Coefficient rows (B, n) of the real jets at the B points of x, u of
        shape (B, dim), row b bit for bit ``real_jet(x[b], u[b], order).coeffs``;
        each point is guarded as ``real_jet`` guards it."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.ndim != 2 or x.shape != u.shape or x.shape[1] != self.dim:
            raise StructuralError(f"expected rows of {self.dim} real components")
        # the guards of real_jet decide only for rows within rounding of
        # failing, or not finite
        nx = np.linalg.norm(x, axis=1)
        doubtful = ~((self.domain.row_margins(x) > 1e-12 * (1.0 + nx))
                     & (np.linalg.norm(u, axis=1) > (1.0 + 1e-9) * EPS_SLIT * (1.0 + nx)))
        for b in np.flatnonzero(doubtful):
            self.domain.require(x[b])
            self._check_slit(x[b], u[b])
        return self.program.replay_rows(np.concatenate([x, u], axis=1), order)

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

    def complex_rows(self, z, v, order) -> np.ndarray:
        """Coefficient rows of the Wirtinger jets at the B rows of z, v of shape
        (B, n), row b bit for bit ``complex_jet(z[b], v[b], order).coeffs``,
        from one ``real_rows`` replay; each point is guarded as there."""
        if not self.is_complex:
            raise StructuralError("complex jets need a complex metric")
        x, u = complex_to_real_components(z), complex_to_real_components(v)
        sp = JetSpace.get(2 * self.dim, order, False)
        return wirtinger_coeffs(self.real_rows(x, u, order), sp, self._wirtinger_pairs)[1]

    @property
    def _wirtinger_pairs(self):
        """(real, imaginary) variable pairs of z, then of v, over (x, u)."""
        n = self.n
        return [(a, n + a) for a in range(n)] + [(2 * n + a, 3 * n + a) for a in range(n)]

    # -- frequently used tensors ---------------------------------------------

    def levi_matrix(self, z, v) -> np.ndarray:
        """(G_{a bbar}) at each row of z, v of shape (B, n), from one order-2
        ``complex_rows`` replay."""
        n = self.n
        sp = JetSpace.get(4 * n, 2, True, 2 * n)
        return sp.gather(self.complex_rows(z, v, 2), 2, slice(n, 2 * n), slice(3 * n, 4 * n))

    def fundamental_real(self, x, u) -> np.ndarray:
        """Real fundamental tensor g_ij = (1/2) d^2 G / du_i du_j at each row of
        x, u of shape (B, dim), from one order-2 ``real_rows`` replay."""
        U = slice(self.dim, 2 * self.dim)
        return 0.5 * JetSpace.get(2 * self.dim, 2, False).gather(self.real_rows(x, u, 2), 2, U, U)


def well_conditioned_inverse(a, what) -> np.ndarray:
    """``np.linalg.inv`` of a symmetric or Hermitian matrix ``what``, or of each
    of a stack of them, which must be regular with |a|_1 |a^-1|_1 (>= its
    2-norm condition) <= 1e10, or raise ``DegenerateMetricError`` with the
    condition number of the first row in row order that is not (NaN included)."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"{what} singular") from exc
    cond = np.ravel(np.linalg.norm(a, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1)))
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
    """k deterministic unit vectors in R^dim (golden-angle lattice for low dim)."""
    if dim == 1:
        return np.array([[1.0] if i % 2 == 0 else [-1.0] for i in range(k)])
    if dim == 2:
        golden = (1 + math.sqrt(5)) / 2
        ang = 2 * math.pi * np.arange(k) / golden
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if dim == 3:
        # Fibonacci sphere
        i = np.arange(k) + 0.5
        phi = math.pi * (3 - math.sqrt(5)) * i
        ct = 1 - 2 * i / k
        st = np.sqrt(1 - ct ** 2)
        return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=1)
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
        if not math.isfinite(scale):
            scale = 1.0
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
