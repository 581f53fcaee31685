"""Independent reference implementations used as test oracles.

Everything here is deliberately written against plain numeric evaluation or
textbook formulas, without reusing the engine's derivative pipelines, so that
agreement between the two is evidence rather than tautology. The second
routes to a quantity the engine computes once (K_G from disk densities, the
distance gradient through the Legendre transform) use the jet algebra, but
not the production formula of the quantity they check.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from finsler.errors import StructuralError
from finsler.geometry import complex_to_real_components, levi_matrix
from finsler.jets import (Jet, JetSpace, _compose, _exp_taylor, _power_taylor, _product,
                          _reciprocal_taylor)


# -- the grid tensors at one point -------------------------------------------------


def at_point(tensor, *args):
    """``tensor`` at one point: one of the functions that take rows (B, n)
    only (``chern_finsler``, ``holomorphic_sectional_curvature``,
    ``MetricDef.fundamental_real``, ``cartan.spray_coefficients``), called
    with its last two arguments as one row each, and row 0 of what it returns."""
    *head, z, v = args
    out = tensor(*head, np.asarray(z)[None], np.asarray(v)[None])
    if dataclasses.is_dataclass(out):
        return dataclasses.replace(out, **{f.name: getattr(out, f.name)[0]
                                           for f in dataclasses.fields(out)})
    return out[0]


def levi_at(m, z, v):
    """The Levi matrix of a complex metric at one point, as ``check_metric``
    reads it: ``geometry.levi_matrix`` of ``MetricDef.fundamental_real`` at
    the realified point."""
    x, u = complex_to_real_components(z), complex_to_real_components(v)
    return levi_matrix(at_point(m.fundamental_real, x, u))


# -- finite differences with Richardson extrapolation ---------------------------


def richardson_partial(f, x, multi, h0=0.3, levels=6):
    """Mixed partial derivative of f at x for a multi-index sequence.

    ``multi`` is a sequence of variable indices (repeats allowed). Uses nested
    central differences and a full Richardson triangle over ``levels`` step
    halvings; returns the diagonal entry whose last correction is smallest,
    which balances truncation against roundoff per function.
    """
    x = np.asarray(x, dtype=float)

    def diff(g, var, h):
        def d(y):
            yp = y.copy(); yp[var] += h
            ym = y.copy(); ym[var] -= h
            return (g(yp) - g(ym)) / (2 * h)
        return d

    def estimate(h):
        g = lambda y: f(y)
        for var in multi:
            g = diff(g, var, h)
        return g(x)

    col = [estimate(h0 / 2 ** k) for k in range(levels)]
    diag = [col[0]]
    corrections = [math.inf]
    for c in range(1, levels):
        nxt = []
        fac = 4.0 ** c
        for row in range(len(col) - 1):
            nxt.append((fac * col[row + 1] - col[row]) / (fac - 1.0))
        corrections.append(abs(nxt[-1] - col[-1]))
        col = nxt
        diag.append(col[-1])
    best = min(range(1, levels), key=lambda i: corrections[i])
    return diag[best]


# -- reference polynomial jet multiplication -------------------------------------


def dict_poly_mult(pa, pb, order):
    """Convolution of exponent->coefficient dicts truncated to total degree."""
    out = {}
    for ma, ca in pa.items():
        for mb, cb in pb.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            if sum(m) > order:
                continue
            out[m] = out.get(m, 0.0) + ca * cb
    return out


# -- the eager jet ring ------------------------------------------------------------
#
# The reference arithmetic on Jet objects: each operation computes its result's
# coefficients at once, through the product and composition kernels that the
# recorded programs replay, so an object evaluation rounds as the replay does.


_EAGER_SPACES: dict = {}


class EagerSpace(JetSpace):
    """A ``JetSpace`` whose jets are ``EagerJet`` objects: ``variables`` seeds
    them, ``constant`` makes one."""

    __slots__ = ()

    @staticmethod
    def get(nvars, order, is_complex=False) -> "EagerSpace":
        key = (nvars, order, is_complex)
        if key not in _EAGER_SPACES:
            _EAGER_SPACES[key] = EagerSpace(*key)
        return _EAGER_SPACES[key]

    def constant(self, value) -> "EagerJet":
        c = np.zeros(self.n, dtype=self.dtype)
        c[0] = value
        return EagerJet(self, c)

    def variables(self, values) -> list:
        """Seed jets for all ``nvars`` coordinates, jet i with base value ``values[i]``."""
        return [EagerJet(self, row) for row in self.seed_coeffs(np.array([values]))]


def eager(jet) -> "EagerJet":
    """``jet``, such as a replayed one, as an ``EagerJet`` over its variables."""
    sp = jet.space
    return EagerJet(EagerSpace.get(sp.nvars, sp.order, sp.is_complex), jet.coeffs)


class EagerJet(Jet):
    """A jet with the eager ring: +, -, *, /, integer and real powers, exp,
    log, sqrt and conj. Operands of mixed order or field are first aligned to
    the lower order and to the complex field."""

    __slots__ = ()

    def derivatives(self, k, *blocks) -> np.ndarray:
        """Symmetric tensor of all k-th partials, or its block ``blocks``, read
        through the space's gather table (``JetSpace.gather``)."""
        if not 1 <= k <= self.order:
            raise StructuralError("requested derivative exceeds jet order")
        return self.space.gather(self.coeffs, k, *blocks)

    def _align(self, other):
        """Coefficients of two jets over the same variables at their common (lower) order."""
        a, b = self, other
        if a.space.nvars != b.space.nvars:
            raise StructuralError("jets live over different variable sets")
        sp = EagerSpace.get(a.space.nvars, min(a.order, b.order),
                            a.space.is_complex or b.space.is_complex)
        return (a.coeffs[:sp.n].astype(sp.dtype, copy=False),
                b.coeffs[:sp.n].astype(sp.dtype, copy=False), sp)

    def _to_complex(self):
        sp = EagerSpace.get(self.space.nvars, self.order, True)
        return EagerJet(sp, self.coeffs.astype(np.complex128))

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.space is self.space:
                return EagerJet(self.space, self.coeffs + other.coeffs)
            a, b, sp = self._align(other)
            return EagerJet(sp, a + b)
        if isinstance(other, numbers.Number):
            if isinstance(other, complex) and not self.space.is_complex:
                return self._to_complex() + other
            c = self.coeffs.copy()
            c[0] += other
            return EagerJet(self.space, c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return EagerJet(self.space, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, (Jet, numbers.Number)):
            return self + (-other if isinstance(other, Jet) else -other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet) and other.space is not self.space:
            a, b, sp = self._align(other)
            return EagerJet(sp, _product(sp, a, b))
        if isinstance(other, complex) and not self.space.is_complex:
            return self._to_complex() * other
        return Jet.__mul__(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        if isinstance(other, numbers.Number):
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def _compose(self, taylor):
        """g(self), where ``taylor[k]`` = g^(k)(value)/k!."""
        return EagerJet(self.space, _compose(self.space, self.coeffs, taylor))

    def reciprocal(self):
        return self._compose(_reciprocal_taylor(self.value, self.order))

    def exp(self):
        if self.space.is_complex:
            raise StructuralError("exp is only defined for real-coefficient jets")
        return self._compose(_exp_taylor(self.value, self.order))

    def log(self):
        f0 = self.value
        if isinstance(f0, complex) or f0 <= 0.0:
            raise ValueError(f"log of a jet needs a positive real constant term, got {f0}")
        return self._compose([math.log(f0)] + [(-1.0) ** (k + 1) / (k * f0 ** k)
                                               for k in range(1, self.order + 1)])

    def sqrt(self):
        return self ** 0.5

    def __pow__(self, p):
        if not isinstance(p, numbers.Integral):
            return self._compose(_power_taylor(self.value, self.order, p))
        p = int(p)
        if p < 0:
            return self.reciprocal() ** (-p)
        if p == 0:
            return self.space.constant(1.0)
        out = None
        base = self
        while True:
            if p & 1:
                out = base if out is None else out * base
            p >>= 1
            if not p:
                return out
            base = base * base

    def conj(self) -> "EagerJet":
        """The jet with its holomorphic and antiholomorphic variables swapped
        and its coefficients conjugated."""
        out = np.empty_like(self.coeffs)
        out[self.space.conj_perm()] = np.conj(self.coeffs)
        return EagerJet(self.space, out)


def holomorphic_jacobian(fn, z):
    """Complex Jacobian dF/dz of a holomorphic map on CJets at one point z: F
    evaluated on first-order eager jets over (Re z, Im z), and by the
    Cauchy-Riemann equations dF/dz = dF/dRe z, read from the gradients. The
    reference for the Jacobians of ``HoloMap.evaluate``."""
    n = np.size(z)
    out = fn(eager_cjets(z, 1))
    return np.array([w.re.derivatives(1)[:n] + 1j * w.im.derivatives(1)[:n] for w in out])


def eager_cjets(z, order=0) -> list:
    """The complex numbers z as CJets of eager jets of the given order over
    (Re z, Im z): the arguments on which a formula, which runs on CJets and
    jets only, evaluates at a numeric point."""
    from finsler.geometry import complex_coordinates, complex_to_real_components
    z = np.asarray(z, dtype=complex)
    return complex_coordinates(EagerSpace.get(2 * z.size, order).variables(
        complex_to_real_components(z)))


def number(w) -> complex:
    """The value of a CJet or a jet, or a constant, as a complex number."""
    return complex(w.value) if hasattr(w, "value") else complex(w)


# -- jet and path readouts the engine itself never takes -------------------------


def sibling(space, order):
    """The eager jet space over the variables of ``space`` at another ``order``."""
    return EagerSpace.get(space.nvars, order, space.is_complex)


def truncate(jet, order):
    """``jet`` read at an ``order`` no higher than its own, as an eager jet."""
    if order == jet.order:
        return eager(jet)
    if order > jet.order:
        raise StructuralError("cannot extend a jet to higher order")
    sp = sibling(jet.space, order)
    return EagerJet(sp, jet.coeffs[:sp.n].copy())


def extract(jet, var):
    """Partial derivative of ``jet`` in variable ``var``, one order lower, as
    an eager jet."""
    if jet.order == 0:
        raise StructuralError("cannot differentiate an order-0 jet")
    src, fac = jet.space.extract_table(var)
    return EagerJet(sibling(jet.space, jet.order - 1), jet.coeffs[src] * fac)


def endpoint(path):
    """``(x, u)`` at the end of a geodesic path, a one-member fan."""
    return path.state_at(0, path.arc_lengths[0])


# -- jet index tables built by Python loops over the monomial basis ----------------
#
# The engine builds these tables with array operations; the loops below are
# the former builders, kept to check that the arrays are identical (values,
# order and dtype), which keeps every bincount and np.add.at summation order.


def loop_monomials(nvars, order):
    """All exponent tuples with total degree <= order, sorted by (degree, lex)."""
    levels = [[(0,) * nvars]]
    for _ in range(order):
        levels.append(sorted({mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                              for mono in levels[-1] for i in range(nvars)}))
    return [mono for level in levels for mono in level]


def _loop_index(nvars, order):
    monomials = loop_monomials(nvars, order)
    return monomials, {m: i for i, m in enumerate(monomials)}


def loop_mult_table(nvars, order):
    """(ia, ib, iout): every product of basis monomials p * q of degree <= order."""
    monomials, index = _loop_index(nvars, order)
    ia, ib, iout = [], [], []
    for p, mp in enumerate(monomials):
        for q, mq in enumerate(monomials):
            if sum(mp) + sum(mq) > order:
                continue
            ia.append(p)
            ib.append(q)
            iout.append(index[tuple(a + b for a, b in zip(mp, mq))])
    return (np.array(ia, dtype=np.int64), np.array(ib, dtype=np.int64),
            np.array(iout, dtype=np.int64))


def loop_extract_table(nvars, order, var):
    """(src, fac): the partial in ``var`` of a jet of the given order, read at order - 1."""
    lower, _ = _loop_index(nvars, order - 1)
    _, index = _loop_index(nvars, order)
    src = np.empty(len(lower), dtype=np.int64)
    fac = np.empty(len(lower), dtype=np.float64)
    for j, mono in enumerate(lower):
        src[j] = index[mono[:var] + (mono[var] + 1,) + mono[var + 1:]]
        fac[j] = mono[var] + 1
    return src, fac


def loop_conj_perm(nvars, order):
    """Basis index of each monomial with its holomorphic and antiholomorphic halves swapped."""
    monomials, index = _loop_index(nvars, order)
    p = nvars // 2
    perm = np.empty(len(monomials), dtype=np.int64)
    for i, mono in enumerate(monomials):
        perm[i] = index[mono[p:] + mono[:p]]
    return perm


def loop_wirtinger_rows(nvars, order, pairs):
    """Sparse rows (dst, src, val) of the real->complex basis change, expanded
    one substitution hx = (hz + hzbar)/2, hy = -i(hz - hzbar)/2 at a time."""
    P = len(pairs)
    subs = {}
    for j, (re_i, im_i) in enumerate(pairs):
        subs[re_i] = ((j, 0.5), (P + j, 0.5))
        subs[im_i] = ((j, -0.5j), (P + j, 0.5j))
    _, cx_index = _loop_index(2 * P, order)
    dst, src, val = [], [], []
    for p, mono in enumerate(loop_monomials(nvars, order)):
        expansion = {(0,) * (2 * P): 1.0 + 0.0j}
        for var, e in enumerate(mono):
            for _ in range(e):
                nxt = {}
                for cm, cv in expansion.items():
                    for cvar, w in subs[var]:
                        m2 = cm[:cvar] + (cm[cvar] + 1,) + cm[cvar + 1:]
                        nxt[m2] = nxt.get(m2, 0.0 + 0.0j) + cv * w
                expansion = nxt
        for cm, cv in expansion.items():
            if cv != 0.0:
                dst.append(cx_index[cm])
                src.append(p)
                val.append(cv)
    return (np.array(dst, dtype=np.int64), np.array(src, dtype=np.int64),
            np.array(val, dtype=np.complex128))


# -- random composite scalar functions -------------------------------------------


class ExprNode:
    """Expression tree evaluable on floats and on jets alike."""

    def __init__(self, op, children=(), payload=None):
        self.op = op
        self.children = children
        self.payload = payload

    def __call__(self, args):
        if self.op == "var":
            return args[self.payload]
        if self.op == "const":
            return self.payload
        vals = [c(args) for c in self.children]
        if self.op == "add":
            return vals[0] + vals[1]
        if self.op == "mul":
            return vals[0] * vals[1]
        if self.op == "scale":
            return vals[0] * self.payload
        if self.op == "shifted_div":
            return vals[0] / (vals[1] * vals[1] + 2.0)
        if self.op == "exp":
            w = vals[0] * 0.25
            return w.exp() if hasattr(w, "exp") else math.exp(w)
        if self.op == "log":
            w = vals[0] * vals[0] + 1.5
            return w.log() if hasattr(w, "log") else math.log(w)
        if self.op == "sqrt":
            w = vals[0] * vals[0] + 1.2
            return w.sqrt() if hasattr(w, "sqrt") else math.sqrt(w)
        if self.op == "pow":
            w = vals[0] * vals[0] + 1.1
            return w ** self.payload
        raise ValueError(self.op)


def random_expression(rng, nvars, depth=3):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.8:
            return ExprNode("var", payload=int(rng.integers(nvars)))
        return ExprNode("const", payload=float(rng.uniform(0.5, 1.5)))
    op = rng.choice(["add", "mul", "scale", "shiftedDiv", "exp", "log", "sqrt", "pow"])
    if op == "add" or op == "mul":
        return ExprNode(op, (random_expression(rng, nvars, depth - 1),
                             random_expression(rng, nvars, depth - 1)))
    if op == "scale":
        return ExprNode("scale", (random_expression(rng, nvars, depth - 1),),
                        float(rng.uniform(-1.5, 1.5)))
    if op == "shiftedDiv":
        return ExprNode("shifted_div", (random_expression(rng, nvars, depth - 1),
                                        random_expression(rng, nvars, depth - 1)))
    if op == "pow":
        return ExprNode("pow", (random_expression(rng, nvars, depth - 1),),
                        float(rng.uniform(0.5, 2.5)))
    return ExprNode(op, (random_expression(rng, nvars, depth - 1),))


# -- Riemannian curvature from a metric matrix field ------------------------------


def riemannian_sectional_curvature(a_fn, x, u, X):
    """Sectional curvature of span{u, X} for the metric a_ij(x) du^i du^j.

    ``a_fn`` maps a plain float vector to the (symmetric) matrix; derivatives
    are taken by finite differences, independent of any jet machinery.
    """
    x = np.asarray(x, dtype=float)
    m = x.size

    def entry(y):
        return np.asarray(a_fn(y), dtype=float)

    def sectional_at_step(h):
        a = entry(x)
        ainv = np.linalg.inv(a)

        def da(k):
            xp = x.copy(); xp[k] += h
            xm = x.copy(); xm[k] -= h
            return (entry(xp) - entry(xm)) / (2 * h)

        def dda(k, l):
            xp = x.copy(); xp[k] += h; xp[l] += h
            xpm = x.copy(); xpm[k] += h; xpm[l] -= h
            xmp = x.copy(); xmp[k] -= h; xmp[l] += h
            xm = x.copy(); xm[k] -= h; xm[l] -= h
            return (entry(xp) - entry(xpm) - entry(xmp) + entry(xm)) / (4 * h * h)

        dA = np.array([da(k) for k in range(m)])          # dA[k][i][j]
        ddA = np.array([[dda(k, l) for l in range(m)] for k in range(m)])

        G = np.empty((m, m, m))
        for c in range(m):
            for i in range(m):
                for j in range(m):
                    s = 0.0
                    for d in range(m):
                        s += ainv[c, d] * (dA[i][j, d] + dA[j][d, i] - dA[d][i, j])
                    G[c, i, j] = 0.5 * s

        dG = np.empty((m, m, m, m))
        dAinv = np.array([-ainv @ dA[k] @ ainv for k in range(m)])
        for k in range(m):
            for c in range(m):
                for i in range(m):
                    for j in range(m):
                        s = 0.0
                        for d in range(m):
                            s += dAinv[k][c, d] * (dA[i][j, d] + dA[j][d, i] - dA[d][i, j])
                            s += ainv[c, d] * (ddA[k, i][j, d] + ddA[k, j][d, i] - ddA[k, d][i, j])
                        dG[k, c, i, j] = 0.5 * s
        # R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{im} G^m_{jk} - G^l_{jm} G^m_{ik}
        R = np.empty((m, m, m, m))
        for l in range(m):
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        s = dG[i, l, j, k] - dG[j, l, i, k]
                        for mm in range(m):
                            s += G[l, i, mm] * G[mm, j, k] - G[l, j, mm] * G[mm, i, k]
                        R[l, i, j, k] = s
        # <R(X, u)u, X> with R(X,u)u = R^l_{ijk} X^i u^j u^k
        Ru = np.einsum("lijk,i,j,k->l", R, X, u, u)
        num = float(np.einsum("l,lm,m->", Ru, a, X))
        gu = float(u @ a @ u)
        gX = float(X @ a @ X)
        guX = float(u @ a @ X)
        return num / (gu * gX - guX ** 2)

    k1 = sectional_at_step(1e-2)
    k2 = sectional_at_step(5e-3)
    return (4.0 * k2 - k1) / 3.0


# -- classical holomorphic sectional curvature of a Hermitian metric ----------------


def hermitian_matrix(catalog, z, scale=1.0):
    """The matrix h(z) of the ``hermitian`` family's catalog entry in closed
    form, numerically, for G = scale sum_ab h_ab v_a conj(v_b): the
    Bergman metric of the unit ball, ((1 - |z|^2) I + conj(z) z^T) /
    (1 - |z|^2)^2, whose n = 1 case is the Poincare disk's
    1 / (1 - |z|^2)^2, and ``nonkahler``'s diag(1, 1 + |z_0|^2, ...)."""
    z = np.asarray(z, dtype=complex)
    t = float(np.vdot(z, z).real)
    if catalog in ("poincare_disk", "poincare_ball"):
        h = ((1.0 - t) * np.eye(z.size) + np.outer(z.conj(), z)) / (1.0 - t) ** 2
    elif catalog == "nonkahler":
        h = np.diag([1.0] + [1.0 + abs(z[0]) ** 2] * (z.size - 1)).astype(complex)
    else:
        raise ValueError(f"no closed form for catalog entry {catalog!r}")
    return scale * h


def hermitian_holomorphic_curvature(h_fn, z, v):
    """2 R(v, vbar, v, vbar) / G(v)^2 for the Hermitian metric h_ab(z).

    R_{a bbar m nbar} = -d_m d_nbar h_{a bbar}
                        + h^{tbar s} (d_m h_{a tbar}) (d_nbar h_{s bbar}),
    computed with complex central differences of the matrix function.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = z.size
    hstep = 1e-4

    def H(y):
        return np.asarray(h_fn(y), dtype=complex)

    def d_m(fn, m_idx):
        def out(y):
            yp = y.copy(); yp[m_idx] += hstep
            ym = y.copy(); ym[m_idx] -= hstep
            re = (fn(yp) - fn(ym)) / (2 * hstep)
            yp = y.copy(); yp[m_idx] += 1j * hstep
            ym = y.copy(); ym[m_idx] -= 1j * hstep
            im = (fn(yp) - fn(ym)) / (2 * hstep)
            return 0.5 * (re - 1j * im)
        return out

    def d_mbar(fn, m_idx):
        def out(y):
            yp = y.copy(); yp[m_idx] += hstep
            ym = y.copy(); ym[m_idx] -= hstep
            re = (fn(yp) - fn(ym)) / (2 * hstep)
            yp = y.copy(); yp[m_idx] += 1j * hstep
            ym = y.copy(); ym[m_idx] -= 1j * hstep
            im = (fn(yp) - fn(ym)) / (2 * hstep)
            return 0.5 * (re + 1j * im)
        return out

    h0 = H(z)
    hinv = np.linalg.inv(h0)
    G = float(np.einsum("ab,a,b->", h0, v, v.conj()).real)
    num = 0.0 + 0.0j
    for m_idx in range(n):
        for n_idx in range(n):
            dm = d_m(H, m_idx)
            dmn = d_mbar(dm, n_idx)(z)
            dmH = dm(z)
            dnbarH = d_mbar(H, n_idx)(z)
            # R_{a bbar m nbar} contracted with v^a vbar^b v^m vbar^n
            term1 = -np.einsum("ab,a,b->", dmn, v, v.conj())
            term2 = np.einsum("ts,at,sb,a,b->", hinv, dmH, dnbarH, v, v.conj())
            num += (term1 + term2) * v[m_idx] * np.conj(v[n_idx])
    return float((2.0 * num / G ** 2).real)


# -- metric jets evaluated on Jet objects ----------------------------------------


def real_jet_by_objects(m, x, u, order):
    """Jet of G over (x, u) from the formula run on fresh ``Jet``/``CJet``
    objects, one object per intermediate: the reference for the recorded
    program that ``MetricDef.real_jet`` replays."""
    from finsler.jets import CJet

    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    d = m.dim
    seeds = EagerSpace.get(2 * d, order).variables(np.concatenate([x, u]))
    xj, uj = seeds[:d], seeds[d:]
    if not m.is_complex:
        return m.formula(xj, uj)
    n = m.n
    out = m.formula([CJet(xj[a], xj[n + a]) for a in range(n)],
                    [CJet(uj[a], uj[n + a]) for a in range(n)])
    return out.re if isinstance(out, CJet) else out


def complex_jet_by_objects(m, z, v, order):
    """Wirtinger jet of G from :func:`real_jet_by_objects`."""
    from finsler.geometry import complex_to_real_components
    from finsler.jets import wirtinger

    n = m.n
    jet = real_jet_by_objects(m, complex_to_real_components(z),
                              complex_to_real_components(v), order)
    pairs = [(a, n + a) for a in range(n)] + [(2 * n + a, 3 * n + a) for a in range(n)]
    return wirtinger(jet, pairs)


def record_unmerged(fn, nvars):
    """``JetProgram.record`` on a tape that appends every entry it is given,
    repeats included: the reference for the value-numbered tape."""
    from finsler.jets import JetProgram, _RecordedJet, _Tape

    class AppendingTape(_Tape):
        def emit(self, code, a, b=None):
            self.ops.append((code, a, b))
            return _RecordedJet(self, self.nvars + len(self.ops) - 1)

    tape = AppendingTape(nvars)
    out = fn([_RecordedJet(tape, i) for i in range(nvars)])
    return JetProgram._pruned(nvars, tape.ops, out.slot)


def replay_rows_unpruned(program, values, basis):
    """``JetProgram.replay_rows`` with every product over the whole product
    table (``JetSpace.mult_table``, row b offset by b * n) and every seed and
    table built on the call: the reference for the support-pruned tables of
    the replay plans, which must give its rows byte for byte."""
    from finsler.jets import (_ADD, _ADDC, _CONST, _MUL, _NEG, _RSUBC, _SCALE, _SUB,
                              _taylor)

    sp = JetSpace.of(program.nvars, basis)
    rows = len(values)
    offset = sp.n * np.arange(rows)[:, None]
    table = tuple((t + offset).ravel() for t in sp.mult_table())
    c0 = 0 if rows == 1 else slice(None, None, sp.n)
    s = list(sp.seed_coeffs(np.asarray(values, dtype=float)))
    for code, a, b in program.ops:
        if code == _MUL:
            r = _product(sp, s[a], s[b], table)
        elif code == _ADD:
            r = s[a] + s[b]
        elif code == _SCALE:
            r = s[a] * b
        elif code == _SUB:
            r = s[a] - s[b]
        elif code == _ADDC:
            r = s[a].copy()
            r[c0] += b
        elif code == _RSUBC:
            r = -s[a]
            r[c0] += b
        elif code == _NEG:
            r = -s[a]
        elif code == _CONST:
            r = np.zeros(s[0].shape)
            r[c0] = b
        else:
            r = _compose(sp, s[a], _taylor(code, b, s[a][c0], sp.order), table, c0)
        s.append(r)
    return s[program.out].reshape(rows, sp.n)


# -- geodesic spray read out one partial at a time ----------------------------------


def spray_by_partials(m, x, u):
    """Geodesic coefficients G^i(x, u) with every jet derivative read by
    :meth:`Jet.partial`, one entry at a time: the reference for the
    gather-table readout of ``cartan.spray_coefficients``."""
    jet = m.real_jet(x, u, 2)
    d = m.dim
    g = np.empty((d, d))
    rhs = np.empty(d)
    for i in range(d):
        for j in range(i, d):
            g[i, j] = g[j, i] = 0.5 * jet.partial([d + i, d + j])
    for l in range(d):
        s = 0.0
        for k in range(d):
            s += jet.partial([d + l, k]) * u[k]
        rhs[l] = s - jet.partial([l])
    return 0.25 * np.linalg.solve(g, rhs)


# -- connections read out one partial at a time ------------------------------------


def invert_jet_matrix(mat):
    """Gauss-Jordan inverse of a square matrix with Jet entries.

    Pivots on the largest constant term; raises ``DegenerateMetricError`` if a
    pivot column is numerically singular.
    """
    from finsler.errors import DegenerateMetricError

    m = len(mat)
    aug = [[mat[i][j] for j in range(m)] for i in range(m)]
    sp = aug[0][0].space
    iden = [[sp.constant(1.0 if i == j else 0.0) for j in range(m)] for i in range(m)]
    scale = max(abs(aug[i][j].value) for i in range(m) for j in range(m)) or 1.0
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(aug[r][col].value))
        if abs(aug[piv][col].value) < 1e-13 * scale:
            raise DegenerateMetricError("jet matrix numerically singular")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            iden[col], iden[piv] = iden[piv], iden[col]
        inv_piv = aug[col][col].reciprocal()
        aug[col] = [a * inv_piv for a in aug[col]]
        iden[col] = [a * inv_piv for a in iden[col]]
        for r in range(m):
            if r == col:
                continue
            f = aug[r][col]
            if abs(f.value) == 0.0 and not np.any(f.coeffs):
                continue
            aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
            iden[r] = [a - f * b for a, b in zip(iden[r], iden[col])]
    return iden


def spray_jets_by_objects(m, x, u, order):
    """``(g_rows, spray)``: the fundamental tensor and the spray coefficients
    G^i as Jet objects of the given order (<= 2), built with ``extract()`` and
    inverted by Gauss-Jordan over jets: the reference for the spray and its
    implicit derivatives in ``cartan.cartan``."""
    jet = m.real_jet(x, u, order + 2)
    d = m.dim
    g_rows = [[extract(extract(jet, d + i), d + j) * 0.5 for j in range(d)]
              for i in range(d)]
    g_inv = invert_jet_matrix(g_rows)
    useed = sibling(jet.space, order).variables(np.concatenate([x, u]))[d:]
    b = []
    for l in range(d):
        dG_l = extract(jet, d + l)
        acc = None
        for k in range(d):
            t = extract(dG_l, k) * useed[k]
            acc = t if acc is None else acc + t
        b.append(acc - truncate(extract(jet, l), order))
    spray = []
    for i in range(d):
        acc = None
        for l in range(d):
            t = g_inv[i][l] * b[l]
            acc = t if acc is None else acc + t
        spray.append(acc * 0.25)
    return g_rows, spray


def spray_jacobian_by_partials(m, x, u):
    """``(S, dS)``: the spray G^i and its d x 2d derivative in (x, u), read
    by :meth:`Jet.partial` off the order-1 spray jets of
    ``spray_jets_by_objects``, as ``cartan_by_partials`` builds them: the
    reference for the implicit derivative of ``cartan.spray_jacobian``."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    spray_j = spray_jets_by_objects(m, x, u, 1)[1]
    S = np.array([s.value for s in spray_j])
    dS = np.array([[s.partial([a]) for a in range(2 * m.dim)] for s in spray_j])
    return S, dS


def cartan_by_partials(m, x, u):
    """``(gamma_h, gamma_v, riemann)`` of the Cartan connection with every jet
    derivative read by :meth:`Jet.partial` in nested loops: the reference for
    the gathered, einsum-contracted assembly of ``cartan.cartan``."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    d = m.dim
    g_rows, spray_j = spray_jets_by_objects(m, x, u, 2)
    g = np.array([[g_rows[i][j].value for j in range(d)] for i in range(d)])
    g_inv = np.linalg.inv(g)
    spray = np.array([s.value for s in spray_j])
    N = np.array([[spray_j[i].partial([d + j]) for j in range(d)]
                  for i in range(d)])

    def delta(gjet, k):
        s = gjet.partial([k])
        for mm in range(d):
            s -= N[mm][k] * gjet.partial([d + mm])
        return s

    gamma_h = np.empty((d, d, d))
    for j in range(d):
        for i in range(d):
            for k in range(d):
                s = 0.0
                for l in range(d):
                    s += g_inv[j, l] * (delta(g_rows[i][l], k)
                                        + delta(g_rows[l][k], i)
                                        - delta(g_rows[i][k], l))
                gamma_h[j, i, k] = 0.5 * s
    gamma_v = np.empty((d, d, d))
    for j in range(d):
        for i in range(d):
            for k in range(d):
                s = 0.0
                for l in range(d):
                    s += g_inv[j, l] * g_rows[i][k].partial([d + l])
                gamma_v[j, i, k] = 0.5 * s
    riemann = np.empty((d, d))
    for i in range(d):
        for k in range(d):
            s = 2.0 * spray_j[i].partial([k])
            for j in range(d):
                s -= u[j] * spray_j[i].partial([j, d + k])
                s += 2.0 * spray[j] * spray_j[i].partial([d + j, d + k])
                s -= spray_j[i].partial([d + j]) * spray_j[j].partial([d + k])
            riemann[i, k] = s
    return gamma_h, gamma_v, riemann


def horizontal_coefficients(m, x, u):
    """Gamma^j_{i;k} of the Cartan connection at (x, u), gathered from one
    order-4 jet and contracted by einsum, with
    delta_k g_il = d_k g_il - N^m_k d_{u^m} g_il: the fast gamma_h of the
    oracles that read it at every right-hand side or arc parameter, pinned
    to ``cartan_by_partials`` in ``test_cartan``."""
    from finsler.cartan import spray_jacobian
    u = np.asarray(u, dtype=float)
    d = m.dim
    jet = m.real_jet(x, u, m.fibre_space(4, 2))
    _, g_inv, _, dS = spray_jacobian(jet, u)
    U = slice(d, None)
    dg = 0.5 * jet.space.gather(jet.coeffs, 3, U, U)    # dg[i, l, a] = d_a g_il
    delta = dg[..., :d] - np.einsum("...mk,...ilm->...ilk", dS[..., U], dg[..., U])
    return 0.5 * np.einsum("...jl,...ilk->...jik", g_inv,
                           delta + np.moveaxis(delta, -1, -3) - np.swapaxes(delta, -1, -2))


def chern_by_partials(m, z, v):
    """``(gamma_h, gamma_v, torsion_h, R_zz)`` of the Chern-Finsler connection
    with every jet derivative read by :meth:`Jet.partial` in nested loops and
    gamma_v carried as order-1 jets: the reference for the gathered assembly
    of ``chern.chern_finsler``."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = m.n
    jet = m.complex_jet(z, v, 4)
    iz = lambda a: a
    iv = lambda a: n + a
    izb = lambda a: 2 * n + a
    ivb = lambda a: 3 * n + a

    levi_jets = [[extract(extract(jet, iv(a)), ivb(b)) for b in range(n)]
                 for a in range(n)]
    inv_jets = invert_jet_matrix(levi_jets)
    nl_jets = [[None] * n for _ in range(n)]
    for s in range(n):
        for mu in range(n):
            acc = None
            for g in range(n):
                t = inv_jets[g][s] * extract(extract(jet, ivb(g)), iz(mu))
                acc = t if acc is None else acc + t
            nl_jets[s][mu] = acc
    nonlinear = np.array([[nl_jets[s][mu].value for mu in range(n)]
                          for s in range(n)])

    def delta_of_levi(b, t_, mu):
        out = extract(levi_jets[b][t_], iz(mu))
        for s in range(n):
            out = out - truncate(nl_jets[s][mu], 1) * extract(levi_jets[b][t_], iv(s))
        return out

    gamma_h_jets = [[[None] * n for _ in range(n)] for _ in range(n)]
    gamma_v_jets = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for mu in range(n):
                acc = None
                for t_ in range(n):
                    t = truncate(inv_jets[t_][a], 1) * delta_of_levi(b, t_, mu)
                    acc = t if acc is None else acc + t
                gamma_h_jets[a][b][mu] = acc
            for g in range(n):
                acc = None
                for t_ in range(n):
                    t = truncate(inv_jets[t_][a], 1) * extract(levi_jets[b][t_], iv(g))
                    acc = t if acc is None else acc + t
                gamma_v_jets[a][b][g] = acc
    gamma_h = np.array([[[gamma_h_jets[a][b][mu].value for mu in range(n)]
                         for b in range(n)] for a in range(n)])
    gamma_v = np.array([[[gamma_v_jets[a][b][g].value for g in range(n)]
                         for b in range(n)] for a in range(n)])
    torsion_h = np.array([[[gamma_h[a, nu, mu] - gamma_h[a, mu, nu]
                            for mu in range(n)] for nu in range(n)]
                          for a in range(n)])
    nl_conj = nonlinear.conj()

    def delta_bar(fjet, nu):
        s_val = fjet.partial([izb(nu)])
        for s in range(n):
            s_val -= nl_conj[s, nu] * fjet.partial([ivb(s)])
        return s_val

    R_zz = np.empty((n, n, n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            for mu in range(n):
                for nu in range(n):
                    val = -delta_bar(gamma_h_jets[a][b][mu], nu)
                    for s in range(n):
                        val -= gamma_v[a, b, s] * delta_bar(nl_jets[s][mu], nu)
                    R_zz[a, b, mu, nu] = val
    return gamma_h, gamma_v, torsion_h, R_zz


# -- distance Hessians by geodesic second differences ------------------------------


def _stencil_step(m, x, rho) -> float:
    """Stencil width at x, a distance rho from the pole: wide enough that the
    shooting tolerance does not dominate the second difference, narrow enough
    to stay in the domain and away from the pole."""
    margin = m.domain.margin(x)
    return min(0.04, 0.3 * (margin if math.isfinite(margin) else 1.0), 0.45 * rho)


def covariant_d2_rho(m, pd, x, w, base, conn_T, power=1) -> float:
    """D^2 (rho^power)(w, w) at x by geodesic differencing plus connection correction.

    ``base`` is ``pd.rho(x)`` and ``conn_T`` the Cartan data at (x, base.T).
    The geodesic through (x, w) is integrated forward and backward over the
    stencil width h, the backward leg by ``scipy_dop853``, since the package
    integrates forward only; rho^power at arc parameters -h, -h/2, h/2 and h comes
    from shots that ``pd`` warm-starts at its nearest solved target, ``base``
    or a closer one; the central second differences at
    h and h/2 are Richardson-extrapolated, and the gamma_h term, from
    ``cartan_by_partials`` at (x, base.T), relates the curve's own reference
    vector to the radial one. Independent of the
    Jacobi fields behind ``geodesic.distance_hessian``; its error is the
    shooting tolerance over h^2 plus the O(h^4) truncation.
    """
    from finsler.cartan import spray_coefficients
    from finsler.geodesic import SHOOT_ATOL, SHOOT_RTOL, _integrate_affine

    h = _stencil_step(m, x, base.value)
    fwd = _integrate_affine(m, x, w, h, rtol=SHOOT_RTOL, atol=SHOOT_ATOL)

    def flow(t, y):
        S = spray_coefficients(m, y[None, :m.dim], y[None, m.dim:])[0]
        return np.concatenate([y[m.dim:], -2.0 * S])

    bwd = scipy_dop853(flow, (0.0, -h), np.concatenate([x, w]), rtol=SHOOT_RTOL,
                       atol=SHOOT_ATOL, dense_output=True)

    def f_at(sol, t):
        q = sol.sol(t)[:m.dim]
        return pd.rho(q).value ** power

    fm, fm2, fp2, fp = f_at(bwd, -h), f_at(bwd, -h / 2), f_at(fwd, h / 2), f_at(fwd, h)
    f0 = base.value ** power
    d_h = (fp - 2 * f0 + fm) / h ** 2
    d_h2 = (fp2 - 2 * f0 + fm2) / (0.5 * h) ** 2
    d2 = (4.0 * d_h2 - d_h) / 3.0
    # d(rho^p) = p rho^(p-1) g_T(T, .)
    df = power * base.value ** (power - 1) * (conn_T.g @ base.T)
    return d2 + float(df @ (2.0 * at_point(spray_coefficients, m, x, w)
                            - np.einsum("ijk,j,k->i", cartan_by_partials(m, x, conn_T.u)[0],
                                        w, w)))


# -- the shooting Jacobian by finite differences -----------------------------------

# the relative step of ``fd_shooting_jacobian``: h = FD_SHOOTING_STEP (1 + |w|)
FD_SHOOTING_STEP = 1e-6


def fd_shooting_jacobian(pd, w):
    """dx(1)/dw of the geodesic leaving ``pd.pole`` with velocity w, by one
    forward difference per column, h = ``FD_SHOOTING_STEP`` (1 + |w|), of
    tight shots from the initial-step probe, which touch neither ``pd.work``
    nor its step slots. Independent of the variational equations behind
    ``PoleDistance``'s Jacobians; its error is h/2 times the second
    derivative of x(1) plus twice the shooting tolerance over h."""
    from finsler.geodesic import SHOOT_ATOL, SHOOT_RTOL, _integrate_affine

    w = np.asarray(w, dtype=float)
    d, h = w.size, FD_SHOOTING_STEP * (1.0 + float(np.linalg.norm(w)))

    def x1(v):
        return _integrate_affine(pd.m, pd.pole, v, 1.0, rtol=SHOOT_RTOL,
                                 atol=SHOOT_ATOL).y[:d, -1]

    x0 = x1(w)
    return np.stack([(x1(w + h * e) - x0) / h for e in np.eye(d)], axis=1)


# -- scipy's DOP853, the reference of the package's own stepper ----------------------


def scipy_dop853(fun, t_span, y0, *, rtol, atol, first_step=None, events=(),
                 dense_output=False):
    """The integration ``finsler.dop853.solve_ivp`` runs, by
    ``scipy.integrate.solve_ivp(method="DOP853")`` with the same arguments:
    the package caps ``first_step`` at the span, and its events are terminal
    and fire where they fall through 0. Its ``t_events`` hold only the
    earliest root of the terminating step, where the package's hold every
    root crossed there (``scipy_step_roots``)."""
    from scipy.integrate import solve_ivp

    def terminal(ev):
        def event(t, y):
            return ev(t, y)

        event.terminal, event.direction = True, -1
        return event

    if first_step is not None:
        first_step = min(first_step, abs(t_span[1] - t_span[0]))
    return solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                     first_step=first_step, events=[terminal(ev) for ev in events] or None,
                     dense_output=dense_output)


def scipy_step_roots(fun, t_span, y0, *, events, **kwargs):
    """The root of each event that falls through 0 in the terminating step of
    ``scipy_dop853`` with the same arguments, or None: ``scipy.optimize.brentq``
    at xtol = rtol = 4 eps, as scipy locates its events, on that step's
    dense output, the sign change read on it at both ends of the step."""
    from scipy.optimize import brentq

    step = scipy_dop853(fun, t_span, y0, events=events, dense_output=True,
                        **kwargs).sol.interpolants[-1]
    xtol = 4 * np.finfo(float).eps
    return [brentq(lambda t, ev=ev: ev(t, step(t)), step.t_old, step.t, xtol=xtol, rtol=xtol)
            if ev(step.t_old, step(step.t_old)) >= 0 >= ev(step.t, step(step.t)) else None
            for ev in events]


def scipy_proposals(fun, t_span, y0, *, rtol, atol, first_step=None):
    """The step scipy's DOP853 controller proposes after each accepted step
    (its ``h_abs``), stepping its solver class by hand."""
    from scipy.integrate import DOP853

    solver = DOP853(fun, t_span[0], y0, t_span[1], rtol=rtol, atol=atol, first_step=first_step)
    proposals = []
    while solver.status == "running":
        solver.step()
        proposals.append(solver.h_abs)
    return proposals


# -- covariant derivatives along a path by differencing ------------------------------


def fd_covariant_derivatives(path, *fields):
    """Covariant derivatives along a normal ``path``, a one-member fan, of the
    parts of ``fields`` across its tangent T, as callables of the arc parameter.

    Each is a five-point central difference of the projected field plus the
    ``gamma_h`` term (``horizontal_coefficients``) at (x, T). The tangent T
    and the fundamental tensor g_T that project a field are memoized per arc
    parameter, shared by all the fields.
    """
    memo = {}

    def frame(s):
        key = round(float(s), 12)
        if key not in memo:
            x, T = path.state_at(0, s)
            memo[key] = x, T, at_point(path.metric.fundamental_real, x, T)
        return memo[key]

    def perp(f, s):
        _, T, g = frame(s)
        val = np.asarray(f(s), dtype=float)
        return val - (float(val @ g @ T) / float(T @ g @ T)) * T

    h = max(path.arc_lengths[0] * 1e-5, 1e-8)

    def derivative(f):
        def cov(s):
            raw = (-perp(f, s + 2 * h) + 8 * perp(f, s + h)
                   - 8 * perp(f, s - h) + perp(f, s - 2 * h)) / (12 * h)
            x, T, _ = frame(s)
            return raw + np.einsum("ijk,j,k->i", horizontal_coefficients(path.metric, x, T),
                                   perp(f, s), T)
        return cov

    return tuple(derivative(f) for f in fields)


def fd_index_form(path, xi, eta) -> float:
    """I(xi, eta) along a normal ``path``, a one-member fan, by the composite
    rule of ``geodesic.index_form`` (4-point Gauss-Legendre over 12 panels),
    with the covariant derivatives of ``fd_covariant_derivatives``, the
    ``gamma_h`` route, in place of dV/ds + N V. ``xi`` and ``eta`` are callables of the
    arc parameter that return the field's value only.
    """
    from finsler.cartan import cartan

    xi_cov, eta_cov = fd_covariant_derivatives(path, xi, eta)

    def integrand(s):
        data = cartan(path.metric, *path.state_at(0, s))
        T = data.u

        def perp(f):
            val = np.asarray(f(s), dtype=float)
            return val - (float(val @ data.g @ T) / float(T @ data.g @ T)) * T

        xv, ev = perp(xi), perp(eta)
        return (float(xi_cov(s) @ data.g @ eta_cov(s))
                - float((data.riemann @ xv) @ data.g @ ev))

    nodes, weights = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, path.arc_lengths[0], 13)
    return sum(w * 0.5 * (b - a) * integrand(0.5 * (a + b) + 0.5 * (b - a) * t)
               for a, b in zip(edges, edges[1:]) for t, w in zip(nodes, weights))


# -- Levi form of rho^2 along straight segments -------------------------------------


def straight_levi_rho2(field, z, v):
    """Levi value of rho^2 at (z, v) from coordinate second differences.

    Samples rho^2 by shooting at five points on the straight segments through
    x along u and Ju (no geodesic stencil, no connection term), with the
    width of the geodesic stencil ``covariant_d2_rho``, and
    Richardson-extrapolates. ``field`` is a ``LeviField``, whose metric and
    distance field it reuses.
    """
    from finsler.geometry import apply_J, complex_to_real_components

    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    x = complex_to_real_components(z)
    u = complex_to_real_components(v / math.sqrt(field.m.value(z, v)))
    base = field.pd.rho(x)
    h = _stencil_step(field.mr, x, base.value)

    def d2(w):
        def rho2(q):
            return field.pd.rho(q).value ** 2

        fm, fm2, fp2, fp = (rho2(x + t * h * w) for t in (-1.0, -0.5, 0.5, 1.0))
        f0 = base.value ** 2
        d_h = (fp - 2 * f0 + fm) / h ** 2
        d_h2 = (fp2 - 2 * f0 + fm2) / (0.5 * h) ** 2
        return (4.0 * d_h2 - d_h) / 3.0

    return 0.25 * (d2(u) + d2(apply_J(u)))


# -- misc closed forms ---------------------------------------------------------------


def hyperbolic_distance(zeta):
    """Distance from 0 in the curvature -4 disk metric |dz|^2/(1-|z|^2)^2."""
    return math.atanh(abs(zeta))


def ball_distance(p, q):
    """Distance between the points of real components p, q (x block, then y
    block) of the curvature -4 unit ball, G = ((1 - |z|^2)|v|^2 + |<z, v>|^2)
    / (1 - |z|^2)^2, which is the disk metric for n = 1: atanh |phi_p(q)| for
    the ball automorphism phi_p exchanging p and 0, by
    1 - |phi_p(q)|^2 = (1 - |p|^2)(1 - |q|^2) / |1 - <q, p>|^2 (Rudin,
    Function Theory in the Unit Ball of C^n, thm 2.2.2)."""
    n = len(p) // 2
    zp = np.asarray(p[:n]) + 1j * np.asarray(p[n:])
    zq = np.asarray(q[:n]) + 1j * np.asarray(q[n:])
    rest = (1 - np.vdot(zp, zp).real) * (1 - np.vdot(zq, zq).real) / abs(1 - np.vdot(zp, zq)) ** 2
    return math.atanh(math.sqrt(1 - rest))


def hyperbolic_hessian_tangential(rho):
    """H(rho)(u,u) for sphere-tangent unit u on the curvature -4 surface."""
    return 2.0 / math.tanh(2.0 * rho)


def exact_binomial(n, k):
    return int(math.comb(n, k))


# -- Jacobi fields in covariant form ---------------------------------------------


def covariant_boundary_form(m, x0, u0, r):
    """H = P^T g_T W M^-1 P at arc length r along the unit-speed geodesic from
    (x0, u0), from the Jacobi equation in covariant form.

    The state (x, u, J, W) carries the fields J with J(0) = 0, D_T J(0) = I
    and their covariant derivatives W = D_T J, moved by
    J' = W - gamma_h(J, T) and W' = -R J - gamma_h(W, T) with the Cartan data
    (curvature included) and ``horizontal_coefficients`` at every right-hand
    side, at the tolerances of ``geodesic.jacobi_boundary_field``. Independent
    of the linearized geodesic flow and its conversions through N.
    """
    from scipy.integrate import solve_ivp

    from finsler.cartan import cartan

    d = m.dim

    def rhs(t, y):
        data = cartan(m, y[:d], y[d:2 * d])
        Y = y[2 * d:].reshape(2, d, -1)
        GY = np.einsum("ijk,ajc,k->aic", horizontal_coefficients(m, y[:d], data.u), Y, data.u)
        return np.concatenate([data.u, -2.0 * data.spray, (Y[1] - GY[0]).ravel(),
                               (-data.riemann @ Y[0] - GY[1]).ravel()])

    y0 = np.concatenate([x0, u0, np.zeros(d * d), np.eye(d).ravel()])
    sol = solve_ivp(rhs, (0.0, r), y0, method="DOP853", rtol=1e-10, atol=1e-12)
    assert sol.success, sol.message
    y_r = sol.y[:, -1]
    x_r, T = y_r[:d], y_r[d:2 * d]
    M, W = y_r[2 * d:].reshape(2, d, d)
    g = at_point(m.fundamental_real, x_r, T)
    gT = g @ T
    P = np.eye(d) - np.outer(T, gT) / float(T @ gT)
    return P.T @ g @ W @ np.linalg.solve(M, P)


# -- radial fans integrated one geodesic at a time ----------------------------------


def flag_curvature(m, x, u, X):
    """The flag curvature of the plane span{u, X} with flag pole u at one point:
    the ratio ``radial_flag_bounds`` takes at each sample
    (``cartan._flag_ratio``), on one single-point ``cartan`` call."""
    from finsler.cartan import _flag_ratio, cartan

    data = cartan(m, x, u)
    g, u = data.g, data.u
    X = np.asarray(X, dtype=float)
    return _flag_ratio(g, data.riemann, X, float(u @ g @ u), float(X @ g @ X), float(u @ g @ X))


def fan_by_paths(m, pole, plan):
    """The geodesics of ``radial_flag_bounds``'s fan, each integrated alone as
    a one-member fan, with the arc lengths at which it samples them: the
    reference for the stacked k-member fan. Returns ``[(path, [s, ...]), ...]``
    by direction, each path a one-member fan."""
    from finsler.geodesic import integrate_geodesic
    from finsler.geometry import unit_directions

    d = m.dim
    dirs = unit_directions(max(plan.n_dirs, 3), d, plan.seed)
    lo, hi = plan.radial_range
    ts = np.linspace(lo, hi, max(3, plan.n_points // len(dirs) + 1))
    out = []
    for w in dirs:
        path = integrate_geodesic(m, pole, w / math.sqrt(m.value(pole, w)), hi * 1.05)
        out.append((path, [min(t, path.arc_lengths[0] * 0.999) for t in ts]))
    return out


def radial_flag_bounds_by_paths(m, pole, plan):
    """(k_inf, k_sup, n_samples) of ``radial_flag_bounds`` sampled along the
    one-member fans of :func:`fan_by_paths`, against its one k-member fan."""
    from finsler.cartan import cartan
    from finsler.geometry import unit_directions

    d = m.dim
    flags = unit_directions(2 * d, d, plan.seed + 1)
    ks = []
    for path, arcs in fan_by_paths(m, np.asarray(pole, dtype=float), plan):
        for s in arcs:
            data = cartan(m, *path.state_at(0, s))
            g, ut = data.g, data.u
            for X in flags:
                gu, gX, guX = ut @ g @ ut, X @ g @ X, ut @ g @ X
                if gu * gX - guX ** 2 >= 1e-8 * gu * gX:
                    ks.append((X @ g @ data.riemann @ X) / (gu * gX - guX ** 2))
    return min(ks), max(ks), len(ks)



# -- disk densities and their Gaussian curvature ----------------------------------
#
# K_G(v) is the supremum of the Gaussian curvatures at 0 of the densities that G
# pulls back to the holomorphic disks through (z, v) (Abate & Patrizio, Finsler
# Metrics - A Global Approach, LNM 1591): a second route to the curvature that
# ``chern.holomorphic_sectional_curvature`` reads from the Chern-Finsler tensors.


def _disk_cjet(zeta, order):
    """The disk parameter zeta as a CJet over (Re zeta, Im zeta)."""
    from finsler.jets import CJet
    zeta = complex(zeta)
    return CJet(*EagerSpace.get(2, order).variables([zeta.real, zeta.imag]))


def _as_cjet(w, space):
    from finsler.jets import CJet
    if isinstance(w, CJet):
        return w
    z = complex(w)
    return CJet(space.constant(z.real), space.constant(z.imag))


def _holo_derivative(w):
    """d/dzeta of a holomorphic CJet over (Re zeta, Im zeta); drops one order."""
    from finsler.jets import CJet
    return CJet((extract(w.re, 0) + extract(w.im, 1)) * 0.5,
                (extract(w.im, 0) - extract(w.re, 1)) * 0.5)


def density_jet(density, zeta):
    """Order-2 jet of a disk density over (Re zeta, Im zeta).

    Seeds at order 3 so densities defined through a probe derivative still
    carry order 2. A density that returns a plain number is constant.
    """
    from finsler.jets import CJet
    zc = _disk_cjet(zeta, 3)
    out = density(zc)
    if isinstance(out, CJet):
        out = out.re
    elif not isinstance(out, Jet):
        out = zc.re.space.constant(float(out))
    return truncate(out, 2) if out.order > 2 else out


def gaussian_curvature(density, zeta) -> float:
    """K = -(2/g) d^2 log g / dzeta dzetabar for a positive disk density."""
    g = density_jet(density, zeta)
    if g.value <= 0:
        raise ValueError(f"density must be positive, got {g.value}")
    return -2.0 / g.value * (0.25 * float(np.trace(g.log().derivatives(2))))


def pullback_density(m, probe):
    """zeta -> G(phi(zeta); phi'(zeta)) for a holomorphic disk phi, as a CJet
    density; the density f pushes forward is the pullback along f o phi."""

    def density(zc):
        pt = [_as_cjet(w, zc.re.space) for w in probe(zc)]
        return m.formula(pt, [_holo_derivative(w) for w in pt])

    return density


def log_density_comparison(m_target, f, probe, K2, grid):
    """Margins of d^2 log sigma^2 / dzeta dzetabar >= -(1/2) K2 sigma^2 at the
    grid points where sigma^2, the pullback of the target metric along f o phi,
    is positive. Equality holds for the constant-curvature disk density, which
    pins the one-half convention."""
    density = pullback_density(m_target, lambda zc: f._fn(probe(zc)))
    margins = []
    for zeta in grid:
        sig = density_jet(density, zeta)
        if sig.value > 1e-14:
            margins.append(0.25 * float(np.trace(sig.log().derivatives(2))) + 0.5 * K2 * sig.value)
    return margins


def ball_automorphism(center):
    """Automorphism of the unit ball sending 0 to ``center`` (generic scalars)."""
    a = np.asarray(center, dtype=complex)
    na2 = float(np.vdot(a, a).real)
    if na2 >= 1.0:
        raise ValueError("automorphism center must lie inside the unit ball")
    s = math.sqrt(1.0 - na2)

    def fn(x):
        if na2 == 0.0:
            return [-xi for xi in x]
        ip = None
        for xi, ai in zip(x, a):
            term = xi * ai.conjugate()
            ip = term if ip is None else ip + term
        denom = 1.0 - ip
        out = []
        for xi, ai in zip(x, a):
            proj = ip * (ai / na2)
            num = ai - proj - (xi - proj) * s
            out.append(num / denom)
        return out

    return fn


def probe_catalog(m, z, v, *, quadratic_coeff=None):
    """Holomorphic disks phi with phi(0) = z and phi'(0) parallel to v, by id:
    the affine disk z + zeta v; with ``quadratic_coeff`` b, z + zeta v + zeta^2 b;
    on the unit ball, the totally geodesic disk through a ball automorphism."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    probes = {"affine": lambda zeta: [zeta * v[a] + z[a] for a in range(z.size)]}
    if quadratic_coeff is not None:
        b = np.asarray(quadratic_coeff, dtype=complex)
        probes["quadratic"] = lambda zeta: [zeta * v[a] + zeta * zeta * b[a] + z[a]
                                            for a in range(z.size)]
    if m.domain.kind == "ball" and m.domain.radius == 1.0:
        psi = ball_automorphism(z)
        # direction e with d(psi)(0) e parallel to v
        e = np.linalg.solve(holomorphic_jacobian(psi, np.zeros(z.size)), v)
        en = float(np.linalg.norm(e))
        probes["geodesic"] = lambda zeta: psi([zeta * (ei / en) for ei in e])
    return probes


# -- the Legendre gradient and the identities it enters ----------------------------


def legendre_gradient(m, df, x):
    """Solve g_ij(x, Y) Y^j = df_i for Y (the metric gradient of f at x).

    ``df`` is the differential as a covector array, or a callable point
    function differentiated exactly through jets. Damped Newton from a few
    seeds, at most 60 steps each, to a residual below 1e-10 |df|.
    """
    from finsler.geometry import unit_directions
    x = np.asarray(x, dtype=float)
    d = m.dim
    if callable(df):
        df = df(EagerSpace.get(d, 1).variables(x)).derivatives(1)
    df = np.asarray(df, dtype=float)
    scale = float(np.linalg.norm(df))
    if scale == 0.0:
        raise ValueError("gradient undefined where df = 0")
    seeds = [df, np.ones(d)]
    seeds.extend(unit_directions(3, d, seed=2) * scale)
    for Y in seeds:
        Y = np.asarray(Y, dtype=float).copy()
        if float(np.linalg.norm(Y)) < 1e-12:
            continue
        for _ in range(60):
            jet = eager(m.real_jet(x, Y, 2))
            F = 0.5 * jet.derivatives(1)[d:] - df
            if float(np.linalg.norm(F)) < 1e-10 * scale:
                return Y
            try:
                step = np.linalg.solve(0.5 * jet.derivatives(2)[d:, d:], F)
            except np.linalg.LinAlgError:
                break
            # damped Newton keeps iterates on the slit bundle
            lam = 1.0
            while lam > 1e-4 and float(np.linalg.norm(Y - lam * step)) < 1e-10 * scale:
                lam *= 0.5
            Y = Y - lam * step
    raise RuntimeError("Legendre gradient Newton iteration did not converge")


def levi_identity_residual(m, f, z, X) -> dict:
    """Residual of 4 f_{;a bbar} Xo Xobar = D^2 f(X, X) + D^2 f(JX, JX).

    ``f`` is a smooth closed-form function of the real point coordinates,
    evaluable on jets. The left side uses Wirtinger derivatives of f, the
    right side the covariant Hessian at reference vector grad f; both sides
    are assembled through unrelated code paths.
    """
    from finsler.geometry import apply_J, complex_to_real_components, realify_metric
    from finsler.jets import wirtinger
    mr = realify_metric(m)
    z = np.asarray(z, dtype=complex)
    x = complex_to_real_components(z)
    X = np.asarray(X, dtype=float)
    n = m.n

    fj = f(EagerSpace.get(mr.dim, 2).variables(x))
    grad = fj.derivatives(1)
    hess = fj.derivatives(2)

    # f_{;a bbar}: the (z, zbar) block of the Wirtinger Hessian
    f_abar = eager(wirtinger(fj, [(a, n + a) for a in range(n)])).derivatives(2)[:n, n:]
    Xo = X[:n] + 1j * X[n:]       # (1,0)-part of X in the d/dz frame
    lhs = 4.0 * np.einsum("ab,a,b->", f_abar, Xo, Xo.conj())

    gamma_h = horizontal_coefficients(mr, x, legendre_gradient(mr, grad, x))

    def d2(wv):
        quad = float(wv @ hess @ wv)
        corr = float(np.einsum("kij,i,j->k", gamma_h, wv, wv) @ grad)
        return quad - corr

    rhs = d2(X) + d2(apply_J(X))
    scale = max(1.0, abs(lhs), abs(rhs))
    return {"lhs": complex(lhs), "rhs": float(rhs),
            "relative_residual": (abs(lhs.real - rhs) + abs(lhs.imag)) / scale}


def gradient_identity(m, pole, z) -> dict:
    """Relative errors of the radial pairings of the distance gradient.

    The real pairing of grad(rho^2) with the arriving unit tangent is 2 rho,
    and half of the complex pairing against the (1,0) part of the tangent is
    rho. The gradient comes from rho^2 differentiated numerically (central
    differences at h and h/2, Richardson-extrapolated) through the Legendre
    transform, independently of the shooting tangent.
    """
    from finsler.cartan import cartan
    from finsler.geodesic import PoleDistance
    from finsler.geometry import complex_to_real_components, realify_metric
    mr = realify_metric(m)
    pd = PoleDistance(mr, complex_to_real_components(np.asarray(pole, dtype=complex)))
    z = np.asarray(z, dtype=complex)
    x = complex_to_real_components(z)
    base = pd.rho(x)
    d = mr.dim

    h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    df = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        fp = pd.rho(x + e).value ** 2
        fm = pd.rho(x - e).value ** 2
        fp2 = pd.rho(x + 0.5 * e).value ** 2
        fm2 = pd.rho(x - 0.5 * e).value ** 2
        d_h = (fp - fm) / (2 * h)
        d_h2 = (fp2 - fm2) / h
        df[i] = (4.0 * d_h2 - d_h) / 3.0

    Y = legendre_gradient(mr, df, x)
    conn_T = cartan(mr, x, base.T)
    real_pairing = float(Y @ conn_T.g @ base.T)

    T_c = base.T[:m.n] + 1j * base.T[m.n:]
    Y_c = Y[:m.n] + 1j * Y[m.n:]
    complex_pairing = 0.5 * np.einsum("ab,a,b->", levi_at(m, z, T_c), Y_c,
                                      T_c.conj())

    rho = base.value
    return {"rho": rho,
            "relative_error_real": abs(real_pairing - 2.0 * rho) / max(1.0, 2.0 * rho),
            "relative_error_complex": abs(complex_pairing - rho) / max(1.0, rho)}


# -- the Kaehler condition of unitary-invariant profiles --------------------------


def un_invariant_kahler_check(profile):
    """(predicted, observed): whether the profile has the gradient form
    f(t) + f'(t) s, the closed-form condition for a unitary-invariant metric
    to be Kaehler, and the torsion classification of its metric on C^2."""
    from finsler.geometry import SamplePlan
    from finsler.kahler import classify
    from finsler.metrics import un_invariant_metric
    rep = classify(un_invariant_metric(profile, 2, {}),
                   SamplePlan(n_points=6, n_dirs=4, radial_range=(0.1, 0.6)))
    return profile.is_gradient_form, rep.classification


def weakly_kahler_pde_stats_by_objects(profile) -> dict:
    """The stats of ``weakly_kahler_pde_residual``, with the profile run on
    fresh eager jets of (t, s) at each grid point, one point at a time."""
    t_hi = min(0.9, 0.9 * profile.t_max) if math.isfinite(profile.t_max) else 0.9
    sp = EagerSpace.get(2, 2)
    worst = 0.0
    argmax = (None, None)
    scale_terms = 1.0
    n_eval = 0
    for t in np.linspace(1e-3, t_hi, 20):
        for sfrac in np.linspace(0.0, 1.0, 20):
            s = float(sfrac * t)
            phi_jet = profile(*sp.variables([float(t), s]))
            phi = phi_jet.value
            pt, ps = (float(d) for d in phi_jet.derivatives(1))
            hess = phi_jet.derivatives(2)
            pss = float(hess[1, 1])
            pst = float(hess[0, 1])
            term1 = (phi - s * ps) * (phi + (t - s) * ps) * (ps - pt + s * (pst + pss))
            term2 = s * (t - s) * pss * (phi * (ps - pt) + s * ps * (pt + ps))
            lhs = term1 + term2
            n_eval += 1
            scale_terms = max(scale_terms,
                              (abs(phi) + abs(pt) + abs(ps) + abs(pss) + abs(pst)) ** 3)
            if abs(lhs) > worst:
                worst = abs(lhs)
                argmax = (float(t), s)
    return {"max_residual": worst, "argmax_t": argmax[0], "argmax_s": argmax[1],
            "scale": scale_terms, "n_grid": n_eval}


# -- the validity grid one sample at a time ------------------------------------


def point_levi_matrix(m, z, v):
    """The Levi matrix (G_{a bbar}) at one point, read from its order-2
    ``complex_jet``."""
    n = m.n
    return eager(m.complex_jet(z, v, 2)).derivatives(2, slice(n, 2 * n), slice(3 * n, 4 * n))


def point_fundamental_real(m, x, u):
    """The real fundamental tensor at one point, read from its order-2
    ``real_jet``."""
    U = slice(m.dim, 2 * m.dim)
    return 0.5 * eager(m.real_jet(x, u, 2)).derivatives(2, U, U)


def per_point_check_metric(m, plan=None):
    """``check_metric`` evaluated one sample at a time: per sample, one
    order-2 point jet for the Levi matrix (``point_levi_matrix``) and one for
    the real fundamental tensor (``point_fundamental_real``), one ``eigvalsh``
    each, and the homogeneity scale s that ``default_rng(seed + 7)`` draws
    for the sample's index in plan order, a failed sample's included."""
    from finsler.geometry import SamplePlan, complex_to_real_components, sample_points, \
        sample_vectors
    from finsler.report import VerificationReport, evaluate_samples
    plan = plan or SamplePlan()
    rng = np.random.default_rng(plan.seed + 7)
    points, dirs = sample_points(m, plan), sample_vectors(m, plan)
    scales = []
    for _ in range(len(points) * len(dirs)):
        if m.is_complex:
            scales.append(complex(rng.standard_normal(), rng.standard_normal()))
        else:
            s = float(rng.standard_normal())
            scales.append(0.5 if abs(s) < 0.1 else s)

    def sample(iz, iv):
        z, v, s = points[iz], dirs[iv], scales[iz * len(dirs) + iv]
        G = m.value(z, v)
        levi = ()
        x, u = z, v
        if m.is_complex:
            levi = (float(np.linalg.eigvalsh(point_levi_matrix(m, z, v)).min()),)
            x, u = complex_to_real_components(z), complex_to_real_components(v)
        evr = float(np.linalg.eigvalsh(point_fundamental_real(m, x, u)).min())
        ref = m.value(z, s * v)
        return (G, evr, abs(ref - abs(s) ** 2 * G) / max(1.0, abs(ref))) + levi

    grid = evaluate_samples(sample, range(len(points)), range(len(dirs)))
    rows, failures = grid.rows, grid.failures
    min_value = min((val[0] for _, _, val in rows), default=math.inf)
    min_real = min((val[1] for _, _, val in rows), default=None)
    hom_res = max((val[2] for _, _, val in rows), default=0.0)
    min_levi = min((val[3] for _, _, val in rows), default=None) if m.is_complex else None
    tol = 1e-10
    passed = (rows and min_value > 0 and min_real > 0 and hom_res < tol
              and (min_levi is None or min_levi > 0) and not failures)
    return VerificationReport(
        name=f"check_metric:{m.family_id}", passed=bool(passed), tolerance=tol,
        stats={"min_levi_eigenvalue": min_levi, "min_real_hessian_eigenvalue": min_real,
               "min_value": min_value, "homogeneity_residual": hom_res,
               "samples": grid.counts},
        samples=[{"point_index": i, "dir_index": j, "G": value[0]}
                 for i, j, value in rows[:4]],
        errors=[f"sample ({i},{j}): {type(exc).__name__}: {exc}" for i, j, exc in failures],
        grid=grid.grid)
