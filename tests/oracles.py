"""Independent reference implementations used as test oracles.

Everything here is deliberately written against plain numeric evaluation or
textbook formulas, without reusing the engine's derivative pipelines, so that
agreement between the two is evidence rather than tautology. The second
routes to a quantity the engine computes once (K_G from disk densities, the
distance gradient through the Legendre transform) use the jet algebra, but
not the production formula of the quantity they check.
"""

from __future__ import annotations

import math

import numpy as np


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


def loop_conj_perm(nvars, order, pair_split):
    """Basis index of each monomial with its holomorphic and antiholomorphic blocks swapped."""
    monomials, index = _loop_index(nvars, order)
    p = pair_split
    perm = np.empty(len(monomials), dtype=np.int64)
    for i, mono in enumerate(monomials):
        perm[i] = index[mono[p:2 * p] + mono[:p] + mono[2 * p:]]
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
    from finsler.jets import CJet, JetSpace

    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    d = m.dim
    seeds = JetSpace.get(2 * d, order, False).variables(np.concatenate([x, u]))
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
    g_rows = [[jet.extract(d + i).extract(d + j) * 0.5 for j in range(d)]
              for i in range(d)]
    g_inv = invert_jet_matrix(g_rows)
    useed = jet.space.sibling(order).variables(np.concatenate([x, u]))[d:]
    b = []
    for l in range(d):
        dG_l = jet.extract(d + l)
        acc = None
        for k in range(d):
            t = dG_l.extract(k) * useed[k]
            acc = t if acc is None else acc + t
        b.append(acc - jet.extract(l).truncate(order))
    spray = []
    for i in range(d):
        acc = None
        for l in range(d):
            t = g_inv[i][l] * b[l]
            acc = t if acc is None else acc + t
        spray.append(acc * 0.25)
    return g_rows, spray


def cartan_by_partials(m, x, u, need_curvature=True):
    """``(gamma_h, gamma_v, riemann)`` of the Cartan connection with every jet
    derivative read by :meth:`Jet.partial` in nested loops: the reference for
    the gathered, einsum-contracted assembly of ``cartan.cartan``."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    d = m.dim
    g_rows, spray_j = spray_jets_by_objects(m, x, u, 2 if need_curvature else 1)
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
    riemann = None
    if need_curvature:
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

    levi_jets = [[jet.extract(iv(a)).extract(ivb(b)) for b in range(n)]
                 for a in range(n)]
    inv_jets = invert_jet_matrix(levi_jets)
    nl_jets = [[None] * n for _ in range(n)]
    for s in range(n):
        for mu in range(n):
            acc = None
            for g in range(n):
                t = inv_jets[g][s] * jet.extract(ivb(g)).extract(iz(mu))
                acc = t if acc is None else acc + t
            nl_jets[s][mu] = acc
    nonlinear = np.array([[nl_jets[s][mu].value for mu in range(n)]
                          for s in range(n)])

    def delta_of_levi(b, t_, mu):
        out = levi_jets[b][t_].extract(iz(mu))
        for s in range(n):
            out = out - nl_jets[s][mu].truncate(1) * levi_jets[b][t_].extract(iv(s))
        return out

    gamma_h_jets = [[[None] * n for _ in range(n)] for _ in range(n)]
    gamma_v_jets = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for mu in range(n):
                acc = None
                for t_ in range(n):
                    t = inv_jets[t_][a].truncate(1) * delta_of_levi(b, t_, mu)
                    acc = t if acc is None else acc + t
                gamma_h_jets[a][b][mu] = acc
            for g in range(n):
                acc = None
                for t_ in range(n):
                    t = inv_jets[t_][a].truncate(1) * levi_jets[b][t_].extract(iv(g))
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
    stencil width h; rho^power at arc parameters -h, -h/2, h/2 and h comes
    from shots that ``pd`` warm-starts at its nearest solved target, ``base``
    or a closer one; the central second differences at
    h and h/2 are Richardson-extrapolated, and the gamma_h term relates the
    curve's own reference vector to the radial one. Independent of the
    Jacobi fields behind ``geodesic.distance_hessian``; its error is the
    shooting tolerance over h^2 plus the O(h^4) truncation.
    """
    from finsler.cartan import spray_coefficients
    from finsler.geodesic import SHOOT_ATOL, SHOOT_RTOL, _integrate_affine

    h = _stencil_step(m, x, base.value)
    fwd = _integrate_affine(m, x, w, h, rtol=SHOOT_RTOL, atol=SHOOT_ATOL)
    bwd = _integrate_affine(m, x, w, -h, rtol=SHOOT_RTOL, atol=SHOOT_ATOL)

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
    return d2 + float(df @ (2.0 * spray_coefficients(m, x, w)
                            - np.einsum("ijk,j,k->i", conn_T.gamma_h, w, w)))


# -- covariant derivatives along a path by differencing ------------------------------


def fd_covariant_derivatives(path, *fields):
    """Covariant derivatives along a normal ``path`` of the parts of ``fields``
    across its tangent T, as callables of the arc parameter.

    Each is a five-point central difference of the projected field plus the
    ``gamma_h`` term of the Cartan data at (x, T). The Cartan data are
    memoized per arc parameter, shared by all the fields.
    """
    from finsler.cartan import cartan

    memo = {}

    def conn(s):
        key = round(float(s), 12)
        if key not in memo:
            memo[key] = cartan(path.metric, *path.state_at(s), need_curvature=False)
        return memo[key]

    def perp(f, s):
        data = conn(s)
        T = data.u
        val = np.asarray(f(s), dtype=float)
        return val - (float(val @ data.g @ T) / float(T @ data.g @ T)) * T

    h = max(path.arc_length * 1e-5, 1e-8)

    def derivative(f):
        def cov(s):
            raw = (-perp(f, s + 2 * h) + 8 * perp(f, s + h)
                   - 8 * perp(f, s - h) + perp(f, s - 2 * h)) / (12 * h)
            data = conn(s)
            return raw + np.einsum("ijk,j,k->i", data.gamma_h, perp(f, s), data.u)
        return cov

    return tuple(derivative(f) for f in fields)


def fd_index_form(path, xi, eta) -> float:
    """I(xi, eta) along a normal ``path`` by the composite rule of
    ``geodesic.index_form`` (4-point Gauss-Legendre over 12 panels), with the
    covariant derivatives of ``fd_covariant_derivatives``, the ``gamma_h``
    route, in place of dV/ds + N V. ``xi`` and ``eta`` are callables of the
    arc parameter that return the field's value only.
    """
    from finsler.cartan import cartan

    xi_cov, eta_cov = fd_covariant_derivatives(path, xi, eta)

    def integrand(s):
        data = cartan(path.metric, *path.state_at(s))
        T = data.u

        def perp(f):
            val = np.asarray(f(s), dtype=float)
            return val - (float(val @ data.g @ T) / float(T @ data.g @ T)) * T

        xv, ev = perp(xi), perp(eta)
        return (float(xi_cov(s) @ data.g @ eta_cov(s))
                - float((data.riemann @ xv) @ data.g @ ev))

    nodes, weights = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, path.arc_length, 13)
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
    (curvature included) at every right-hand side, at the tolerances of
    ``geodesic.jacobi_boundary_field``. Independent of the linearized
    geodesic flow and its conversions through N.
    """
    from scipy.integrate import solve_ivp

    from finsler.cartan import cartan

    d = m.dim

    def rhs(t, y):
        data = cartan(m, y[:d], y[d:2 * d])
        Y = y[2 * d:].reshape(2, d, -1)
        GY = np.einsum("ijk,ajc,k->aic", data.gamma_h, Y, data.u)
        return np.concatenate([data.u, -2.0 * data.spray, (Y[1] - GY[0]).ravel(),
                               (-data.riemann @ Y[0] - GY[1]).ravel()])

    y0 = np.concatenate([x0, u0, np.zeros(d * d), np.eye(d).ravel()])
    sol = solve_ivp(rhs, (0.0, r), y0, method="DOP853", rtol=1e-10, atol=1e-12)
    assert sol.success, sol.message
    y_r = sol.y[:, -1]
    x_r, T = y_r[:d], y_r[d:2 * d]
    M, W = y_r[2 * d:].reshape(2, d, d)
    g = m.fundamental_real(x_r, T)
    gT = g @ T
    P = np.eye(d) - np.outer(T, gT) / float(T @ gT)
    return P.T @ g @ W @ np.linalg.solve(M, P)


# -- radial fans integrated one geodesic at a time ----------------------------------


def fan_by_paths(m, pole, plan):
    """The geodesics of ``radial_flag_bounds``'s fan, one ``integrate_geodesic``
    each, with the arc lengths at which it samples them: the reference for
    the stacked fan. Returns ``[(path, [s, ...]), ...]`` by direction."""
    from finsler.geodesic import integrate_geodesic
    from finsler.geometry import unit_directions

    d = m.dim
    dirs = unit_directions(max(plan.n_dirs, 3), d, plan.seed)
    lo, hi = plan.radial_range
    ts = np.linspace(lo, hi, max(3, plan.n_points // len(dirs) + 1))
    out = []
    for w in dirs:
        path = integrate_geodesic(m, pole, w / math.sqrt(m.value(pole, w)), hi * 1.05)
        out.append((path, [min(t, path.arc_length * 0.999) for t in ts]))
    return out


def radial_flag_bounds_by_paths(m, pole, plan):
    """(k_inf, k_sup, n_samples) of ``radial_flag_bounds`` sampled along
    :func:`fan_by_paths`."""
    from finsler.cartan import cartan, flag_curvature
    from finsler.geometry import unit_directions

    d = m.dim
    flags = unit_directions(2 * d, d, plan.seed + 1)
    ks = []
    for path, arcs in fan_by_paths(m, np.asarray(pole, dtype=float), plan):
        for s in arcs:
            xt, ut = path.state_at(s)
            data = cartan(m, xt, ut, need_curvature=True)
            for X in flags:
                gu, gX, guX = ut @ data.g @ ut, X @ data.g @ X, ut @ data.g @ X
                if gu * gX - guX ** 2 >= 1e-8 * gu * gX:
                    ks.append(flag_curvature(m, xt, ut, X, data=data))
    return min(ks), max(ks), len(ks)



# -- disk densities and their Gaussian curvature ----------------------------------
#
# K_G(v) is the supremum of the Gaussian curvatures at 0 of the densities that G
# pulls back to the holomorphic disks through (z, v) (Abate & Patrizio, Finsler
# Metrics - A Global Approach, LNM 1591): a second route to the curvature that
# ``chern.holomorphic_sectional_curvature`` reads from the Chern-Finsler tensors.


def _disk_cjet(zeta, order):
    """The disk parameter zeta as a CJet over (Re zeta, Im zeta)."""
    from finsler.jets import CJet, JetSpace
    zeta = complex(zeta)
    return CJet(*JetSpace.get(2, order, False).variables([zeta.real, zeta.imag]))


def _as_cjet(w, space):
    from finsler.jets import CJet
    if isinstance(w, CJet):
        return w
    z = complex(w)
    return CJet(space.constant(z.real), space.constant(z.imag))


def _holo_derivative(w):
    """d/dzeta of a holomorphic CJet over (Re zeta, Im zeta); drops one order."""
    from finsler.jets import CJet
    return CJet((w.re.extract(0) + w.im.extract(1)) * 0.5,
                (w.im.extract(0) - w.re.extract(1)) * 0.5)


def density_jet(density, zeta):
    """Order-2 jet of a disk density over (Re zeta, Im zeta).

    Seeds at order 3 so densities defined through a probe derivative still
    carry order 2. A density that returns a plain number is constant.
    """
    from finsler.jets import CJet, Jet
    zc = _disk_cjet(zeta, 3)
    out = density(zc)
    if isinstance(out, CJet):
        out = out.re
    elif not isinstance(out, Jet):
        out = zc.re.space.constant(float(out))
    return out.truncate(2) if out.order > 2 else out


def gaussian_curvature(density, zeta) -> float:
    """K = -(2/g) d^2 log g / dzeta dzetabar for a positive disk density."""
    g = density_jet(density, zeta)
    if g.value <= 0:
        raise ValueError(f"density must be positive, got {g.value}")
    return -2.0 / g.value * (0.25 * float(np.trace(g.log().hessian())))


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
    density = pullback_density(m_target, lambda zc: f(probe(zc)))
    margins = []
    for zeta in grid:
        sig = density_jet(density, zeta)
        if sig.value > 1e-14:
            margins.append(0.25 * float(np.trace(sig.log().hessian())) + 0.5 * K2 * sig.value)
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
    from finsler.metrics import _holomorphic_jacobian
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
        e = np.linalg.solve(_holomorphic_jacobian(psi, np.zeros(z.size)), v)
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
    from finsler.jets import JetSpace
    x = np.asarray(x, dtype=float)
    d = m.dim
    if callable(df):
        df = df(JetSpace.get(d, 1, False).variables(x)).gradient()
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
            jet = m.real_jet(x, Y, 2)
            F = 0.5 * jet.gradient()[d:] - df
            if float(np.linalg.norm(F)) < 1e-10 * scale:
                return Y
            try:
                step = np.linalg.solve(0.5 * jet.hessian()[d:, d:], F)
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
    from finsler.cartan import cartan
    from finsler.geometry import apply_J, complex_to_real_components, realify_metric
    from finsler.jets import JetSpace, wirtinger
    mr = realify_metric(m)
    z = np.asarray(z, dtype=complex)
    x = complex_to_real_components(z)
    X = np.asarray(X, dtype=float)
    n = m.n

    fj = f(JetSpace.get(mr.dim, 2, False).variables(x))
    grad = fj.gradient()
    hess = fj.hessian()

    # f_{;a bbar}: the (z, zbar) block of the Wirtinger Hessian
    f_abar = wirtinger(fj, [(a, n + a) for a in range(n)]).hessian()[:n, n:]
    Xo = X[:n] + 1j * X[n:]       # (1,0)-part of X in the d/dz frame
    lhs = 4.0 * np.einsum("ab,a,b->", f_abar, Xo, Xo.conj())

    conn = cartan(mr, x, legendre_gradient(mr, grad, x), need_curvature=False)

    def d2(wv):
        quad = float(wv @ hess @ wv)
        corr = float(np.einsum("kij,i,j->k", conn.gamma_h, wv, wv) @ grad)
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
    conn_T = cartan(mr, x, base.T, need_curvature=False)
    real_pairing = float(Y @ conn_T.g @ base.T)

    T_c = base.T[:m.n] + 1j * base.T[m.n:]
    Y_c = Y[:m.n] + 1j * Y[m.n:]
    complex_pairing = 0.5 * np.einsum("ab,a,b->", m.levi_matrix(z, T_c), Y_c, T_c.conj())

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
