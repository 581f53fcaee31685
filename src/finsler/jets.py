"""Dense truncated Taylor expansions (forward-mode jets) up to total order 4.

A ``Jet`` stores the Taylor coefficients ``D^a f / a!`` of a scalar function
over the monomial basis of total degree <= order, sorted by (degree, lex),
and reads its mixed partial derivatives through gather tables. Derivatives
propagate through the chain and Leibniz rules in two kernels: the truncated
polynomial product, driven by cached index tables, and the composition with
a univariate function by Horner's rule.

Because the basis is sorted by total degree first, the basis of order k is a
prefix of the basis of any higher order over the same variables, so order
truncation is a slice. Read as base-(order + 1) digits after the degree,
exponents sort as the basis does and add under products, so every index table
is built by array operations and a binary search, with no loop over monomials.

Complex-analytic derivative tables are produced by :func:`wirtinger`, which
rewrites a jet over paired real coordinates (x, y) as a complex-coefficient
jet over formally independent holomorphic/antiholomorphic variables
(z, zbar) with z = x + iy.

Every value and jet the engine computes comes from a :class:`JetProgram`: a
real formula recorded once, as a straight-line list of jet operations, and
replayed through the kernels on coefficient arrays at any order, a value
being the order-0 replay. Formulas run only while they are recorded, on
recording jets, whose arithmetic (+, -, *, /, powers, exp) appends entries;
no engine route runs a formula on numbers or computes on ``Jet`` objects.
The eager ring on ``Jet`` objects, which shares the kernels and so rounds
alike, is the reference arithmetic of the tests (``tests/oracles.py``). The
tape numbers values as it records: an entry equal to one already recorded
(same operation, operands and constant) reuses its slot.
``JetProgram.replay_rows`` is the one replay: it replays B points at once
into (B, n) coefficient rows, raveled while it runs, and multiplies them with
one bincount over a product table, row-offset for B > 1 and the one-row
table itself for one row; each row keeps the summation order of a single
jet, so row b does not depend on the other rows, and a point is the one-row
case. Derivative readouts (``JetSpace.gather``) and the Wirtinger transform
(``wirtinger_coeffs``) take such rows as they take one jet's coefficients.

A reader replays over the basis it gathers: ``JetSpace.get(..., fibre, reach)``
keeps the monomials whose degree in ``fibre`` is at least their degree - reach.
The set is closed under taking divisors, and a product's coefficient at m
reads only divisors of m, so the product table filtered in order to kept
outputs sums each kept bin as the full one does; every other step acts
entrywise, and the Wirtinger transform keeps the degree in each pair. A kept
replay is the full one's kept coefficients bit for bit (Griewank & Walther,
ch. 13; Neidinger, Math. Comp. 74, 2005).

A product also multiplies only the monomials of the variables its operands
depend on: each program slot has a support, the bit mask of the variables
it depends on (``JetProgram.support``), and its coefficient at a monomial
with a variable outside it is exactly +-0. So ``JetSpace.support_table``
keeps, in table order, the entries whose two factors lie in their operands'
supports, and a Horner product of a composition those in its operand's.
With finite coefficients every dropped term is a +-0 factor times a finite
one, so +-0. ``bincount`` accumulates each bin from +0.0, a sum from +0.0
is never -0.0 in round-to-nearest, and adding +-0 to a value that is not
-0.0 leaves its bits: the pruned replay is the full one bit for bit. (An
infinite or NaN coefficient times a dropped +-0 would have made a NaN.)
The pruned tables of each entry come from a plan built once per program,
basis and row count (``JetProgram._plan``), not per replay.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import ConfigurationError, StructuralError

MAX_ORDER = 4

#: Product-table entries (rows x ``len(mult_table)``) of one stacked product;
#: ``JetProgram.replay_rows`` replays more rows in chunks, which bounds the
#: memory of its tables and temporaries.
ROW_PRODUCTS = 2 ** 14

#: Replay plans a ``JetProgram`` keeps (``JetProgram._plan``), one per basis
#: and row count it replayed last.
PLANS = 16

_SPACE_CACHE: dict = {}


def _monomials(nvars: int, order: int) -> np.ndarray:
    """Exponent rows of total degree <= order, sorted by (degree, lex); each
    degree raises one exponent of the last, sorted as base-(order + 1) numbers."""
    levels = [np.zeros((1, nvars), dtype=np.int64)]
    place = (order + 1) ** np.arange(nvars - 1, -1, -1)
    for _ in range(order):
        up = (levels[-1][:, None] + np.eye(nvars, dtype=np.int64)).reshape(-1, nvars)
        levels.append(up[np.unique(up @ place, return_index=True)[1]])
    return np.concatenate(levels)


class JetSpace:
    """Monomial basis and cached index tables for jets over ``nvars`` variables.

    Tables are array operations on the basis rows ``exponents``, which
    ``locate`` finds by a binary search over their sort keys, without loops.
    A complex space (``is_complex``) is the Wirtinger layout of
    ``wirtinger_coeffs``, the one producer of complex jets: variables
    [w_0..w_{P-1}, conj(w_0)..conj(w_{P-1})], P = nvars / 2."""

    __slots__ = (
        "nvars", "order", "is_complex", "fibre", "reach", "exponents", "n",
        "degrees", "size_at_order", "_mult_table", "_support_tables", "_extract_tables",
        "_conj_perm", "_derivative_tables", "dtype",
    )

    def __init__(self, nvars, order, is_complex=False, fibre=(), reach=None):
        if order < 0 or order > MAX_ORDER:
            raise ConfigurationError(f"jet order must be in [0, {MAX_ORDER}], got {order}")
        if nvars < 1:
            raise ConfigurationError("jet space needs at least one variable")
        self.nvars = nvars
        self.order = order
        self.is_complex = is_complex
        self.fibre, self.reach = tuple(fibre), reach
        self.exponents = _monomials(nvars, order)
        if reach is not None:
            self.exponents = self.exponents[self._base_degrees(self.exponents) <= reach]
        self.n = len(self.exponents)
        self.degrees = self.exponents.sum(axis=1)
        self.size_at_order = [int(np.sum(self.degrees <= o)) for o in range(order + 1)]
        self.dtype = np.complex128 if is_complex else np.float64
        self._mult_table = None
        self._support_tables = {}
        self._extract_tables = {}
        self._conj_perm = None
        self._derivative_tables = {}

    @staticmethod
    def get(nvars, order, is_complex=False, fibre=(), reach=None) -> "JetSpace":
        """The cached space; ``reach`` keeps the monomials of degree <= reach outside ``fibre``."""
        if reach is None or reach >= order:
            fibre, reach = (), None
        key = (nvars, order, is_complex, tuple(fibre), reach)
        sp = _SPACE_CACHE.get(key)
        if sp is None:
            sp = JetSpace(*key)
            _SPACE_CACHE[key] = sp
        return sp

    @staticmethod
    def of(nvars, basis) -> "JetSpace":
        """``basis`` if it is a space, else the full real space of that order."""
        return basis if isinstance(basis, JetSpace) else JetSpace.get(nvars, basis)

    def __repr__(self):
        return f"JetSpace({self.nvars}, {self.order}, fibre={self.fibre}, reach={self.reach})"

    def _base_degrees(self, expo):
        return expo.sum(axis=1) - expo[:, list(self.fibre)].sum(axis=1)

    def _key(self, expo):
        """Sort keys of exponent rows of degree <= order: the degree, then the
        base-(order + 1) digits. They ascend on the basis and add under products."""
        base = self.order + 1
        return (expo.sum(axis=-1) * base ** self.nvars
                + expo @ base ** np.arange(self.nvars - 1, -1, -1))

    def locate(self, expo) -> np.ndarray:
        """Basis indices of exponent rows (last axis) of degree <= order; ``n``,
        past the end, for a monomial the basis does not keep."""
        keys, want = self._key(self.exponents), self._key(expo)
        idx = np.searchsorted(keys, want)
        return np.where(keys.take(idx, mode="clip") == want, idx, self.n)

    def mult_table(self):
        """(ia, ib, iout) of every kept product p * q of degree <= order, by p
        then q; the basis is sorted by degree, so the partners q of p are a prefix."""
        if self._mult_table is None:
            ends = np.array(self.size_at_order)[self.order - self.degrees]
            ia = np.repeat(np.arange(self.n), ends)
            ib = np.arange(len(ia)) - np.repeat(np.cumsum(ends) - ends, ends)
            if self.reach is not None:
                base = self._base_degrees(self.exponents)
                ia, ib = (t[base[ia] + base[ib] <= self.reach] for t in (ia, ib))
            keys = self._key(self.exponents)
            self._mult_table = (ia, ib, np.searchsorted(keys, keys[ia] + keys[ib]))
        return self._mult_table

    def support_table(self, mask_a, mask_b):
        """The entries of ``mult_table``, in its order, whose factors' monomials
        use only the variables in the bit masks ``mask_a`` and ``mask_b``: the
        terms of a product of a jet of those variables by a jet of these.
        Pairs of masks that keep the same entries share one table."""
        tab = self._support_tables.get((mask_a, mask_b))
        if tab is None:
            ia, ib, iout = self.mult_table()
            support = (self.exponents > 0) @ (1 << np.arange(self.nvars))
            keep = np.flatnonzero(((support[ia] | mask_a) == mask_a)
                                  & ((support[ib] | mask_b) == mask_b))
            tab = self._support_tables.get(keep.tobytes())
            if tab is None:
                tab = self._support_tables[keep.tobytes()] = (ia[keep], ib[keep], iout[keep])
            self._support_tables[(mask_a, mask_b)] = tab
        return tab

    def extract_table(self, var):
        """(src, fac): ``coeffs[src] * fac`` is the partial in ``var``, one order lower."""
        tab = self._extract_tables.get(var)
        if tab is None:
            lower = self.exponents[:self.size_at_order[self.order - 1]]
            tab = (self.locate(lower + np.eye(self.nvars, dtype=np.int64)[var]),
                   lower[:, var] + 1.0)
            self._extract_tables[var] = tab
        return tab

    def derivative_table(self, k):
        """Gather table ``(idx, scale)`` for all partials of order ``1 <= k <= order``.

        Both arrays have shape ``(nvars,) * k``; ``coeffs[idx] * scale`` is the
        symmetric tensor of k-th partials of a jet over this space, the scale
        being the product of the factorials of the exponent.
        """
        tab = self._derivative_tables.get(k)
        if tab is None:
            n = self.nvars
            shape = (n,) * k
            expo = np.eye(n, dtype=np.int64)[np.indices(shape).reshape(k, -1)].sum(axis=0)
            factorial = np.array([math.factorial(e) for e in range(k + 1)], dtype=float)
            tab = (self.locate(expo).reshape(shape),
                   factorial[expo].prod(axis=1).reshape(shape))
            self._derivative_tables[k] = tab
        return tab

    def conj_perm(self):
        """Basis index of each monomial with its holomorphic and antiholomorphic halves swapped."""
        if not self.is_complex or self.nvars % 2:
            raise StructuralError("conjugation needs a complex space of paired variables")
        if self._conj_perm is None:
            p = self.nvars // 2
            self._conj_perm = self.locate(self.exponents[:, np.r_[p:2 * p, :p]])
        return self._conj_perm

    def gather(self, coeffs, k, *blocks) -> np.ndarray:
        """The k-th partials of the jets whose coefficients are the last axis of
        ``coeffs``, restricted to ``blocks`` (an index or a slice per leading
        derivative axis); rows (B, n) give B tensors, each its jet's. A
        partial of a monomial the basis does not keep raises ``StructuralError``."""
        idx, scale = self.derivative_table(k)
        if blocks:
            idx, scale = idx[blocks], scale[blocks]
        try:
            return coeffs.take(idx, axis=-1) * scale
        except IndexError:
            raise StructuralError(f"{self} does not keep every partial gathered") from None

    def seed_coeffs(self, values) -> np.ndarray:
        """Coefficients (nvars, B * n) of the seed jets of all ``nvars``
        coordinates at the B points of the array ``values`` (B, nvars), row b
        raveled at offset b * n: seed i at point b has base value
        ``values[b, i]`` and first partials e_i, which the degree-1 block of
        the basis, following the constant, lists."""
        c = np.zeros((self.nvars, len(values) * self.n), dtype=self.dtype)
        c[:, ::self.n] = values.T
        one = slice(1, self.size_at_order[min(1, self.order)])
        c.reshape(self.nvars, len(values), self.n)[:, :, one] = self.exponents[one].T[:, None]
        return c


# -- coefficient kernels -------------------------------------------------------


def _complex_bincount(idx, w, n):
    return np.bincount(idx, weights=w.real, minlength=n) + 1j * np.bincount(
        idx, weights=w.imag, minlength=n)


def _product(sp, a, b, table=None):
    """Coefficients of the truncated product of two jets over ``sp``, or of
    each row pair of B raveled coefficient rows (row b at offset b * n), by
    one bincount over ``table``: ``sp.mult_table()`` by default, or its
    entries that a replay plan keeps, row-offset for B rows. Each row sums
    its terms in the order of one jet's product. A table that drops only
    terms with a factor of exactly +-0 gives the same bits, since each bin
    accumulates from +0.0, never holds -0.0, and so is unchanged by adding
    +-0; a dropped factor of +-0 times a finite one is +-0."""
    ia, ib, iout = sp.mult_table() if table is None else table
    w = a[ia] * b[ib]
    if sp.is_complex:
        return _complex_bincount(iout, w, len(a))
    return np.bincount(iout, weights=w, minlength=len(a))


def _compose(sp, coeffs, taylor, table=None, c0=0):
    """Coefficients of g(f) for a jet f over ``sp``, where ``taylor[k]`` =
    g^(k)(f0)/k!, by Horner's rule on the non-constant part of f: each step
    is a ``_product`` over ``table``. Raveled rows pass their product
    ``table``, their constant coefficients ``c0`` and one Taylor value per
    row in each ``taylor[k]``."""
    h = coeffs.copy()
    h[c0] = 0.0
    out = np.zeros(coeffs.shape, dtype=sp.dtype)
    out[c0] = taylor[-1]
    for k in range(len(taylor) - 2, -1, -1):
        out = _product(sp, out, h, table)
        out[c0] += taylor[k]
    return out


def _reciprocal_taylor(f0, order, p=None):
    if abs(f0) < 1e-300:
        raise ZeroDivisionError("division by a jet with zero constant term")
    inv = 1.0 / f0
    return [inv * (-inv) ** k for k in range(order + 1)]


def _exp_taylor(f0, order, p=None):
    e = math.exp(f0)
    return [e / math.factorial(k) for k in range(order + 1)]


def _power_taylor(f0, order, p):
    if isinstance(f0, complex) or f0 <= 0.0:
        raise ValueError(f"fractional power of a jet needs a positive base, got {f0}")
    taylor = []
    c = f0 ** p
    for k in range(order + 1):
        taylor.append(c / math.factorial(k))
        c = c * (p - k) / f0
    return taylor


class Jet:
    """Truncated Taylor expansion of a scalar function: its coefficients over
    a space's basis, whose partials ``JetSpace.gather`` reads.

    Jets come from replayed programs (``JetProgram.replay_rows``); a formula's
    arithmetic runs once, on the recording jets of ``JetProgram.record``. The
    product stays defined on ``Jet``: the eager ring of the tests
    (``tests/oracles.py``) builds on it, and the benchmark tracer counts it."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs):
        self.space = space
        self.coeffs = coeffs

    @property
    def value(self):
        v = self.coeffs[0]
        return complex(v) if self.space.is_complex else float(v)

    @property
    def order(self):
        return self.space.order

    def __mul__(self, other):
        """The truncated product (``_product``) with a jet over the same space,
        or the scale by a number of its field, as a jet of this one's class."""
        if isinstance(other, Jet) and other.space is self.space:
            return type(self)(self.space, _product(self.space, self.coeffs, other.coeffs))
        if isinstance(other, numbers.Complex if self.space.is_complex else numbers.Real):
            return type(self)(self.space, self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def partial(self, variables):
        """Exact mixed partial derivative for a sequence of variable indices."""
        expo = np.bincount(np.asarray(variables, dtype=np.int64), minlength=self.space.nvars)
        if expo.sum() > self.order:
            raise StructuralError("requested derivative exceeds jet order")
        val = self.coeffs[self.space.locate(expo)] * float(math.prod(map(math.factorial, expo)))
        return complex(val) if self.space.is_complex else float(val)

    def __repr__(self):
        return f"Jet(nvars={self.space.nvars}, order={self.order}, value={self.value})"


# -- Wirtinger transform ------------------------------------------------------


@functools.cache
def _wirtinger_rows(nvars, order, pairs, fibre=(), reach=None):
    """Sparse rows (dst, src, val) of the real->complex basis change, from the
    real space ``JetSpace.get(nvars, order, False, fibre, reach)``.

    Real increments substitute as hx = (hz + hzbar)/2, hy = -i(hz - hzbar)/2.
    Output variables are ordered [w_0..w_{P-1}, conj(w_0)..conj(w_{P-1})].
    A real monomial of degree k expands along 2^k paths, one choice of z or
    zbar per factor in variable order. Its rows come in the order the paths
    first reach them, and rows whose dyadic (so exact) sums cancel are dropped.
    The transform keeps the degree in each pair, so a kept real basis whose
    fibre each pair lies in or outside maps onto the kept complex basis whose
    fibre is the image of the real one.
    """
    P = len(pairs)
    real_sp = JetSpace.get(nvars, order, False, fibre, reach)
    cx_sp = JetSpace.get(2 * P, order, True, [j + h for h in (0, P) for j, (a, _) in
                                              enumerate(pairs) if a in real_sp.fibre], reach)
    unit = cx_sp._key(np.eye(2 * P, dtype=np.int64))
    feed = np.empty((nvars, 2), dtype=np.int64)    # keys of the z and zbar a variable feeds
    weight = np.empty((nvars, 2), dtype=np.complex128)
    for j, (re_i, im_i) in enumerate(pairs):
        feed[[re_i, im_i]] = unit[[j, P + j]]
        weight[re_i], weight[im_i] = (0.5, 0.5), (-0.5j, 0.5j)
    deg = real_sp.degrees
    # step_var[p, s]: the variable of factor s of monomial p
    step_var = (np.cumsum(real_sp.exponents, axis=1)[:, :, None] <= np.arange(order)).sum(axis=1)
    src = np.repeat(np.arange(real_sp.n), 2 ** deg)
    path = np.arange(len(src)) - np.repeat(np.cumsum(2 ** deg) - 2 ** deg, 2 ** deg)
    key = np.zeros(len(src), dtype=np.int64)      # sort key of the complex monomial
    val = np.ones(len(src), dtype=np.complex128)
    for s in range(order):
        on = np.flatnonzero(deg[src] > s)
        var = step_var[src[on], s]
        choice = (path[on] >> (deg[src[on]] - 1 - s)) & 1
        key[on] += feed[var, choice]
        val[on] *= weight[var, choice]
    dst = np.searchsorted(cx_sp._key(cx_sp.exponents), key)
    _, first, inverse = np.unique(src * cx_sp.n + dst, return_index=True, return_inverse=True)
    val = _complex_bincount(inverse, val, len(first))
    by_first = np.argsort(first)
    kept = by_first[val[by_first] != 0.0]
    return dst[first[kept]], src[first[kept]], val[kept], cx_sp


def wirtinger(jet: Jet, pairs) -> Jet:
    """Rewrite a real-coordinate jet as a complex Wirtinger jet.

    ``pairs`` lists (real_index, imag_index) couples defining w = x + iy for
    each complex variable. The result is a complex-coefficient jet over
    [w_0..w_{P-1}, conj(w_0)..conj(w_{P-1})]; its mixed holomorphic partials
    are read off with ``JetSpace.gather``.
    """
    return Jet(*wirtinger_coeffs(jet.coeffs, jet.space, pairs))


def wirtinger_coeffs(coeffs, space: JetSpace, pairs):
    """``(complex space, coefficients)`` of the Wirtinger rewrite of the real
    jet coefficients ``coeffs`` over ``space``, whose last axis is the basis;
    rows (B, n) give rows (B, n'), row b bit for bit its jet's (``wirtinger``)."""
    pairs = tuple((int(a), int(b)) for a, b in pairs)
    seen = sorted(i for p in pairs for i in p)
    if seen != list(range(space.nvars)):
        raise StructuralError(
            f"pairs {pairs} must split the {space.nvars} variables into disjoint couples; "
            "odd or partial layouts are not supported")
    dst, src, val, cx_sp = _wirtinger_rows(space.nvars, space.order, pairs, space.fibre,
                                           space.reach)
    out = np.zeros(coeffs.shape[:-1] + (cx_sp.n,), dtype=np.complex128)
    # one 1-d np.add.at per jet: it sums each coefficient in entry order, is
    # faster than one over a 2-d index, and holds one jet's terms at a time
    for row, c in zip(out.reshape(-1, cx_sp.n), coeffs.reshape(-1, space.n)):
        np.add.at(row, dst, val * c[src])
    return cx_sp, out


# -- complex-valued jets as (re, im) pairs ------------------------------------

class CJet:
    """Complex scalar whose real and imaginary parts are real-coefficient jets.

    Used to record holomorphic formulas over real coordinates, whose parts
    are recording jets; supports the field operations plus conj/abs2 needed
    by the metric families and the map catalog.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re = re
        self.im = re.space.constant(0.0) if im is None else im

    @staticmethod
    def _coerce(x, like):
        if isinstance(x, CJet):
            return x
        if isinstance(x, numbers.Number):
            z = complex(x)
            sp = like.re.space
            return CJet(sp.constant(z.real), sp.constant(z.imag))
        return None

    @property
    def value(self):
        return complex(self.re.value, self.im.value)

    def __add__(self, other):
        o = CJet._coerce(other, self)
        if o is None:
            return NotImplemented
        return CJet(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return CJet(-self.re, -self.im)

    def __sub__(self, other):
        o = CJet._coerce(other, self)
        if o is None:
            return NotImplemented
        return CJet(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return CJet(self.re * other, self.im * other)
        if isinstance(other, numbers.Number):
            if isinstance(other, complex):
                # a constant scales the coefficients; no convolution needed
                c = complex(other)
                return CJet(self.re * c.real - self.im * c.imag,
                            self.re * c.imag + self.im * c.real)
            return CJet(self.re * other, self.im * other)
        o = CJet._coerce(other, self)
        if o is None:
            return NotImplemented
        return CJet(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = CJet._coerce(other, self)
        if o is None:
            return NotImplemented
        d = o.abs2()
        num = self * o.conj()
        return CJet(num.re / d, num.im / d)

    def conj(self):
        return CJet(self.re, -self.im)

    def abs2(self) -> Jet:
        return self.re * self.re + self.im * self.im


def creal(w):
    """The real part of a CJet, a real jet or a constant."""
    if isinstance(w, CJet):
        return w.re
    return w.real if isinstance(w, complex) else w


# -- jet programs: a formula recorded once, replayed on coefficient arrays ------
#
# Operator-overloading tape in the sense of Griewank & Walther, *Evaluating
# Derivatives*, 2nd ed., ch. 6 (taping) and ch. 13 (Taylor arithmetic): the
# formula runs once on recording jets that append one entry per operation, and
# every later evaluation replays the entries through the kernels above, at any
# order, without building a Jet per intermediate.

_MUL, _ADD, _SUB, _SCALE, _ADDC, _RSUBC, _NEG, _CONST, _REC, _EXP, _POW = range(11)
# entries composed with a univariate function, whose Taylor coefficients
# derive from the operand's value at replay (a power also takes its exponent p)
_TAYLOR = {_REC: _reciprocal_taylor, _EXP: _exp_taylor, _POW: _power_taylor}


def _reads_value(*_):
    raise StructuralError(
        "a recorded formula may not read a jet's value or branch on it")


class _Tape:
    """Operations appended by recording jets; entry i defines slot nvars + i.

    An entry is recorded once: emitting one already on the tape returns its
    slot. Constants key by type and ``repr``, so 0.0 and -0.0 stay apart.
    Commutative operands are not reordered, since ``a * b`` and ``b * a`` sum
    their terms in different orders."""

    def __init__(self, nvars):
        self.nvars = nvars
        self.ops = []
        self.slots = {}

    def emit(self, code, a, b=None) -> "_RecordedJet":
        key = (code, a, b) if code in (_MUL, _ADD, _SUB) else (code, a, type(b), repr(b))
        slot = self.slots.get(key)
        if slot is None:
            self.ops.append((code, a, b))
            slot = self.slots[key] = self.nvars + len(self.ops) - 1
        return _RecordedJet(self, slot)

    def constant(self, value) -> "_RecordedJet":
        return self.emit(_CONST, None, value)


class _RecordedJet(Jet):
    """Stand-in for a real jet while a formula is recorded.

    Each arithmetic operation appends to the tape instead of computing; the
    space attribute is the tape, so ``space.constant`` (used by ``CJet``)
    records a constant. Reading the jet's value (``value``, comparisons,
    truth tests, ``float``, ``abs``) raises ``StructuralError``: a recorded
    program must be the same straight line at every point.
    """

    __slots__ = ("slot",)

    def __init__(self, tape, slot):
        self.space = tape
        self.coeffs = None
        self.slot = slot

    def _operand(self, other):
        if isinstance(other, _RecordedJet) and other.space is self.space:
            return other.slot
        if isinstance(other, Jet):
            raise StructuralError("a recorded formula mixed in a jet from outside the tape")
        if isinstance(other, complex):
            raise StructuralError("a recorded real formula met a complex constant")
        return None

    def _emit(self, code, b=None):
        return self.space.emit(code, self.slot, b)

    def __add__(self, other):
        if not isinstance(other, (Jet, numbers.Number)):
            return NotImplemented
        slot = self._operand(other)
        return self._emit(_ADDC, other) if slot is None else self._emit(_ADD, slot)

    __radd__ = __add__

    def __neg__(self):
        return self._emit(_NEG)

    def __sub__(self, other):
        if not isinstance(other, (Jet, numbers.Number)):
            return NotImplemented
        slot = self._operand(other)
        return self._emit(_ADDC, -other) if slot is None else self._emit(_SUB, slot)

    def __rsub__(self, other):
        if not isinstance(other, (Jet, numbers.Number)):
            return NotImplemented
        self._operand(other)
        return self._emit(_RSUBC, other)

    def __mul__(self, other):
        if not isinstance(other, (Jet, numbers.Number)):
            return NotImplemented
        slot = self._operand(other)
        if slot is not None:
            return self._emit(_MUL, slot)
        # a scale by one is the identity in floating point: record nothing
        return self if other == 1 else self._emit(_SCALE, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._operand(other)
            return self * other.reciprocal()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        return self._emit(_REC)

    def exp(self):
        return self._emit(_EXP)

    def __pow__(self, p):
        """A fractional power is one entry; an integer power is recorded as
        products by binary exponentiation, a negative one of the reciprocal."""
        if not isinstance(p, numbers.Integral):
            return self._emit(_POW, p)
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

    def __repr__(self):
        return f"_RecordedJet(slot={self.slot})"

    value = property(_reads_value)
    __bool__ = __float__ = __abs__ = _reads_value
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _reads_value


class JetProgram:
    """A real scalar formula of ``nvars`` variables as a straight-line list of
    jet operations, replayable at every order 0..MAX_ORDER.

    Entries are ``(code, a, b)``: slot ``a`` is the operand, ``b`` a second
    slot, a constant, or an exponent. Slots ``0..nvars-1`` hold the seeds and
    entry i defines slot ``nvars + i``. Entries that do not reach the output
    are dropped when the program is recorded.

    ``support[i]`` is the bit mask of the variables slot i depends on: a
    seed's own, the union of a product's, sum's or difference's operands,
    none for a constant, and its operand's for every other entry. A slot's
    coefficient at a monomial with a variable outside its mask is +-0.
    """

    __slots__ = ("nvars", "ops", "out", "support", "_plans")

    def __init__(self, nvars, ops, out):
        self.nvars = nvars
        self.ops = ops
        self.out = out
        self.support = support = [1 << i for i in range(nvars)]
        for code, a, b in ops:
            if code == _CONST:
                support.append(0)
            elif code in (_MUL, _ADD, _SUB):
                support.append(support[a] | support[b])
            else:
                support.append(support[a])
        self._plans = {}

    @staticmethod
    def record(fn, nvars) -> "JetProgram":
        """Record ``fn(seeds)``, a real formula of ``nvars`` recording jets.

        Raises ``StructuralError`` if the formula reads a jet's value, mixes
        in a jet it did not build from the seeds, or does not return a real
        jet.
        """
        tape = _Tape(nvars)
        seeds = [_RecordedJet(tape, i) for i in range(nvars)]
        out = fn(seeds)
        if not (isinstance(out, _RecordedJet) and out.space is tape):
            raise StructuralError("a recorded formula must return a real jet")
        return JetProgram._pruned(nvars, tape.ops, out.slot)

    @staticmethod
    def _pruned(nvars, ops, out):
        """The entries that reach ``out``, renumbered in their original order."""
        live = [False] * (nvars + len(ops))
        live[out] = True
        for i in range(len(ops) - 1, -1, -1):
            if live[nvars + i]:
                code, a, b = ops[i]
                if a is not None:
                    live[a] = True
                if code in (_MUL, _ADD, _SUB):
                    live[b] = True
        new = list(range(nvars)) + [None] * len(ops)
        kept = []
        for i, (code, a, b) in enumerate(ops):
            if live[nvars + i]:
                new[nvars + i] = nvars + len(kept)
                a = None if a is None else new[a]
                if code in (_MUL, _ADD, _SUB):
                    b = new[b]
                kept.append((code, a, b))
        return JetProgram(nvars, kept, new[out])

    def replay_rows(self, values, basis) -> np.ndarray:
        """Coefficient rows (B, n) of the formula's jets over ``basis``, a
        space or an order (``JetSpace.of``), at the B points of the array
        ``values`` (B, nvars); row b does not depend on the other rows, so a
        point is replayed as one row.

        Rows replay in chunks of at most ``ROW_PRODUCTS`` kept product-table
        entries, each through the plan of its basis and row count (``_plan``),
        built on first use. A product multiplies only the entries whose
        factors lie in its operands' supports: with finite coefficients each
        dropped term is +-0 and leaves its bin's bits, so the rows are those
        of products over the whole table. The program keeps its last
        ``PLANS`` plans, each of at most 3 index arrays of a chunk's rows x
        ``len(sp.mult_table())`` entries per distinct support table.
        Value-derived Taylor coefficients are computed here, point by point,
        from the operands, so their errors (zero reciprocal base,
        non-positive fractional-power base, exp overflow) are raised on the
        call that meets them.
        """
        rows = len(values)
        plan = self._plans.get((basis, rows))
        if plan is not None:
            return self._run(plan, values)
        sp = JetSpace.of(self.nvars, basis)
        chunk = max(1, ROW_PRODUCTS // len(sp.mult_table()[0]))
        if not rows:
            return np.empty((0, sp.n))
        if rows <= chunk:
            return self._run(self._plan(basis, sp, rows), values)
        return np.concatenate([self._run(self._plan(basis, sp, len(part)), part) for part in
                               (values[start:start + chunk] for start in range(0, rows, chunk))])

    def _plan(self, basis, sp, rows):
        """The plan of a replay of ``rows`` points over ``sp``, kept under
        ``(basis, rows)``: ``(sp, steps, seeds, slots, c0)``. A step is an
        entry with its product table, ``sp.support_table`` of its operands'
        supports (its operand's for both factors of a Horner product),
        row-offset by b * n for row b of several. ``seeds`` are the seeds'
        raveled coefficients, whose constant coefficients each replay writes
        over, ``slots`` their rows, and ``c0`` indexes the constant
        coefficients, an integer for one row, whose assignments cost a fifth
        of a strided slice's."""
        plan = self._plans.get((basis, rows))
        if plan is not None:
            return plan
        offset = sp.n * np.arange(rows)[:, None]
        row_tables = {}
        steps = []
        for code, a, b in self.ops:
            table = None
            if code == _MUL or code in _TAYLOR:
                table = sp.support_table(self.support[a], self.support[b if code == _MUL else a])
                if rows > 1:
                    if id(table) not in row_tables:
                        row_tables[id(table)] = tuple((t + offset).ravel() for t in table)
                    table = row_tables[id(table)]
            steps.append((code, a, b, table))
        seeds = sp.seed_coeffs(np.zeros((rows, self.nvars)))
        plan = (sp, steps, seeds, list(seeds), 0 if rows == 1 else slice(None, None, sp.n))
        if len(self._plans) == PLANS:
            del self._plans[next(iter(self._plans))]
        self._plans[(basis, rows)] = plan
        return plan

    def _run(self, plan, values):
        """The entries replayed at the B points of ``values`` by ``plan``, each
        slot the B jets' coefficients raveled, row b at offset b * n, a
        product being one bincount over its step's table. No entry writes
        into its operands, so the plan's seeds serve every replay; an output
        that is a seed is copied. Returns the output's rows (B, n)."""
        sp, steps, seeds, slots, c0 = plan
        rows = len(values)
        seeds[:, c0] = values.T if rows > 1 else values[0]
        s = slots.copy()
        for code, a, b, table in steps:
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
        out = s[self.out]
        if self.out < self.nvars:
            out = out.copy()
        return out[None] if rows == 1 else out.reshape(rows, sp.n)


def _taylor(code, p, f0s, order):
    """Taylor coefficients of entry ``code`` (exponent ``p`` for a power) at
    ``f0s``, one value or an array of B: ``[k]`` is g^(k)(f0s)/k!, a number
    or an array (B,). Each value is computed as a scalar, since array powers
    round differently."""
    taylor = _TAYLOR[code]
    if isinstance(f0s, np.ndarray):
        return np.array([taylor(f0, order, p) for f0 in f0s.tolist()]).T
    return taylor(float(f0s), order, p)
