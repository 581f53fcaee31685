"""Dense truncated Taylor arithmetic (forward-mode jets) up to total order 4.

A ``Jet`` stores the Taylor coefficients ``D^a f / a!`` of a scalar function
over the monomial basis of total degree <= order, sorted by (degree, lex).
Arithmetic (+, *, /, powers, exp, log, sqrt) propagates all mixed partial
derivatives exactly through the chain and Leibniz rules; multiplication is a
truncated polynomial convolution driven by cached index tables.

Because the basis is sorted by total degree first, the basis of order k is a
prefix of the basis of any higher order over the same variables, so order
truncation is a slice and binary operations align jets of mixed order by
truncating to the lower one. Read as base-(order + 1) digits after the degree,
exponents sort as the basis does and add under products, so every index table
is built by array operations and a binary search, with no loop over monomials.

Complex-analytic derivative tables are produced by :func:`wirtinger`, which
rewrites a jet over paired real coordinates (x, y) as a complex-coefficient
jet over formally independent holomorphic/antiholomorphic variables
(z, zbar) with z = x + iy.

A :class:`JetProgram` records a real formula once as a straight-line list of
jet operations and replays it on coefficient arrays at any order; ``Jet``
methods and the replay share the product and composition kernels, so both
round alike. The tape numbers values as it records: an entry equal to one
already recorded (same operation, operands and constant) reuses its slot.
``JetProgram.replay_rows`` replays B points at once into (B, n) coefficient
rows, and multiplies them with one bincount over row-offset product tables;
each row keeps the summation order of a single point, so row b is bit for bit
its own replay.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import ConfigurationError, StructuralError

MAX_ORDER = 4

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
    ``locate`` finds by a binary search over their sort keys, without loops."""

    __slots__ = (
        "nvars", "order", "is_complex", "pair_split", "exponents", "n", "degrees",
        "size_at_order", "_mult_table", "_extract_tables", "_conj_perm",
        "_derivative_tables", "_row_tables", "dtype",
    )

    def __init__(self, nvars, order, is_complex=False, pair_split=None):
        if order < 0 or order > MAX_ORDER:
            raise ConfigurationError(f"jet order must be in [0, {MAX_ORDER}], got {order}")
        if nvars < 1:
            raise ConfigurationError("jet space needs at least one variable")
        self.nvars = nvars
        self.order = order
        self.is_complex = is_complex
        # pair_split = P means variables [0, P) are holomorphic and [P, 2P)
        # their conjugates; enables conj().
        self.pair_split = pair_split
        self.exponents = _monomials(nvars, order)
        self.n = len(self.exponents)
        self.degrees = self.exponents.sum(axis=1)
        self.size_at_order = [int(np.sum(self.degrees <= o)) for o in range(order + 1)]
        self.dtype = np.complex128 if is_complex else np.float64
        self._mult_table = None
        self._extract_tables = {}
        self._conj_perm = None
        self._derivative_tables = {}
        self._row_tables = {}

    @staticmethod
    def get(nvars, order, is_complex=False, pair_split=None) -> "JetSpace":
        key = (nvars, order, is_complex, pair_split)
        sp = _SPACE_CACHE.get(key)
        if sp is None:
            sp = JetSpace(nvars, order, is_complex, pair_split)
            _SPACE_CACHE[key] = sp
        return sp

    def sibling(self, order) -> "JetSpace":
        return JetSpace.get(self.nvars, order, self.is_complex, self.pair_split)

    def _key(self, expo):
        """Sort keys of exponent rows of degree <= order: the degree, then the
        base-(order + 1) digits. They ascend on the basis and add under products."""
        base = self.order + 1
        return (expo.sum(axis=-1) * base ** self.nvars
                + expo @ base ** np.arange(self.nvars - 1, -1, -1))

    def locate(self, expo) -> np.ndarray:
        """Basis indices of exponent rows (last axis) of degree <= order."""
        return np.searchsorted(self._key(self.exponents), self._key(expo))

    def mult_table(self):
        """(ia, ib, iout) of every product p * q of degree <= order, by p then q;
        the basis is sorted by degree, so the partners q of p are a prefix."""
        if self._mult_table is None:
            ends = np.array(self.size_at_order)[self.order - self.degrees]
            ia = np.repeat(np.arange(self.n), ends)
            ib = np.arange(len(ia)) - np.repeat(np.cumsum(ends) - ends, ends)
            keys = self._key(self.exponents)
            self._mult_table = (ia, ib, np.searchsorted(keys, keys[ia] + keys[ib]))
        return self._mult_table

    def row_mult_table(self, rows):
        """``mult_table`` over ``rows`` raveled coefficient rows: entry k of row b
        reads and writes offset by b * n, so one bincount multiplies every row."""
        tab = self._row_tables.get(rows)
        if tab is None:
            offset = self.n * np.arange(rows)[:, None]
            tab = tuple((t + offset).ravel() for t in self.mult_table())
            self._row_tables[rows] = tab
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
        """Basis index of each monomial with its holomorphic and antiholomorphic blocks swapped."""
        if self.pair_split is None:
            raise StructuralError("conjugation needs a paired holomorphic layout")
        if self._conj_perm is None:
            p = self.pair_split
            self._conj_perm = self.locate(self.exponents[:, np.r_[p:2 * p, :p, 2 * p:self.nvars]])
        return self._conj_perm

    def constant(self, value) -> "Jet":
        c = np.zeros(self.n, dtype=self.dtype)
        c[0] = value
        return Jet(self, c)

    def seed_coeffs(self, values) -> np.ndarray:
        """Coefficient rows of the seed jets of all ``nvars`` coordinates, row i
        with base value ``values[i]``."""
        c = np.zeros((self.nvars, self.n), dtype=self.dtype)
        c[:, 0] = values
        if self.order >= 1:
            c[np.arange(self.nvars), self.derivative_table(1)[0]] = 1.0
        return c

    def variables(self, values) -> list:
        """Seed jets for all ``nvars`` coordinates at once, jet i with base value ``values[i]``."""
        return [Jet(self, row) for row in self.seed_coeffs(values)]


# -- coefficient kernels shared by Jet objects and jet programs -----------------


def _complex_bincount(idx, w, n):
    return np.bincount(idx, weights=w.real, minlength=n) + 1j * np.bincount(
        idx, weights=w.imag, minlength=n)


def _product(sp, a, b):
    """Coefficients of the truncated product of two jets over ``sp``."""
    ia, ib, iout = sp.mult_table()
    w = a[ia] * b[ib]
    if sp.is_complex:
        return _complex_bincount(iout, w, sp.n)
    return np.bincount(iout, weights=w, minlength=sp.n)


def _product_rows(sp, a, b):
    """``_product`` of each row pair of two real (B, n) coefficient arrays, as
    one bincount; row b sums its terms in the order ``_product`` does."""
    rows = len(a)
    ia, ib, iout = sp.row_mult_table(rows)
    w = a.ravel().take(ia) * b.ravel().take(ib)
    return np.bincount(iout, weights=w, minlength=rows * sp.n).reshape(rows, sp.n)


def _compose(sp, coeffs, taylor, product=_product, c0=0):
    """Coefficients of g(f) for a jet f over ``sp``, where ``taylor[k]`` =
    g^(k)(f0)/k!, by Horner's rule on the non-constant part of f. Rows of jets
    pass ``_product_rows``, the constant column ``c0`` and one Taylor value
    per row in each ``taylor[k]``."""
    h = coeffs.copy()
    h[c0] = 0.0
    out = np.zeros(coeffs.shape, dtype=sp.dtype)
    out[c0] = taylor[-1]
    for k in range(len(taylor) - 2, -1, -1):
        out = product(sp, out, h)
        out[c0] += taylor[k]
    return out


def _reciprocal_taylor(f0, order):
    if abs(f0) < 1e-300:
        raise ZeroDivisionError("division by a jet with zero constant term")
    inv = 1.0 / f0
    return [inv * (-inv) ** k for k in range(order + 1)]


def _exp_taylor(f0, order):
    e = math.exp(f0)
    return [e / math.factorial(k) for k in range(order + 1)]


def _log_taylor(f0, order):
    if isinstance(f0, complex) or f0 <= 0.0:
        raise ValueError(f"log of a jet needs a positive real constant term, got {f0}")
    taylor = [math.log(f0)]
    for k in range(1, order + 1):
        taylor.append(((-1.0) ** (k + 1)) / (k * f0 ** k))
    return taylor


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
    """Truncated Taylor expansion of a scalar function."""

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

    def truncate(self, order) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise StructuralError("cannot extend a jet to higher order")
        sp = self.space.sibling(order)
        return Jet(sp, self.coeffs[:sp.n].copy())

    def _align(self, other):
        """Coefficients of two jets over the same variables at their common (lower) order."""
        a, b = self, other
        if a.space.nvars != b.space.nvars:
            raise StructuralError("jets live over different variable sets")
        o = min(a.order, b.order)
        cx = a.space.is_complex or b.space.is_complex
        ps = a.space.pair_split or b.space.pair_split
        sp = JetSpace.get(a.space.nvars, o, cx, ps)
        ca = a.coeffs[:sp.n].astype(sp.dtype, copy=False)
        cb = b.coeffs[:sp.n].astype(sp.dtype, copy=False)
        return ca, cb, sp

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.space is self.space:
                return Jet(self.space, self.coeffs + other.coeffs)
            a, b, sp = self._align(other)
            return Jet(sp, a + b)
        if isinstance(other, numbers.Number):
            c = self.coeffs.copy()
            if isinstance(other, complex) and not self.space.is_complex:
                return self._to_complex() + other
            c[0] += other
            return Jet(self.space, c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, (Jet, numbers.Number)):
            return self + (-other if isinstance(other, Jet) else -other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            sp = self.space
            if other.space is sp:
                a, b = self.coeffs, other.coeffs
            else:
                a, b, sp = self._align(other)
            return Jet(sp, _product(sp, a, b))
        if isinstance(other, numbers.Number):
            if isinstance(other, complex) and not self.space.is_complex:
                return self._to_complex() * other
            return Jet(self.space, self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        if isinstance(other, numbers.Number):
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def _to_complex(self):
        sp = JetSpace.get(self.space.nvars, self.order, True, self.space.pair_split)
        return Jet(sp, self.coeffs.astype(np.complex128))

    # -- analytic functions via univariate composition ----------------------

    def _compose(self, taylor):
        """Evaluate g(self) where ``taylor[k]`` = g^(k)(value)/k!."""
        return Jet(self.space, _compose(self.space, self.coeffs, taylor))

    def reciprocal(self):
        return self._compose(_reciprocal_taylor(self.value, self.order))

    def exp(self):
        if self.space.is_complex:
            raise StructuralError("exp is only defined for real-coefficient jets")
        return self._compose(_exp_taylor(self.value, self.order))

    def log(self):
        return self._compose(_log_taylor(self.value, self.order))

    def sqrt(self):
        return self.__pow__(0.5)

    def __pow__(self, p):
        if isinstance(p, numbers.Integral):
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
        return self._compose(_power_taylor(self.value, self.order, p))

    # -- derivative access ---------------------------------------------------

    def extract(self, var) -> "Jet":
        """Partial derivative with respect to variable ``var`` (one order lower)."""
        if self.order == 0:
            raise StructuralError("cannot differentiate an order-0 jet")
        src, fac = self.space.extract_table(var)
        lower = self.space.sibling(self.order - 1)
        return Jet(lower, self.coeffs[src] * fac)

    def derivatives(self, k) -> np.ndarray:
        """Symmetric tensor of all k-th partials, read through the space's gather table."""
        if not 1 <= k <= self.order:
            raise StructuralError("requested derivative exceeds jet order")
        idx, scale = self.space.derivative_table(k)
        return self.coeffs[idx] * scale

    def gradient(self) -> np.ndarray:
        """All first partial derivatives."""
        return self.derivatives(1)

    def hessian(self) -> np.ndarray:
        """Symmetric matrix of all second partials."""
        return self.derivatives(2)

    def partial(self, variables):
        """Exact mixed partial derivative for a sequence of variable indices."""
        expo = np.bincount(np.asarray(variables, dtype=np.int64), minlength=self.space.nvars)
        if expo.sum() > self.order:
            raise StructuralError("requested derivative exceeds jet order")
        val = self.coeffs[self.space.locate(expo)] * float(math.prod(map(math.factorial, expo)))
        return complex(val) if self.space.is_complex else float(val)

    def conj(self) -> "Jet":
        perm = self.space.conj_perm()
        out = np.empty_like(self.coeffs)
        out[perm] = np.conj(self.coeffs)
        return Jet(self.space, out)

    def __repr__(self):
        return f"Jet(nvars={self.space.nvars}, order={self.order}, value={self.value})"


# -- Wirtinger transform ------------------------------------------------------


@functools.cache
def _wirtinger_rows(nvars, order, pairs):
    """Sparse rows (dst, src, val) of the real->complex basis change.

    Real increments substitute as hx = (hz + hzbar)/2, hy = -i(hz - hzbar)/2.
    Output variables are ordered [w_0..w_{P-1}, conj(w_0)..conj(w_{P-1})].
    A real monomial of degree k expands along 2^k paths, one choice of z or
    zbar per factor in variable order. Its rows come in the order the paths
    first reach them, and rows whose dyadic (so exact) sums cancel are dropped.
    """
    P = len(pairs)
    real_sp = JetSpace.get(nvars, order, False)
    cx_sp = JetSpace.get(2 * P, order, True, P)
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
    are read off with :meth:`Jet.gradient` and :meth:`Jet.hessian`.
    """
    pairs = tuple((int(a), int(b)) for a, b in pairs)
    seen = sorted(i for p in pairs for i in p)
    if seen != list(range(jet.space.nvars)):
        raise StructuralError(
            f"pairs {pairs} must split the {jet.space.nvars} variables into disjoint couples; "
            "odd or partial layouts are not supported")
    dst, src, val, cx_sp = _wirtinger_rows(jet.space.nvars, jet.order, pairs)
    out = np.zeros(cx_sp.n, dtype=np.complex128)
    np.add.at(out, dst, val * jet.coeffs[src])
    return Jet(cx_sp, out)


# -- complex-valued jets as (re, im) pairs ------------------------------------

class CJet:
    """Complex scalar whose real and imaginary parts are real-coefficient jets.

    Used to evaluate holomorphic formulas over real coordinates; supports the
    field operations plus conj/abs2 needed by the metric families.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re = re
        self.im = re.space.constant(0.0) if im is None else im

    @staticmethod
    def _coerce(x, like):
        if isinstance(x, CJet):
            return x
        if isinstance(x, Jet):
            return CJet(x)
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
        if isinstance(other, Jet):
            return CJet(self.re / other, self.im / other)
        if isinstance(other, numbers.Number) and not isinstance(other, complex):
            return CJet(self.re / other, self.im / other)
        o = CJet._coerce(other, self)
        if o is None:
            return NotImplemented
        d = o.abs2()
        num = self * o.conj()
        return CJet(num.re / d, num.im / d)

    def __rtruediv__(self, other):
        o = CJet._coerce(other, self)
        return o.__truediv__(self)

    def conj(self):
        return CJet(self.re, -self.im)

    conjugate = conj

    def abs2(self) -> Jet:
        return self.re * self.re + self.im * self.im


# -- generic scalar helpers (dispatch float/complex vs Jet/CJet) ---------------

def cconj(w):
    if isinstance(w, CJet):
        return w.conj()
    return np.conj(w) if isinstance(w, complex) else w


def cabs2(w):
    if isinstance(w, CJet):
        return w.abs2()
    if isinstance(w, Jet):
        return w * w
    return (w * w.conjugate()).real if isinstance(w, complex) else w * w


def creal(w):
    if isinstance(w, CJet):
        return w.re
    return w.real if isinstance(w, complex) else w


def spow(x, p):
    """x**p for real scalars or real jets."""
    if isinstance(x, Jet):
        return x ** p
    return float(x) ** p


def sexp(x):
    return x.exp() if isinstance(x, Jet) else math.exp(x)


# -- jet programs: a formula recorded once, replayed on coefficient arrays ------
#
# Operator-overloading tape in the sense of Griewank & Walther, *Evaluating
# Derivatives*, 2nd ed., ch. 6 (taping) and ch. 13 (Taylor arithmetic): the
# formula runs once on recording jets that append one entry per operation, and
# every later evaluation replays the entries through the kernels above, at any
# order, without building a Jet per intermediate.

_MUL, _ADD, _SUB, _SCALE, _ADDC, _RSUBC, _NEG, _CONST, _REC, _EXP, _LOG, _POW = range(12)
# entries composed with a univariate function, whose Taylor coefficients
# derive from the operand's value at replay (a power also takes its exponent)
_TAYLOR = {_REC: _reciprocal_taylor, _EXP: _exp_taylor, _LOG: _log_taylor}


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
        if not isinstance(other, numbers.Number):
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

    def reciprocal(self):
        return self._emit(_REC)

    def exp(self):
        return self._emit(_EXP)

    def log(self):
        return self._emit(_LOG)

    def __pow__(self, p):
        if isinstance(p, numbers.Integral):
            return Jet.__pow__(self, p)
        return self._emit(_POW, p)

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
    """

    __slots__ = ("nvars", "ops", "out")

    def __init__(self, nvars, ops, out):
        self.nvars = nvars
        self.ops = ops
        self.out = out

    @staticmethod
    def record(fn, nvars) -> "JetProgram":
        """Record ``fn(seeds)``, a real formula of ``nvars`` recording jets.

        Raises ``StructuralError`` if the formula reads a jet's value, mixes
        in a jet it did not build from the seeds, or does not return a real
        jet or number.
        """
        tape = _Tape(nvars)
        seeds = [_RecordedJet(tape, i) for i in range(nvars)]
        out = fn(seeds)
        if isinstance(out, numbers.Real):
            out = tape.constant(out)
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

    def replay(self, values, order) -> Jet:
        """The formula's jet of the given order at the point ``values``.

        Value-derived Taylor coefficients are computed here from the
        operands, so their errors (zero reciprocal base, non-positive log or
        fractional-power base, exp overflow) are raised on the call that
        meets them.
        """
        sp = JetSpace.get(self.nvars, order, False)
        return Jet(sp, self._run(sp, list(sp.seed_coeffs(values)), order, _product, 0, _taylor))

    def replay_rows(self, values, order) -> np.ndarray:
        """Coefficient rows (B, n) of the formula's jets at the B points of
        ``values`` (B, nvars), row b bit for bit ``replay(values[b], order).coeffs``.

        Each product multiplies every row with one bincount
        (``_product_rows``); Taylor coefficients are computed point by point,
        so a bad point raises as its own replay does.
        """
        sp = JetSpace.get(self.nvars, order, False)
        values = np.asarray(values, dtype=float)
        seeds = np.repeat(sp.seed_coeffs(values[0])[:, None], len(values), axis=1)
        seeds[:, :, 0] = values.T
        return self._run(sp, list(seeds), order, _product_rows, (slice(None), 0), _row_taylor)

    def _run(self, sp, s, order, product, c0, taylor_of):
        """The entries replayed on the seed coefficients ``s``: ``product``
        multiplies two operands, ``c0`` indexes their constant coefficients
        and ``taylor_of(code, p, f0, order)`` gives a composite's Taylor
        coefficients at those values. Returns the output's coefficients."""
        for code, a, b in self.ops:
            if code == _MUL:
                r = product(sp, s[a], s[b])
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
                r = _compose(sp, s[a], taylor_of(code, b, s[a][c0], order), product, c0)
            s.append(r)
        return s[self.out]


def _taylor(code, p, f0, order):
    """Taylor coefficients of entry ``code`` (exponent ``p`` for a power) at ``f0``."""
    f0 = float(f0)
    return _power_taylor(f0, order, p) if code == _POW else _TAYLOR[code](f0, order)


def _row_taylor(code, p, f0s, order):
    """``_taylor`` at each of the values ``f0s``, as an (order + 1, B) array;
    each point is computed as a scalar, since array powers round differently."""
    return np.array([_taylor(code, p, f0, order) for f0 in f0s.tolist()]).T
