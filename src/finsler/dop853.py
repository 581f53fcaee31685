"""DOP853, the explicit Runge-Kutta method of order 8(5, 3) with dense output of
order 7 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4-II.6), in the
arithmetic of scipy's ``solve_ivp(method="DOP853")``: the same ``first_step``
gives the same steps bit for bit. The coefficients are those of scipy's
``integrate/_ivp/dop853_coefficients.py``, as the shortest decimals of the
same doubles, under this notice:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers. All rights reserved.

Redistribution and use in source and binary forms, with or without modification, are
permitted provided that the following conditions are met:
1. Redistributions of source code must retain the above copyright notice, this list of
   conditions and the following disclaimer.
2. Redistributions in binary form must reproduce the above copyright notice, this list of
   conditions and the following disclaimer in the documentation and/or other materials
   provided with the distribution.
3. Neither the name of the copyright holder nor the names of its contributors may be used
   to endorse or promote products derived from this software without specific prior
   written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS" AND ANY EXPRESS
OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE IMPLIED WARRANTIES OF
MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE
COPYRIGHT OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS INTERRUPTION)
HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR
TORT (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import numpy as np

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10   # bounds on the change of a step
_EXPONENT = -1 / 8                               # -1 / (error estimator order + 1)
_XTOL = 4 * np.finfo(float).eps                  # brentq's xtol and rtol for event roots
MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred.",
            -1: "Required step size is less than spacing between numbers."}
C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0, 0.1, 0.2, 0.7777777777777778])
# stage s takes its increment from row s of A; rows 13-15 build the dense output
A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = [
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137, 0.02958758547680685, 0,
    0.08876275643042054, 0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242, 0.037109375, 0, 0,
    0.17025221101954405, 0.06021653898045596, -0.017578125, 0.03709200011850479, 0, 0,
    0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0, -2.4881146199716677,
    -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627, -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
    -3.0467644718982196, 2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259, 0.056167502283047954, 0, 0, 0, 0, 0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
    0.00820105229563469, 0.007567897660545699, -0.008298, 0.03183464816350214, 0, 0, 0, 0,
    0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0, 0,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]
B = A[12, :12]
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0])
D = np.array([
    -8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894,
    10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408,
    19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279,
    -25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
    96.32455395918828, -39.17726167561544, -149.72683625798564]).reshape(4, 16)


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """The initial-step probe (Hairer, Norsett & Wanner, sec. II.4), one right-hand side."""
    interval, scale, root_n = t_bound - t0, atol + np.abs(y0) * rtol, y0.size ** 0.5
    d0, d1 = np.linalg.norm(y0 / scale) / root_n, np.linalg.norm(f0 / scale) / root_n
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = np.linalg.norm((f1 - f0) / scale) / root_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100 * h0, max(1e-6, h0 * 1e-3), interval)
    return min(100 * h0, (0.01 / max(d1, d2)) ** (1 / 8), interval)


def _error_norm(K, h, scale):
    """The RMS norm of the order-5 error estimate, damped by the order-3 one."""
    err5_norm_2 = np.linalg.norm(np.dot(K.T, E5) / scale) ** 2
    err3_norm_2 = np.linalg.norm(np.dot(K.T, E3) / scale) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    return np.abs(h) * err5_norm_2 / np.sqrt((err5_norm_2 + 0.01 * err3_norm_2) * len(scale))


def _brentq(f, xpre, xcur):
    """scipy's ``brentq`` at xtol = rtol = 4 eps: a root of f between xpre and
    xcur, or xcur where f keeps its sign."""
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0 or (fpre < 0) == (fcur < 0):
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (_XTOL + _XTOL * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short and xpre == xblk:   # secant
            stry = -fcur * (xcur - xpre) / (fcur - fpre)
        elif short:                  # inverse quadratic interpolation
            dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
            stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        short = short and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)   # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur


class Solution:
    """Accepted times ``t`` and states ``y`` (n, len(t)), right-hand sides
    ``nfev``, ``status`` (0: end reached, 1: terminal event, -1: failed),
    ``success``, ``message``, ``t_events``: each event's root in the last
    step, where scipy keeps only the earliest, and ``h_next``: the larger of
    the controller's proposals after the last two steps, the last cut short."""

    def __init__(self, fun):
        self._fun, self._steps, self.nfev = fun, [], 1
        self.t = self.y = self.t_events = self.status = self.success = self.message = None
        self.h_next = None

    def sol(self, t, i=None):
        """The state at time t, or a row of it at each time of an array t, by
        the dense output of step i, by default the step that holds the time
        (before the span the first, after it the last); an empty span is its
        start. The times are grouped by step, and each step reads all of its
        own in one Horner pass, each row bit for bit a scalar read's. A step
        builds its 3 dense stages when first read, counted in ``nfev``."""
        t = np.asarray(t, dtype=float)
        if not self._steps:   # an empty span
            return np.broadcast_to(self.y[:, 0], t.shape + (len(self.y),)).copy()
        out = np.empty(t.shape + (len(self._steps[0][2]),))
        # the step holding a time counts the inner step boundaries before it
        steps = np.searchsorted(self.t[1:-1], t) if i is None else None
        groups = [i] if i is not None else sorted(set(np.ravel(steps).tolist()))
        for i in groups:
            step = self._steps[i]
            t_old, h, y_old, y_new, K, F = step
            if F is None:
                for s in (13, 14, 15):
                    K[s] = self._fun(t_old + C[s] * h, y_old + np.dot(K[:s].T, A[s, :s]) * h)
                self.nfev += 3
                dy = y_new - y_old
                F = step[5] = np.vstack([dy, h * K[0] - dy, 2 * dy - h * (K[12] + K[0]),
                                         h * np.dot(D, K)])
            rows = ... if len(groups) == 1 else steps == i
            x = (t[rows] - t_old) / h
            x = x[..., None] if x.ndim else x   # a scalar stays one: numpy's fast path
            x, y = (x, 1 - x), np.zeros(x.shape[:-1] + y_old.shape)
            for k, f in enumerate(F[::-1]):
                y += f
                y *= x[k % 2]
            out[rows] = y + y_old
        return out


def solve_ivp(fun, t_span, y0, *, rtol, atol, first_step=None, events=()):
    """y' = fun(t, y) forward over ``t_span`` = (t0, t_bound), t_bound >= t0,
    from y0 at tolerances ``rtol``, ``atol``, each a scalar or an array of
    y0's shape applied component by component, as scipy accepts them
    (``validate_tol``), from the step ``first_step``
    (capped at the span) or the initial-step probe's; a backward span raises
    ``ValueError``. The ``events`` are terminal: each that falls through 0 in
    a step records its root there (``_brentq`` on the dense output; scipy
    records only the earliest), and the integration ends at the earliest.
    An exception of ``fun`` or of an event propagates as it is."""
    t, t_bound = map(float, t_span)
    if not t_bound >= t:
        raise ValueError(f"solve_ivp integrates forward, got t_span {t_span!r}")
    y = np.asarray(y0, dtype=float)
    out, f = Solution(fun), fun(t, y)
    if first_step is None and t != t_bound:
        h_abs = _initial_step(fun, t, y, t_bound, f, rtol, atol)
        out.nfev += 1
    else:
        h_abs = min(first_step or 0.0, t_bound - t)
    ts, ys, proposals, g = [t], [y], [], [ev(t, y) for ev in events]
    out.t_events, status = [[] for _ in events], None if t != t_bound else 0
    while status is None:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while h_abs >= min_step:   # a NaN step fails
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs, K = h, np.empty((16, y.size))
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(K[:12].T, B)
            K[12] = fun(t + h, y_new)
            out.nfev += 12
            err = _error_norm(K[:13], h, atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol)
            if err < 1:   # accepted; a step after a rejection does not grow
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(MIN_FACTOR, SAFETY * err ** _EXPONENT), True
        else:
            status = -1
            break
        out._steps.append([t, h, y, y_new, K, None])
        proposals.append(h_abs)
        t_old, t, y, f = t, t_new, y_new, K[12]
        status = 0 if t >= t_bound else None
        g_new = [ev(t, y) for ev in events]
        crossed = [j for j in range(len(events)) if g[j] >= 0 and g_new[j] <= 0]
        for j in crossed:
            out.t_events[j].append(_brentq(lambda s, ev=events[j]: ev(s, out.sol(s, -1)),
                                           t_old, t))
        if crossed:
            t, status = min(out.t_events[j][-1] for j in crossed), 1
            y = out.sol(t, -1)
        ts.append(t)
        ys.append(y)
        g = g_new
    out.t, out.y, out.status = np.array(ts), np.vstack(ys).T, status
    out.success, out.message = status >= 0, MESSAGES[status]
    out.h_next = max(proposals[-2:], default=None)
    return out
