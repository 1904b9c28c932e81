"""Self-contained Bessel/Hankel engine for real order nu >= 0 and t > 0.

Provides J_nu, Y_nu and their derivatives in scaled form, the first-kind
Hankel combination H_nu = J_nu + i Y_nu, and the associated spherical
Hankel functions

    h_m(n, t) = H_{m + n/2 - 1}(t) / t^{n/2 - 1},

which solve the radial part of the Helmholtz equation in dimension n.  The
module deliberately has no external special-function dependency: downstream
sign checks on combinations of these functions are only meaningful if the
evaluations themselves are auditable.

Algorithm (classic Steed/Temme route):

* CF1, the continued fraction for J_nu'/J_nu, evaluated by modified Lentz.
  The running sign of the Lentz denominators fixes the overall sign of J;
  ratios plus the Wronskian alone only determine (J, Y) up to a global sign.
* Downward recurrence for (J, J') from the CF1-seeded top order.
* Seeds at the reduced order mu: for t < 2 a Temme-type series gives
  Y_mu and Y_{mu+1} directly; for t >= 2 the complex continued fraction CF2
  for H_mu'/H_mu combined with CF1 (Steed's method) gives the seed pair.
* Upward recurrence for (Y, Y'), which is stable in that direction.
* Normalization of the J ladder through the Wronskian
  J_nu Y_nu' - Y_nu J_nu' = 2/(pi t).

All internal values are carried as (mantissa, base-2 exponent) pairs: near
the corner nu ~ 100, t ~ 0.01 the magnitude of Y exceeds binary64 range by
hundreds of orders, yet bilinear combinations (Wronskian, moduli ratios)
remain perfectly representable.  Conversions to plain floats raise
:class:`BesselRangeError` rather than returning infinities.

One engine runs this algorithm, `_ladders`, over numpy arrays of points:
CF1 and CF2 as masked Lentz iterations in which each point leaves the
running set once it converges, the two recurrences and the Wronskian
normalization as array operations, and one seed per distinct (mu, t) of a
batch.  The 2^500 rescaling runs only on the steps where some point
crosses it (a product by 1.0 is exact, so skipping it changes no bit).
`ladder_batches` returns full ladders of several base orders and counts in
one pass (the modal sweep's two order parities), `selftest_grid` takes the
top-order entries of many (nu, t) at once and returns the selftest as
arrays.  The half-integer closed form, the engine's independent
cross-check, has one array form too (`_half_integer_batch`), as has the
(h, h') of a scaled entry (`_hankel_pairs`); the one-point evaluators are
one-element calls of these.  The test suite keeps the scalar forms,
on Python floats and complex numbers, in `tests/oracles.py`, and requires
the arrays to equal them bit for bit: every point sees the same sequence
of binary64 operations, and each of them (+ - * / sqrt hypot, frexp,
ldexp, comparisons) is correctly rounded or exact in numpy as in CPython.
Complex arithmetic, CF2's and the closed form's, is CPython's own product
and Smith quotient written out in reals (numpy's complex division rounds
differently); cos, sin and powers come from the math module, one call per
argument; CF2's |z| < bound tests take |z| as np.hypot, the libm hypot
that CPython's complex abs() calls, so they settle as abs() does.

Accuracy: better than 1e-10 relative to the modulus M_nu = |H_nu| for
nu <= 200 and t in [1e-3, 1e3] (observed ~1e-11 worst case).  Relative to
the function value itself the same bound holds except inside tiny windows
around zeros of J or Y at large t, where the ratio J'/J that the method
evaluates is intrinsically ill conditioned in binary64; complex-valued
quantities (h, the moduli, all Wronskian combinations) never lose digits
this way because |H_nu| is bounded away from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

# the validated envelope of the accuracy claim above; orders and arguments
# outside it are refused
NU_MAX = 200.0
T_RANGE = (1.0e-3, 1.0e3)

_EPS = 2.220446049250313e-16
_TINY = 1.0e-300
_XMIN = 2.0  # crossover between the Temme series and CF2 seeds
_RENORM = 2.0**500
_RENORM_INV = 2.0**-500
_EXP_STEP = 500
_MAXIT = 100_000

_EULER = 0.5772156649015328606
_ZETA2 = math.pi * math.pi / 6.0
_ZETA3 = 1.2020569031595942854


class BesselDomainError(ValueError):
    """Raised for an input outside the domain or the validated envelope."""


class BesselRangeError(OverflowError):
    """Raised when a requested plain binary64 value is not representable.

    Happens when |Y_nu(t)| overflows (small t, large nu).  The scaled
    internal representation still exists in that regime; only the conversion
    to plain floats is refused, never silently replaced by infinity.
    """


class ConvergenceError(ArithmeticError):
    """A continued fraction or series failed to converge (should not happen
    inside the supported envelope)."""


# ===================================================================
# Temme series for (Y_mu, Y_{mu+1}), |mu| <= 1/2, 0 < x < 2
# ===================================================================

def _sinhc(w: float) -> float:
    """sinh(w)/w without the removable singularity."""
    if abs(w) < 1.0e-4:
        w2 = w * w
        return 1.0 + w2 / 6.0 * (1.0 + w2 / 20.0)
    return math.sinh(w) / w


def _sincpi(mu: float) -> float:
    """sin(pi mu)/(pi mu) without the removable singularity."""
    z = math.pi * mu
    if abs(z) < 1.0e-8:
        return 1.0 - z * z / 6.0
    return math.sin(z) / z


def _temme_y(mu: float, x: float) -> Tuple[float, float]:
    """Temme-style series for (Y_mu(x), Y_{mu+1}(x)), |mu| <= 1/2, x < 2.

    Organized around the ascending series of J_{+-mu}: with l = ln(x/2),
    phi_k(s) = lnGamma(k+1+s) - lnGamma(k+1), and

        A_k = exp(mu*l - phi_k(mu))/k!,   B_k = exp(-mu*l - phi_k(-mu))/k!,

    each series term needs the combinations
        D_k/sin(pi mu) = (2/k!) E_k sinhc(W_k) (l - phidiff/(2mu)) / (pi sincpi(mu))
    with W_k = mu*(l - phidiff/(2mu)) and E_k = exp(-(phi_k(mu)+phi_k(-mu))/2),
    which stay well conditioned as mu -> 0.  For |mu| < 1e-3 the lgamma
    differences are replaced by their polygamma Taylor forms (harmonic sums),
    which avoids amplifying lgamma rounding near its zeros.

    Then  Y_mu = sum c_k g_k  and  Y_{mu+1} = -(1/x) sum c_k (2k g_k + 2B_k/(pi sincpi)),
    with c_k = (-x^2/4)^k / k! and g_k = D_k/sin(pi mu) - tan(pi mu/2) A_k.
    """
    lhalf = math.log(0.5 * x)
    spm = _sincpi(mu)
    tanhalf = math.tan(0.5 * math.pi * mu)
    small_mu = abs(mu) < 1.0e-3
    mu2 = mu * mu

    ck = 1.0
    mx2 = -0.25 * x * x
    s0 = 0.0
    s1 = 0.0
    # running factorial and harmonic-type sums for the polygamma branch
    kfact = 1.0
    harm = 0.0
    harm2 = 0.0
    harm3 = 0.0
    for k in range(_MAXIT):
        if k > 0:
            kfact *= k
            ck *= mx2 / k
            harm += 1.0 / k
            harm2 += 1.0 / (k * k)
            harm3 += 1.0 / (k * k * k)
        if small_mu:
            psi0 = -_EULER + harm
            psi1 = _ZETA2 - harm2
            psi2 = -2.0 * _ZETA3 + 2.0 * harm3
            phid2mu = psi0 + mu2 * psi2 / 6.0
            phisum2 = mu2 * psi1 / 2.0
            phik_pos = mu * psi0 + mu2 * psi1 / 2.0 + mu * mu2 * psi2 / 6.0
            phik_neg = -mu * psi0 + mu2 * psi1 / 2.0 - mu * mu2 * psi2 / 6.0
        else:
            lgk = math.lgamma(k + 1.0)
            phik_pos = math.lgamma(k + 1.0 + mu) - lgk
            phik_neg = math.lgamma(k + 1.0 - mu) - lgk
            phid2mu = (phik_pos - phik_neg) / (2.0 * mu)
            phisum2 = 0.5 * (phik_pos + phik_neg)
        ee = math.exp(-phisum2)
        lead = lhalf - phid2mu
        w2 = mu * lead
        ak = math.exp(mu * lhalf - phik_pos) / kfact
        bk = math.exp(-mu * lhalf - phik_neg) / kfact
        gk = 2.0 * ee * _sinhc(w2) * lead / (math.pi * spm * kfact) - tanhalf * ak
        del0 = ck * gk
        del1 = ck * (2.0 * k * gk + 2.0 * bk / (math.pi * spm))
        s0 += del0
        s1 += del1
        if k > 2 and abs(del0) < _EPS * abs(s0) and abs(del1) < _EPS * abs(s1):
            return s0, -s1 / x
    raise ConvergenceError(f"Temme series stalled at mu={mu}, t={x}")


def _validate(nu: float, t: float) -> None:
    if not T_RANGE[0] <= t <= T_RANGE[1]:
        raise BesselDomainError(
            f"argument t must lie in [{T_RANGE[0]:g}, {T_RANGE[1]:g}], got {t}")
    if not 0.0 <= nu <= NU_MAX:
        raise BesselDomainError(f"order nu must lie in [0, {NU_MAX:g}], got {nu}")


# ===================================================================
# the engine: the continued fractions and the ladders over arrays of points
# ===================================================================

def _c_prod(ar, ai, br, bi):
    """CPython's complex product (`_Py_c_prod`) in reals; a float operand
    is a complex with imaginary part 0.0."""
    return ar * br - ai * bi, ar * bi + ai * br


def _c_quot(ar, ai, br, bi):
    """CPython's complex quotient (Smith's method, `_Py_c_quot`) in reals."""
    with np.errstate(divide="ignore", invalid="ignore"):
        real_big = np.abs(br) >= np.abs(bi)
        ratio = np.where(real_big, bi, br) / np.where(real_big, br, bi)
        denom = np.where(real_big, br + bi * ratio, br * ratio + bi)
        qr = np.where(real_big, ar + ai * ratio, ar * ratio + ai) / denom
        qi = np.where(real_big, ai - ar * ratio, ai * ratio - ar) / denom
    return qr, qi


def _stall(kind: str, what: str, order: np.ndarray, t: np.ndarray) -> ConvergenceError:
    """The stall error, naming the first point still running."""
    return ConvergenceError(f"{kind} stalled at {what}={float(order[0])}, t={float(t[0])}")


def _cf1_batch(nu: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """J_nu'(x)/J_nu(x) by modified Lentz, plus the sign of J_nu(x) as +-1.0,
    per point.

    The fraction is  J'/J = nu/x - 1/(b1 - 1/(b2 - ...)),  b_k = 2(nu+k)/x.
    Each negative Lentz denominator flips the recorded sign; the product of
    flips is the sign of J_nu (the standard device for seeding the downward
    recurrence with the true sign).  Each point leaves the running set once
    it converges."""
    f_out = np.empty_like(x)
    sign_out = np.empty_like(x)
    idx = np.arange(x.size)
    xi = 1.0 / x
    f = nu * xi
    f[np.abs(f) < _TINY] = _TINY
    c = f.copy()
    d = np.zeros_like(x)
    neg = np.zeros(x.shape, dtype=bool)
    b = 2.0 * nu * xi
    for _ in range(_MAXIT):
        b = b + 2.0 * xi
        d = b - d
        d[np.abs(d) < _TINY] = _TINY
        c = b - 1.0 / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = c * d
        f = f * delta
        neg ^= d < 0.0
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            f_out[idx[done]] = f[done]
            sign_out[idx[done]] = np.where(neg[done], -1.0, 1.0)
            keep = ~done
            if not keep.any():
                return f_out, sign_out
            idx, xi, f, c, d, neg, b, nu, x = (
                a[keep] for a in (idx, xi, f, c, d, neg, b, nu, x))
    raise _stall("CF1", "nu", nu, x)


def _cf2_batch(mu: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(p, q) with p + iq = H_mu'(x)/H_mu(x) per point, valid for x >= 2.

    Continued fraction  p+iq = -1/(2x) + i + (i/x) * K,  where
    K = a1/(b1 + a2/(b2 + ...)), a_k = (k-1/2)^2 - mu^2, b_k = 2(x + ik),
    by modified Lentz; each point leaves the running set once it converges.
    Each complex step is CPython's own formula in real arithmetic, so the
    fraction rounds as it does on Python complex numbers: a float operand is
    a complex with imaginary part 0.0, products are `_Py_c_prod` and
    quotients `_c_quot`; a modulus is np.hypot, the libm hypot that
    CPython's complex abs calls.  (numpy's complex division multiplies by a
    reciprocal, which rounds differently.)"""
    p_out = np.empty_like(x)
    q_out = np.empty_like(x)
    idx = np.arange(x.size)
    mu2 = mu * mu
    fr = np.full_like(x, _TINY)
    fi = np.zeros_like(x)
    cr, ci = fr.copy(), fi.copy()
    dr, di = fi.copy(), fi.copy()
    for k in range(1, _MAXIT):
        a = (k - 0.5) ** 2 - mu2
        br = 2.0 * x
        bi = 2.0 * k
        dr, di = _c_prod(a, 0.0, dr, di)
        dr, di = br + dr, bi + di
        small = np.hypot(dr, di) < _TINY
        dr[small] = _TINY
        di[small] = 0.0
        qr, qi = _c_quot(a, 0.0, cr, ci)
        cr, ci = br + qr, bi + qi
        small = np.hypot(cr, ci) < _TINY
        cr[small] = _TINY
        ci[small] = 0.0
        dr, di = _c_quot(1.0, 0.0, dr, di)
        er, ei = _c_prod(cr, ci, dr, di)
        fr, fi = _c_prod(fr, fi, er, ei)
        done = np.hypot(er - 1.0, ei - 0.0) < _EPS
        if done.any():
            xd = x[done]
            zr, zi = _c_prod(0.0, 1.0 / xd, fr[done], fi[done])
            p_out[idx[done]] = -0.5 / xd + zr
            q_out[idx[done]] = 1.0 + zi
            keep = ~done
            if not keep.any():
                return p_out, q_out
            idx, mu, mu2, x, fr, fi, cr, ci, dr, di = (
                v[keep] for v in (idx, mu, mu2, x, fr, fi, cr, ci, dr, di))
    raise _stall("CF2", "mu", mu, x)


def _frexp_pair(v: np.ndarray, vp: np.ndarray, e: np.ndarray):
    """(frexp mantissa of v, vp at v's scale, e plus v's exponent), written
    over v, vp and e; a zero v keeps v, vp and e."""
    ee = np.frexp(v, out=(v, np.empty(v.shape, dtype=np.int32)))[1]
    np.ldexp(vp, -ee, out=vp)
    e += ee
    return v, vp, e


def _prefix(k: int, *arrays: np.ndarray) -> Sequence[np.ndarray]:
    """The first k entries of each array, as views."""
    return arrays if k == arrays[0].size else [a[:k] for a in arrays]


def _recur_down(nu: np.ndarray, x: np.ndarray, jm: np.ndarray, jpm: np.ndarray,
                ej: np.ndarray, running: List[int], full: bool) -> np.ndarray:
    """The J recurrence of `_ladders`, from the top orders nu down to mu0, in
    the rows of jm and jpm; ej[:i + 1] takes the running exponents at each
    rescaling, which come back."""
    wrap = -1 if full else 1  # order i sits in row i & wrap: two rows take turns
    e = np.zeros(x.size, dtype=np.int64)
    for i in range(len(running) - 2, -1, -1):
        v, xk, c, cp, prev, prevp = _prefix(running[i], nu, x, jm[(i + 1) & wrap],
                                            jpm[(i + 1) & wrap], jm[i & wrap], jpm[i & wrap])
        r = v / xk
        r *= c
        np.add(r, cp, out=prev)
        v -= 1.0
        np.divide(v, xk, out=r)
        r *= prev
        np.subtract(r, c, out=prevp)
        if np.abs(prev, out=r).max() > _RENORM:
            big = r > _RENORM
            prev[big] *= _RENORM_INV
            prevp[big] *= _RENORM_INV
            e[:big.size][big] += _EXP_STEP
            ej[:i + 1] = e
    return e


def _recur_up(mu0: np.ndarray, x: np.ndarray, ym: np.ndarray, ypm: np.ndarray,
              ey: np.ndarray, running: List[int], full: bool) -> np.ndarray:
    """The Y recurrence of `_ladders`, from the seeds in ym[0], ym[1] and
    ypm[0] up to the top orders; ey[s:] takes the running exponents at each
    rescaling, which come back."""
    wrap = -1 if full else 1  # as in `_recur_down`
    nu = mu0.copy()
    e = np.zeros(x.size, dtype=np.int64)
    for s in range(1, len(running)):
        # the points with at least s steps; row s + 1 may be row s - 1
        k = running[s - 1]
        v, xk, ylo, ya, yb, ypv = _prefix(k, nu, x, ym[(s - 1) & wrap], ym[s & wrap],
                                          ym[(s + 1) & wrap], ypm[s & wrap])
        v += 1.0
        r = 2.0 * v
        r /= xk
        r *= ya
        np.subtract(r, ylo, out=yb)
        pair = (ym[s:s + 2] if full else ym)[:, :k]
        if np.abs(pair).max() > _RENORM:
            big = (np.abs(pair) > _RENORM).any(axis=0)
            pair[:, big] *= _RENORM_INV
            e[:k][big] += _EXP_STEP
            ey[s:] = e
        np.divide(v, xk, out=r)
        r *= ya
        np.subtract(r, yb, out=ypv)
    return e


def _mu_seeds(mu0: np.ndarray, x: np.ndarray, seed_a: np.ndarray, seed_b: np.ndarray,
              f_mu: np.ndarray, j_neg: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(J_mu, Y_mu, Y_mu+1, Y_mu') at the base order mu = mu0 of each point,
    from f_mu = J_mu'/J_mu of the unnormalized J ladder (whose J_mu is
    negative where j_neg) and the seeds: Temme's (Y_mu, Y_mu+1) below
    t = 2, CF2's (p, q) from t = 2 on, normalized through the Wronskian."""
    w = 2.0 / (math.pi * x)
    ymu, ymu1, ypmu, jmu = (np.empty(x.size) for _ in range(4))
    lo = np.flatnonzero(x < _XMIN)
    if lo.size:
        yl, y1l, ml, xl = seed_a[lo], seed_b[lo], mu0[lo], x[lo]
        ymu[lo], ymu1[lo] = yl, y1l
        ypmu[lo] = (ml / xl) * yl - y1l
        jmu[lo] = w[lo] / (ypmu[lo] - f_mu[lo] * yl)
    hi = np.flatnonzero(x >= _XMIN)
    if hi.size:
        p, q, ml, xl, fl = seed_a[hi], seed_b[hi], mu0[hi], x[hi], f_mu[hi]
        gam = (p - fl) / q
        jh = np.sqrt(w[hi] / ((p - fl) * gam + q))
        jh = np.where(j_neg[hi], -jh, jh)
        yh = gam * jh
        yph = q * jh + p * yh
        jmu[hi], ymu[hi], ypmu[hi] = jh, yh, yph
        ymu1[hi] = (ml / xl) * yh - yph
    return jmu, ymu, ymu1, ypmu


def _ladders(mu0: np.ndarray, x: np.ndarray, counts: np.ndarray, full: bool):
    """Scaled (J, Y) ladders at arrays of points: the Bessel engine.

    Point p recurs from order mu0[p] + counts[p] down to mu0[p] and back up.
    With `full` every order is kept: six (P, max(counts) + 1) arrays come
    back whose row p holds the ladder of point p in its first counts[p] + 1
    columns.  Otherwise only the running state is kept and six (P,) arrays
    hold the entry of order mu0 + count.
    """
    npts = x.size
    # the seeds, in the caller's order, so that a stall names its first point
    f_top, sgn = _cf1_batch(mu0 + counts, x)
    # Temme's (Y_mu, Y_mu+1) below t = 2, CF2's (p, q) from t = 2 on, once per
    # distinct (mu, t) in order of first use, so a stall names the caller's
    # first point; merge sorts, as numpy's quicksort maps 0.3 MiB more code
    first, where = np.unique(mu0 + 1j * x, return_index=True, return_inverse=True)[1:]
    use = np.argsort(first, kind="stable")  # the keys in order of first use
    where, first = np.argsort(use, kind="stable")[where.ravel()], first[use]
    lo = x[first] < _XMIN
    seeds = np.empty((2, first.size))
    if lo.any():
        seeds[:, lo] = np.array(
            [_temme_y(m, t) for m, t in zip(mu0[first[lo]].tolist(), x[first[lo]].tolist())]).T
    if not lo.all():
        seeds[:, ~lo] = _cf2_batch(mu0[first[~lo]], x[first[~lo]])
    seed_a, seed_b = seeds[:, where]
    del first, where, lo, seeds

    # recur in order of decreasing count, so that the points taking any one
    # step are a prefix of the arrays: the J recurrences all end at order
    # mu0 (point p joins at step max(counts) - counts[p]) and the Y
    # recurrences all start there
    order = np.argsort(-counts, kind="stable")
    mu0, x, counts, f_top, sgn, seed_a, seed_b = (
        a[order] for a in (mu0, x, counts, f_top, sgn, seed_a, seed_b))
    steps = int(counts[0])
    running = np.searchsorted(-counts, -np.arange(steps + 1), side="left").tolist()

    # J (jm) and J' (jpm); a row holds the top entry until the recurrence reaches it
    jm = np.empty((steps + 1 if full else 2, npts))
    jpm = np.empty_like(jm)
    jm[:], jpm[:] = sgn, f_top * sgn
    ej = np.zeros(jm.shape, dtype=np.int64)
    e = _recur_down(mu0 + counts, x, jm, jpm, ej, running, full)

    j0, jp0 = jm[0], jpm[0]
    j0[j0 == 0.0] = _TINY  # measure-zero hit of a J zero; nudge as usual
    jmu, ymu, ymu1, ypmu = _mu_seeds(mu0, x, seed_a, seed_b, jp0 / j0, j0 < 0.0)

    # rescale the unnormalized J ladders so that order mu0 equals jmu
    sm, se = np.frexp(jmu)
    sig_m = sm / j0
    if not full:  # only the top entries are kept
        jm, jpm, ej = sgn, f_top * sgn, np.zeros(npts, dtype=np.int64)
    jm *= sig_m
    jpm *= sig_m
    ej += se - e
    jm, jpm, ej = _frexp_pair(jm, jpm, ej)
    # what the Y ladder does not read is freed before its rows are allocated
    del seed_a, seed_b, f_top, sgn, j0, jp0, jmu, sm, se, sig_m, e

    # Y (ym) and Y' (ypm), with one more row of Y for the order above the top
    ym = np.zeros((steps + 2 if full else 2, npts))
    ypm = np.zeros((steps + 1 if full else 2, npts))
    ey = np.zeros(ypm.shape, dtype=np.int64)
    ym[0], ym[1], ypm[0] = ymu, ymu1, ypmu
    e = _recur_up(mu0, x, ym, ypm, ey, running, full)

    if full:
        ym, ypm, ey = _frexp_pair(ym[:steps + 1], ypm, ey)
        ym[0][ymu == 0.0] = 0.0  # a zero Y_mu is stored as +0.0
    else:
        ym, ypm, ey = _frexp_pair(np.choose(counts & 1, ym), np.choose(counts & 1, ypm), e)
        ym[(counts == 0) & (ymu == 0.0)] = 0.0
    back = slice(None) if np.all(order[:-1] < order[1:]) else np.argsort(order, kind="stable")
    return tuple(a.T[back] for a in (jm, jpm, ej, ym, ypm, ey))


@dataclass(frozen=True)
class LadderBatch:
    """Ladders of orders mu0, mu0+1, ..., mu0+count at every argument in t.

    Row p, column i holds the scaled entry of order mu0+i at t[p]:
    J = jm*2^ej, J' = jpm*2^ej, Y = ym*2^ey and Y' = ypm*2^ey: the J/J'
    pair shares one exponent and the Y/Y' pair another, which keeps every
    bilinear combination the sign checks use exactly computable even where
    the plain values overflow."""

    mu0: float
    t: np.ndarray
    jm: np.ndarray
    jpm: np.ndarray
    ej: np.ndarray
    ym: np.ndarray
    ypm: np.ndarray
    ey: np.ndarray


def ladder_batches(bases: Sequence[Tuple[float, int]],
                   ts: Sequence[float]) -> List[LadderBatch]:
    """The ladders of orders mu0 + 0..count at every t in ts, for every
    (mu0, count) in bases: one LadderBatch per base.

    All len(bases) * len(ts) ladders run as one batch, so each recurrence
    step is paid once for all of them.  The counts may differ: every ladder
    keeps its own top order, and so its own bits.  Every base order mu0 must
    lie in [-1/2, 1/2] for each t < 2 (Temme seed) and in [-1/2, t + 1/2]
    for each t >= 2 (CF2 seed); any other is refused, naming mu0 and the
    smallest t."""
    t = np.asarray(ts, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise BesselDomainError("arguments must form a nonempty 1-d sequence")
    t_min = t.min().item()
    top, bound = (0.5, "1/2") if t_min < _XMIN else (t_min + 0.5, "t + 1/2")
    for mu0, count in bases:
        for tv in t.tolist():
            _validate(mu0 + count, tv)
        if count < 0:
            raise BesselDomainError("count must be >= 0")
        if not -0.5 <= mu0 <= top:
            raise BesselDomainError(
                f"ladder base order mu0 = {mu0} at t = {t_min} must lie in [-1/2, {bound}]")
    mu = np.repeat([float(mu0) for mu0, _ in bases], t.size)
    counts = np.repeat(np.array([count for _, count in bases], dtype=np.int64), t.size)
    arrays = _ladders(mu, np.tile(t, len(bases)), counts, True)
    return [LadderBatch(mu0, t, *(a[g * t.size:(g + 1) * t.size, :count + 1] for a in arrays))
            for g, (mu0, count) in enumerate(bases)]


def bessel_ladder(mu0: float, t: float, count: int) -> LadderBatch:
    """`ladder_batches` for one base and one argument: the orders
    mu0 + 0..count at t, as a one-row LadderBatch."""
    return ladder_batches([(mu0, count)], [t])[0]


def _scaled_entries(nu: np.ndarray, t: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The scaled entry of order nu[p] at t[p] for every p, as the six arrays
    (jm, jpm, ej, ym, ypm, ey).  Point p recurs nl orders up from the base
    nu - nl, which lies in [-1/2, 1/2] below t = 2 and at most t + 1/2
    from t = 2 on."""
    nl = np.where(t < _XMIN, (nu + 0.5).astype(np.int64),
                  np.maximum(0, (nu - t + 1.5).astype(np.int64)))
    return _ladders(nu - nl, t, nl, False)


def _wronskian_residuals(t: np.ndarray, jm, jpm, ej, ym, ypm, ey) -> np.ndarray:
    """|J Y' - Y J' - 2/(pi t)| normalized by 2/(pi t), per scaled entry."""
    w = 2.0 / (math.pi * t)
    cross = jm * ypm - jpm * ym
    # 2^(ej+ey) ~ |J*Y| / |mantissas| which is always moderate
    return np.abs(cross * np.ldexp(1.0, ej + ey) - w) / w


# ===================================================================
# scalar evaluators
# ===================================================================

def _entry(nu: float, t: float) -> Tuple[np.ndarray, ...]:
    """`_scaled_entries` at the one point (nu, t), validated: six
    one-element arrays; never overflows internally."""
    _validate(nu, t)
    return _scaled_entries(np.array([nu], dtype=float), np.array([t], dtype=float))


def _plain(m: np.ndarray, e: np.ndarray, what: str, nu, t) -> np.ndarray:
    """m * 2^e per entry (exact, as ldexp), or BesselRangeError naming the
    first entry that leaves binary64; nu and t broadcast against m."""
    with np.errstate(over="ignore"):
        v = np.ldexp(m, e)
    bad = np.flatnonzero(np.isinf(v) & np.isfinite(m))
    if bad.size:
        nu, t, e = (np.broadcast_to(a, v.shape).flat[bad[0]] for a in (nu, t, e))
        raise BesselRangeError(f"{what} at nu={nu}, t={t} exceeds binary64 range "
                               f"(magnitude ~ 2^{e}); use the scaled evaluators")
    return v


def wronskian_residual(nu: float, t: float) -> float:
    """|J_nu Y_nu' - Y_nu J_nu' - 2/(pi t)| normalized by 2/(pi t).

    Computed on the scaled representation, so it returns a value even in
    regimes where the plain evaluations would overflow (there it reports the
    engine's health rather than asserting it).
    """
    return float(_wronskian_residuals(t, *_entry(nu, t))[0])


def _libm(fn, t: np.ndarray) -> np.ndarray:
    """fn, a function of one Python float, at every entry of t: the math
    module's cos, sin and float ** round as libm does, which numpy's own
    vectorized loops need not."""
    t = np.asarray(t, dtype=float)
    return np.array([fn(v) for v in t.ravel().tolist()]).reshape(t.shape)


def _hankel_pairs(n: int, nu, t, jm, jpm, ej, ym, ypm, ey) -> Tuple[np.ndarray, ...]:
    """(Re h, Im h, Re h', Im h') of dimension n from scaled entries of
    order nu = m + n/2 - 1, with nu and t broadcast against the entries."""
    pp = 0.5 * n - 1.0
    tp_m, tp_e = np.frexp(_libm(lambda v: v ** (-pp), t))
    return (_plain(jm * tp_m, ej + tp_e, "Re h", nu, t),
            _plain(ym * tp_m, ey + tp_e, "Im h", nu, t),
            _plain((jpm - pp * jm / t) * tp_m, ej + tp_e, "Re h'", nu, t),
            _plain((ypm - pp * ym / t) * tp_m, ey + tp_e, "Im h'", nu, t))


def spherical_hankel(m: int, n: int, t: float) -> Tuple[complex, complex]:
    """(h_m(n, t), h_m'(n, t)), h_m(n, t) = H_nu(t)/t^(n/2-1), nu = m + n/2 - 1.

    For odd n these agree with the finite trigonometric closed forms (see
    :func:`spherical_hankel_closed`) to ~1e-12; the pair is kept as two
    independent routes on purpose.
    """
    if m < 0:
        raise BesselDomainError(f"mode m must be >= 0, got {m}")
    if n < 2:
        raise BesselDomainError(f"dimension n must be >= 2, got {n}")
    nu = m + 0.5 * n - 1.0
    hr, hi, hpr, hpi = _hankel_pairs(n, nu, t, *_entry(nu, t))
    return complex(hr[0], hi[0]), complex(hpr[0], hpi[0])


# ===================================================================
# closed forms for half-integer order (odd dimensions)
# ===================================================================

def _minus_i_power(k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(-1j) ** k per entry of k, as CPython's complex power gives it (its
    signed zeros included): one Python power per distinct k."""
    keys, where = np.unique(k, return_inverse=True)
    powers = [(-1j) ** key for key in keys.tolist()]
    table = np.array([[z.real for z in powers], [z.imag for z in powers]])
    return table[0, where.reshape(k.shape)], table[1, where.reshape(k.shape)]


def _poly_sum(mm: np.ndarray, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The closed form's sum_{s<mm} (i/(2t))^s (mm+s)!/(s!(mm-s)!) per point
    (mm, an int array, and t of one shape), as the scalar loop
    `term *= 1j * (mm + s + 1) * (mm - s) / (2(s + 1)t); acc += term` rounds
    it.  The product (0, 1) * (mm + s + 1) * (mm - s) is (0, p) and its
    Smith quotient by the real d = 2(s + 1)t > 0 is (0, p/d), so a step is
    one `_c_prod` by (0, p/d).  The points run in order of decreasing mm,
    so that those still adding terms are a prefix."""
    shape, mm, t = mm.shape, mm.ravel(), t.ravel()
    order = np.argsort(-mm, kind="stable")
    mm, t = mm[order], t[order]
    live = np.searchsorted(-mm, -np.arange(mm.max(initial=0)), side="left").tolist()
    acc_r, acc_i = np.ones(mm.size), np.zeros(mm.size)
    term_r, term_i = acc_r.copy(), acc_i.copy()
    for s, k in enumerate(live):
        m, tr, ti = mm[:k], term_r[:k], term_i[:k]
        q = (m + (s + 1)) * 1.0 * (m - s) / ((s + 1) * 2.0 * t[:k])
        tr[:], ti[:] = _c_prod(tr, ti, 0.0, q)
        acc_r[:k] += tr
        acc_i[:k] += ti
    back = np.empty_like(order)
    back[order] = np.arange(order.size)
    return acc_r[back].reshape(shape), acc_i[back].reshape(shape)


def _half_integer_batch(big_m: np.ndarray, t: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(Re H, Im H, Re H', Im H') of order M + 1/2 at t, the int array
    big_m >= 0 and t broadcast, from the finite closed form

        H_{M+1/2}(t) = sqrt(2/(pi t)) (-i)^(M+1) e^{it}
                       sum_{s=0}^{M} (i/(2t))^s (M+s)!/(s!(M-s)!),

    H' = H_{M-1/2} - ((M+1/2)/t) H_{M+1/2}, the sum at M = -1 giving exactly
    H_{-1/2} = sqrt(2/(pi t)) e^{it}; independent of the engine.  Each
    operation is the scalar formula's, in CPython's order; e^{it} and the
    prefactor use t's own entries."""
    sq = np.sqrt(2.0 / (math.pi * t))
    pref = _c_prod(sq, 0.0, _libm(math.cos, t), _libm(math.sin, t))
    shape = np.broadcast_shapes(big_m.shape, t.shape)
    sum_m, sum_below = (_poly_sum(np.broadcast_to(mm, shape), np.broadcast_to(t, shape))
                        for mm in (big_m, big_m - 1))
    h = _c_prod(*_c_prod(*pref, *_minus_i_power(big_m + 1)), *sum_m)
    below = _c_prod(*_c_prod(*pref, *_minus_i_power(big_m)), *sum_below)
    gh = _c_prod((big_m + 0.5) / t, 0.0, *h)
    return h[0], h[1], below[0] - gh[0], below[1] - gh[1]


def _spherical_closed_batch(m: np.ndarray, n: int, t: np.ndarray) -> Tuple[np.ndarray, ...]:
    """`spherical_hankel_closed` over arrays: (Re h, Im h, Re h', Im h')
    for odd n, m and t broadcast.  Dividing (x, y) by the real t is
    ((x + y*0)/t, (y - x*0)/t) in Smith's quotient."""
    pp = 0.5 * n - 1.0
    hr, hi, hpr, hpi = _half_integer_batch(m + (n - 3) // 2, t)
    tp = _libm(lambda v: v ** (-pp), t)
    xr, xi = _c_prod(pp, 0.0, hr, hi)
    dr, di = hpr - (xr + xi * 0.0) / t, hpi - (xi - xr * 0.0) / t
    return (*_c_prod(hr, hi, tp, 0.0), *_c_prod(dr, di, tp, 0.0))


def spherical_hankel_closed(m: int, n: int, t: float) -> Tuple[complex, complex]:
    """(h_m(n,t), h_m'(n,t)) for odd n from the half-integer closed form."""
    if n < 2 or n % 2 == 0:
        raise BesselDomainError(f"closed form requires odd dimension n >= 3, got {n}")
    big_m = m + (n - 3) // 2
    if big_m < 0:
        raise BesselDomainError(f"closed form needs M >= 0, got {big_m}")
    _validate(big_m + 0.5, t)
    hr, hi, hpr, hpi = _spherical_closed_batch(np.array([m]), n, np.array([t], dtype=float))
    return complex(hr[0], hi[0]), complex(hpr[0], hpi[0])


# ===================================================================
# self-validation grid
# ===================================================================

def validation_grid() -> Tuple[List[float], List[float]]:
    """The standard residual grid: nu in {0, 0.5, ..., 100}, 400 log-spaced
    t values in [1e-2, 200]."""
    nus = [0.5 * i for i in range(201)]
    lo, hi = math.log10(1.0e-2), math.log10(200.0)
    ts = [10.0 ** (lo + (hi - lo) * i / 399.0) for i in range(400)]
    return nus, ts


# arguments per batch of the residual grid: 20 x 201 orders = 4,020 points.
# Batching by argument runs each seed once per selftest, and the rows do not
# depend on the batch size.  A batch pays a fixed cost in numpy calls (each
# CF1 and CF2 step, each recurrence step) on top of its points.  Measured in
# a fresh interpreter, `specfun-selftest` then the 5-layer flood fill (2-core
# Xeon, Python 3.11.7, numpy 2.4.6, five runs each, peak RSS as VmHWM): 10
# arguments per batch take 0.23-0.27 s at 33.6-33.7 MiB, 20 take 0.17-0.18 s
# at 33.6 MiB, 25 take 0.16-0.19 s at 33.9-34.1 MiB and 40 take 0.14-0.16 s
# at 34.7-34.9 MiB.
_SELFTEST_BATCH_TS = 20
# the selftest's bounds on the Wronskian residual and the half-integer
# closed-form error
_SELFTEST_WRONSKIAN_TOL = 1.0e-10
_SELFTEST_HALFINT_TOL = 1.0e-10


@dataclass(frozen=True)
class SelftestGrid:
    """The selftest over the grid of `validation_grid`, as arrays.

    residuals[i, j] is the Wronskian residual at (nus[i], ts[j]).  The
    closed-form box is the half-integer orders nus[half_rows] (nu - 1/2 =
    0..20) at the arguments ts[box] (t in [0.1, 100]); halfint[r, j] is
    the larger relative error of h_m(3, ts[j]) and h_m'(3, ts[j]) against
    the closed form at order nus[half_rows[r]], NaN outside the box.
    ok[i, j] is the residual within its tolerance and, in the box, the
    error within its own."""

    nus: List[float]
    ts: List[float]
    residuals: np.ndarray
    half_rows: np.ndarray
    box: np.ndarray
    halfint: np.ndarray
    ok: np.ndarray


def _halfint_errors(h: Sequence[np.ndarray], ref: Sequence[np.ndarray]) -> np.ndarray:
    """max(|h - ref_h|/|ref_h|, |h' - ref_h'|/|ref_h'|) per point, from the
    real and imaginary parts of both pairs, with the hypot of CPython's
    complex abs and Python's max(a, b) (b only where b > a)."""
    err_h, err_hp = (np.hypot(h[k] - ref[k], h[k + 1] - ref[k + 1])
                     / np.hypot(ref[k], ref[k + 1]) for k in (0, 2))
    return np.where(err_hp > err_h, err_hp, err_h)


def selftest_grid() -> SelftestGrid:
    """Every grid point evaluated once, a batch of arguments (every order at
    each) at a time; the h and h' of the box come from the same entries and
    meet the closed form, which runs first in one array call."""
    nus, ts = validation_grid()
    nu_arr, t_arr = np.array(nus), np.array(ts)
    half_rows = np.flatnonzero(((nu_arr * 2.0) % 2.0 == 1.0) & (nu_arr - 0.5 <= 20.0))
    box = (0.1 <= t_arr) & (t_arr <= 100.0)
    nu_h = nu_arr[half_rows, None]
    ref = _spherical_closed_batch((nu_h - 0.5).astype(np.int64), 3, t_arr[box])
    ref_col = np.cumsum(box) - 1  # the column of ref of each argument in the box
    residuals = np.empty((nu_arr.size, t_arr.size))
    halfint = np.full((half_rows.size, t_arr.size), np.nan)
    for start in range(0, t_arr.size, _SELFTEST_BATCH_TS):
        tb = t_arr[start:start + _SELFTEST_BATCH_TS]
        t_b = np.repeat(tb, nu_arr.size)
        entries = [a.reshape(tb.size, nu_arr.size)
                   for a in _scaled_entries(np.tile(nu_arr, tb.size), t_b)]
        residuals[:, start:start + tb.size] = _wronskian_residuals(tb[:, None], *entries).T
        js = np.flatnonzero(box[start:start + tb.size])
        if js.size:
            h = _hankel_pairs(3, nu_h, tb[js], *(a[js][:, half_rows].T for a in entries))
            halfint[:, start + js] = _halfint_errors(h, [r[:, ref_col[start + js]] for r in ref])
    ok = residuals <= _SELFTEST_WRONSKIAN_TOL
    ok[np.ix_(half_rows, box)] &= halfint[:, box] <= _SELFTEST_HALFINT_TOL
    return SelftestGrid(nus, ts, residuals, half_rows, box, halfint, ok)

