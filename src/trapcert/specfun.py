"""Self-contained Bessel/Hankel engine for real order nu >= 0 and t > 0.

Provides J_nu, Y_nu, their derivatives, the first-kind Hankel combination
H_nu = J_nu + i Y_nu, the moduli M_nu = |H_nu| and N_nu = |H_nu'|, and the
associated spherical Hankel functions

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
remain perfectly representable.  Public evaluators convert to plain floats
and raise :class:`BesselRangeError` rather than returning infinities.

Two routes run this algorithm.  The scalar route (`_ladder`, behind every
public scalar evaluator) is the audited reference.  The batched route runs
the same steps over numpy arrays of points: CF1 and CF2 as masked Lentz
iterations in which each point leaves the running set once it converges,
the two recurrences and the Wronskian normalization as array operations,
and one Temme series per distinct (mu, t) of a batch.  The 2^500 rescaling
runs only on the steps where some point crosses it (a product by 1.0 is
exact, so skipping it changes no bit).  `ladder_batches` returns full
ladders of several base orders and counts in one pass (the modal sweep's
two order parities), and `selftest_rows` takes the top-order entries of
many (nu, t) at once.  The batched route equals the scalar one bit for
bit: every point sees the same sequence of binary64 operations, and each of
them (+ - * / sqrt, frexp, ldexp, comparisons) is correctly rounded or
exact in numpy as in CPython.  The only complex arithmetic, CF2's, is
CPython's own product and Smith quotient written out in reals (numpy's
complex division rounds differently), and its |z| < bound tests defer to
CPython's abs() for the rare points too close to the bound to settle from
z's squared modulus.

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
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

# the validated envelope of the accuracy claim above
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
    """Raised for arguments outside the mathematical domain (t <= 0, nu < 0)."""


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
# public result types
# ===================================================================

@dataclass(frozen=True)
class CylEval:
    """Point evaluation of the cylindrical pair (J_nu, Y_nu) and derivatives.

    Satisfies the Wronskian identity
    |j*yp - y*jp - 2/(pi t)| <= 1e-10 * max(1, 2/(pi t))
    everywhere in the validated envelope; all four values are finite.
    """

    nu: float
    t: float
    j: float
    y: float
    jp: float
    yp: float


@dataclass(frozen=True)
class SphEval:
    """Spherical Hankel evaluation h_m(n, t) with modulus data.

    h, hp are h_m and its t-derivative; modM and modN are the cylindrical
    moduli M_nu = |H_nu(t)| and N_nu = |H_nu'(t)| at nu = m + n/2 - 1,
    so that |h| = modM / t^(n/2-1).
    """

    m: int
    n: int
    t: float
    h: complex
    hp: complex
    modM: float
    modN: float


@dataclass(frozen=True)
class ScaledCylEval:
    """Cylindrical evaluation in scaled form: J = jm*2^ej, J' = jpm*2^ej,
    Y = ym*2^ey, Y' = ypm*2^ey.  The J/J' pair shares one exponent and the
    Y/Y' pair another, which keeps every bilinear combination used by the
    sign checks exactly computable even when the plain values overflow."""

    nu: float
    t: float
    jm: float
    jpm: float
    ej: int
    ym: float
    ypm: float
    ey: int

    def wronskian_residual(self) -> float:
        """|J Y' - Y J' - 2/(pi t)| normalized by 2/(pi t)."""
        w = 2.0 / (math.pi * self.t)
        cross = self.jm * self.ypm - self.jpm * self.ym
        # 2^(ej+ey) ~ |J*Y| / |mantissas| which is always moderate
        return abs(cross * math.ldexp(1.0, self.ej + self.ey) - w) / w


@dataclass(frozen=True)
class Ladder:
    """Scaled evaluations for the full run of orders mu0, mu0+1, ..., mu0+count.

    Entry i holds J_{mu0+i} = jm[i]*2^ej[i] (J' = jpm[i]*2^ej[i]) and the
    Y analogues.  The modal sweep, which needs every order at once, takes
    the same ladders for many arguments from `ladder_batches`.
    """

    mu0: float
    t: float
    jm: List[float]
    jpm: List[float]
    ej: List[int]
    ym: List[float]
    ypm: List[float]
    ey: List[int]

    def entry(self, i: int) -> ScaledCylEval:
        return ScaledCylEval(
            nu=self.mu0 + i, t=self.t,
            jm=self.jm[i], jpm=self.jpm[i], ej=self.ej[i],
            ym=self.ym[i], ypm=self.ypm[i], ey=self.ey[i],
        )


# ===================================================================
# continued fractions
# ===================================================================

def _cf1(nu: float, x: float) -> Tuple[float, int]:
    """J_nu'(x)/J_nu(x) by modified Lentz, plus the sign of J_nu(x).

    The fraction is  J'/J = nu/x - 1/(b1 - 1/(b2 - ...)),  b_k = 2(nu+k)/x.
    Each negative Lentz denominator flips the recorded sign; the product of
    flips is the sign of J_nu (the standard device for seeding the downward
    recurrence with the true sign).
    """
    xi = 1.0 / x
    f = nu * xi
    if abs(f) < _TINY:
        f = _TINY
    c = f
    d = 0.0
    sign = 1
    b = 2.0 * nu * xi
    for _ in range(_MAXIT):
        b += 2.0 * xi
        d = b - d
        if abs(d) < _TINY:
            d = _TINY
        c = b - 1.0 / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if d < 0.0:
            sign = -sign
        if abs(delta - 1.0) < _EPS:
            return f, sign
    raise ConvergenceError(f"CF1 stalled at nu={nu}, t={x}")


def _cf2(mu: float, x: float) -> Tuple[float, float]:
    """(p, q) with p + iq = H_mu'(x)/H_mu(x), valid for x >= 2.

    Continued fraction  p+iq = -1/(2x) + i + (i/x) * K,  where
    K = a1/(b1 + a2/(b2 + ...)), a_k = (k-1/2)^2 - mu^2, b_k = 2(x + ik).
    """
    f = complex(_TINY, 0.0)
    c = f
    d = 0j
    mu2 = mu * mu
    for k in range(1, _MAXIT):
        a = (k - 0.5) ** 2 - mu2
        b = complex(2.0 * x, 2.0 * k)
        d = b + a * d
        if abs(d) < _TINY:
            d = complex(_TINY, 0.0)
        c = b + a / c
        if abs(c) < _TINY:
            c = complex(_TINY, 0.0)
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _EPS:
            ratio = complex(-0.5 / x, 1.0) + complex(0.0, 1.0 / x) * f
            return ratio.real, ratio.imag
    raise ConvergenceError(f"CF2 stalled at mu={mu}, t={x}")


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


# ===================================================================
# the ladder: all orders mu0 .. mu0+count at one argument
# ===================================================================

def _ladder(mu0: float, x: float, count: int) -> Ladder:
    top = mu0 + count
    f_top, sgn = _cf1(top, x)

    jm = [0.0] * (count + 1)
    jpm = [0.0] * (count + 1)
    ej = [0] * (count + 1)
    cur = float(sgn)
    curp = f_top * sgn
    e = 0
    jm[count] = cur
    jpm[count] = curp
    nu = top
    for i in range(count - 1, -1, -1):
        prev = (nu / x) * cur + curp
        prevp = ((nu - 1.0) / x) * prev - cur
        nu -= 1.0
        cur, curp = prev, prevp
        if abs(cur) > _RENORM:
            cur *= _RENORM_INV
            curp *= _RENORM_INV
            e += _EXP_STEP
        jm[i] = cur
        jpm[i] = curp
        ej[i] = e

    if jm[0] == 0.0:
        jm[0] = _TINY  # measure-zero hit of a J zero; nudge as usual
    f_mu = jpm[0] / jm[0]
    w = 2.0 / (math.pi * x)

    if x < _XMIN:
        ymu, ymu1 = _temme_y(mu0, x)
        ypmu = (mu0 / x) * ymu - ymu1
        jmu = w / (ypmu - f_mu * ymu)
    else:
        p, q = _cf2(mu0, x)
        gam = (p - f_mu) / q
        jmu = math.sqrt(w / ((p - f_mu) * gam + q))
        if jm[0] < 0.0:
            jmu = -jmu
        ymu = gam * jmu
        ypmu = q * jmu + p * ymu
        ymu1 = (mu0 / x) * ymu - ypmu

    # rescale the unnormalized J ladder so that order mu0 equals jmu
    sm, se = math.frexp(jmu)
    sig_m = sm / jm[0]
    sig_e = se - ej[0]
    for i in range(count + 1):
        v = jm[i] * sig_m
        vp = jpm[i] * sig_m
        eei = ej[i] + sig_e
        if v != 0.0:
            mm, ee = math.frexp(v)
            jm[i] = mm
            jpm[i] = math.ldexp(vp, -ee)
            ej[i] = eei + ee
        else:
            jm[i] = v
            jpm[i] = vp
            ej[i] = eei

    ym = [0.0] * (count + 1)
    ypm = [0.0] * (count + 1)
    ey = [0] * (count + 1)
    ya, yb = ymu, ymu1
    e = 0
    mm, ee = math.frexp(ya) if ya != 0.0 else (0.0, 0)
    ym[0] = mm
    ypm[0] = math.ldexp(ypmu, -ee) if ya != 0.0 else ypmu
    ey[0] = ee
    nu = mu0
    for i in range(1, count + 1):
        ya, yb = yb, (2.0 * (nu + 1.0) / x) * yb - ya
        nu += 1.0
        if abs(ya) > _RENORM or abs(yb) > _RENORM:
            ya *= _RENORM_INV
            yb *= _RENORM_INV
            e += _EXP_STEP
        ypv = (nu / x) * ya - yb
        if ya != 0.0:
            mm, ee = math.frexp(ya)
            ym[i] = mm
            ypm[i] = math.ldexp(ypv, -ee)
            ey[i] = e + ee
        else:
            ym[i] = ya
            ypm[i] = ypv
            ey[i] = e
    return Ladder(mu0=mu0, t=x, jm=jm, jpm=jpm, ej=ej, ym=ym, ypm=ypm, ey=ey)


def bessel_ladder(mu0: float, t: float, count: int) -> Ladder:
    """Scaled (J, Y) evaluations for all orders mu0 + 0..count at argument t.

    For t < 2 the base order must satisfy |mu0| <= 1/2 (Temme seed); for
    t >= 2 any mu0 in [-1/2, t + 1/2] is accepted (CF2 seed).
    """
    _validate(mu0 + count, t)
    if count < 0:
        raise BesselDomainError("count must be >= 0")
    if t < _XMIN and not -0.5 <= mu0 <= 0.5:
        raise BesselDomainError("ladder base order must lie in [-1/2, 1/2] for t < 2")
    return _ladder(mu0, t, count)


def _validate(nu: float, t: float) -> None:
    if not (math.isfinite(t) and t > 0.0):
        raise BesselDomainError(f"argument t must be finite and positive, got {t}")
    if not (math.isfinite(nu) and nu >= 0.0):
        raise BesselDomainError(f"order nu must be finite and >= 0, got {nu}")


# ===================================================================
# the batched route: the scalar operations above over arrays of points
# ===================================================================

def _abs_below(re: np.ndarray, im: np.ndarray, bound: float) -> np.ndarray:
    """abs(complex(re, im)) < bound, decided as CPython decides it.

    CPython's complex abs is libm hypot (error below one ulp).  The sum of
    the scaled squares settles every point whose modulus lies farther than
    a relative 1e-12 from the bound; the rare rest go through abs() itself.
    """
    with np.errstate(over="ignore", under="ignore"):
        u = re / bound
        v = im / bound
        s = u * u + v * v
    out = s < 1.0 - 1.0e-12
    for i in np.flatnonzero(~out & (s <= 1.0 + 1.0e-12)):
        out[i] = abs(complex(re[i], im[i])) < bound
    return out


def _c_quot(ar, ai, br, bi):
    """CPython's complex quotient (Smith's method, `_Py_c_quot`) in reals."""
    with np.errstate(divide="ignore", invalid="ignore"):
        real_big = np.abs(br) >= np.abs(bi)
        ratio = np.where(real_big, bi / br, br / bi)
        denom = np.where(real_big, br + bi * ratio, br * ratio + bi)
        qr = np.where(real_big, ar + ai * ratio, ar * ratio + ai) / denom
        qi = np.where(real_big, ai - ar * ratio, ai * ratio - ar) / denom
    return qr, qi


def _stall(kind: str, what: str, order: np.ndarray, t: np.ndarray) -> ConvergenceError:
    """The scalar route's error, for the first point still running."""
    return ConvergenceError(f"{kind} stalled at {what}={float(order[0])}, t={float(t[0])}")


def _cf1_batch(nu: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`_cf1` over arrays of points: (J'/J, sign of J as +-1.0) per point.

    Masked modified Lentz: every point runs the scalar iteration and leaves
    the running set once it converges."""
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
    """`_cf2` over arrays of points, bit for bit.

    The scalar fraction runs on Python complex numbers; here each complex
    step is CPython's own formula in real arithmetic: a float operand is a
    complex with imaginary part 0.0, products are `_Py_c_prod` and
    quotients `_c_quot`.  (numpy's complex division multiplies by a
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
        dr, di = br + (a * dr - 0.0 * di), bi + (a * di + 0.0 * dr)
        small = _abs_below(dr, di, _TINY)
        dr[small] = _TINY
        di[small] = 0.0
        qr, qi = _c_quot(a, 0.0, cr, ci)
        cr, ci = br + qr, bi + qi
        small = _abs_below(cr, ci, _TINY)
        cr[small] = _TINY
        ci[small] = 0.0
        dr, di = _c_quot(1.0, 0.0, dr, di)
        er = cr * dr - ci * di
        ei = cr * di + ci * dr
        fr, fi = fr * er - fi * ei, fr * ei + fi * er
        done = _abs_below(er - 1.0, ei - 0.0, _EPS)
        if done.any():
            xd, frd, fid = x[done], fr[done], fi[done]
            xinv = 1.0 / xd
            p_out[idx[done]] = -0.5 / xd + (0.0 * frd - xinv * fid)
            q_out[idx[done]] = 1.0 + (0.0 * fid + xinv * frd)
            keep = ~done
            if not keep.any():
                return p_out, q_out
            idx, mu, mu2, x, fr, fi, cr, ci, dr, di = (
                v[keep] for v in (idx, mu, mu2, x, fr, fi, cr, ci, dr, di))
    raise _stall("CF2", "mu", mu, x)


def _frexp_pair(v: np.ndarray, vp: np.ndarray, e: np.ndarray):
    """(frexp mantissa of v, vp at v's scale, e plus v's exponent), written
    over v, vp and e; a zero v keeps v, vp and e, as the scalar route does."""
    ee = np.frexp(v, out=(v, np.empty(v.shape, dtype=np.int32)))[1]
    np.ldexp(vp, -ee, out=vp)
    e += ee
    return v, vp, e


def _prefix(k: int, *arrays: np.ndarray) -> Sequence[np.ndarray]:
    """The first k entries of each array, as views."""
    return arrays if k == arrays[0].size else [a[:k] for a in arrays]


def _ladders(mu0: np.ndarray, x: np.ndarray, counts: np.ndarray, full: bool):
    """`_ladder` over arrays of points, bit for bit.

    Point p recurs from order mu0[p] + counts[p] down to mu0[p] and back up.
    With `full` every order is kept: six (P, max(counts) + 1) arrays come
    back whose row p holds the ladder of point p in its first counts[p] + 1
    columns.  Otherwise only the running state is kept and six (P,) arrays
    hold the entry of order mu0 + count.
    """
    npts = x.size
    # the seeds, in the caller's order, so that a stall names its first point
    f_top, sgn = _cf1_batch(mu0 + counts, x)
    # Temme's (Y_mu, Y_mu+1) below t = 2, CF2's (p, q) from t = 2 on
    seed_a = np.empty(npts)
    seed_b = np.empty(npts)
    lo = np.flatnonzero(x < _XMIN)
    temme = {}  # one series per distinct (mu, t)
    for i, m, t in zip(lo.tolist(), mu0[lo].tolist(), x[lo].tolist()):
        if (m, t) not in temme:
            temme[m, t] = _temme_y(m, t)
        seed_a[i], seed_b[i] = temme[m, t]
    hi = np.flatnonzero(x >= _XMIN)
    if hi.size:
        seed_a[hi], seed_b[hi] = _cf2_batch(mu0[hi], x[hi])

    # recur in order of decreasing count, so that the points taking any one
    # step are a prefix of the arrays: the J recurrences all end at order
    # mu0 (point p joins at step max(counts) - counts[p]) and the Y
    # recurrences all start there
    order = np.argsort(-counts, kind="stable")
    mu0, x, counts, f_top, sgn, seed_a, seed_b = (
        a[order] for a in (mu0, x, counts, f_top, sgn, seed_a, seed_b))
    steps = int(counts[0])
    running = np.searchsorted(-counts, -np.arange(steps + 1), side="left").tolist()
    wrap = -1 if full else 1  # order i sits in row i & wrap: two rows take turns

    # J (jm) and J' (jpm); a row holds the top entry until the recurrence reaches it
    jm = np.empty((steps + 1 if full else 2, npts))
    jpm = np.empty_like(jm)
    jm[:], jpm[:] = sgn, f_top * sgn
    ej = np.zeros(jm.shape, dtype=np.int64)
    nu = mu0 + counts
    e = np.zeros(npts, dtype=np.int64)
    for i in range(steps - 1, -1, -1):
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

    j0, jp0 = jm[0], jpm[0]
    j0[j0 == 0.0] = _TINY  # measure-zero hit of a J zero; nudge as usual
    f_mu = jp0 / j0
    w = 2.0 / (math.pi * x)
    ymu, ymu1, ypmu, jmu = (np.empty(npts) for _ in range(4))
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
        jh = np.where(j0[hi] < 0.0, -jh, jh)
        yh = gam * jh
        yph = q * jh + p * yh
        jmu[hi], ymu[hi], ypmu[hi] = jh, yh, yph
        ymu1[hi] = (ml / xl) * yh - yph

    # rescale the unnormalized J ladders so that order mu0 equals jmu
    sm, se = np.frexp(jmu)
    sig_m = sm / j0
    if not full:  # only the top entries are kept
        jm, jpm, ej = sgn, f_top * sgn, np.zeros(npts, dtype=np.int64)
    jm *= sig_m
    jpm *= sig_m
    ej += se - e
    jm, jpm, ej = _frexp_pair(jm, jpm, ej)

    # Y (ym) and Y' (ypm), with one more row of Y for the order above the top
    ym = np.zeros((steps + 2 if full else 2, npts))
    ypm = np.zeros((steps + 1 if full else 2, npts))
    ey = np.zeros(ypm.shape, dtype=np.int64)
    ym[0], ym[1], ypm[0] = ymu, ymu1, ypmu
    nu = mu0.copy()
    e = np.zeros(npts, dtype=np.int64)
    for s in range(1, steps + 1):
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

    if full:
        ym, ypm, ey = _frexp_pair(ym[:steps + 1], ypm, ey)
        ym[0][ymu == 0.0] = 0.0  # the scalar route stores +0.0 for a zero Y_mu
    else:
        ym, ypm, ey = _frexp_pair(np.choose(counts & 1, ym), np.choose(counts & 1, ypm), e)
        ym[(counts == 0) & (ymu == 0.0)] = 0.0
    back = slice(None) if np.all(order[:-1] < order[1:]) else np.argsort(order, kind="stable")
    return tuple(a.T[back] for a in (jm, jpm, ej, ym, ypm, ey))


@dataclass(frozen=True)
class LadderBatch:
    """Ladders of orders mu0, mu0+1, ..., mu0+count at every argument in t.

    Row p, column i holds the scaled entry of order mu0+i at t[p], exactly
    as `bessel_ladder(mu0, t[p], count).entry(i)` holds it."""

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
    """`bessel_ladder(mu0, t, count)` for every t in ts and (mu0, count) in
    bases, one LadderBatch per base, equal to the scalar ladders bit for bit.

    All len(bases) * len(ts) ladders run as one batch, so each recurrence
    step is paid once for all of them.  The counts may differ: every ladder
    keeps its own top order, and so its own bits.  The scalar domain rules
    apply to every ladder."""
    t = np.asarray(ts, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise BesselDomainError("arguments must form a nonempty 1-d sequence")
    for mu0, count in bases:
        for tv in t.tolist():
            _validate(mu0 + count, tv)
        if count < 0:
            raise BesselDomainError("count must be >= 0")
        if np.any(t < _XMIN) and not -0.5 <= mu0 <= 0.5:
            raise BesselDomainError("ladder base order must lie in [-1/2, 1/2] for t < 2")
    mu = np.repeat([float(mu0) for mu0, _ in bases], t.size)
    counts = np.repeat(np.array([count for _, count in bases], dtype=np.int64), t.size)
    arrays = _ladders(mu, np.tile(t, len(bases)), counts, True)
    return [LadderBatch(mu0, t, *(a[g * t.size:(g + 1) * t.size, :count + 1] for a in arrays))
            for g, (mu0, count) in enumerate(bases)]


def _scaled_entries(nu: np.ndarray, t: np.ndarray) -> Tuple[np.ndarray, ...]:
    """`cyl_bessel_scaled(nu[p], t[p])` for every p, bit for bit, as the six
    arrays (jm, jpm, ej, ym, ypm, ey): the same ladder split per point."""
    nl = np.where(t < _XMIN, (nu + 0.5).astype(np.int64),
                  np.maximum(0, (nu - t + 1.5).astype(np.int64)))
    return _ladders(nu - nl, t, nl, False)


def _wronskian_residuals(t: np.ndarray, jm, jpm, ej, ym, ypm, ey) -> np.ndarray:
    """`ScaledCylEval.wronskian_residual` of every entry, bit for bit."""
    w = 2.0 / (math.pi * t)
    cross = jm * ypm - jpm * ym
    return np.abs(cross * np.ldexp(1.0, ej + ey) - w) / w


# ===================================================================
# scalar evaluators
# ===================================================================

def cyl_bessel_scaled(nu: float, t: float) -> ScaledCylEval:
    """Scaled (J_nu, Y_nu, J_nu', Y_nu') at t; never overflows internally."""
    _validate(nu, t)
    if t < _XMIN:
        nl = int(nu + 0.5)
    else:
        nl = max(0, int(nu - t + 1.5))
    mu = nu - nl
    lad = _ladder(mu, t, nl)
    return lad.entry(nl)


def _to_plain(m: float, e: int, what: str, nu: float, t: float) -> float:
    try:
        return math.ldexp(m, e)
    except OverflowError as exc:
        raise BesselRangeError(
            f"{what} at nu={nu}, t={t} exceeds binary64 range "
            f"(magnitude ~ 2^{e}); use the scaled evaluators"
        ) from exc


def cyl_bessel(nu: float, t: float) -> CylEval:
    """Plain binary64 evaluation of J_nu(t), Y_nu(t) and derivatives.

    Raises :class:`BesselRangeError` instead of returning infinities when
    Y_nu leaves the representable range (which for nu <= 200 also covers the
    regime where J would underflow: ln J ~ -ln Y - ln nu).
    """
    s = cyl_bessel_scaled(nu, t)
    return CylEval(
        nu=nu, t=t,
        j=_to_plain(s.jm, s.ej, "J", nu, t),
        y=_to_plain(s.ym, s.ey, "Y", nu, t),
        jp=_to_plain(s.jpm, s.ej, "J'", nu, t),
        yp=_to_plain(s.ypm, s.ey, "Y'", nu, t),
    )


def wronskian_residual(nu: float, t: float) -> float:
    """|J_nu Y_nu' - Y_nu J_nu' - 2/(pi t)| normalized by 2/(pi t).

    Computed on the scaled representation, so it returns a value even in
    regimes where the plain evaluations would overflow (there it reports the
    engine's health rather than asserting it).
    """
    return cyl_bessel_scaled(nu, t).wronskian_residual()


def spherical_order(m: int, n: int) -> float:
    """The cylindrical order nu = m + n/2 - 1 behind h_m(n, .)."""
    if m < 0:
        raise BesselDomainError(f"mode m must be >= 0, got {m}")
    if n < 2:
        raise BesselDomainError(f"dimension n must be >= 2, got {n}")
    return m + 0.5 * n - 1.0


def _hankel_pair(s: ScaledCylEval, n: int) -> Tuple[complex, complex]:
    """(h, h') of dimension n from the scaled entry of order m + n/2 - 1."""
    nu, t = s.nu, s.t
    pp = 0.5 * n - 1.0
    tp_m, tp_e = math.frexp(t ** (-pp))
    hr = _to_plain(s.jm * tp_m, s.ej + tp_e, "Re h", nu, t)
    hi = _to_plain(s.ym * tp_m, s.ey + tp_e, "Im h", nu, t)
    hpr = _to_plain((s.jpm - pp * s.jm / t) * tp_m, s.ej + tp_e, "Re h'", nu, t)
    hpi = _to_plain((s.ypm - pp * s.ym / t) * tp_m, s.ey + tp_e, "Im h'", nu, t)
    return complex(hr, hi), complex(hpr, hpi)


def spherical_hankel(m: int, n: int, t: float) -> SphEval:
    """h_m(n, t) = H_nu(t)/t^(n/2-1) with nu = m + n/2 - 1, plus moduli.

    For odd n these agree with the finite trigonometric closed forms (see
    :func:`spherical_hankel_closed`) to ~1e-12; the pair is kept as two
    independent routes on purpose.
    """
    nu = spherical_order(m, n)
    s = cyl_bessel_scaled(nu, t)
    h, hp = _hankel_pair(s, n)
    if s.ej >= s.ey:
        mm = math.hypot(s.jm, math.ldexp(s.ym, s.ey - s.ej))
        nn = math.hypot(s.jpm, math.ldexp(s.ypm, s.ey - s.ej))
        em = s.ej
    else:
        mm = math.hypot(math.ldexp(s.jm, s.ej - s.ey), s.ym)
        nn = math.hypot(math.ldexp(s.jpm, s.ej - s.ey), s.ypm)
        em = s.ey
    return SphEval(
        m=m, n=n, t=t, h=h, hp=hp,
        modM=_to_plain(mm, em, "M", nu, t),
        modN=_to_plain(nn, em, "N", nu, t),
    )


# ===================================================================
# closed forms for half-integer order (odd dimensions)
# ===================================================================

def hankel_half_integer(big_m: int, t: float) -> Tuple[complex, complex]:
    """(H_{M+1/2}(t), H_{M+1/2}'(t)) from the finite closed form, M >= 0.

    H_{M+1/2}(t) = sqrt(2/(pi t)) (-i)^(M+1) e^{it}
                   sum_{s=0}^{M} (i/(2t))^s (M+s)!/(s!(M-s)!),
    with the derivative via H' = H_{M-1/2} - ((M+1/2)/t) H_{M+1/2} and
    H_{-1/2} = sqrt(2/(pi t)) e^{it}.  Entirely independent of the series/
    continued-fraction engine; used as its cross-validation.
    """
    if big_m < 0:
        raise BesselDomainError(f"closed form needs M >= 0, got {big_m}")
    _validate(big_m + 0.5, t)
    pref = math.sqrt(2.0 / (math.pi * t)) * complex(math.cos(t), math.sin(t))

    def poly_sum(mm: int) -> complex:
        acc = complex(1.0, 0.0)
        term = complex(1.0, 0.0)
        for s in range(mm):
            term *= complex(0.0, 1.0) * (mm + s + 1) * (mm - s) / ((s + 1) * 2.0 * t)
            acc += term
        return acc

    h_m = pref * (-1j) ** (big_m + 1) * poly_sum(big_m)
    if big_m == 0:
        h_below = pref
    else:
        h_below = pref * (-1j) ** big_m * poly_sum(big_m - 1)
    hp_m = h_below - ((big_m + 0.5) / t) * h_m
    return h_m, hp_m


def spherical_hankel_closed(m: int, n: int, t: float) -> Tuple[complex, complex]:
    """(h_m(n,t), h_m'(n,t)) for odd n from the half-integer closed form."""
    if n < 2 or n % 2 == 0:
        raise BesselDomainError(f"closed form requires odd dimension n >= 3, got {n}")
    big_m = m + (n - 3) // 2
    hh, hhp = hankel_half_integer(big_m, t)
    pp = 0.5 * n - 1.0
    tp = t ** (-pp)
    h = hh * tp
    hp = (hhp - pp * hh / t) * tp
    return h, hp


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


# arguments per batch of the residual grid: 3 x 201 orders = 603 points.
# Batching by argument runs each Temme series once per selftest.  Measured
# on the selftest (2 cores, Python 3.11): 10 arguments per batch take 0.65
# times the time of 3 but raise the peak RSS by 0.6 MiB more.
_SELFTEST_BATCH_TS = 3
# every point with (order index + argument index) % 20 == 0 is also run
# through the scalar route: 20 arguments per order, 4,020 points in all
_SELFTEST_SAMPLE = 20


def selftest_rows(
    wronskian_tol: float = 1.0e-10,
    halfint_tol: float = 1.0e-10,
) -> Iterator[Tuple[float, float, float, Optional[float], bool]]:
    """Yield (nu, t, wronskian_residual, halfint_relerr|None, ok) over the grid.

    Every point is evaluated once, on the batched route, a batch of
    arguments (every order at each) at a time; a fixed sample of points
    also runs the scalar `wronskian_residual`, and a residual that differs
    from the scalar one in any bit fails its row.  halfint_relerr compares
    the batched h_m(3, t) and h_m'(3, t) with the closed form where nu is a
    half-integer with nu - 0.5 <= 20 and t in [0.1, 100] (the closed-form
    validation box); elsewhere None.
    """
    nus, ts = validation_grid()
    nu_arr = np.array(nus)
    residuals = np.empty((len(nus), len(ts)))
    # row of each half-integer order of the box in `errors`
    half = {i: r for r, i in enumerate(
        i for i, nu in enumerate(nus) if (nu * 2.0) % 2.0 == 1.0 and nu - 0.5 <= 20.0)}
    errors = np.empty((len(half), len(ts)))
    box = [0.1 <= t <= 100.0 for t in ts]
    for start in range(0, len(ts), _SELFTEST_BATCH_TS):
        tb = np.array(ts[start:start + _SELFTEST_BATCH_TS])
        t_b = np.repeat(tb, nu_arr.size)
        entries = _scaled_entries(np.tile(nu_arr, tb.size), t_b)
        batch = _wronskian_residuals(t_b, *entries)
        residuals[:, start:start + tb.size] = batch.reshape(tb.size, nu_arr.size).T
        for b, t in enumerate(tb.tolist()):
            for i, r in half.items() if box[start + b] else ():
                s = ScaledCylEval(nus[i], t, *(a[b * nu_arr.size + i].item() for a in entries))
                h, hp = _hankel_pair(s, 3)
                ref_h, ref_hp = spherical_hankel_closed(int(nus[i] - 0.5), 3, t)
                errors[r, start + b] = max(abs(h - ref_h) / abs(ref_h),
                                           abs(hp - ref_hp) / abs(ref_hp))
    for i, nu in enumerate(nus):
        r = half.get(i)
        for j, (t, wr) in enumerate(zip(ts, residuals[i].tolist())):
            he: Optional[float] = None
            ok = wr <= wronskian_tol
            if (i + j) % _SELFTEST_SAMPLE == 0:
                ok = (wronskian_residual(nu, t) == wr) and ok
            if r is not None and box[j]:
                he = errors[r, j].item()
                ok = ok and he <= halfint_tol
            yield nu, t, wr, he, ok
