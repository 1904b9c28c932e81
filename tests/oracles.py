"""Frozen reference values for the test suite, and the scalar Bessel engine.

Every number in the tables was produced by an independent route (mpmath at
45 significant digits, or a closed form evaluated by hand) and then frozen
as a binary64 literal.  Regenerate with  python tests/oracles.py  and
compare the printed output against this file before editing anything.

`_cf1`, `_cf2` and `_ladder` are the Steed/Temme algorithm of
`trapcert.specfun` in scalar form: one argument at a time, on Python floats
and complex numbers (the Temme series, scalar already, is the package's
own).  They are the bit reference for the package's one batched engine:
the tests require `specfun._ladders` to equal `_ladder`, `specfun._entry`
and every public scalar evaluator to equal their values on `scalar_entry`
(an `Entry`), and the arrays of `specfun.selftest_grid` to equal
`scalar_selftest_rows`, bit for bit.
Likewise `hankel_half_integer`, `spherical_hankel_closed` and
`hankel_pair` are the closed form and the (h, h') of a scaled entry on
Python complex numbers, the bit reference for the package's array forms.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from trapcert.specfun import (
    _EPS,
    _EXP_STEP,
    _MAXIT,
    _RENORM,
    _RENORM_INV,
    _TINY,
    _XMIN,
    BesselDomainError,
    BesselRangeError,
    ConvergenceError,
    _temme_y,
    _validate,
    validation_grid,
)

# (nu, t, J, Y, J', Y') spanning the series region, the continued-fraction
# region, long downward ladders, and the large-t oscillatory regime.
JY_TABLE = [
    (0.0, 0.001,
     0.9999997500000156, -4.471416611375923,
     -0.0004999999375000026, 636.6221672311394),
    (0.0, 1.0,
     0.7651976865579666, 0.08825696421567696,
     -0.4400505857449335, 0.7812128213002887),
    (0.5, 1.5707963267948966,
     0.6366197723675814, -3.8981718325193755e-17,
     -0.20264236728467552, 0.6366197723675814),
    (1.0, 0.01,
     0.004999937500260416, -63.67859628206065,
     0.49998125013020794, 6364.854172568982),
    (2.5, 0.7,
     0.021053968866313298, -6.369265486037367,
     0.07307076236898269, 21.091022585449956),
    (5.0, 2.0,
     0.007039629755871685, -9.935989128481975,
     0.01639664541788922, 22.074029594874336),
    (7.5, 40.0,
     -0.1260587778710217, 0.01761925514710957,
     -0.015675718865191896, -0.12406355259838281),
    (20.0, 1.9999,
     3.915074376458227e-19, -4.085713617500842e+16,
     3.896587345697571e-18, 4.064351973228265e+17),
    (33.5, 12.5,
     2.8789750790172845e-12, -3557685160.612026,
     7.176347650566724e-12, 8822027127.189249),
    (100.0, 150.0,
     -0.015359526118405391, 0.07387607124501987,
     -0.054976798213053873, -0.011892421209163595),
    (200.0, 1000.0,
     0.004183531525022076, 0.025144488299691112,
     -0.02463864943053019, 0.004085911612996323),
    (0.5, 0.001,
     0.02523132101498094, -25.23131260454004,
     12.615652097049571, 12615.681533591036),
]

# Points where the plain values overflow binary64: frozen as
# (nu, t, sign J, ln|J|, sign Y, ln|Y|).
LOG_EXTREME_TABLE = [
    (100.0, 0.01, 1, -893.5711124578919, -1, 887.8212123910549),
    (200.0, 0.001, 1, -2383.412479102066, -1, 2376.969431849681),
    (150.5, 0.002, 1, -1647.1450874481866, -1, 1640.9863944782367),
]

# (m, n, t, h_m(n,t), h_m'(n,t)) for the spherical evaluator.
SPH_TABLE = [
    (0, 2, 1.0,
     complex(0.7651976865579666, 0.08825696421567696),
     complex(-0.4400505857449335, 0.7812128213002887)),
    (3, 5, 7.3,
     complex(0.01111560487492292, 0.01248930365687266),
     complex(-0.013451178549846, 0.005054148968846617)),
    (2, 4, 0.35,
     complex(0.002532603682989534, -344.66895645688305),
     complex(0.014361049535629566, 3908.415155353328)),
    (1, 3, 0.5,
     complex(0.12968578730325986, -3.565890778462397),
     complex(0.246309321400744, 12.863143959925281)),
    (20, 3, 60.0,
     complex(0.00886645943994957, -0.01046585930164485),
     complex(0.00967924153459455, 0.008519437338156655)),
]


# ===================================================================
# the scalar engine
# ===================================================================

# one scaled evaluation of order nu at t: J = jm*2^ej, J' = jpm*2^ej,
# Y = ym*2^ey and Y' = ypm*2^ey
Entry = namedtuple("Entry", "nu t jm jpm ej ym ypm ey")


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

    def entry(self, i: int) -> Entry:
        return Entry(self.mu0 + i, self.t, self.jm[i], self.jpm[i], self.ej[i],
                     self.ym[i], self.ypm[i], self.ey[i])


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


def scalar_entry(nu: float, t: float) -> Entry:
    """`specfun._entry` on the scalar ladder, as an `Entry`."""
    _validate(nu, t)
    if t < _XMIN:
        nl = int(nu + 0.5)
    else:
        nl = max(0, int(nu - t + 1.5))
    mu = nu - nl
    lad = _ladder(mu, t, nl)
    return lad.entry(nl)


def scalar_wronskian_residual(nu: float, t: float) -> float:
    """`specfun.wronskian_residual` on the scalar ladder, in Python floats."""
    s = scalar_entry(nu, t)
    w = 2.0 / (math.pi * s.t)
    cross = s.jm * s.ypm - s.jpm * s.ym
    return abs(cross * math.ldexp(1.0, s.ej + s.ey) - w) / w


def hankel_half_integer(big_m: int, t: float) -> Tuple[complex, complex]:
    """`specfun._half_integer_batch` on Python complex numbers: the finite
    closed form of (H_{M+1/2}(t), H_{M+1/2}'(t)), M >= 0."""
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
    """`specfun.spherical_hankel_closed` on Python complex numbers."""
    if n < 2 or n % 2 == 0:
        raise BesselDomainError(f"closed form requires odd dimension n >= 3, got {n}")
    big_m = m + (n - 3) // 2
    hh, hhp = hankel_half_integer(big_m, t)
    pp = 0.5 * n - 1.0
    tp = t ** (-pp)
    h = hh * tp
    hp = (hhp - pp * hh / t) * tp
    return h, hp


def to_plain(m: float, e: int, what: str, nu: float, t: float) -> float:
    """`specfun._plain` on one Python float."""
    try:
        return math.ldexp(m, e)
    except OverflowError as exc:
        raise BesselRangeError(
            f"{what} at nu={nu}, t={t} exceeds binary64 range "
            f"(magnitude ~ 2^{e}); use the scaled evaluators"
        ) from exc


def hankel_pair(s: Entry, n: int) -> Tuple[complex, complex]:
    """`specfun._hankel_pairs` at one entry, on Python floats: (h, h') of
    dimension n from the scaled entry of order m + n/2 - 1."""
    nu, t = s.nu, s.t
    pp = 0.5 * n - 1.0
    tp_m, tp_e = math.frexp(t ** (-pp))
    hr = to_plain(s.jm * tp_m, s.ej + tp_e, "Re h", nu, t)
    hi = to_plain(s.ym * tp_m, s.ey + tp_e, "Im h", nu, t)
    hpr = to_plain((s.jpm - pp * s.jm / t) * tp_m, s.ej + tp_e, "Re h'", nu, t)
    hpi = to_plain((s.ypm - pp * s.ym / t) * tp_m, s.ey + tp_e, "Im h'", nu, t)
    return complex(hr, hi), complex(hpr, hpi)


def scalar_selftest_rows(
    wronskian_tol: float = 1.0e-10,
    halfint_tol: float = 1.0e-10,
) -> Iterator[Tuple[float, float, float, Optional[float], bool]]:
    """The rows (nu, t, wronskian_residual, halfint_relerr|None, ok) of the
    selftest grid, one scalar evaluation per grid point, halfint_relerr None
    outside the closed-form box."""
    nus, ts = validation_grid()
    for nu in nus:
        half = (nu * 2.0) % 2.0 == 1.0 and nu - 0.5 <= 20.0
        for t in ts:
            wr = scalar_wronskian_residual(nu, t)
            he: Optional[float] = None
            ok = wr <= wronskian_tol
            if half and 0.1 <= t <= 100.0:
                ref_h, ref_hp = spherical_hankel_closed(int(nu - 0.5), 3, t)
                h, hp = hankel_pair(scalar_entry(nu, t), 3)
                he = max(
                    abs(h - ref_h) / abs(ref_h),
                    abs(hp - ref_hp) / abs(ref_hp),
                )
                ok = ok and he <= halfint_tol
            yield nu, t, wr, he, ok


def _regenerate() -> None:
    import mpmath as mp

    mp.mp.dps = 45

    def jy(nu, t):
        j = mp.besselj(nu, t)
        y = mp.bessely(nu, t)
        jp = (mp.besselj(nu - 1, t) - mp.besselj(nu + 1, t)) / 2
        yp = (mp.bessely(nu - 1, t) - mp.bessely(nu + 1, t)) / 2
        return j, y, jp, yp

    print("JY_TABLE = [")
    for nu, t, *_ in JY_TABLE:
        j, y, jp, yp = jy(nu, t)
        print(f"    ({nu!r}, {t!r},\n     {float(j)!r}, {float(y)!r},\n"
              f"     {float(jp)!r}, {float(yp)!r}),")
    print("]\n")

    print("LOG_EXTREME_TABLE = [")
    for nu, t, *_ in LOG_EXTREME_TABLE:
        j, y, _, _ = jy(nu, t)
        print(f"    ({nu!r}, {t!r}, {int(mp.sign(j))}, {float(mp.log(abs(j)))!r},"
              f" {int(mp.sign(y))}, {float(mp.log(abs(y)))!r}),")
    print("]\n")

    print("SPH_TABLE = [")
    for m, n, t, *_ in SPH_TABLE:
        nu = m + n / 2 - 1
        j, y, jp, yp = jy(nu, t)
        scale = mp.power(t, n / 2 - 1)
        h = complex((j + 1j * y) / scale)
        hp = complex((jp + 1j * yp - (n / 2 - 1) * (j + 1j * y) / t) / scale)
        print(f"    ({m}, {n}, {t!r},\n     complex({h.real!r}, {h.imag!r}),\n"
              f"     complex({hp.real!r}, {hp.imag!r})),")
    print("]")


if __name__ == "__main__":
    _regenerate()
