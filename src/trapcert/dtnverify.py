"""Mode-by-mode verification of the outgoing-energy sign conditions.

The Dirichlet-to-Neumann operator of the exterior Helmholtz problem on a
sphere of radius R acts diagonally on spherical harmonics of degree m, with
eigenvalue k h'_m(rho)/h_m(rho) at rho = kR, where h_m is the outgoing
spherical Hankel function of dimension n (order nu = m + n/2 - 1).  Three
families of scalar inequalities are verified on dense grids:

* energy signs per mode: Re(h'_m conj h_m) <= 0 and the exact identity
  Im(h'_m conj h_m) = 2 / (pi rho^(n-1));
* the cylindrical quantity A_nu(t) = M^2(t^2 - nu^2) + t^2 N^2 - 4t/pi
  is nonpositive for nu >= 1/2 (M, N the moduli of H_nu and H_nu');
* the per-mode Morawetz combination
  B_m(rho) = (rho^2 - m(m+n-2)) |h|^2 + rho^2 |h'|^2
             + (alpha rho / 2) d/drho |h|^2 - (4/pi) rho^(3-n)
  is nonpositive whenever alpha >= max(1, n-2).

m(m+n-2) is the Laplace-Beltrami eigenvalue of degree-m harmonics,
equivalently nu^2 - p'^2 with p' = n/2 - 1.  The radial derivative
d/drho |h|^2 is always the analytic 2 Re(h' conj h), never a difference
quotient.

The big sweep works in the scaled mantissa/exponent representation of the
Bessel engine: all four checks reduce to sign tests of expressions of the
form X * 2^(2 eY), so the common positive factor is dropped and only
mantissa-sized numbers are combined.  This keeps orders up to 100 at
rho = 0.05 (where |Y_nu| overflows binary64 by thousands of orders of
magnitude) inside ordinary arithmetic.  The sweep takes the ladders of
both order parities for a batch of radii in one pass
(`specfun.ladder_batches`, equal to the scalar ladders bit for bit) and
evaluates each check as a (radius x mode) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from trapcert.specfun import (
    NU_MAX,
    T_RANGE,
    BesselDomainError,
    bessel_ladder,  # noqa: F401  (dtnverify.bessel_ladder stays importable)
    ladder_batches,
    cyl_bessel_scaled,
    spherical_hankel,
    spherical_order,
)

IM_IDENTITY_TOL = 1e-9
_SIGN_TOL = 1e-9
_VIOLATION_CAP = 500
# radii per batch of ladders (64 ladders, both parities): on the default
# sweep 32 radii keep the peak RSS within about 0.5 MiB of one radius at a
# time, where 64 add 2 MiB
_SWEEP_CHUNK = 32

DEFAULT_N_VALUES = (2, 3, 4, 5)
DEFAULT_M_MAX = 100
DEFAULT_RHO_POINTS = 2000
DEFAULT_RHO_MIN = 0.05
DEFAULT_RHO_MAX = 200.0


def default_rho_grid(points: int = DEFAULT_RHO_POINTS) -> np.ndarray:
    """Logarithmic rho grid on [0.05, 200]."""
    return np.geomspace(DEFAULT_RHO_MIN, DEFAULT_RHO_MAX, points)


def default_alphas(n: int) -> Tuple[float, ...]:
    """Hypothesis threshold, the applications value n-1, and n."""
    return (float(max(1, n - 2)), float(n - 1), float(n))


def _ldexp_sat(x: float, e: int) -> float:
    """math.ldexp that saturates to +-inf instead of raising."""
    if x == 0.0:
        return 0.0
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


# -------------------------------------------------------------------
# scalar routes (plain arithmetic, independent of the sweep kernels)
# -------------------------------------------------------------------

def a_nu(nu: float, t: float) -> float:
    """A_nu(t) = M^2 (t^2 - nu^2) + t^2 N^2 - 4t/pi, cylindrical moduli.

    Claimed nonpositive for nu >= 1/2; below 1/2 the value is returned
    uninterpreted (it can be positive there).
    """
    if nu < 0.0 or t <= 0.0:
        raise BesselDomainError(f"need nu >= 0 and t > 0, got {nu}, {t}")
    ev = cyl_bessel_scaled(nu, t)
    eta = _ldexp_sat(1.0, ev.ej - ev.ey)
    jt, jpt = ev.jm * eta, ev.jpm * eta
    m2 = jt * jt + ev.ym * ev.ym
    n2 = jpt * jpt + ev.ypm * ev.ypm
    scaled = m2 * (t * t - nu * nu) + t * t * n2 - (4.0 * t / math.pi) * _ldexp_sat(1.0, -2 * ev.ey)
    return _ldexp_sat(scaled, 2 * ev.ey)


def b_m(m: int, n: int, rho: float, alpha: float) -> float:
    """The per-mode Morawetz combination B_m(rho) at multiplier alpha."""
    if m < 0 or n < 2 or rho <= 0.0:
        raise BesselDomainError(f"need m >= 0, n >= 2, rho > 0, got {m}, {n}, {rho}")
    ev = spherical_hankel(m, n, rho)
    h2 = abs(ev.h) ** 2
    hp2 = abs(ev.hp) ** 2
    re_cross = (ev.hp * ev.h.conjugate()).real
    mu2 = m * (m + n - 2)
    return ((rho * rho - mu2) * h2 + rho * rho * hp2
            + alpha * rho * re_cross - (4.0 / math.pi) * rho ** (3 - n))


def dtn_eigenvalue(m: int, n: int, k: float, r: float) -> complex:
    """DtN eigenvalue k h'_m(rho)/h_m(rho) at rho = kR.

    Evaluated from the scaled cylindrical pair so that large orders at
    small radii stay inside binary64: the shared power of two in h and h'
    cancels in the ratio.
    """
    if k <= 0.0 or r <= 0.0:
        raise BesselDomainError(f"need k > 0 and R > 0, got {k}, {r}")
    rho = k * r
    nu = spherical_order(m, n)
    p_prime = n / 2.0 - 1.0
    ev = cyl_bessel_scaled(nu, rho)
    eta = _ldexp_sat(1.0, ev.ej - ev.ey)
    num = complex(ev.jpm * eta, ev.ypm)   # (H' ) / 2^ey
    den = complex(ev.jm * eta, ev.ym)     # (H  ) / 2^ey
    return k * (num / den - p_prime / rho)


# -------------------------------------------------------------------
# sweep
# -------------------------------------------------------------------

@dataclass(frozen=True)
class ModeCheckRecord:
    """One (dimension, mode, radius, multiplier) check point.

    `a_nu` and `b_m` are the plain values (saturating to +-inf when they
    leave binary64 range; the sign checks happen in scaled space and never
    saturate).  `re_sign` is Re(h' conj h); `im_identity_residual` is the
    relative defect of Im(h' conj h) against 2/(pi rho^(n-1)).
    """

    n: int
    m: int
    nu: float
    rho: float
    alpha: float
    a_nu: float
    b_m: float
    re_sign: float
    im_identity_residual: float


@dataclass(frozen=True)
class SweepSummary:
    """Violation counts and worst scaled margins over a verification sweep.

    `b_violations` counts every positive B_m beyond tolerance at any
    checked multiplier; `b_violations_hypothesis` restricts to multipliers
    alpha >= max(1, n-2), the regime the sign claim covers.  Worst margins
    are dimensionless (value over its own scale) and should sit at or below
    zero up to roundoff.
    """

    n_values: Tuple[int, ...]
    m_max: int
    rho_count: int
    alphas: Optional[Tuple[float, ...]]
    checked_modes: int
    a_violations: int
    b_violations: int
    b_violations_hypothesis: int
    re_violations: int
    im_violations: int
    worst_a_scaled: float
    worst_b_scaled_hypothesis: float
    worst_re_scaled: float
    worst_im_residual: float
    violations: Tuple[ModeCheckRecord, ...]
    violations_truncated: bool

    @property
    def passed(self) -> bool:
        return (self.a_violations == 0 and self.b_violations_hypothesis == 0
                and self.re_violations == 0 and self.im_violations == 0)


def _np_ldexp(x, e) -> np.ndarray:
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(x, np.clip(e, -4000, 4000).astype(np.int32))


def verify_sweep(n_values: Sequence[int] = DEFAULT_N_VALUES,
                 m_max: int = DEFAULT_M_MAX,
                 rho_grid: Optional[Sequence[float]] = None,
                 alphas: Optional[Sequence[float]] = None,
                 record_sink: Optional[Callable[[ModeCheckRecord], None]] = None,
                 ) -> SweepSummary:
    """Run all four checks over a (n, m, rho, alpha) grid.

    With `alphas=None` each dimension uses `default_alphas(n)`; an explicit
    sequence is applied to every dimension, which permits probing
    multipliers below the hypothesis threshold (their B violations are
    counted separately from the in-hypothesis count).  `record_sink`, when
    given, receives every ModeCheckRecord; the default keeps only
    violating records (capped) and aggregate statistics.  Radii outside
    [1e-3, 1e3] and orders nu = m + n/2 - 1 above 200, where the
    special-function engine is not validated, raise BesselDomainError.
    """
    if m_max < 0:
        raise BesselDomainError(f"m_max must be >= 0, got {m_max}")
    rho_arr = default_rho_grid() if rho_grid is None else np.asarray(rho_grid, dtype=float)
    t_lo, t_hi = T_RANGE
    if (rho_arr.ndim != 1 or rho_arr.size == 0
            or not np.all((rho_arr >= t_lo) & (rho_arr <= t_hi))):
        raise BesselDomainError(
            f"rho grid must be a nonempty 1-d sequence inside the validated "
            f"envelope [{t_lo:g}, {t_hi:g}]")
    n_tuple = tuple(int(n) for n in n_values)
    if any(n < 2 for n in n_tuple):
        raise BesselDomainError(f"dimensions must be >= 2, got {n_tuple}")
    if m_max + max(n_tuple, default=2) / 2.0 - 1.0 > NU_MAX:
        raise BesselDomainError(f"orders above nu = {NU_MAX:g} leave the "
                                f"validated envelope")

    # ladder entry of order nu = m + n/2 - 1 sits at index m + (n-2)//2
    count_by_parity = {}
    for n in n_tuple:
        count_by_parity[n % 2] = max(count_by_parity.get(n % 2, 0),
                                     m_max + (n - 2) // 2)
    m_idx = np.arange(m_max + 1)
    alpha_lists = {n: default_alphas(n) if alphas is None else tuple(float(a) for a in alphas)
                   for n in n_tuple}

    checked = 0
    counts = {"a": 0, "b": 0, "bh": 0, "re": 0, "im": 0}
    worst = {"a": -math.inf, "bh": -math.inf, "re": -math.inf, "im": 0.0}
    violations: List[ModeCheckRecord] = []
    truncated = False

    for start in range(0, rho_arr.size, _SWEEP_CHUNK):
        rhos = rho_arr[start:start + _SWEEP_CHUNK]
        ladders = dict(zip(count_by_parity, ladder_batches(
            [(0.5 * parity, count) for parity, count in count_by_parity.items()], rhos)))
        rho = rhos[:, None]  # radius x mode below
        # per worst margin: one row maximum per radius for each (n, alpha)
        maxima = {"a": [], "re": [], "im": [], "bh": []}
        checks = []  # (n, its arrays) for the dimensions that emit records
        for n in n_tuple:
            lad = ladders[n % 2]
            base = (n - 2) // 2
            sl = slice(base, base + m_max + 1)
            jm, jpm, ej = lad.jm[:, sl], lad.jpm[:, sl], lad.ej[:, sl]
            ym, ypm, ey = lad.ym[:, sl], lad.ypm[:, sl], lad.ey[:, sl]

            p_prime = n / 2.0 - 1.0
            nu = m_idx + p_prime
            mu2 = (m_idx * (m_idx + n - 2)).astype(float)
            eta = _np_ldexp(1.0, ej - ey)
            jt, jpt = jm * eta, jpm * eta
            inv2ey = _np_ldexp(1.0, -2 * ey)

            m2 = jt * jt + ym * ym
            n2 = jpt * jpt + ypm * ypm
            a1 = m2 * (rho * rho - nu * nu)
            a2 = rho * rho * n2
            a3 = (4.0 * rho / math.pi) * inv2ey
            m_a = a1 + a2 - a3
            scale_a = np.maximum(np.maximum(np.abs(a1), a2), a3)
            tol_a = _SIGN_TOL * np.maximum(inv2ey, scale_a)
            a_mask = nu >= 0.5
            a_scaled = np.where(scale_a > 0, m_a / np.maximum(inv2ey, scale_a), 0.0)
            viol_a = (m_a > tol_a) & a_mask

            gj = jpt - (p_prime / rho) * jt
            gy = ypm - (p_prime / rho) * ym
            w2 = gj * gj + gy * gy
            re_wu = gj * jt + gy * ym
            scale_re = np.maximum(np.abs(gj * jt), np.abs(gy * ym))
            tol_re = _SIGN_TOL * np.maximum(inv2ey, scale_re)
            re_scaled = np.where(scale_re > 0, re_wu / np.maximum(inv2ey, scale_re), 0.0)
            viol_re = re_wu > tol_re

            # pure mantissa cross product, then the shared power of two
            wron = jm * ypm - jpm * ym
            im_resid = np.abs(wron * _np_ldexp(math.pi * rho / 2.0, ej + ey) - 1.0)
            viol_im = im_resid > IM_IDENTITY_TOL

            b1 = (rho * rho - mu2) * m2
            b2 = rho * rho * w2
            b4 = a3
            hyp = max(1.0, float(n - 2))

            counts["a"] += int(np.count_nonzero(viol_a))
            counts["re"] += int(np.count_nonzero(viol_re))
            counts["im"] += int(np.count_nonzero(viol_im))
            if a_mask.any():
                maxima["a"].append(a_scaled[:, a_mask].max(axis=1).tolist())
            maxima["re"].append(re_scaled.max(axis=1).tolist())
            maxima["im"].append(im_resid.max(axis=1).tolist())

            per_alpha = []
            for alpha in alpha_lists[n]:
                b3 = alpha * rho * re_wu
                m_b = b1 + b2 + b3 - b4
                scale_b = np.maximum(np.maximum(np.abs(b1), b2),
                                     np.maximum(np.abs(b3), b4))
                tol_b = _SIGN_TOL * np.maximum(inv2ey, scale_b)
                viol_b = m_b > tol_b
                nviol = int(np.count_nonzero(viol_b))
                counts["b"] += nviol
                if alpha >= hyp:
                    counts["bh"] += nviol
                    b_scaled = np.where(scale_b > 0, m_b / np.maximum(inv2ey, scale_b), 0.0)
                    maxima["bh"].append(b_scaled.max(axis=1).tolist())
                checked += rhos.size * (m_max + 1)
                per_alpha.append((alpha, m_b, viol_b | viol_a | viol_re | viol_im))
            if record_sink is not None or any(bad.any() for _, _, bad in per_alpha):
                checks.append((n, nu, m_a, re_wu, im_resid, ey, per_alpha))

        # Python's max in the order of the radius, dimension, multiplier loops
        for key, columns in maxima.items():
            for row in zip(*columns):
                for value in row:
                    worst[key] = max(worst[key], value)
        if not checks:
            continue
        # records in the order of the radius, dimension, multiplier, mode loops
        for r, rho_r in enumerate(rhos.tolist()):
            for n, nu, m_a, re_wu, im_resid, ey, per_alpha in checks:
                rho_pow = rho_r ** (2 - n)
                for alpha, m_b, bad in per_alpha:
                    want = (np.nonzero(bad[r])[0] if record_sink is None
                            else range(m_max + 1))
                    for mi in want:
                        mi = int(mi)
                        two_ey = int(2 * ey[r, mi])
                        rec = ModeCheckRecord(
                            n=n, m=mi, nu=float(nu[mi]), rho=rho_r, alpha=alpha,
                            a_nu=_ldexp_sat(float(m_a[r, mi]), two_ey),
                            b_m=_ldexp_sat(float(m_b[r, mi]), two_ey) * rho_pow,
                            re_sign=_ldexp_sat(float(re_wu[r, mi]), two_ey) * rho_pow,
                            im_identity_residual=float(im_resid[r, mi]),
                        )
                        if record_sink is not None:
                            record_sink(rec)
                        if bad[r, mi]:
                            if len(violations) < _VIOLATION_CAP:
                                violations.append(rec)
                            else:
                                truncated = True

    return SweepSummary(
        n_values=n_tuple,
        m_max=m_max,
        rho_count=int(rho_arr.size),
        alphas=None if alphas is None else tuple(float(a) for a in alphas),
        checked_modes=checked,
        a_violations=counts["a"],
        b_violations=counts["b"],
        b_violations_hypothesis=counts["bh"],
        re_violations=counts["re"],
        im_violations=counts["im"],
        worst_a_scaled=worst["a"],
        worst_b_scaled_hypothesis=worst["bh"],
        worst_re_scaled=worst["re"],
        worst_im_residual=worst["im"],
        violations=tuple(violations),
        violations_truncated=truncated,
    )
