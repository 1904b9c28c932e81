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
both order parities for 128 radii in one pass of the Bessel engine
(`specfun.ladder_batches`).  Blocks of 8 of those radii gather them into
(radius x dimension x mode) arrays, on which A, Re(h' conj h) and the
Wronskian residual are evaluated once, and B once with a multiplier axis
(`_check_blocks`); `verify_sweep` folds those arrays into four violation
counts and four worst margins.  Each ladder's bits do not depend on its
batch (every engine decision is per point), so the sizes set only speed
and memory: on the default sweep the 128-radius batches make 16 engine
calls, not 63, and the 8-radius check blocks keep the allocation peak at
2.4 MiB (3.6 MiB at 16 radii).  The tests hold each block to a per-radius
reference and the identities of A, B and the eigenvalue to plain Hankel
values from the engine (`tests/sweep_oracle.py`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from trapcert.specfun import (
    NU_MAX,
    T_RANGE,
    BesselDomainError,
    # the benchmark tracer wraps this name here; ROADMAP item 1 drops it
    bessel_ladder,  # noqa: F401
    ladder_batches,
)

IM_IDENTITY_TOL = 1e-9
_SIGN_TOL = 1e-9
# radii per block of checks: a block's (radius x dimension x multiplier x
# mode) temporaries and one engine batch set the sweep's allocation peak,
# 2.4 MiB at 8 radii and 3.6 MiB at 16; 16-radius blocks raised the peak
# RSS of `verify-dtn` by about 1.4 MiB for at most a few percent of its time
_SWEEP_CHUNK = 8
# radii per Bessel engine call (256 ladders, both parities), a multiple of
# the check block: at 32 radii numpy's per-call overhead dominated every
# recurrence step, and 256 radii add 1.5 MiB of peak RSS for no gain
_LADDER_BATCH = 128


@dataclass(frozen=True)
class SweepParams:
    """The grid of the modal sign-check sweep: dimensions `n_values`, modes
    m = 0..`m_max`, `rho_points` radii log-spaced on [`rho_min`, `rho_max`].
    `SweepParams()` is the default sweep, run by `verify_sweep` without a
    grid and by `verify-dtn` without a config; a config's "sweep" sets it."""

    n_values: Tuple[int, ...] = (2, 3, 4, 5)
    m_max: int = 100
    rho_points: int = 2000
    rho_min: float = 0.05
    rho_max: float = 200.0

    def rho_grid(self) -> np.ndarray:
        return np.geomspace(self.rho_min, self.rho_max, self.rho_points)


def default_alphas(n: int) -> Tuple[float, ...]:
    """Hypothesis threshold, the applications value n-1, and n."""
    return (float(max(1, n - 2)), float(n - 1), float(n))


@dataclass(frozen=True)
class SweepSummary:
    """Violation counts and worst scaled margins over a verification sweep.

    Every multiplier of the sweep, `default_alphas(n)`, meets the hypothesis
    alpha >= max(1, n-2), so `b_violations` counts violations of the claim.
    Worst margins are dimensionless (value over its own scale) and should
    sit at or below zero up to roundoff; the Wronskian's is the largest
    relative residual.
    """

    n_values: Tuple[int, ...]
    m_max: int
    rho_count: int
    checked_modes: int
    a_violations: int
    b_violations: int
    re_violations: int
    im_violations: int
    worst_a_scaled: float
    worst_b_scaled: float
    worst_re_scaled: float
    worst_im_residual: float

    @property
    def passed(self) -> bool:
        return (self.a_violations == 0 and self.b_violations == 0
                and self.re_violations == 0 and self.im_violations == 0)


def _np_ldexp(x, e) -> np.ndarray:
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(x, np.clip(e, -4000, 4000).astype(np.int32))


def _sign_margin(terms, floor: np.ndarray):
    """The sum `value` of `terms`, which may differ in shape where they
    broadcast; value over max(floor, max |term|), 0 where every term is 0;
    and whether value is not <= _SIGN_TOL times that bound, so that a NaN
    is a violation."""
    value = functools.reduce(np.add, terms)
    scale = functools.reduce(np.maximum, (np.abs(term) for term in terms))
    bound = np.maximum(floor, scale)
    return value, np.where(scale > 0, value / bound, 0.0), ~(value <= _SIGN_TOL * bound)


def _check_blocks(n_tuple: Tuple[int, ...], m_max: int, rho_arr: np.ndarray,
                  alpha_table: Sequence[Sequence[float]]) -> Iterator[tuple]:
    """The four checks over valid inputs, one block of `_SWEEP_CHUNK` radii
    at a time.

    Each block is a (margin, violation mask) pair per family, in the order
    A, B, Re(h' conj h), Wronskian, as (radius x dimension x multiplier x
    mode) arrays.  The margins are scaled, the Wronskian's the relative
    residual.  Only B has a multiplier axis, `alpha_table[d]` for the d-th
    dimension (one row per dimension, all of one length); the others have
    length 1 there.  At orders nu < 1/2, which its claim leaves out, A's
    margin is -inf and its mask False.
    """
    # ladder entry of order nu = m + n/2 - 1 sits at index m + (n-2)//2
    count_by_parity = {}
    for n in n_tuple:
        count_by_parity[n % 2] = max(count_by_parity.get(n % 2, 0),
                                     m_max + (n - 2) // 2)
    # (dimension x multiplier x mode) tables; the block arrays below put a
    # radius axis in front, and those without a multiplier have length 1 there
    m_idx = np.arange(m_max + 1)
    n_col = np.array(n_tuple)[:, None, None]
    p_prime = n_col / 2.0 - 1.0
    nu = m_idx + p_prime
    mu2 = (m_idx * (m_idx + n_col - 2)).astype(float)
    a_mask = nu >= 0.5
    alpha = np.array(alpha_table, dtype=float).reshape(len(n_tuple), -1, 1)

    for start in range(0, rho_arr.size, _SWEEP_CHUNK):
        if start % _LADDER_BATCH == 0:
            # the last batch's ladders die first
            ladders = None
            ladders = dict(zip(count_by_parity, ladder_batches(
                [(0.5 * parity, count) for parity, count in count_by_parity.items()],
                rho_arr[start:start + _LADDER_BATCH])))
        rows = slice(start % _LADDER_BATCH, start % _LADDER_BATCH + _SWEEP_CHUNK)
        rho = rho_arr[start:start + _SWEEP_CHUNK, None, None, None]
        # both parities' ladders, gathered as (radius x dimension x 1 x mode)
        jm, jpm, ej, ym, ypm, ey = (
            np.stack([getattr(ladders[n % 2], name)[rows, (n - 2) // 2:(n - 2) // 2 + m_max + 1]
                      for n in n_tuple], axis=1)[:, :, None]
            for name in ("jm", "jpm", "ej", "ym", "ypm", "ey"))

        eta = _np_ldexp(1.0, ej - ey)
        jt, jpt = jm * eta, jpm * eta
        inv2ey = _np_ldexp(1.0, -2 * ey)
        m2 = jt * jt + ym * ym
        a3 = (4.0 * rho / math.pi) * inv2ey
        # A and B subtract a3 as the term -a3: x + (-y) is x - y exactly
        _, a_scaled, viol_a = _sign_margin(
            (m2 * (rho * rho - nu * nu), rho * rho * (jpt * jpt + ypm * ypm), -a3), inv2ey)

        gj = jpt - (p_prime / rho) * jt
        gy = ypm - (p_prime / rho) * ym
        re_wu, re_scaled, viol_re = _sign_margin((gj * jt, gy * ym), inv2ey)

        # pure mantissa cross product, then the shared power of two
        im_resid = np.abs((jm * ypm - jpm * ym) * _np_ldexp(math.pi * rho / 2.0, ej + ey) - 1.0)

        _, b_scaled, viol_b = _sign_margin(
            ((rho * rho - mu2) * m2, rho * rho * (gj * gj + gy * gy), alpha * rho * re_wu, -a3),
            inv2ey)

        yield ((np.where(a_mask, a_scaled, -math.inf), viol_a & a_mask),
               (b_scaled, viol_b), (re_scaled, viol_re),
               (im_resid, ~(im_resid <= IM_IDENTITY_TOL)))


def verify_sweep(n_values: Sequence[int] = SweepParams.n_values,
                 m_max: int = SweepParams.m_max,
                 rho_grid: Optional[Sequence[float]] = None) -> SweepSummary:
    """Run all four checks over a (n, m, rho) grid, B at each of
    `default_alphas(n)`.

    The dimensions, the largest mode and the radii default to those of
    `SweepParams()`, the default sweep; `rho_grid` is any sequence of
    radii, checked in the order given.  The summary folds the blocks of
    `_check_blocks` into its counts and worst margins.  Radii outside
    [1e-3, 1e3] and orders nu = m + n/2 - 1 above 200, where the
    special-function engine is not validated, raise BesselDomainError.
    """
    if m_max < 0:
        raise BesselDomainError(f"m_max must be >= 0, got {m_max}")
    rho_arr = SweepParams().rho_grid() if rho_grid is None else np.asarray(rho_grid, dtype=float)
    t_lo, t_hi = T_RANGE
    if (rho_arr.ndim != 1 or rho_arr.size == 0
            or not np.all((rho_arr >= t_lo) & (rho_arr <= t_hi))):
        raise BesselDomainError(
            f"rho grid must be a nonempty 1-d sequence inside the validated "
            f"envelope [{t_lo:g}, {t_hi:g}]")
    n_tuple = tuple(int(n) for n in n_values)
    if not n_tuple or any(n < 2 for n in n_tuple):
        raise BesselDomainError(f"dimensions must be >= 2 and at least one, got {n_tuple}")
    if m_max + max(n_tuple) / 2.0 - 1.0 > NU_MAX:
        raise BesselDomainError(f"orders above nu = {NU_MAX:g} leave the "
                                f"validated envelope")

    alpha_table = [default_alphas(n) for n in n_tuple]
    counts = [0, 0, 0, 0]
    worst = [-math.inf, -math.inf, -math.inf, 0.0]
    for block in _check_blocks(n_tuple, m_max, rho_arr, alpha_table):
        for family, (margin, violated) in enumerate(block):
            counts[family] += int(np.count_nonzero(violated))
            # the per-mode maxima folded by Python's max in (radius, dimension,
            # multiplier) order, which skips a NaN maximum instead of keeping it
            worst[family] = max([worst[family], *margin.max(axis=-1).ravel().tolist()])
    return SweepSummary(n_tuple, m_max, int(rho_arr.size),
                        int(rho_arr.size * np.size(alpha_table) * (m_max + 1)),
                        *counts, *worst)
