"""Per-radius modal checks: the reference for the batched `_check_blocks`.

`per_radius_checks` is the sweep as it ran before the batched ladders: one
scalar ladder (`oracles._ladder`) per base order and radius, and the four
checks as 1-d arrays over the modes of one (radius, dimension) at a time.
It returns each family's scaled margins and violation masks stacked into
(radius x dimension x multiplier x mode) arrays, the layout of the
kernel's blocks; the tests require the two to agree bit for bit.  A check
is violated where its value is not <= its tolerance, so a NaN violates it.
`hankel`, `a_terms` and `b_terms` give plain values of the families from
the engine's per-point route, for the tests of their identities.
"""

import math
from typing import Sequence

import numpy as np

from trapcert.dtnverify import IM_IDENTITY_TOL, _np_ldexp
from trapcert.specfun import _hankel_pairs, _scaled_entries

from oracles import _ladder

_SIGN_TOL = 1e-9


def per_radius_checks(n_values: Sequence[int], m_max: int, rho_grid: Sequence[float],
                      alpha_table: Sequence[Sequence[float]]):
    """The (margin, violation mask) pairs of A, B, Re(h' conj h) and the
    Wronskian residual, B at the multipliers `alpha_table[d]` of the d-th
    dimension (inputs assumed valid)."""
    rho_arr = np.asarray(rho_grid, dtype=float)
    n_tuple = tuple(int(n) for n in n_values)
    count_by_parity = {}
    for n in n_tuple:
        count_by_parity[n % 2] = max(count_by_parity.get(n % 2, 0),
                                     m_max + (n - 2) // 2)
    m_idx = np.arange(m_max + 1)
    # one list per family of (margin, mask) rows, one row per (radius, dimension)
    rows = [[] for _ in range(4)]

    for rho in rho_arr.tolist():
        ladders = {}
        if 0 in count_by_parity:
            ladders[0] = _ladder(0.0, rho, count_by_parity[0])
        if 1 in count_by_parity:
            ladders[1] = _ladder(0.5, rho, count_by_parity[1])
        for n, alphas in zip(n_tuple, alpha_table):
            lad = ladders[n % 2]
            base = (n - 2) // 2
            sl = slice(base, base + m_max + 1)
            jm = np.asarray(lad.jm[sl])
            jpm = np.asarray(lad.jpm[sl])
            ej = np.asarray(lad.ej[sl], dtype=np.int64)
            ym = np.asarray(lad.ym[sl])
            ypm = np.asarray(lad.ypm[sl])
            ey = np.asarray(lad.ey[sl], dtype=np.int64)

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
            a_scaled = np.where(scale_a == 0, 0.0, m_a / np.maximum(inv2ey, scale_a))
            rows[0].append(([np.where(a_mask, a_scaled, -math.inf)],
                            [~(m_a <= tol_a) & a_mask]))

            gj = jpt - (p_prime / rho) * jt
            gy = ypm - (p_prime / rho) * ym
            w2 = gj * gj + gy * gy
            re_wu = gj * jt + gy * ym
            scale_re = np.maximum(np.abs(gj * jt), np.abs(gy * ym))
            tol_re = _SIGN_TOL * np.maximum(inv2ey, scale_re)
            re_scaled = np.where(scale_re == 0, 0.0, re_wu / np.maximum(inv2ey, scale_re))

            b1 = (rho * rho - mu2) * m2
            b2 = rho * rho * w2
            b4 = a3
            b_rows = ([], [])
            for alpha in alphas:
                b3 = alpha * rho * re_wu
                m_b = b1 + b2 + b3 - b4
                scale_b = np.maximum(np.maximum(np.abs(b1), b2),
                                     np.maximum(np.abs(b3), b4))
                tol_b = _SIGN_TOL * np.maximum(inv2ey, scale_b)
                b_rows[0].append(np.where(scale_b == 0, 0.0, m_b / np.maximum(inv2ey, scale_b)))
                b_rows[1].append(~(m_b <= tol_b))
            rows[1].append(b_rows)
            rows[2].append(([re_scaled], [~(re_wu <= tol_re)]))

            wron = jm * ypm - jpm * ym
            im_resid = np.abs(wron * _np_ldexp(math.pi * rho / 2.0, ej + ey) - 1.0)
            rows[3].append(([im_resid], [~(im_resid <= IM_IDENTITY_TOL)]))

    def stack(family, part):
        return np.array([row[part] for row in family]).reshape(
            rho_arr.size, len(n_tuple), -1, m_max + 1)

    return [(stack(family, 0), stack(family, 1)) for family in rows]


def hankel(n, nu, rho):
    """(h, h') of dimension n at orders nu = m + n/2 - 1 and radii rho, as
    complex arrays of their broadcast shape, from one call of the engine's
    per-point route and `_hankel_pairs`; n = 2 gives the cylindrical pair."""
    shape = np.broadcast_shapes(np.shape(nu), np.shape(rho))
    nu, rho = (np.broadcast_to(np.asarray(a, float), shape).ravel() for a in (nu, rho))
    hr, hi, hpr, hpi = _hankel_pairs(n, nu, rho, *_scaled_entries(nu, rho))
    return (hr + 1j * hi).reshape(shape), (hpr + 1j * hpi).reshape(shape)


def a_terms(nu, t):
    """The terms of A_nu(t), which sum to it: M^2 (t^2 - nu^2), t^2 N^2 and
    -4t/pi, M and N the moduli of the cylindrical H_nu and H_nu'."""
    big_h, big_hp = hankel(2, nu, t)
    return (np.abs(big_h) ** 2 * (t * t - nu * nu), t * t * np.abs(big_hp) ** 2,
            -4.0 * t / math.pi)


def b_terms(m, n, rho, alpha, h, hp):
    """The terms of B_m(rho) at multiplier alpha, from the values (h, h'):
    (rho^2 - m(m+n-2)) |h|^2, rho^2 |h'|^2, alpha rho Re(h' conj h) and
    -(4/pi) rho^(3-n)."""
    return ((rho * rho - m * (m + n - 2)) * np.abs(h) ** 2, rho * rho * np.abs(hp) ** 2,
            alpha * rho * (hp * np.conj(h)).real, -(4.0 / math.pi) * rho ** (3.0 - n))
