"""Per-radius modal sweep: the reference for the batched `verify_sweep`.

`per_radius_sweep` is the sweep as it ran before the batched ladders: one
scalar ladder (`oracles._ladder`) per base order and radius, and the four
checks as 1-d arrays over the modes of one (radius, dimension) at a time.  The tests
require `verify_sweep` to return the same `SweepSummary` and to hand the
same records to a sink, field by field and bit for bit.
"""

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from trapcert.dtnverify import (
    IM_IDENTITY_TOL,
    ModeCheckRecord,
    SweepParams,
    SweepSummary,
    _ldexp_sat,
    _np_ldexp,
    default_alphas,
)

from oracles import _ladder

_SIGN_TOL = 1e-9
_VIOLATION_CAP = 500


def per_radius_sweep(n_values: Sequence[int] = SweepParams.n_values,
                     m_max: int = SweepParams.m_max,
                     rho_grid: Optional[Sequence[float]] = None,
                     alphas: Optional[Sequence[float]] = None,
                     record_sink: Optional[Callable[[ModeCheckRecord], None]] = None,
                     ) -> SweepSummary:
    """`verify_sweep` one radius at a time (inputs assumed valid)."""
    rho_arr = SweepParams().rho_grid() if rho_grid is None else np.asarray(rho_grid, dtype=float)
    n_tuple = tuple(int(n) for n in n_values)
    count_by_parity = {}
    for n in n_tuple:
        count_by_parity[n % 2] = max(count_by_parity.get(n % 2, 0),
                                     m_max + (n - 2) // 2)
    m_idx = np.arange(m_max + 1)

    checked = 0
    counts = {"a": 0, "b": 0, "bh": 0, "re": 0, "im": 0}
    worst = {"a": -math.inf, "bh": -math.inf, "re": -math.inf, "im": 0.0}
    violations: List[ModeCheckRecord] = []
    truncated = False

    def plain(scaled: float, two_ey: int, rho_pow: float) -> float:
        return _ldexp_sat(scaled, two_ey) * rho_pow

    def note_violation(rec: ModeCheckRecord) -> None:
        nonlocal truncated
        if len(violations) < _VIOLATION_CAP:
            violations.append(rec)
        else:
            truncated = True

    for rho in rho_arr.tolist():
        ladders = {}
        if 0 in count_by_parity:
            ladders[0] = _ladder(0.0, rho, count_by_parity[0])
        if 1 in count_by_parity:
            ladders[1] = _ladder(0.5, rho, count_by_parity[1])
        for n in n_tuple:
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

            wron = jm * ypm - jpm * ym
            im_resid = np.abs(wron * _np_ldexp(math.pi * rho / 2.0, ej + ey) - 1.0)
            viol_im = im_resid > IM_IDENTITY_TOL

            b1 = (rho * rho - mu2) * m2
            b2 = rho * rho * w2
            b4 = a3
            alpha_list = default_alphas(n) if alphas is None else tuple(float(a) for a in alphas)
            hyp = max(1.0, float(n - 2))
            rho_pow = rho ** (2 - n)

            counts["a"] += int(np.count_nonzero(viol_a))
            counts["re"] += int(np.count_nonzero(viol_re))
            counts["im"] += int(np.count_nonzero(viol_im))
            worst["a"] = max(worst["a"], float(a_scaled[a_mask].max()) if a_mask.any() else -math.inf)
            worst["re"] = max(worst["re"], float(re_scaled.max()))
            worst["im"] = max(worst["im"], float(im_resid.max()))

            for alpha in alpha_list:
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
                    worst["bh"] = max(worst["bh"], float(b_scaled.max()))
                checked += m_max + 1

                want = (np.nonzero(viol_b | viol_a | viol_re | viol_im)[0]
                        if record_sink is None else range(m_max + 1))
                for mi in want:
                    mi = int(mi)
                    rec = ModeCheckRecord(
                        n=n, m=mi, nu=float(nu[mi]), rho=rho, alpha=alpha,
                        a_nu=plain(float(m_a[mi]), int(2 * ey[mi]), 1.0),
                        b_m=plain(float(m_b[mi]), int(2 * ey[mi]), rho_pow),
                        re_sign=plain(float(re_wu[mi]), int(2 * ey[mi]), rho_pow),
                        im_identity_residual=float(im_resid[mi]),
                    )
                    if record_sink is not None:
                        record_sink(rec)
                    if (viol_b[mi] or viol_a[mi] or viol_re[mi] or viol_im[mi]):
                        note_violation(rec)

    return SweepSummary(
        n_values=n_tuple,
        m_max=m_max,
        rho_count=int(rho_arr.size),
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
