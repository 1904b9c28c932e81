"""Tests for the mode-by-mode sign checks and the verification sweep."""

import math
import tracemalloc

import numpy as np
import pytest

from trapcert import dtnverify
from trapcert.dtnverify import (
    SweepParams,
    SweepSummary,
    _check_blocks,
    default_alphas,
    verify_sweep,
)
from trapcert.specfun import BesselDomainError, spherical_hankel

import oracles
from sweep_oracle import a_terms, b_terms, hankel, per_radius_checks

RHO_SAMPLE = SweepParams(rho_points=60).rho_grid()


def eigenvalue(m, n, k, r):
    """The DtN eigenvalue k h_m'(rho)/h_m(rho) at rho = kR."""
    h, hp = spherical_hankel(m, n, k * r)
    return k * hp / h


# -------------------------------------------------------------------
# DtN eigenvalue
# -------------------------------------------------------------------

def test_dtn_eigenvalue_n3_mode0_closed_form():
    # h_0 in dimension 3 gives h'/h = i - 1/rho, so the eigenvalue is ik - 1/R
    for k, r in ((1.0, 1.0), (3.7, 0.4), (0.3, 11.0), (50.0, 2.0)):
        lam = eigenvalue(0, 3, k, r)
        ref = complex(-1.0 / r, k)
        assert abs(lam - ref) <= 1e-12 * abs(ref)


def test_dtn_eigenvalue_outgoing_signs():
    lam = eigenvalue(0, 2, 1.0, 1.0)
    assert lam.imag > 0.0 and lam.real <= 0.0
    for n in (2, 3, 4, 5):
        for m in (0, 1, 7, 40):
            for rho in (0.1, 2.0, 80.0):
                lam = eigenvalue(m, n, 1.0, rho)
                assert lam.imag > 0.0
                assert lam.real <= 1e-9


def test_dtn_eigenvalue_evanescent_trend():
    res = [eigenvalue(m, 3, 1.0, 5.0).real for m in range(51)]
    assert all(b < a for a, b in zip(res, res[1:]))
    assert res[-1] < -5.0


def test_dtn_eigenvalue_domain():
    with pytest.raises(BesselDomainError):
        eigenvalue(0, 3, 0.0, 1.0)
    with pytest.raises(BesselDomainError):
        eigenvalue(0, 3, 1.0, -2.0)


# -------------------------------------------------------------------
# A_nu
# -------------------------------------------------------------------

def test_a_nu_nonpositive_for_covered_orders():
    assert sum(a_terms(1.0, 1.0)) < 0.0
    nu, t = np.meshgrid([0.5, 1.0, 2.5, 7.0, 33.0], [0.3, 1.0, 4.0, 60.0])
    assert (sum(a_terms(nu, t)) <= 1e-9 * np.maximum(1.0, 4.0 * t / math.pi)).all()


def test_a_nu_probe_below_half_can_be_positive():
    # nu < 1/2 is outside the claim; the probe documents that the bound
    # genuinely needs the hypothesis
    assert sum(a_terms(0.0, 0.1)) > 0.0


def test_a_nu_domain():
    # the claim covers orders nu >= 1/2, so the sweep leaves out n = 2, m = 0
    # (where the probe above is positive) and checks every other mode
    (a_margin, a_mask), *_ = checks((2, 3), 2, RHO_SAMPLE)[0]
    assert (a_margin[:, 0, 0, 0] == -math.inf).all() and not a_mask[:, 0, 0, 0].any()
    assert np.isfinite(a_margin[:, 0, 0, 1:]).all() and np.isfinite(a_margin[:, 1]).all()


# -------------------------------------------------------------------
# B_m
# -------------------------------------------------------------------

def test_b0_n3_alpha2_closed_form():
    # closed form: B_0(n=3) = rho^(-2) (2/pi) (1 - alpha); alpha = 1, where
    # it vanishes, is acceptance criterion 9
    rho = np.array([0.25, 7.0])
    b = sum(b_terms(0, 3, rho, 2.0, *hankel(3, 0.5, rho)))
    assert b == pytest.approx((2.0 / math.pi) * (1.0 - 2.0) / rho ** 2, rel=1e-10)


def test_b_m_nonpositive_inside_hypothesis():
    assert sum(b_terms(5, 2, 10.0, 1.0, *hankel(2, 5.0, 10.0))) <= 0.0
    m, rho = (a.ravel() for a in np.meshgrid([0, 1, 6, 25], [0.2, 1.5, 40.0]))
    for n in (2, 3, 4, 5):
        b = sum(b_terms(m, n, rho, float(max(1, n - 2)), *hankel(n, m + n / 2.0 - 1.0, rho)))
        assert (b <= 1e-9 * np.maximum(1.0, 4.0 / math.pi * rho ** (3 - n))).all()


def test_b0_n2_alpha1_boundary():
    # the m=0, n=2 case needs alpha >= 1 and comes close to equality
    vals = sum(b_terms(0, 2, RHO_SAMPLE, 1.0, *hankel(2, 0.0, RHO_SAMPLE)))
    assert (vals <= 1e-9 * np.maximum(1.0, 4.0 / math.pi * RHO_SAMPLE)).all()
    assert vals.max() > -1e-2  # near-equality region exists


def test_b_m_two_routes_agree_odd_dimensions():
    # the engine's (h, h') against the closed form of tests/oracles.py
    m, rho = (a.ravel() for a in np.meshgrid(np.arange(0, 21, 4), [0.6, 3.0, 30.0]))
    for n in (3, 5):
        general = sum(b_terms(m, n, rho, n - 1.0, *hankel(n, m + n / 2.0 - 1.0, rho)))
        for i, (mi, ri) in enumerate(zip(m.tolist(), rho.tolist())):
            terms = b_terms(mi, n, ri, n - 1.0, *oracles.spherical_hankel_closed(mi, n, ri))
            assert abs(general[i] - sum(terms)) <= 1e-10 * max(abs(t) for t in terms)


# -------------------------------------------------------------------
# sweep
# -------------------------------------------------------------------

def test_sweep_small_grid_clean():
    summary = verify_sweep(n_values=(2, 3), m_max=15,
                           rho_grid=SweepParams(rho_points=100).rho_grid())
    assert summary.passed
    assert summary.a_violations == 0
    assert summary.b_violations == 0
    assert summary.re_violations == 0
    assert summary.im_violations == 0
    # 2 dims x 3 alphas x 100 rho x 16 modes
    assert summary.checked_modes == 2 * 3 * 100 * 16
    assert summary.worst_im_residual <= 1e-9
    assert summary.worst_b_scaled <= 1e-12
    assert summary.worst_a_scaled <= 1e-12


def test_sweep_covers_extreme_orders():
    # large order at tiny radius: plain |Y| overflows binary64, the scaled
    # kernels must not
    summary = verify_sweep(n_values=(4,), m_max=100,
                           rho_grid=np.array([0.05]))
    assert summary.passed
    assert math.isfinite(summary.worst_b_scaled)


def test_sweep_counts_a_nan_as_a_violation(monkeypatch):
    """One NaN ladder entry per base order, at the first radius and the
    order of mode m = 1 (nu = 1 at n = 2, 3/2 at n = 3), reaches every
    family there and fails the sweep: a NaN is not <= its tolerance."""
    ladder_batches = dtnverify.ladder_batches

    def poisoned(bases, ts):
        batches = ladder_batches(bases, ts)
        for batch in batches:
            batch.jm[0, 1] = math.nan
        return batches

    monkeypatch.setattr(dtnverify, "ladder_batches", poisoned)
    summary = verify_sweep((2, 3), 5, [0.5, 1.0, 2.0])
    # both dimensions' mode 1 at the first radius, B at three multipliers each
    assert (summary.a_violations, summary.b_violations, summary.re_violations,
            summary.im_violations) == (2, 6, 2, 2)
    assert not summary.passed


def checks(n_values, m_max, rho_grid, alphas=None):
    """The kernel's blocks joined along the radius axis, and the per-radius
    reference's arrays, B at `alphas` for every dimension (by default at
    each dimension's `default_alphas`)."""
    n_tuple = tuple(n_values)
    table = [default_alphas(n) if alphas is None else alphas for n in n_tuple]
    rho_arr = np.asarray(rho_grid, dtype=float)
    blocks = list(_check_blocks(n_tuple, m_max, rho_arr, table))
    got = [tuple(np.concatenate([block[family][part] for block in blocks])
                 for part in (0, 1)) for family in range(4)]
    return got, per_radius_checks(n_tuple, m_max, rho_arr, table)


def test_sweep_alpha_below_hypothesis_records_violations():
    rho_grid = SweepParams(rho_points=50).rho_grid()
    got, _ = checks((4,), 10, rho_grid, alphas=(0.0,))
    (_, a_mask), (b_margin, b_mask), (_, re_mask), (_, im_mask) = got
    assert b_mask.shape == (50, 1, 1, 11)
    assert np.count_nonzero(b_mask) > 0 and b_margin.max() > 0.0
    # the claims the multiplier does not enter still hold
    assert not (a_mask.any() or re_mask.any() or im_mask.any())
    assert verify_sweep(n_values=(4,), m_max=10, rho_grid=rho_grid).passed


def test_sweep_records_match_scalar_routes():
    """The kernel's scaled margins of A, B and Re(h' conj h) against plain
    values from `spherical_hankel`: each family's value times rho^(n-2)
    over the largest of 1 and its cylindrical terms' moduli."""
    n, rho, alpha = 3, 5.0, 2.0
    got, _ = checks((n,), 3, [rho], alphas=(alpha,))
    (a_margin, _), (b_margin, _), (re_margin, _), _ = got
    p_prime = n / 2.0 - 1.0
    for m in range(4):
        nu, mu2 = m + p_prime, m * (m + n - 2)
        h, hp = spherical_hankel(m, n, rho)
        # the cylindrical H_nu, and G = H_nu' - (p'/rho) H_nu
        big_h, g = rho ** p_prime * h, rho ** p_prime * hp
        big_hp = g + (p_prime / rho) * big_h
        re_cyl = (g * big_h.conjugate()).real
        a_cyl = (abs(big_h) ** 2 * (rho * rho - nu * nu), rho * rho * abs(big_hp) ** 2,
                 -4.0 * rho / math.pi)
        b_cyl = ((rho * rho - mu2) * abs(big_h) ** 2, rho * rho * abs(g) ** 2,
                 alpha * rho * re_cyl, -4.0 * rho / math.pi)
        re_parts = (g.real * big_h.real, g.imag * big_h.imag)
        for margin, plain, terms in (
                (a_margin, sum(a_cyl), a_cyl),
                (b_margin, sum(b_terms(m, n, rho, alpha, h, hp)) * rho ** (n - 2), b_cyl),
                (re_margin, (hp * h.conjugate()).real * rho ** (n - 2), re_parts)):
            bound = max(1.0, *(abs(term) for term in terms))
            assert abs(margin[0, 0, 0, m] - plain / bound) <= 1e-9


def test_sweep_input_validation():
    with pytest.raises(BesselDomainError):
        verify_sweep(n_values=(1,), m_max=3, rho_grid=np.array([1.0]))
    with pytest.raises(BesselDomainError):
        verify_sweep(n_values=(), m_max=3, rho_grid=np.array([1.0]))
    with pytest.raises(BesselDomainError):
        verify_sweep(n_values=(2,), m_max=-1, rho_grid=np.array([1.0]))
    with pytest.raises(BesselDomainError):
        verify_sweep(n_values=(2,), m_max=3, rho_grid=np.array([-1.0, 2.0]))


@pytest.mark.parametrize("n_values, m_max, rho", [
    ((2,), 3, [1.0, 1.0e6]),      # CF1 stalls out there
    ((2,), 3, [5.0e-4, 1.0]),
    ((2,), 3, [1.0, math.nan]),
    ((2, 5), 199, [1.0]),         # nu = 200.5
    ((2,), 300, [1.0]),
], ids=["rho-1e6", "rho-5e-4", "rho-nan", "nu-200.5", "m-300"])
def test_sweep_rejects_inputs_outside_the_envelope(n_values, m_max, rho):
    with pytest.raises(BesselDomainError, match="envelope"):
        verify_sweep(n_values=n_values, m_max=m_max, rho_grid=np.array(rho))


# -------------------------------------------------------------------
# the batched kernel against the per-radius reference, bit for bit
# -------------------------------------------------------------------

FAMILIES = ("A", "B", "Re", "Wronskian")


def raw_bytes(array):
    """The bytes of each entry along a last axis: equal bits, equal rows."""
    return np.ascontiguousarray(array).view(np.uint8).reshape(*array.shape, -1)


def assert_checks_equal(got, ref):
    """Every family's margins and masks, shape and bits; the message names
    the first differing (radius, dimension, multiplier, mode)."""
    for name, got_pair, ref_pair in zip(FAMILIES, got, ref):
        for part, g, r in zip(("margin", "mask"), got_pair, ref_pair):
            assert g.shape == r.shape, (name, part, g.shape, r.shape)
            differ = (raw_bytes(g) != raw_bytes(r)).any(axis=-1)
            if differ.any():
                index = tuple(int(i[0]) for i in np.nonzero(differ))
                pytest.fail(f"{name} {part} differs first at {index}: "
                            f"got {g[index]!r}, ref {r[index]!r}")


def folded(ref, kwargs):
    """The summary the per-radius arrays fold into, for default multipliers."""
    rho_arr = np.asarray(kwargs["rho_grid"], dtype=float)
    margins = [margin for margin, _ in ref]
    return SweepSummary(
        tuple(kwargs["n_values"]), kwargs["m_max"], rho_arr.size, ref[1][1].size,
        *(int(np.count_nonzero(mask)) for _, mask in ref),
        *(max(start, float(margin.max())) for margin, start in
          zip(margins, (-math.inf, -math.inf, -math.inf, 0.0))))


def test_sweep_equals_per_radius_reference_on_the_default_grid():
    params = SweepParams()
    kwargs = dict(n_values=params.n_values, m_max=params.m_max, rho_grid=params.rho_grid())
    got, ref = checks(**kwargs)
    assert_checks_equal(got, ref)
    summary = verify_sweep()
    assert summary == folded(ref, kwargs)
    assert summary.checked_modes == 2000 * 101 * 12
    assert [value.hex() for value in (summary.worst_a_scaled, summary.worst_b_scaled,
                                      summary.worst_re_scaled, summary.worst_im_residual)] == [
        "0x1.0e9fc16c877b1p-49", "0x1.a3ebcb74c258fp-51", "-0x1.0b03e302b8380p-17",
        "0x1.4000000000000p-48"]


@pytest.mark.parametrize("kwargs", [
    # multipliers below the hypothesis, a repeated dimension, radii on both
    # sides of t = 2 and a grid that is not a multiple of the batch
    dict(n_values=(2, 3, 3, 7), m_max=12, rho_grid=np.geomspace(0.01, 300.0, 77),
         alphas=(0.0, 0.5, 1.0, 3.0)),
    dict(n_values=(3,), m_max=0, rho_grid=[1e-3, 1.9999999999999998, 2.0, 1e3]),
    dict(n_values=(2, 4), m_max=40, rho_grid=np.geomspace(0.05, 200.0, 70),
         alphas=(-5.0,)),
    dict(n_values=(5, 2), m_max=100, rho_grid=SweepParams(rho_points=40).rho_grid()),
    # the odd-order ladders one order shorter than the even ones
    dict(n_values=(3, 4), m_max=100, rho_grid=np.geomspace(1e-3, 1e3, 45)),
    # grids whose 500th and 501st violations (all of B at alpha = 0) lie past
    # both batch boundaries (8-radius check blocks, 128-radius engine
    # batches): at radius index 128, the last of a descending grid, and 148,
    # inside the second engine batch of an ascending one
    dict(n_values=(2, 5), m_max=3, rho_grid=np.geomspace(300.0, 0.1, 129),
         alphas=(0.0, 3.0)),
    dict(n_values=(2, 3), m_max=3, rho_grid=np.geomspace(0.05, 200.0, 161),
         alphas=(0.0, 3.0)),
], ids=["capped", "edges", "negative-alpha", "default-orders", "unequal-parity-counts",
        "cap-at-radius-128", "cap-at-radius-148"])
def test_sweep_equals_per_radius_reference(kwargs):
    got, ref = checks(**kwargs)
    assert_checks_equal(got, ref)
    if "alphas" not in kwargs:
        assert verify_sweep(**kwargs) == folded(ref, kwargs)


def test_default_sweep_allocation_peak():
    """The allocation peak of the default sweep, set by one engine batch of
    ladders and one block of checks: 2.4 MiB at 128 and 8 radii, where
    16-radius check blocks (3.6 MiB), or the last batch's ladders kept
    alive while the engine runs the next (3.3 MiB), cross the bound."""
    verify_sweep(m_max=2, rho_grid=[1.0])  # import-time and first-call caches
    tracemalloc.start()
    try:
        verify_sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20
