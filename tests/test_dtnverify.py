"""Tests for the mode-by-mode sign checks and the verification sweep."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import trapcert.dtnverify
from trapcert.dtnverify import (
    SweepParams,
    a_nu,
    b_m,
    default_alphas,
    dtn_eigenvalue,
    verify_sweep,
)
from trapcert.specfun import (
    BesselDomainError,
    BesselRangeError,
    spherical_hankel,
    spherical_hankel_closed,
)

from compare import assert_sequences_equal
from sweep_oracle import per_radius_sweep

RHO_SAMPLE = SweepParams(rho_points=60).rho_grid()


# -------------------------------------------------------------------
# DtN eigenvalue
# -------------------------------------------------------------------

def test_dtn_eigenvalue_n3_mode0_closed_form():
    # h_0 in dimension 3 gives h'/h = i - 1/rho, so the eigenvalue is ik - 1/R
    for k, r in ((1.0, 1.0), (3.7, 0.4), (0.3, 11.0), (50.0, 2.0)):
        lam = dtn_eigenvalue(0, 3, k, r)
        ref = complex(-1.0 / r, k)
        assert abs(lam - ref) <= 1e-12 * abs(ref)


def test_dtn_eigenvalue_outgoing_signs():
    lam = dtn_eigenvalue(0, 2, 1.0, 1.0)
    assert lam.imag > 0.0 and lam.real <= 0.0
    for n in (2, 3, 4, 5):
        for m in (0, 1, 7, 40):
            for rho in (0.1, 2.0, 80.0):
                lam = dtn_eigenvalue(m, n, 1.0, rho)
                assert lam.imag > 0.0
                assert lam.real <= 1e-9


def test_dtn_eigenvalue_evanescent_trend():
    res = [dtn_eigenvalue(m, 3, 1.0, 5.0).real for m in range(51)]
    assert all(b < a for a, b in zip(res, res[1:]))
    assert res[-1] < -5.0


def test_dtn_eigenvalue_domain():
    with pytest.raises(BesselDomainError):
        dtn_eigenvalue(0, 3, 0.0, 1.0)
    with pytest.raises(BesselDomainError):
        dtn_eigenvalue(0, 3, 1.0, -2.0)


# -------------------------------------------------------------------
# A_nu
# -------------------------------------------------------------------

def test_a_half_vanishes_identically():
    for t in RHO_SAMPLE:
        scale = max(1.0, 4.0 * t / math.pi, (2.0 / (math.pi * t)) * abs(t * t - 0.25))
        assert abs(a_nu(0.5, float(t))) <= 1e-10 * scale


def test_a_nu_nonpositive_for_covered_orders():
    assert a_nu(1.0, 1.0) < 0.0
    for nu in (0.5, 1.0, 2.5, 7.0, 33.0):
        for t in (0.3, 1.0, 4.0, 60.0):
            assert a_nu(nu, t) <= 1e-9 * max(1.0, 4.0 * t / math.pi)


def test_a_nu_probe_below_half_can_be_positive():
    # nu < 1/2 is outside the claim; the probe documents that the bound
    # genuinely needs the hypothesis
    assert a_nu(0.0, 0.1) > 0.0


def test_a_nu_domain():
    with pytest.raises(BesselDomainError):
        a_nu(-0.5, 1.0)
    with pytest.raises(BesselDomainError):
        a_nu(1.0, 0.0)


# -------------------------------------------------------------------
# B_m
# -------------------------------------------------------------------

def test_b0_n3_alpha1_vanishes():
    # closed form: B_0(n=3) = rho^(-2) (2/pi) (1 - alpha)
    for rho in RHO_SAMPLE:
        scale = max(1.0, 4.0 / (math.pi * float(rho)))
        assert abs(b_m(0, 3, float(rho), 1.0)) <= 1e-10 * scale


def test_b0_n3_alpha2_closed_form():
    assert abs(b_m(0, 3, 1.0, 2.0) + 2.0 / math.pi) <= 1e-10
    for rho in (0.25, 1.0, 7.0):
        ref = (2.0 / math.pi) * (1.0 - 2.0) / rho ** 2
        assert b_m(0, 3, rho, 2.0) == pytest.approx(ref, rel=1e-10)


def test_b_m_nonpositive_inside_hypothesis():
    assert b_m(5, 2, 10.0, 1.0) <= 0.0
    for n in (2, 3, 4, 5):
        hyp = max(1, n - 2)
        for m in (0, 1, 6, 25):
            for rho in (0.2, 1.5, 40.0):
                val = b_m(m, n, rho, float(hyp))
                assert val <= 1e-9 * max(1.0, 4.0 / math.pi * rho ** (3 - n))


def test_b0_n2_alpha1_boundary():
    # the m=0, n=2 case needs alpha >= 1 and comes close to equality
    vals = [b_m(0, 2, float(rho), 1.0) for rho in RHO_SAMPLE]
    assert all(v <= 1e-9 * max(1.0, 4.0 / math.pi * r)
               for v, r in zip(vals, RHO_SAMPLE))
    assert max(vals) > -1e-2  # near-equality region exists


def test_b_m_two_routes_agree_odd_dimensions():
    for n in (3, 5):
        for m in range(0, 21, 4):
            for rho in (0.6, 3.0, 30.0):
                general = b_m(m, n, rho, float(n - 1))
                h, hp = spherical_hankel_closed(m, n, rho)
                mu2 = m * (m + n - 2)
                t1 = (rho * rho - mu2) * abs(h) ** 2
                t2 = rho * rho * abs(hp) ** 2
                t3 = (n - 1) * rho * (hp * h.conjugate()).real
                t4 = (4.0 / math.pi) * rho ** (3 - n)
                closed = t1 + t2 + t3 - t4
                scale = max(abs(t1), t2, abs(t3), t4)
                assert abs(general - closed) <= 1e-10 * scale


def test_b_m_domain():
    with pytest.raises(BesselDomainError):
        b_m(-1, 3, 1.0, 1.0)
    with pytest.raises(BesselDomainError):
        b_m(0, 1, 1.0, 1.0)


@pytest.mark.parametrize("m", [85, 86])
def test_b_m_past_binary64_raises_a_range_error(m):
    # h itself is finite here, but |h|^2 is not
    assert math.isfinite(abs(spherical_hankel(m, 3, 1.0)[0]))
    with pytest.raises(BesselRangeError) as info:
        b_m(m, 3, 1.0, 1.0)
    assert isinstance(info.value, OverflowError)
    assert f"m={m}, n=3, rho=1.0" in str(info.value)
    assert b_m(84, 3, 1.0, 1.0) < -1e298  # the last order that fits


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
    assert summary.violations == ()
    # 2 dims x 3 alphas x 100 rho x 16 modes
    assert summary.checked_modes == 2 * 3 * 100 * 16
    assert summary.worst_im_residual <= 1e-9
    assert summary.worst_b_scaled_hypothesis <= 1e-12
    assert summary.worst_a_scaled <= 1e-12


def test_sweep_covers_extreme_orders():
    # large order at tiny radius: plain |Y| overflows binary64, the scaled
    # kernels must not
    summary = verify_sweep(n_values=(4,), m_max=100,
                           rho_grid=np.array([0.05]))
    assert summary.passed
    assert math.isfinite(summary.worst_b_scaled_hypothesis)


def test_sweep_alpha_below_hypothesis_records_violations():
    summary = verify_sweep(n_values=(4,), m_max=10,
                           rho_grid=SweepParams(rho_points=50).rho_grid(), alphas=(0.0,))
    assert summary.b_violations > 0
    assert summary.b_violations_hypothesis == 0
    assert summary.passed  # the covered claims still hold
    assert len(summary.violations) > 0
    assert all(r.alpha == 0.0 for r in summary.violations)


def test_sweep_record_sink_streams_everything():
    records = []
    summary = verify_sweep(n_values=(3,), m_max=4,
                           rho_grid=np.array([0.8, 5.0]),
                           record_sink=records.append)
    assert len(records) == 1 * 3 * 2 * 5
    assert summary.checked_modes == len(records)
    for rec in records:
        assert rec.n == 3
        assert rec.nu == rec.m + 0.5
        assert rec.im_identity_residual <= 1e-9
        assert rec.alpha in default_alphas(3)


def test_sweep_records_match_scalar_routes():
    records = []
    verify_sweep(n_values=(3,), m_max=3, rho_grid=np.array([5.0]),
                 alphas=(2.0,), record_sink=records.append)
    for rec in records:
        scale = max(1.0, 4.0 * rec.rho / math.pi)
        assert abs(rec.a_nu - a_nu(rec.nu, rec.rho)) <= 1e-9 * scale
        assert abs(rec.b_m - b_m(rec.m, rec.n, rec.rho, rec.alpha)) <= 1e-9 * scale
        h, hp = spherical_hankel(rec.m, rec.n, rec.rho)
        re_ref = (hp * h.conjugate()).real
        assert abs(rec.re_sign - re_ref) <= 1e-9 * max(1.0, abs(re_ref))


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
# the batched sweep against the per-radius reference, field for field
# -------------------------------------------------------------------

def bits(value):
    """A comparison key that tells apart every float bit pattern."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [(f.name, bits(getattr(value, f.name))) for f in dataclasses.fields(value)]
    return value


def assert_summaries_equal(got, ref):
    """Every field of two summaries, bit for bit, the violations one record
    at a time."""
    def entries(summary):
        return ([(f.name, getattr(summary, f.name)) for f in dataclasses.fields(summary)
                 if f.name != "violations"]
                + [("violations", i, rec) for i, rec in enumerate(summary.violations)])

    assert_sequences_equal(entries(got), entries(ref), key=bits)


# grids that cross both batch boundaries (8-radius check blocks, 128-radius
# engine batches), by the radius index of their 500th and 501st violations:
# the last radius of a descending grid, and a radius inside the second
# engine batch of an ascending one
CAP_CASES = {
    128: dict(n_values=(2, 5), m_max=3, rho_grid=np.geomspace(300.0, 0.1, 129),
              alphas=(0.0, 3.0)),
    148: dict(n_values=(2, 3), m_max=3, rho_grid=np.geomspace(0.05, 200.0, 161),
              alphas=(0.0, 3.0)),
}


def test_sweep_equals_per_radius_reference_on_the_default_grid():
    got = verify_sweep()
    assert_summaries_equal(got, per_radius_sweep())
    assert got.checked_modes == 2000 * 101 * 12


@pytest.mark.parametrize("kwargs", [
    # violations past the cap, a repeated dimension, radii on both sides of
    # t = 2 and a grid that is not a multiple of the batch
    dict(n_values=(2, 3, 3, 7), m_max=12, rho_grid=np.geomspace(0.01, 300.0, 77),
         alphas=(0.0, 0.5, 1.0, 3.0)),
    dict(n_values=(3,), m_max=0, rho_grid=[1e-3, 1.9999999999999998, 2.0, 1e3]),
    dict(n_values=(2, 4), m_max=40, rho_grid=np.geomspace(0.05, 200.0, 70),
         alphas=(-5.0,)),
    dict(n_values=(5, 2), m_max=100, rho_grid=SweepParams(rho_points=40).rho_grid()),
    # the odd-order ladders one order shorter than the even ones
    dict(n_values=(3, 4), m_max=100, rho_grid=np.geomspace(1e-3, 1e3, 45)),
    *CAP_CASES.values(),
], ids=["capped", "edges", "negative-alpha", "default-orders", "unequal-parity-counts",
        *(f"cap-at-radius-{index}" for index in CAP_CASES)])
def test_sweep_equals_per_radius_reference(kwargs):
    got_records, ref_records = [], []
    got = verify_sweep(record_sink=got_records.append, **kwargs)
    ref = per_radius_sweep(record_sink=ref_records.append, **kwargs)
    assert_summaries_equal(got, ref)
    assert_sequences_equal(got_records, ref_records, key=bits)
    assert len(got_records) == got.checked_modes
    assert_summaries_equal(verify_sweep(**kwargs), per_radius_sweep(**kwargs))


@pytest.mark.parametrize("index", sorted(CAP_CASES))
def test_cap_cases_pass_the_cap_inside_the_second_engine_batch(index, monkeypatch):
    kwargs = CAP_CASES[index]
    capped = verify_sweep(**kwargs)
    assert capped.violations_truncated
    monkeypatch.setattr(trapcert.dtnverify, "_VIOLATION_CAP", 10**6)
    full = verify_sweep(**kwargs)
    radius_index = {rho: i for i, rho in enumerate(kwargs["rho_grid"].tolist())}
    assert [radius_index[rec.rho] for rec in full.violations[499:501]] == [index, index]
    assert_sequences_equal(full.violations[:500], capped.violations, key=bits)


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


def test_a_cap_equal_to_the_violation_count_truncates_nothing(monkeypatch):
    kwargs = CAP_CASES[128]
    monkeypatch.setattr(trapcert.dtnverify, "_VIOLATION_CAP", 10**6)
    full = verify_sweep(**kwargs).violations
    for cap, truncated in ((len(full), False), (len(full) - 1, True)):
        monkeypatch.setattr(trapcert.dtnverify, "_VIOLATION_CAP", cap)
        got = verify_sweep(**kwargs)
        assert got.violations_truncated is truncated
        assert_sequences_equal(got.violations, full[:cap], key=bits)
