import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trapcert.geometry import build_layered
from trapcert.sequences import (
    APower,
    ATable,
    DShiftedPower,
    DTable,
    KLogGrowth,
    KTable,
    Schedule,
    ScheduleError,
    demo_schedule,
    derived_params,
    gap_fractions,
    growth_floor_check,
    padding_tail_bound,
    paddings,
    sidelengths,
    target_norms,
    volume_sum,
    volume_tail_bound,
    wavenumbers,
)

# mpmath at 40 digits on k_j = c (j ln(j+e))^(1/n) ln^2(ln(j+e^e))
K_DEMO_N2 = {1: 2.39970264564788, 2: 3.8442257339827814, 3: 5.18176595172093,
             1413: 796.2600108375052}
K_DEMO_N3_J1 = 2.2931487014498675
EPS_SPEC_POINT = 0.5172287745907581  # eps at n=2, k=2.39988, a=1e-4, 40-digit eval
VOLUME_DEMO_N2 = {1: 3.4277953115267144, 10: 7.113260601167245,
                  1413: 8.421993379295522}


def test_wavenumber_frozen_values():
    np.testing.assert_allclose(wavenumbers(demo_schedule(2), list(K_DEMO_N2)),
                               list(K_DEMO_N2.values()), rtol=1e-13)
    np.testing.assert_allclose(wavenumbers(demo_schedule(3), [1]), [K_DEMO_N3_J1],
                               rtol=1e-13)


def growth_at_40_digits(n, js):
    """k_j of the demonstration family (c = 2) at 40 digits, rounded once."""
    with mp.workdps(40):
        root, e_e = mp.mpf(1) / n, mp.exp(mp.e)
        return [float(2 * (j * mp.log(j + mp.e)) ** root * mp.log(mp.log(j + e_e)) ** 2)
                for j in map(mp.mpf, js)]


def test_wavenumber_extended_precision_agrees():
    # measured: at most 4 ulps at n=2 over j <= 169,999, 5 at n=3, 4 at n=4
    for n, js in ((2, [*range(1, 2001), 166_590]), (3, range(1, 2001)),
                  (4, range(1, 2001))):
        ks = wavenumbers(demo_schedule(n), js).tolist()
        for j, k, ref in zip(js, ks, growth_at_40_digits(n, js)):
            assert abs(k - ref) <= 8 * math.ulp(ref), (n, j, k, ref)


def test_wavenumber_table_lookup_and_bounds():
    s = Schedule(2, KTable((5.0, 7.0, 11.0)), APower(1e-4, 0.25),
                 DShiftedPower(2.0, 6.0, 1.2))
    assert wavenumbers(s, range(1, 4)).tolist() == [5.0, 7.0, 11.0]
    with pytest.raises(ScheduleError):
        wavenumbers(s, range(3, 5))
    with pytest.raises(ScheduleError):
        wavenumbers(s, range(0, 2))


def test_wavenumber_strictly_increasing():
    ks = wavenumbers(demo_schedule(2), range(1, 501))
    assert (np.diff(ks) > 0.0).all()


@pytest.mark.parametrize("n, layers", [(2, 256), (3, 10), (4, 6)],
                         ids=["n2-256-layers", "n3-10-layers", "n4-6-layers"])
def test_built_wavenumbers_strictly_increase(n, layers):
    # the paper's hypothesis on k_j, for the k_j that the boxes carry
    boxes, _ = build_layered(demo_schedule(n), layers)
    assert boxes.j.tolist() == list(range(1, len(boxes) + 1))
    assert (np.diff(boxes.k) > 0.0).all()


def test_sidelength_is_pi_root_n_over_k():
    for n in (2, 3, 5):
        s = demo_schedule(n)
        js = [1, 4, 40]
        assert sidelengths(s, js).tolist() == [
            math.pi * math.sqrt(n) / k for k in wavenumbers(s, js).tolist()]


def test_target_norm_demo_family():
    a = target_norms(demo_schedule(2), range(1, 17))
    assert a[0] == 1e-4
    assert a[15] == 2.0 * a[0]  # 16^(1/4) = 2 exactly


def test_padding_positive_decreasing():
    s = demo_schedule(2)
    ds = paddings(s, range(1, 200)).tolist()
    assert all(d > 0 for d in ds)
    assert all(b < a for a, b in zip(ds, ds[1:]))


# -------------------------------------------------------------------
# gap fraction
# -------------------------------------------------------------------

def test_gap_fraction_frozen_value():
    got = gap_fractions(2, np.array([2.39988]), np.array([1e-4]))[0]
    assert math.isclose(got, EPS_SPEC_POINT, rel_tol=1e-13)
    assert round(got, 4) == 0.5172


def columns(logk, loga):
    """Columns (k, a) of 1 to 20 boxes, from base-10 exponents in the ranges
    logk and loga."""
    return st.lists(st.tuples(st.floats(*logk), st.floats(*loga)), min_size=1,
                    max_size=20).map(lambda pts: tuple(10.0 ** np.array(pts).T))


@given(n=st.integers(min_value=2, max_value=6), ka=columns((-2.0, 4.0), (-9.0, 9.0)))
@settings(max_examples=100, deadline=None)
def test_gap_fraction_in_unit_interval(n, ka):
    eps = gap_fractions(n, *ka)
    assert ((0.0 < eps) & (eps < 1.0)).all()


def test_gap_fraction_monotone_in_each_argument():
    avals = 10.0 ** (-4 + 0.9 * np.arange(10))
    assert (np.diff(gap_fractions(2, np.full(10, 2.4), avals)) < 0.0).all()
    kvals = 10.0 ** (-1 + 0.5 * np.arange(10))
    assert (np.diff(gap_fractions(3, kvals, np.full(10, 1e-2))) < 0.0).all()


def test_gap_fraction_vanishes_for_large_targets():
    vals = gap_fractions(2, np.ones(3), np.array([1e3, 1e6, 1e9]))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-4


@given(n=st.integers(min_value=2, max_value=5), ka=columns((-1.0, 3.0), (-6.0, 6.0)))
@settings(max_examples=100, deadline=None)
def test_gap_fraction_inverts_algebraically(n, ka):
    eps = gap_fractions(n, *ka).tolist()
    pref = (3.0 / (2.0 * math.pi**2)) ** (1.0 / 3.0)
    for k, a, e in zip(*(c.tolist() for c in ka), eps):
        x = 1.0 + 2.0 * k * math.sqrt(2.0 * k * k * a * a + a)
        assert math.isclose(x, (pref / e) ** ((3.0 * n - 3.0) / 2.0), rel_tol=1e-12)


@pytest.mark.parametrize("k,a", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_gap_fraction_domain_errors(k, a):
    with pytest.raises(ScheduleError):
        gap_fractions(2, np.array([1.0, k]), np.array([1.0, a]))


def test_derived_params_bundle():
    s = demo_schedule(2)
    p = derived_params(s, 1)
    assert p.j == 1
    assert p.k == wavenumbers(s, [1])[0]
    assert p.ell == math.pi * math.sqrt(2) / p.k
    assert p.eps == gap_fractions(2, np.array([p.k]), np.array([p.a]))[0]
    assert p.a == 1e-4


def test_derived_eps_decreasing_along_demo_schedule():
    s = demo_schedule(2)
    eps = [derived_params(s, j).eps for j in range(1, 301)]
    assert all(b < a for a, b in zip(eps, eps[1:]))


# -------------------------------------------------------------------
# growth floor
# -------------------------------------------------------------------

def test_growth_floor_demo_family_passes():
    rep = growth_floor_check(demo_schedule(2), 2.0, 1000)
    assert rep.passed and rep.first_failure is None


def test_growth_floor_table_fails_at_first_index():
    s = Schedule(2, KTable((1.0, 2.0, 3.0)), APower(1e-4, 0.25),
                 DShiftedPower(2.0, 6.0, 1.2))
    rep = growth_floor_check(s, 2.0, 3)
    assert not rep.passed
    assert rep.first_failure == 1
    assert rep.failures == (1, 2, 3)


def test_growth_floor_zero_constant_vacuous():
    s = Schedule(2, KTable((0.001,)), APower(1e-4, 0.25), DShiftedPower(2.0, 6.0, 1.2))
    assert growth_floor_check(s, 0.0, 1).passed


# -------------------------------------------------------------------
# partial sums and tails
# -------------------------------------------------------------------

def test_partial_volume_unit_cube():
    s = Schedule(2, KTable((math.pi * math.sqrt(2.0),)), APower(1.0, 0.0),
                 DShiftedPower(2.0, 6.0, 1.2))
    sides = sidelengths(s, [1])
    assert math.isclose(sides[0], 1.0, rel_tol=1e-15)
    assert math.isclose(volume_sum(2, sides, 1, "volume"), 1.0, rel_tol=1e-15)


@pytest.mark.parametrize("J,ref", sorted(VOLUME_DEMO_N2.items()))
def test_partial_volume_frozen_values(J, ref):
    sides = sidelengths(demo_schedule(2), range(1, J + 1))
    assert math.isclose(volume_sum(2, sides, 1, "volume"), ref, rel_tol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_partial_volume_identity(n):
    s = demo_schedule(n)
    js = range(1, 201)
    direct = volume_sum(n, sidelengths(s, js), 1, "volume")
    via_k = (math.pi**n * n ** (n / 2.0)
             * math.fsum(k ** (-n) for k in wavenumbers(s, js).tolist()))
    assert math.isclose(direct, via_k, rel_tol=1e-12)


def test_partial_inverse_power_sum_dominates_last_term():
    # j * k_j^-n <= sum_{i<=j} k_i^-n: the increasing-k rearrangement bound
    acc = 0.0
    for j, k in enumerate(wavenumbers(demo_schedule(2), range(1, 301)).tolist(), start=1):
        kinv = k ** (-2.0)
        acc += kinv
        assert j * kinv <= acc * (1.0 + 1e-15)


@pytest.mark.parametrize("i0", [10, 100])
def test_padding_tail_bound_dominates_partial_sums(i0):
    s = demo_schedule(2)
    tail = math.fsum(paddings(s, range(i0 + 1, 11 * i0)).tolist())
    assert tail < padding_tail_bound(s, i0)


def test_volume_sums_past_binary64_raise_schedule_error():
    # n = 3 cubes of side about 5e102: each finite, any two overflow
    sched = Schedule(3, KTable([1.0e-102, 1.1e-102, 1.2e-102]), APower(1e-4, 0.25),
                     DShiftedPower(2.0, 6.0, 1.2))
    sides = sidelengths(sched, range(1, 3))
    assert volume_sum(3, sides[:1], 1, "partial volume") == sides[0] ** 3
    with pytest.raises(ScheduleError) as info:
        volume_sum(3, sides, 1, "partial volume")
    assert str(info.value) == ("partial volume leaves binary64: box 1 has side "
                               f"{sides[0].item()!r}")
    # a stack of the first box sums the table's tail past it
    with pytest.raises(ScheduleError) as info:
        build_layered(sched, 1, "stacked")
    assert str(info.value) == ("volume tail leaves binary64: box 2 has side "
                               f"{sides[1].item()!r}")


@pytest.mark.parametrize("c, n", [(1e-170, 2), (1e-160, 2), (1e-103, 3), (1e-77, 4)])
def test_volume_tail_bound_past_binary64_raises_schedule_error(c, n):
    # (pi sqrt(n) / c)^n overflows; c^n alone underflows (at c = 1e-170, n = 2,
    # to 0) or is subnormal
    sched = Schedule(n, KLogGrowth(c), APower(1e-4, 0.25), DShiftedPower(2.0, 6.0, 1.2))
    with pytest.raises(ScheduleError) as info:
        volume_tail_bound(sched, 3)
    assert str(info.value) == f"volume tail bound leaves binary64 at c={c!r}, n={n}"


@pytest.mark.parametrize("J", [10, 100])
def test_volume_tail_bound_dominates_partial_sums(J):
    s = demo_schedule(2)
    tail = volume_sum(2, sidelengths(s, range(J + 1, J + 5001)), J + 1, "volume")
    assert tail < volume_tail_bound(s, J)


def test_weyl_consistency_of_demo_schedule():
    # j^(-1/n) k_j >= pi sqrt(n) (V_J + tail)^(-1/n) for all j <= J: the
    # wavenumbers grow fast enough for the total volume they imply
    n = 2
    s = demo_schedule(n)
    js = range(1, 301)
    budget = volume_sum(n, sidelengths(s, js), 1, "volume") + volume_tail_bound(s, js[-1])
    floor = math.pi * math.sqrt(n) * budget ** (-1.0 / n)
    for j, k in zip(js, wavenumbers(s, js).tolist()):
        assert j ** (-1.0 / n) * k >= floor * (1.0 - 1e-14)


# -------------------------------------------------------------------
# construction validation
# -------------------------------------------------------------------

def test_family_validation_errors():
    with pytest.raises(ScheduleError):
        KTable((3.0, 2.0))
    with pytest.raises(ScheduleError):
        KTable(())
    with pytest.raises(ScheduleError):
        KTable((-1.0, 2.0))
    with pytest.raises(ScheduleError):
        ATable((2.0, 1.0))
    with pytest.raises(ScheduleError):
        DTable((0.1, 0.2))
    with pytest.raises(ScheduleError):
        DShiftedPower(2.0, 6.0, 1.0)  # exponent must exceed 1
    with pytest.raises(ScheduleError):
        KLogGrowth(0.0)
    with pytest.raises(ScheduleError):
        APower(1.0, -0.5)


@pytest.mark.parametrize("make, message", [
    (lambda: KTable((0.0, 1.0)), "wavenumbers must be positive"),
    (lambda: ATable((0.0, 1.0)), "target table must be nonempty and positive"),
    (lambda: DTable((0.5, 0.0)), "padding table must be nonempty and positive"),
    (lambda: APower(0.0, 0.25),
     "power target family needs finite amplitude > 0, exponent >= 0"),
    (lambda: DShiftedPower(0.0, 6.0, 1.2),
     "shifted-power family needs finite amplitude > 0, shift >= 0"),
], ids=["KTable", "ATable", "DTable", "APower", "DShiftedPower"])
def test_families_refuse_zero_at_their_positivity_boundary(make, message):
    with pytest.raises(ScheduleError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("make", [
    lambda: APower(math.nan, 0.25),
    lambda: APower(1e-4, math.inf),
    lambda: DShiftedPower(math.nan, 6.0, 1.2),
    lambda: DShiftedPower(2.0, math.inf, 1.2),
    lambda: DShiftedPower(2.0, 6.0, math.inf),
    lambda: KTable((1.0, math.inf)),
    lambda: KTable((math.nan,)),
    lambda: ATable((math.nan, 1.0)),
    lambda: DTable((math.inf, 1.0)),
], ids=["APower-amplitude", "APower-exponent", "DShiftedPower-amplitude",
        "DShiftedPower-shift", "DShiftedPower-exponent", "KTable-inf",
        "KTable-nan", "ATable-nan", "DTable-inf"])
def test_families_reject_non_finite_values(make):
    with pytest.raises(ScheduleError, match="finite"):
        make()


def test_schedule_validation_errors():
    with pytest.raises(ScheduleError):
        Schedule(1, KLogGrowth(2.0), APower(1e-4, 0.25), DShiftedPower(2.0, 6.0, 1.2))


def test_tables_accept_lists():
    s = Schedule(2, KTable([5.0, 7.0]), ATable([1.0, 1.0]), DTable([0.5, 0.25]))
    assert wavenumbers(s, range(1, 3)).tolist() == [5.0, 7.0]
    assert target_norms(s, range(1, 3)).tolist() == [1.0, 1.0]
    assert paddings(s, [2]).tolist() == [0.25]
