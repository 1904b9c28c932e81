import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from trapcert import specfun
from trapcert.dtnverify import default_rho_grid
from trapcert.specfun import (
    BesselDomainError,
    BesselRangeError,
    ConvergenceError,
    bessel_ladder,
    cyl_bessel,
    cyl_bessel_scaled,
    hankel_half_integer,
    ladder_batches,
    spherical_hankel,
    spherical_hankel_closed,
    validation_grid,
    wronskian_residual,
)

from oracles import JY_TABLE, LOG_EXTREME_TABLE, SPH_TABLE, scalar_selftest_rows

LN2 = math.log(2.0)


# -------------------------------------------------------------------
# frozen reference values
# -------------------------------------------------------------------

@pytest.mark.parametrize("nu,t,j,y,jp,yp", JY_TABLE)
def test_against_frozen_references(nu, t, j, y, jp, yp):
    e = cyl_bessel(nu, t)
    modM = math.hypot(j, y)
    modN = math.hypot(jp, yp)
    assert abs(e.j - j) <= 1e-12 * modM
    assert abs(e.y - y) <= 1e-12 * modM
    assert abs(e.jp - jp) <= 1e-12 * modN
    assert abs(e.yp - yp) <= 1e-12 * modN


@pytest.mark.parametrize("nu,t,sj,lnj,sy,lny", LOG_EXTREME_TABLE)
def test_scaled_representation_beyond_float_range(nu, t, sj, lnj, sy, lny):
    s = cyl_bessel_scaled(nu, t)
    assert math.copysign(1.0, s.jm) == sj
    assert math.copysign(1.0, s.ym) == sy
    assert math.isclose(math.log(abs(s.jm)) + s.ej * LN2, lnj, rel_tol=1e-12)
    assert math.isclose(math.log(abs(s.ym)) + s.ey * LN2, lny, rel_tol=1e-12)
    assert s.wronskian_residual() <= 1e-12


@pytest.mark.parametrize("m,n,t,h,hp", SPH_TABLE)
def test_spherical_frozen_references(m, n, t, h, hp):
    e = spherical_hankel(m, n, t)
    assert abs(e.h - h) <= 1e-12 * abs(h)
    assert abs(e.hp - hp) <= 1e-12 * abs(hp)


def test_series_value_small_argument():
    # power series J_0(t) = 1 - t^2/4 + t^4/64 - ..., first three terms
    t = 1e-3
    ref = 1.0 - t * t / 4.0 + t**4 / 64.0
    assert math.isclose(cyl_bessel(0.0, t).j, ref, rel_tol=1e-12)


def test_half_integer_closed_value():
    # J_{1/2}(t) = sqrt(2/(pi t)) sin t, so J_{1/2}(pi/2) = 2/pi
    e = cyl_bessel(0.5, math.pi / 2.0)
    assert math.isclose(e.j, 2.0 / math.pi, rel_tol=1e-13)


def test_h0_dimension_three_closed_form():
    # h_0(3,t) = -i sqrt(2/pi) e^{it} / t
    t = 1.0
    ref = -1j * math.sqrt(2.0 / math.pi) * complex(math.cos(t), math.sin(t)) / t
    e = spherical_hankel(0, 3, t)
    assert abs(e.h - ref) <= 1e-13 * abs(ref)


def test_wronskian_closed_form_dimension_two():
    e = spherical_hankel(0, 2, 1.0)
    assert math.isclose((e.hp * e.h.conjugate()).imag, 2.0 / math.pi, rel_tol=1e-12)


# -------------------------------------------------------------------
# identities and invariants
# -------------------------------------------------------------------

@given(
    nu=st.floats(min_value=0.0, max_value=200.0),
    logt=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_wronskian_identity_everywhere(nu, logt):
    assert wronskian_residual(nu, 10.0**logt) <= 1e-12


@pytest.mark.parametrize("nu,t", [(0.0, 1.0), (7.5, 40.0)])
def test_wronskian_residual_spec_points(nu, t):
    assert wronskian_residual(nu, t) <= 1e-10


def test_wronskian_residual_finite_in_overflow_regime():
    # plain evaluation overflows here, the residual is still reportable
    assert wronskian_residual(100.0, 0.01) <= 1e-10


@given(
    m=st.integers(min_value=0, max_value=60),
    n=st.integers(min_value=2, max_value=6),
    logt=st.floats(min_value=-1.0, max_value=2.0),
)
@settings(max_examples=200, deadline=None)
def test_spherical_modulus_and_wronskian_invariants(m, n, logt):
    t = 10.0**logt
    try:
        e = spherical_hankel(m, n, t)
    except BesselRangeError:
        return
    assert math.isclose(abs(e.h), e.modM / t ** (n / 2 - 1), rel_tol=1e-12)
    im = (e.hp * e.h.conjugate()).imag
    assert math.isclose(im, 2.0 / (math.pi * t ** (n - 1)), rel_tol=1e-9)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
def test_modulus_strictly_decreasing(nu):
    ts = [10.0 ** (-2.0 + 4.0 * i / 299.0) for i in range(300)]
    prev = math.inf
    for t in ts:
        s = cyl_bessel_scaled(nu, t)
        if s.ej >= s.ey:
            lnm = math.log(math.hypot(s.jm, math.ldexp(s.ym, s.ey - s.ej))) + s.ej * LN2
        else:
            lnm = math.log(math.hypot(math.ldexp(s.jm, s.ej - s.ey), s.ym)) + s.ey * LN2
        assert lnm < prev
        prev = lnm


@given(
    m=st.integers(min_value=0, max_value=20),
    n=st.sampled_from([3, 5]),
    logt=st.floats(min_value=-1.0, max_value=2.0),
)
@settings(max_examples=200, deadline=None)
def test_odd_dimension_matches_closed_form(m, n, logt):
    t = 10.0**logt
    try:
        e = spherical_hankel(m, n, t)
    except BesselRangeError:
        return
    h_ref, hp_ref = spherical_hankel_closed(m, n, t)
    assert abs(e.h - h_ref) <= 1e-10 * abs(h_ref)
    assert abs(e.hp - hp_ref) <= 1e-10 * abs(hp_ref)


def test_closed_form_base_cases():
    # M = 0 and M = 1 sums are 1 and 1 + i/(2t); check against the explicit
    # trigonometric forms of H_{1/2}, H_{3/2}
    t = 2.31
    pref = math.sqrt(2.0 / (math.pi * t))
    h0, _ = hankel_half_integer(0, t)
    ref0 = pref * complex(math.sin(t), -math.cos(t))
    assert abs(h0 - ref0) <= 1e-14
    h1, _ = hankel_half_integer(1, t)
    ref1 = pref * complex(math.sin(t) / t - math.cos(t),
                          -math.cos(t) / t - math.sin(t))
    assert abs(h1 - ref1) <= 1e-14


# -------------------------------------------------------------------
# ladder consistency
# -------------------------------------------------------------------

@pytest.mark.parametrize("mu0,t,count", [(0.0, 0.7, 40), (0.5, 35.0, 60), (0.25, 2.0, 10)])
def test_ladder_matches_scalar_evaluations(mu0, t, count):
    lad = bessel_ladder(mu0, t, count)
    for i in range(0, count + 1, 7):
        e = lad.entry(i)
        s = cyl_bessel_scaled(mu0 + i, t)
        for got_m, got_e, ref_m, ref_e in (
            (e.jm, e.ej, s.jm, s.ej),
            (e.ym, e.ey, s.ym, s.ey),
        ):
            got = math.log(abs(got_m)) + got_e * LN2
            ref = math.log(abs(ref_m)) + ref_e * LN2
            assert math.isclose(got, ref, rel_tol=0, abs_tol=1e-10)
            assert math.copysign(1.0, got_m) == math.copysign(1.0, ref_m)
        assert e.wronskian_residual() <= 1e-12


# -------------------------------------------------------------------
# error contract
# -------------------------------------------------------------------

@pytest.mark.parametrize("nu,t", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                  (math.nan, 1.0), (1.0, math.inf)])
def test_domain_errors(nu, t):
    with pytest.raises(BesselDomainError):
        cyl_bessel(nu, t)


def test_overflow_is_signalled_not_inf():
    with pytest.raises(BesselRangeError):
        cyl_bessel(100.0, 0.01)
    with pytest.raises(BesselRangeError):
        spherical_hankel(100, 3, 0.01)


def test_ladder_rejects_bad_base_order():
    with pytest.raises(BesselDomainError):
        bessel_ladder(0.75, 1.0, 5)  # Temme seed needs |mu0| <= 1/2 below t=2
    bessel_ladder(0.75, 2.5, 5)  # fine at t >= 2


# -------------------------------------------------------------------
# cross-check against an external implementation (dev environments only)
# -------------------------------------------------------------------

scipy_special = pytest.importorskip("scipy.special")


def test_against_scipy_dense_grid():
    """Accuracy relative to the modulus M_nu over the validated envelope.

    Near zeros of J or Y at large t the relative-to-value error of any
    binary64 ratio method degrades, so the comparison is normalized by the
    (never small) modulus instead.  Signs are compared exactly, which
    exercises the denominator-sign bookkeeping in the continued fraction.
    """
    import random

    rng = random.Random(20260823)
    for _ in range(800):
        nu = rng.uniform(0.0, 200.0)
        t = 10.0 ** rng.uniform(-3.0, 3.0)
        s = cyl_bessel_scaled(nu, t)
        refj = scipy_special.jv(nu, t)
        refy = scipy_special.yv(nu, t)
        refjp = scipy_special.jvp(nu, t)
        refyp = scipy_special.yvp(nu, t)
        if not all(map(math.isfinite, (refj, refy, refjp, refyp))):
            continue
        modM = math.hypot(refj, refy)
        modN = math.hypot(refjp, refyp)
        got = [math.ldexp(m, e) for m, e in
               ((s.jm, s.ej), (s.ym, s.ey), (s.jpm, s.ej), (s.ypm, s.ey))]
        assert abs(got[0] - refj) <= 1e-10 * modM
        assert abs(got[1] - refy) <= 1e-10 * modM
        assert abs(got[2] - refjp) <= 1e-10 * modN
        assert abs(got[3] - refyp) <= 1e-10 * modN


def test_validation_grid_shape():
    nus, ts = validation_grid()
    assert len(nus) == 201 and nus[0] == 0.0 and nus[-1] == 100.0
    assert len(ts) == 400
    assert math.isclose(ts[0], 1e-2) and math.isclose(ts[-1], 200.0)


# -------------------------------------------------------------------
# the batched route against the scalar route, bit for bit
# -------------------------------------------------------------------

def bessel_ladders(mu0, ts, count):
    """`bessel_ladder(mu0, t, count)` for every t in ts, as one batch."""
    return ladder_batches([(mu0, count)], ts)[0]


def hexes(values):
    return [float(v).hex() for v in values]


def assert_ladder_rows_equal(batch, mu0, count):
    for p, t in enumerate(batch.t.tolist()):
        ref = specfun._ladder(mu0, t, count)
        for name in ("jm", "jpm", "ym", "ypm"):
            assert hexes(getattr(batch, name)[p]) == hexes(getattr(ref, name)), (name, t)
        for name in ("ej", "ey"):
            assert getattr(batch, name)[p].tolist() == getattr(ref, name), (name, t)


@pytest.mark.parametrize("mu0", [0.0, 0.5])
def test_batched_ladders_equal_scalar_on_the_default_sweep(mu0):
    # the default sweep's ladders: orders mu0 .. mu0 + 101 at 2,000 radii
    batch = bessel_ladders(mu0, default_rho_grid(), 101)
    assert batch.jm.shape == (2000, 102)
    assert_ladder_rows_equal(batch, mu0, 101)


@given(
    mu0=st.floats(min_value=-0.5, max_value=0.5),
    logts=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
    near_two=st.lists(st.sampled_from([1.9999999999999998, 2.0, 2.0000000000000004,
                                       1.5, 2.5]), max_size=2),
    count=st.integers(min_value=0, max_value=199),
)
@settings(max_examples=60, deadline=None)
def test_batched_ladders_equal_scalar_random(mu0, logts, near_two, count):
    assume(mu0 + count >= 0.0)
    ts = [10.0**lt for lt in logts] + near_two
    assert_ladder_rows_equal(bessel_ladders(mu0, ts, count), mu0, count)


@given(
    logt=st.floats(min_value=-3.0, max_value=-1.0),
    count=st.integers(min_value=150, max_value=199),
)
@settings(max_examples=20, deadline=None)
def test_batched_ladders_equal_scalar_in_the_renormalization_corner(logt, count):
    # small t and high orders: Y passes 2^500 several times on the way up
    t = 10.0**logt
    batch = bessel_ladders(0.5, [t, 2.0 * t], count)
    assert batch.ey.max() > 1000
    assert_ladder_rows_equal(batch, 0.5, count)


def parity_bases(n_values, m_max):
    """The sweep's ladders: per order parity, base order and the largest count."""
    counts = {}
    for n in n_values:
        counts[n % 2] = max(counts.get(n % 2, 0), m_max + (n - 2) // 2)
    return [(0.5 * parity, count) for parity, count in counts.items()]


@pytest.mark.parametrize("n_values", [(2, 5), (3, 4), (2, 3, 4, 5)])
def test_merged_parity_ladders_equal_scalar(n_values):
    # both parities in one batch, also when their counts differ: each keeps
    # its own top order
    ts = np.geomspace(1e-3, 1e3, 23)
    bases = parity_bases(n_values, 100)
    batches = ladder_batches(bases, ts)
    assert len(batches) == len(bases)
    for (mu0, count), batch in zip(bases, batches):
        assert batch.mu0 == mu0 and batch.jm.shape == (ts.size, count + 1)
        assert_ladder_rows_equal(batch, mu0, count)


@pytest.mark.parametrize("mu0, count", [(0.0, 200), (0.5, 199)])
def test_batched_ladders_where_only_some_points_renormalize(mu0, count):
    # at t = 1e-3 the J ladder (downward) and the Y ladder (upward) pass
    # 2^500 many times; at t = 1e3 neither does
    batch = bessel_ladders(mu0, [1e-3, 1e3, 1e-3], count)
    for e in (batch.ej, batch.ey):
        assert e[0].max() - e[0].min() > 3000
        assert e[1].max() - e[1].min() < 20
    assert_ladder_rows_equal(batch, mu0, count)
    # the top entries alone, as the selftest takes them
    nu = np.full(3, mu0 + count)
    got = specfun._scaled_entries(nu, batch.t)
    for p, t in enumerate(batch.t.tolist()):
        ref = cyl_bessel_scaled(mu0 + count, t)
        jm, jpm, ej, ym, ypm, ey = (a[p] for a in got)
        assert hexes((jm, jpm, ym, ypm)) == hexes((ref.jm, ref.jpm, ref.ym, ref.ypm))
        assert (ej, ey) == (ref.ej, ref.ey)


@given(points=st.lists(st.tuples(st.floats(min_value=0.0, max_value=200.0),
                                 st.floats(min_value=-3.0, max_value=3.0)),
                       min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_batched_residuals_equal_scalar(points):
    # mixed top orders and counts in one batch
    nu = np.array([p[0] for p in points])
    t = np.array([10.0**p[1] for p in points])
    got = specfun._wronskian_residuals(t, *specfun._scaled_entries(nu, t))
    assert hexes(got) == hexes(wronskian_residual(a, b) for a, b in zip(nu.tolist(), t.tolist()))


@given(points=st.lists(st.tuples(st.floats(min_value=-0.5, max_value=200.0),
                                 st.floats(min_value=2.0, max_value=1000.0)),
                       min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_batched_cf2_equals_scalar(points):
    mu = np.array([p[0] for p in points])
    x = np.array([p[1] for p in points])
    p, q = specfun._cf2_batch(mu, x)
    for i, (m, t) in enumerate(points):
        assert hexes((p[i], q[i])) == hexes(specfun._cf2(m, t))


def test_batched_cf1_equals_scalar():
    nu = np.array([0.0, 0.5, 3.25, 100.0, 200.0, 7.0])
    x = np.array([1e-3, 1.9, 2.0, 40.0, 1000.0, 7.0])
    f, sign = specfun._cf1_batch(nu, x)
    for i in range(nu.size):
        ref_f, ref_sign = specfun._cf1(float(nu[i]), float(x[i]))
        assert (f[i].hex(), sign[i]) == (ref_f.hex(), float(ref_sign))


def test_abs_below_decides_like_complex_abs():
    bound = 2.0**-52
    re = np.array([bound, -bound, 0.6 * bound, bound * (1 - 1e-13), 0.0, 1e300, -1e-310])
    im = np.array([0.0, 1e-40, 0.8 * bound, 1e-30, bound, 1.0, 0.0])
    got = specfun._abs_below(re, im, bound)
    assert got.tolist() == [abs(complex(a, b)) < bound for a, b in zip(re, im)]


def test_selftest_rows_equal_the_scalar_loop():
    got = list(specfun.selftest_rows())
    ref = list(scalar_selftest_rows())
    assert len(got) == len(ref) == 80400

    def key(row):
        nu, t, wr, he, ok = row
        return nu.hex(), t.hex(), wr.hex(), None if he is None else he.hex(), ok

    assert [key(r) for r in got] == [key(r) for r in ref]


def test_selftest_samples_the_scalar_route(monkeypatch):
    calls = []
    scalar = specfun.wronskian_residual

    def spy(nu, t):
        calls.append((nu, t))
        return scalar(nu, t)

    monkeypatch.setattr(specfun, "wronskian_residual", spy)
    rows = list(specfun.selftest_rows())
    assert all(ok for *_, ok in rows)
    nus, _ = validation_grid()
    assert len(calls) >= 4000
    assert {nu for nu, _ in calls} == set(nus)
    assert any(t < 2.0 for _, t in calls) and any(t >= 2.0 for _, t in calls)


def test_selftest_fails_a_row_whose_scalar_residual_differs(monkeypatch):
    scalar = specfun.wronskian_residual
    monkeypatch.setattr(specfun, "wronskian_residual",
                        lambda nu, t: math.nextafter(scalar(nu, t), 1.0))
    failed = [(nu, t) for nu, t, _, _, ok in specfun.selftest_rows() if not ok]
    assert len(failed) >= 4000


@pytest.mark.parametrize("kind", ["CF1", "CF2"])
def test_batched_stall_names_the_first_point_like_the_scalar_route(monkeypatch, kind):
    monkeypatch.setattr(specfun, "_MAXIT", 3)
    points = [(30.5, 40.0), (0.25, 2.5), (3.0, 900.0)]
    order = np.array([p[0] for p in points])
    t = np.array([p[1] for p in points])
    batched, scalar = ((specfun._cf1_batch, specfun._cf1) if kind == "CF1"
                       else (specfun._cf2_batch, specfun._cf2))
    with pytest.raises(ConvergenceError) as ref:
        scalar(*points[0])
    with pytest.raises(ConvergenceError) as got:
        batched(order, t)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith(f"{kind} stalled at ")


def test_batched_ladders_domain():
    with pytest.raises(BesselDomainError):
        bessel_ladders(0.75, [1.0, 3.0], 5)  # Temme seed needs |mu0| <= 1/2 below t=2
    with pytest.raises(BesselDomainError):
        bessel_ladders(0.0, [1.0, 0.0], 5)
    with pytest.raises(BesselDomainError):
        bessel_ladders(0.0, [], 5)
    with pytest.raises(BesselDomainError):
        bessel_ladders(0.0, [1.0], -1)
