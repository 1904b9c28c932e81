import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from trapcert import specfun
from trapcert.dtnverify import SweepParams
from trapcert.specfun import (
    BesselDomainError,
    BesselRangeError,
    ConvergenceError,
    bessel_ladder,
    ladder_batches,
    selftest_grid,
    spherical_hankel,
    spherical_hankel_closed,
    validation_grid,
    wronskian_residual,
)

import oracles
from compare import assert_sequences_equal
from oracles import (
    JY_TABLE,
    LOG_EXTREME_TABLE,
    SPH_TABLE,
    Entry,
    scalar_entry,
    scalar_selftest_rows,
    scalar_wronskian_residual,
)

LN2 = math.log(2.0)


def entry(nu, t):
    """`specfun._entry(nu, t)` as an `oracles.Entry` on Python numbers."""
    return Entry(nu, t, *(a[0].item() for a in specfun._entry(nu, t)))


# -------------------------------------------------------------------
# frozen reference values
# -------------------------------------------------------------------

@pytest.mark.parametrize("nu,t,j,y,jp,yp", JY_TABLE)
def test_against_frozen_references(nu, t, j, y, jp, yp):
    s = entry(nu, t)
    got = np.ldexp([s.jm, s.ym, s.jpm, s.ypm], [s.ej, s.ey, s.ej, s.ey])
    # error relative to the moduli M = |H| and N = |H'|
    scale = np.repeat([math.hypot(j, y), math.hypot(jp, yp)], 2)
    assert (np.abs(got - [j, y, jp, yp]) <= 1e-12 * scale).all()


@pytest.mark.parametrize("nu,t,sj,lnj,sy,lny", LOG_EXTREME_TABLE)
def test_scaled_representation_beyond_float_range(nu, t, sj, lnj, sy, lny):
    s = entry(nu, t)
    assert math.copysign(1.0, s.jm) == sj
    assert math.copysign(1.0, s.ym) == sy
    assert math.isclose(math.log(abs(s.jm)) + s.ej * LN2, lnj, rel_tol=1e-12)
    assert math.isclose(math.log(abs(s.ym)) + s.ey * LN2, lny, rel_tol=1e-12)
    assert wronskian_residual(nu, t) <= 1e-12


@pytest.mark.parametrize("m,n,t,h,hp", SPH_TABLE)
def test_spherical_frozen_references(m, n, t, h, hp):
    got_h, got_hp = spherical_hankel(m, n, t)
    assert abs(got_h - h) <= 1e-12 * abs(h)
    assert abs(got_hp - hp) <= 1e-12 * abs(hp)


def test_series_value_small_argument():
    # power series J_0(t) = 1 - t^2/4 + t^4/64 - ..., first three terms
    t = 1e-3
    ref = 1.0 - t * t / 4.0 + t**4 / 64.0
    s = entry(0.0, t)
    assert math.isclose(math.ldexp(s.jm, s.ej), ref, rel_tol=1e-12)


def test_half_integer_closed_value():
    # J_{1/2}(t) = sqrt(2/(pi t)) sin t, so J_{1/2}(pi/2) = 2/pi
    s = entry(0.5, math.pi / 2.0)
    assert math.isclose(math.ldexp(s.jm, s.ej), 2.0 / math.pi, rel_tol=1e-13)


def test_h0_dimension_three_closed_form():
    # h_0(3,t) = -i sqrt(2/pi) e^{it} / t
    t = 1.0
    ref = -1j * math.sqrt(2.0 / math.pi) * complex(math.cos(t), math.sin(t)) / t
    h, _ = spherical_hankel(0, 3, t)
    assert abs(h - ref) <= 1e-13 * abs(ref)


def test_wronskian_closed_form_dimension_two():
    h, hp = spherical_hankel(0, 2, 1.0)
    assert math.isclose((hp * h.conjugate()).imag, 2.0 / math.pi, rel_tol=1e-12)


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
        h, hp = spherical_hankel(m, n, t)
    except BesselRangeError:
        return
    # |h| t^(n/2-1) is the cylindrical modulus M = |H_nu|, from the scaled entry
    s = entry(m + n / 2 - 1, t)
    mod = math.hypot(math.ldexp(s.jm, s.ej), math.ldexp(s.ym, s.ey))
    assert math.isclose(abs(h), mod / t ** (n / 2 - 1), rel_tol=1e-12)
    im = (hp * h.conjugate()).imag
    assert math.isclose(im, 2.0 / (math.pi * t ** (n - 1)), rel_tol=1e-9)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
def test_modulus_strictly_decreasing(nu):
    ts = np.array([10.0 ** (-2.0 + 4.0 * i / 299.0) for i in range(300)])
    # the engine's entries at all 300 arguments in one call
    jm, _, ej, ym, _, ey = (a.tolist() for a in specfun._scaled_entries(np.full(300, nu), ts))
    prev = math.inf
    for p in range(ts.size):
        if ej[p] >= ey[p]:
            lnm = math.log(math.hypot(jm[p], math.ldexp(ym[p], ey[p] - ej[p]))) + ej[p] * LN2
        else:
            lnm = math.log(math.hypot(math.ldexp(jm[p], ej[p] - ey[p]), ym[p])) + ey[p] * LN2
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
        h, hp = spherical_hankel(m, n, t)
    except BesselRangeError:
        return
    h_ref, hp_ref = spherical_hankel_closed(m, n, t)
    assert abs(h - h_ref) <= 1e-10 * abs(h_ref)
    assert abs(hp - hp_ref) <= 1e-10 * abs(hp_ref)


def test_closed_form_base_cases():
    # M = 0 and M = 1 sums are 1 and 1 + i/(2t); check against the explicit
    # trigonometric forms of H_{1/2}, H_{3/2}
    t = 2.31
    pref = math.sqrt(2.0 / (math.pi * t))
    hr, hi, _, _ = specfun._half_integer_batch(np.array([0, 1]), np.array(t))
    h0, h1 = hr + 1j * hi
    ref0 = pref * complex(math.sin(t), -math.cos(t))
    assert abs(h0 - ref0) <= 1e-14
    ref1 = pref * complex(math.sin(t) / t - math.cos(t),
                          -math.cos(t) / t - math.sin(t))
    assert abs(h1 - ref1) <= 1e-14


def test_batched_closed_form_equals_the_scalar_oracle_on_the_selftest_box():
    # the selftest's closed-form box: m = 0..20, t in [0.1, 100]
    m, ts = np.arange(21), np.array(validation_grid()[1])
    ts = ts[(0.1 <= ts) & (ts <= 100.0)]
    got = specfun._spherical_closed_batch(m[:, None], 3, ts)
    assert got[0].shape == (21, ts.size) and m.size * ts.size == 5859
    hr, hi, hpr, hpi = (a.tolist() for a in got)
    for i, mi in enumerate(m.tolist()):
        for j, t in enumerate(ts.tolist()):
            pair = complex(hr[i][j], hi[i][j]), complex(hpr[i][j], hpi[i][j])
            assert bits(pair) == bits(oracles.spherical_hankel_closed(mi, 3, t)), (mi, t)


@pytest.mark.parametrize("big_m", [0, 20])
@pytest.mark.parametrize("t", [0.1, 100.0])
def test_half_integer_closed_form_equals_the_scalar_oracle(big_m, t):
    # every order 0..big_m in one call; at M = 0 the sum's empty case gives
    # H_(-1/2), which the oracle writes out as its own branch
    hr, hi, hpr, hpi = (a.tolist() for a in specfun._half_integer_batch(
        np.arange(big_m + 1), np.array(t)))
    for mm in range(big_m + 1):
        pair = complex(hr[mm], hi[mm]), complex(hpr[mm], hpi[mm])
        assert bits(pair) == bits(oracles.hankel_half_integer(mm, t)), mm
    assert outcome(spherical_hankel_closed, big_m, 3, t) == outcome(
        oracles.spherical_hankel_closed, big_m, 3, t)


@pytest.mark.parametrize("m", [0, 1, 7, 19])
@pytest.mark.parametrize("t", [0.1, 2.5, 100.0, 3])
def test_closed_form_in_dimension_5_equals_the_scalar_oracle(m, t):
    got = outcome(spherical_hankel_closed, m, 5, t)
    assert got == outcome(oracles.spherical_hankel_closed, m, 5, t)
    assert got[0][0] == "complex"  # a value, not an error


@pytest.mark.parametrize("call", [
    (spherical_hankel_closed, 2, 2, 1.0), (spherical_hankel_closed, 2, 4, 1.0),
    (spherical_hankel_closed, -1, 3, 1.0), (spherical_hankel_closed, -3, 5, 1.0),
    (spherical_hankel_closed, 200, 3, 1.0), (spherical_hankel_closed, 2, 3, 0.0),
    (spherical_hankel_closed, 2, 5, math.nan)])
def test_closed_form_rejections_equal_the_scalar_oracle(call):
    fn, *args = call
    got = outcome(fn, *args)
    assert got == outcome(getattr(oracles, fn.__name__), *args)
    assert got[0] == "BesselDomainError"


def test_hankel_pair_range_errors_equal_the_scalar_oracle():
    # Y_{100.5}(0.01) overflows: the first component named is Im h
    s = scalar_entry(100.5, 0.01)
    got = outcome(specfun._hankel_pairs, 3, s.nu, s.t, *(np.array([v]) for v in s[2:]))
    assert got == outcome(oracles.hankel_pair, s, 3)
    assert got[0] == "BesselRangeError" and got[1].startswith("Im h at nu=100.5, t=0.01 ")


# -------------------------------------------------------------------
# ladder consistency
# -------------------------------------------------------------------

@pytest.mark.parametrize("mu0,t,count", [(0.0, 0.7, 40), (0.5, 35.0, 60), (0.25, 2.0, 10)])
def test_ladder_matches_scalar_evaluations(mu0, t, count):
    # one long ladder against the oracle's evaluation of each order on its own
    lad = bessel_ladder(mu0, t, count)
    for i in range(0, count + 1, 7):
        s = scalar_entry(mu0 + i, t)
        for got_m, got_e, ref_m, ref_e in (
            (lad.jm[0, i], lad.ej[0, i], s.jm, s.ej),
            (lad.ym[0, i], lad.ey[0, i], s.ym, s.ey),
        ):
            got = math.log(abs(got_m)) + got_e * LN2
            ref = math.log(abs(ref_m)) + ref_e * LN2
            assert math.isclose(got, ref, rel_tol=0, abs_tol=1e-10)
            assert math.copysign(1.0, got_m) == math.copysign(1.0, ref_m)
    entries = (lad.jm, lad.jpm, lad.ej, lad.ym, lad.ypm, lad.ey)
    assert specfun._wronskian_residuals(t, *entries).max() <= 1e-12


# -------------------------------------------------------------------
# error contract
# -------------------------------------------------------------------

@pytest.mark.parametrize("nu,t", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                  (math.nan, 1.0), (1.0, math.inf)])
def test_domain_errors(nu, t):
    with pytest.raises(BesselDomainError):
        specfun._entry(nu, t)


def test_overflow_is_signalled_not_inf():
    with pytest.raises(BesselRangeError):
        spherical_hankel(100, 3, 0.01)


# a ladder of 1e4 orders takes about 0.2 s, and CF1 about as long at t = 1e4,
# so a refusal within 0.1 s there shows that nothing ran
@pytest.mark.parametrize("call", [
    lambda nu: specfun._entry(nu, 5.0),
    lambda nu: wronskian_residual(nu, 1e-3),
    lambda nu: bessel_ladder(0.0, 5.0, math.ceil(nu)),
])
@pytest.mark.parametrize("nu", [1e20, 1e9, math.nextafter(1.0e4, math.inf),
                                math.nextafter(specfun.NU_MAX, math.inf)])
def test_orders_past_the_ceiling_are_refused_at_once(call, nu):
    # the validated envelope's edge is the ceiling; far past it, 1e20 cast
    # the step count to int64 with a RuntimeWarning and ran CF2 for 10 s
    start = time.perf_counter()
    with pytest.raises(BesselDomainError, match=r"order nu must lie in \[0, 200\]"):
        call(nu)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("call", [
    lambda t: specfun._entry(5.0, t),
    lambda t: wronskian_residual(5.0, t),
    lambda t: bessel_ladder(0.0, t, 5),
])
@pytest.mark.parametrize("t", [1e5, 1e6, math.inf, math.nextafter(1.0e4, math.inf),
                               math.nextafter(specfun.T_RANGE[1], math.inf),
                               math.nextafter(specfun.T_RANGE[0], 0.0)])
def test_arguments_past_the_ceiling_are_refused_at_once(call, t):
    # the validated envelope's edges; t = 1e5 ran CF1 to its iteration cap
    # for 1.5 s and then raised ConvergenceError
    start = time.perf_counter()
    with pytest.raises(BesselDomainError,
                       match=r"argument t must lie in \[0.001, 1000\]"):
        call(t)
    assert time.perf_counter() - start < 0.1


def test_the_envelope_edges_are_accepted():
    for nu, t in ((specfun.NU_MAX, specfun.T_RANGE[0]), (0.0, specfun.T_RANGE[1])):
        assert wronskian_residual(nu, t) <= 1e-10


def test_ladder_rejects_bad_base_order():
    for mu0, t, count, bound in [
        (0.75, 1.0, 5, "1/2"),  # the Temme seed needs |mu0| <= 1/2 below t = 2
        # outside [-1/2, t + 1/2] the CF2 seed fails: (40, 2.5) gave NaN ladders
        # with a RuntimeWarning, (20, 10) values 2.7e-8 off relative to the modulus
        (40.0, 2.5, 3, r"t \+ 1/2"), (20.0, 10.0, 2, r"t \+ 1/2"),
        (-0.75, 3.0, 2, r"t \+ 1/2"),
    ]:
        message = rf"^ladder base order mu0 = {mu0} at t = {t} must lie in \[-1/2, {bound}\]$"
        with pytest.raises(BesselDomainError, match=message):
            bessel_ladder(mu0, t, count)
        with pytest.raises(BesselDomainError, match=message):  # held to its smallest t
            ladder_batches([(-0.5, count), (mu0, count)], [t + 1.0, t])
        bessel_ladder(0.5 if t < 2.0 else t + 0.5, t, count)  # the edge is accepted
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
    points = [(rng.uniform(0.0, 200.0), 10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(800)]
    nus = np.array([nu for nu, _ in points])
    ts = np.array([t for _, t in points])
    entries = [a.tolist() for a in specfun._scaled_entries(nus, ts)]
    for p, (nu, t) in enumerate(points):
        jm, jpm, ej, ym, ypm, ey = (a[p] for a in entries)
        refj = scipy_special.jv(nu, t)
        refy = scipy_special.yv(nu, t)
        refjp = scipy_special.jvp(nu, t)
        refyp = scipy_special.yvp(nu, t)
        if not all(map(math.isfinite, (refj, refy, refjp, refyp))):
            continue
        modM = math.hypot(refj, refy)
        modN = math.hypot(refjp, refyp)
        got = [math.ldexp(m, e) for m, e in ((jm, ej), (ym, ey), (jpm, ej), (ypm, ey))]
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
# the engine against the scalar engine of tests/oracles.py, bit for bit
# -------------------------------------------------------------------

def bessel_ladders(mu0, ts, count):
    """`bessel_ladder(mu0, t, count)` for every t in ts, as one batch."""
    return ladder_batches([(mu0, count)], ts)[0]


def hexes(values):
    return [float(v).hex() for v in values]


def assert_ladder_rows_equal(batch, mu0, count):
    for p, t in enumerate(batch.t.tolist()):
        ref = oracles._ladder(mu0, t, count)
        for name in ("jm", "jpm", "ym", "ypm"):
            assert hexes(getattr(batch, name)[p]) == hexes(getattr(ref, name)), (name, t)
        for name in ("ej", "ey"):
            assert getattr(batch, name)[p].tolist() == getattr(ref, name), (name, t)


@pytest.mark.parametrize("mu0", [0.0, 0.5])
def test_batched_ladders_equal_scalar_on_the_default_sweep(mu0):
    # the default sweep's ladders: orders mu0 .. mu0 + 101 at 2,000 radii
    batch = bessel_ladders(mu0, SweepParams().rho_grid(), 101)
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
        ref = scalar_entry(mu0 + count, t)
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
    assert hexes(got) == hexes(scalar_wronskian_residual(a, b)
                               for a, b in zip(nu.tolist(), t.tolist()))


@given(points=st.lists(st.tuples(st.floats(min_value=-0.5, max_value=200.0),
                                 st.floats(min_value=2.0, max_value=1000.0)),
                       min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_batched_cf2_equals_scalar(points):
    mu = np.array([p[0] for p in points])
    x = np.array([p[1] for p in points])
    p, q = specfun._cf2_batch(mu, x)
    for i, (m, t) in enumerate(points):
        assert hexes((p[i], q[i])) == hexes(oracles._cf2(m, t))


def test_batched_cf1_equals_scalar():
    nu = np.array([0.0, 0.5, 3.25, 100.0, 200.0, 7.0])
    x = np.array([1e-3, 1.9, 2.0, 40.0, 1000.0, 7.0])
    f, sign = specfun._cf1_batch(nu, x)
    for i in range(nu.size):
        ref_f, ref_sign = oracles._cf1(float(nu[i]), float(x[i]))
        assert (f[i].hex(), sign[i]) == (ref_f.hex(), float(ref_sign))


def test_numpy_hypot_equals_complex_abs():
    # CF2 decides |z| < bound by np.hypot, which must be the libm hypot of
    # CPython's complex abs: on random bit patterns, and on moduli within
    # 1e-12 relative of the two bounds it meets, _TINY = 1e-300 and 2^-52
    rng = np.random.default_rng(19)
    re, im = rng.integers(0, 2**64, size=(2, 20000), dtype=np.uint64).view(float)
    for bound in (1e-300, 2.0**-52):
        r = bound * (1.0 + rng.uniform(-1e-12, 1e-12, 10000))
        theta = rng.uniform(0.0, 2.0 * math.pi, 10000)
        re = np.concatenate((re, r * np.cos(theta), [bound, -bound, 0.6 * bound,
                                                     bound * (1 - 1e-13), 0.0, 1e300, -1e-310]))
        im = np.concatenate((im, r * np.sin(theta), [0.0, 1e-40, 0.8 * bound, 1e-30, bound,
                                                     1.0, 0.0]))
    want = np.array([abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())])
    with np.errstate(invalid="ignore"):  # signalling NaNs among the bit patterns
        got = np.hypot(re, im)
    assert np.array_equal(got, want, equal_nan=True)


def test_selftest_rows_equal_the_scalar_loop():
    grid = selftest_grid()
    ref = list(scalar_selftest_rows())
    assert len(ref) == grid.ok.size == 80400
    # the scalar rows as (order x argument) arrays, NaN where a row has no
    # closed-form error
    nu, t, wr, he, ok = (np.array([np.nan if v is None else v for v in column])
                         .reshape(grid.ok.shape) for column in zip(*ref))
    assert nu[:, 0].tolist() == grid.nus and t[0].tolist() == grid.ts
    halfint = np.full(grid.ok.shape, np.nan)
    halfint[grid.half_rows] = grid.halfint
    for got, want in ((grid.residuals, wr), (halfint, he)):
        assert_sequences_equal(hexes(got.ravel()), hexes(want.ravel()))
    assert_sequences_equal(grid.ok.ravel().tolist(), ok.ravel().tolist())


@pytest.mark.parametrize("batch", [3, 10])
def test_selftest_rows_do_not_depend_on_the_batch_size(monkeypatch, batch):
    ref = selftest_grid()
    monkeypatch.setattr(specfun, "_SELFTEST_BATCH_TS", batch)
    got = selftest_grid()
    for name in ("residuals", "half_rows", "box", "halfint", "ok"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name


def test_sweep_ladder_route_holds_the_selftest_bounds():
    # the DtN sweep takes its entries from `ladder_batches`, whose bits need
    # not equal the per-point route the selftest checks: the integer and the
    # half-integer ladders cover the selftest grid and meet both its bounds
    nus, ts = validation_grid()
    t = np.array(ts)
    ladders = ladder_batches([(0.0, 100), (0.5, 99)], ts)
    assert sorted(b.mu0 + i for b in ladders for i in range(b.jm.shape[1])) == nus
    names = ("jm", "jpm", "ej", "ym", "ypm", "ey")
    residuals = np.concatenate([specfun._wronskian_residuals(
        t[:, None], *(getattr(b, name) for name in names)) for b in ladders], axis=1)
    assert residuals.size == 80_400
    assert residuals.max() <= specfun._SELFTEST_WRONSKIAN_TOL
    # the closed-form box: orders m + 1/2 for m = 0..20, t in [0.1, 100]
    box = (0.1 <= t) & (t <= 100.0)
    m = np.arange(21)
    half = ladders[1]
    h = specfun._hankel_pairs(3, m + 0.5, t[box, None],
                              *(getattr(half, name)[box, :21] for name in names))
    errors = specfun._halfint_errors(h, specfun._spherical_closed_batch(m, 3, t[box, None]))
    assert errors.size == 5_859
    assert errors.max() <= specfun._SELFTEST_HALFINT_TOL


@pytest.mark.parametrize("kind", ["CF1", "CF2"])
def test_batched_stall_names_the_first_point_like_the_scalar_route(monkeypatch, kind):
    for module in (specfun, oracles):
        monkeypatch.setattr(module, "_MAXIT", 3)
    points = [(30.5, 40.0), (0.25, 2.5), (3.0, 900.0)]
    order = np.array([p[0] for p in points])
    t = np.array([p[1] for p in points])
    batched, scalar = ((specfun._cf1_batch, oracles._cf1) if kind == "CF1"
                       else (specfun._cf2_batch, oracles._cf2))
    with pytest.raises(ConvergenceError) as ref:
        scalar(*points[0])
    with pytest.raises(ConvergenceError) as got:
        batched(order, t)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith(f"{kind} stalled at ")


# (nu, t) whose seeds share a key (mu, t), mu = nu - nl, in an order unlike
# np.unique's sorted one: below t = 2 ((0.25, 1.5) at nl = 0 and 3,
# (-0.25, 0.5) at nl = 1 and 11), from t = 2 on with nl = 0 ((1.0, 5.0)
# twice) and with nl > 0 ((4.25, 5.0) at nl = 6 and 7)
SHARED_SEEDS = [(0.25, 1.5), (0.75, 0.5), (3.25, 1.5), (1.0, 5.0), (10.75, 0.5),
                (10.25, 5.0), (1.0, 5.0), (0.25, 1.5), (11.25, 5.0), (0.0, 3.0)]


def test_scaled_entries_with_shared_seeds_equal_one_point_calls():
    nu, t = (np.array(column) for column in zip(*SHARED_SEEDS))
    with mock.patch.object(specfun, "_temme_y", wraps=specfun._temme_y) as temme, \
            mock.patch.object(specfun, "_cf2_batch", wraps=specfun._cf2_batch) as cf2:
        batch = specfun._scaled_entries(nu, t)
    # one seed per distinct key, each kind in order of first use
    assert [c.args for c in temme.call_args_list] == [(0.25, 1.5), (-0.25, 0.5)]
    assert cf2.call_count == 1
    mu_cf2, t_cf2 = cf2.call_args.args
    assert mu_cf2.tolist() == [1.0, 4.25, 0.0] and t_cf2.tolist() == [5.0, 5.0, 3.0]
    for p, point in enumerate(SHARED_SEEDS):
        alone = specfun._scaled_entries(*(np.array([v]) for v in point))
        assert [a[p].tobytes() for a in batch] == [a[0].tobytes() for a in alone], point


def test_seed_stall_names_the_callers_first_point(monkeypatch):
    # in 30 steps CF1 converges at these points and CF2 does not; the first
    # point's key (0.25, 2.5) sorts after (0.0, 2.0)
    for module in (specfun, oracles):
        monkeypatch.setattr(module, "_MAXIT", 30)
    with pytest.raises(ConvergenceError) as got:
        specfun._scaled_entries(np.array([0.25, 0.0, 0.25]), np.array([2.5, 2.0, 2.5]))
    assert str(got.value) == "CF2 stalled at mu=0.25, t=2.5"
    assert outcome(scalar_entry, 0.25, 2.5) == ("ConvergenceError", str(got.value))


def test_batched_ladders_domain():
    with pytest.raises(BesselDomainError):
        bessel_ladders(0.75, [1.0, 3.0], 5)  # Temme seed needs |mu0| <= 1/2 below t=2
    with pytest.raises(BesselDomainError):
        bessel_ladders(0.0, [1.0, 0.0], 5)
    with pytest.raises(BesselDomainError):
        bessel_ladders(0.0, [], 5)
    with pytest.raises(BesselDomainError):
        bessel_ladders(0.0, [1.0], -1)


# -------------------------------------------------------------------
# the public scalar evaluators against the oracle route, bit for bit
# -------------------------------------------------------------------

def bits(value):
    """value with every float written by float.hex and every type named."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, complex):
        return type(value).__name__, value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    return type(value).__name__, value


def outcome(fn, *args):
    """bits(fn(*args)), or the type and message of the engine's error it
    raised."""
    try:
        return bits(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def on_oracle(fn, *args):
    """outcome(fn, *args) with the scalar engine of tests/oracles.py behind
    every `_entry` that fn reaches, and its scalar (h, h') behind `_hankel_pairs`."""
    def hankel_pairs(n, nu, t, *arrays):
        h, hp = oracles.hankel_pair(Entry(nu, t, *(a[0].item() for a in arrays)), n)
        return [np.array([v]) for v in (h.real, h.imag, hp.real, hp.imag)]

    with mock.patch.object(specfun, "_entry", lambda *point: [
            np.array([v]) for v in scalar_entry(*point)[2:]]), \
            mock.patch.object(specfun, "_hankel_pairs", hankel_pairs):
        return outcome(fn, *args)


def cylindrical_outcomes(nu, t):
    """(public, oracle) outcome of every cylindrical evaluator at (nu, t)."""
    return [(outcome(entry, nu, t), outcome(scalar_entry, nu, t)),
            (outcome(wronskian_residual, nu, t), outcome(scalar_wronskian_residual, nu, t))]


def spherical_outcomes(m, n, t):
    """(public, oracle) outcome of the spherical evaluator at (m, n, t)."""
    return [(outcome(spherical_hankel, m, n, t), on_oracle(spherical_hankel, m, n, t))]


# integer arguments too: the values keep the caller's types
CYL_POINTS = [row[:2] for row in JY_TABLE + LOG_EXTREME_TABLE] + [(3, 1), (7, 40)]


@pytest.mark.parametrize("nu,t", CYL_POINTS)
def test_cylindrical_evaluators_equal_the_oracle_route(nu, t):
    for got, ref in cylindrical_outcomes(nu, t):
        assert got == ref


@pytest.mark.parametrize("m,n,t", [row[:3] for row in SPH_TABLE] + [(100, 3, 0.01)])
def test_spherical_evaluators_equal_the_oracle_route(m, n, t):
    for got, ref in spherical_outcomes(m, n, t):
        assert got == ref


def test_the_oracle_route_covers_the_range_errors():
    # plain values overflow here: spherical_hankel raises, while the scaled
    # routes do not
    outcomes = cylindrical_outcomes(100.0, 0.01) + spherical_outcomes(100, 3, 0.01)
    assert [got[0] for got, _ in outcomes].count("BesselRangeError") == 1


@given(nu=st.floats(min_value=0.0, max_value=200.0),
       logt=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_cylindrical_evaluators_equal_the_oracle_route_random(nu, logt):
    for got, ref in cylindrical_outcomes(nu, 10.0**logt):
        assert got == ref


@given(m=st.integers(min_value=0, max_value=100),
       n=st.integers(min_value=2, max_value=6),
       logt=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_spherical_evaluators_equal_the_oracle_route_random(m, n, logt):
    for got, ref in spherical_outcomes(m, n, 10.0**logt):
        assert got == ref


@pytest.mark.parametrize("nu,t", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                  (math.nan, 1.0), (1.0, math.inf)])
def test_cylindrical_domain_errors_equal_the_oracle_route(nu, t):
    outcomes = cylindrical_outcomes(nu, t)
    assert all(got == ref for got, ref in outcomes)
    assert {got[0] for got, _ in outcomes} == {"BesselDomainError"}


@pytest.mark.parametrize("m,n,t", [(-1, 3, 1.0), (0, 1, 1.0), (2, 3, 0.0), (2, 4, math.nan)])
def test_spherical_domain_errors_equal_the_oracle_route(m, n, t):
    outcomes = spherical_outcomes(m, n, t)
    assert all(got == ref for got, ref in outcomes)
    assert {got[0] for got, _ in outcomes} == {"BesselDomainError"}


@pytest.mark.parametrize("maxit,nu,t,kind", [
    (3, 30.5, 40.0, "CF1"), (8, 200.0, 2.5, "CF2"), (20, 1.0, 2.5, "CF2"),
    (3, 50.0, 0.01, "Temme series"), (8, 0.25, 0.5, "Temme series")])
def test_convergence_errors_equal_the_oracle_route(monkeypatch, maxit, nu, t, kind):
    for module in (specfun, oracles):
        monkeypatch.setattr(module, "_MAXIT", maxit)
    outcomes = cylindrical_outcomes(nu, t)
    if nu % 1.0 in (0.0, 0.5):  # also the order of h_m in dimension 2 or 3
        outcomes += spherical_outcomes(int(nu), 2 + int(2.0 * (nu % 1.0)), t)
    assert all(got == ref for got, ref in outcomes)
    (error, message), = {got for got, _ in outcomes}
    assert error == "ConvergenceError" and message.startswith(f"{kind} stalled at ")
