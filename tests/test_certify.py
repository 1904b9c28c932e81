"""Tests for the per-box certificate chain, and for the quasimode norms and
the trace inequality of `certify_oracle`.

The closed-form norms are checked against mpmath-frozen values here and
against full tensor-product Gauss quadrature in acceptance criterion 3, the
algebraic identities against mpmath-frozen references, and the inversion
chain against random round trips.
"""

import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

import certify_oracle as oracle
import schedule_oracle
from certify_oracle import (
    TraceTest,
    quadrature_trace_norms,
    quasimode_norms,
    scalar_certify,
    trace_inequality_residual,
)
from columns import make_boxes, take, with_values
from trapcert.certify import (
    CertifyError,
    _floor,
    _infsup,
    _threshold,
    certify_geometry,
)
from trapcert.geometry import GeometryError, build_layered
from trapcert.sequences import demo_schedule, design_identity, gap_fractions

# mpmath, 40 digits
C2 = 0.86051176034558705
C3 = 1.6285181716057821
H1K_N3_K1 = 40.278334922863013
FLUX_N2_K1_E01 = 0.007165339009595799
CUBIC_N2_K1_E01 = 0.0073082494999954387
# demo schedule, box j=1 (n=2): full chain
J1 = dict(eps=0.5172299436649542, ub=0.32009751231805513,
          inv=3.1240480213616297, c_prime=0.44256483719218718,
          c_lb=0.094031001208279918, margin=0.093931001208279918)
J2_C_LB = 0.039080740852892609
# the resolvent floor on quoted literals
LITERAL_C_LB = 0.09401197696116271
TRACE_WORKED_RHS = 1.1958076954784512
TRACE_N3_CASE = (0.1225, 0.56926850328985251)


def ell_for(n, k):
    return math.pi * math.sqrt(n) / k


def column(*values):
    return np.array(values, dtype=float)


# -------------------------------------------------------------------
# quasimode norms of the oracle
# -------------------------------------------------------------------

def test_h1k_norm_dimension_two_is_pi_squared():
    for k in (1.0, 5.0, 20.0):
        norms = quasimode_norms(2, k, ell_for(2, k), 0.3)
        assert_allclose(norms.h1k_norm_sq, math.pi ** 2, rtol=1e-13)


def test_h1k_norm_frozen_n3():
    norms = quasimode_norms(3, 1.0, ell_for(3, 1.0), 0.3)
    assert_allclose(norms.h1k_norm_sq, H1K_N3_K1, rtol=1e-13)


def test_flux_frozen_example():
    norms = quasimode_norms(2, 1.0, ell_for(2, 1.0), 0.1)
    assert_allclose(norms.flux_norm_sq, FLUX_N2_K1_E01, rtol=1e-13)
    assert_allclose(norms.flux_cubic_ub, CUBIC_N2_K1_E01, rtol=1e-13)


def test_flux_below_cubic_bound():
    for n in (2, 3, 4):
        for k in (0.7, 3.0, 40.0):
            for eps in (0.01, 0.2, 0.53):
                norms = quasimode_norms(n, k, ell_for(n, k), eps)
                assert 0.0 < norms.flux_norm_sq < norms.flux_cubic_ub


def test_norms_reject_broken_resonance():
    with pytest.raises(CertifyError, match="resonance"):
        quasimode_norms(2, 1.0, 1.0, 0.3)
    with pytest.raises(CertifyError):
        quasimode_norms(2, 1.0, ell_for(2, 1.0), 0.0)
    with pytest.raises(CertifyError):
        quasimode_norms(1, 1.0, math.pi, 0.3)


# -------------------------------------------------------------------
# inf-sup bound, threshold identity, resolvent floor
# -------------------------------------------------------------------

def test_infsup_constants_frozen():
    # eps = 1/4 makes the power factor exact: 0.25^1.5 = 1/8, 0.25^3 = 1/64
    assert_allclose(_infsup(2, column(0.25))[0], [C2 / 8.0], rtol=1e-15)
    assert_allclose(_infsup(3, column(0.25))[0], [C3 / 64.0], rtol=1e-15)


def test_infsup_domain():
    # eps in [0,1), the domain of a Boxes (which also has n >= 2): a sealed
    # box, eps = 0, and a power that underflows give ub = 0, not normal
    ub, normal = _infsup(2, column(0.0, -0.0, 5e-324, 0.5))
    assert ub[:3].tolist() == [0.0] * 3 and not normal[:3].any()
    assert ub[3] > 0.0 and normal[3]
    for eps in (-0.5, 1.0, math.inf, math.nan):
        with pytest.raises(GeometryError, match="^(box 1: gap .* is not in|every value)"):
            one_box(2, 1.0, eps, 1e-3)
    with pytest.raises(GeometryError, match="need \\(N, n\\) with n >= 2"):
        one_box(1, 1.0, 0.3, 1e-3)


def test_inverse_identity_random():
    rng = random.Random(20260823)
    for _ in range(100):
        n = rng.choice((2, 3, 4, 5))
        k = 10.0 ** rng.uniform(-0.3, 2.7)
        a = 10.0 ** rng.uniform(-8.0, 1.0)
        eps = gap_fractions(n, column(k), column(a))
        lhs = 1.0 / _infsup(n, eps)[0].item()
        rhs = (math.sqrt(math.pi) * n ** 0.75
               * (1.0 + 2.0 * k * math.sqrt(2.0 * k * k * a * a + a)))
        assert abs(lhs - rhs) <= 1e-9 * rhs


def test_resolvent_lower_quoted_literals():
    c_prime, c_lb = _floor(column(3.12396), column(2.39988))
    assert_allclose(c_lb, [LITERAL_C_LB], rtol=1e-12)
    assert round(c_lb.item(), 5) == 0.09401


def test_resolvent_lower_round_trip_where_the_product_overflows():
    # 8 k^2 S leaves binary64 from k ~ 1e77 (a = 0.3) or 1e78 (a = 1e-4);
    # the floor must still come back as the target, not as 0
    k = column(1e100, 1e150, 2e150, 1e153).repeat(2)
    a = column(1e-4, 0.3)[[0, 1] * 4]
    c_prime, c_lb = _floor(design_identity(k, a), k)
    with np.errstate(over="ignore"):
        assert np.isinf(8.0 * k * k * c_prime * c_prime).all()
    assert (np.abs(c_lb - a) <= 1e-12 * a).all()


def test_resolvent_lower_uninformative_threshold():
    c_prime, c_lb = _floor(column(1.0, 0.5, math.nan), column(2.0, 2.0, 2.0))
    assert c_prime.tolist() == c_lb.tolist() == [0.0, 0.0, 0.0]


def test_resolvent_lower_domain():
    # the floor needs k > 0, which every Boxes holds
    for k in (0.0, -2.0):
        with pytest.raises(GeometryError, match=f"^box 1: k {k!r} is not positive$"):
            make_boxes([1], [1], [1.0], [0.0, 0.0], [0.5], [k], [1e-3])


# -------------------------------------------------------------------
# certify_geometry over built boxes
# -------------------------------------------------------------------

def test_certify_demo_first_hundred():
    sched = demo_schedule()
    boxes, _ = build_layered(sched, 10)  # 118 boxes
    records = certify_geometry(take(boxes, slice(0, 100)))
    assert len(records) == 100
    assert (records.margin > 0.0).all()
    assert (records.c_lb > records.a).all()
    assert_allclose(records.eps[0], J1["eps"], rtol=1e-12)
    assert_allclose(records.infsup_ub[0], J1["ub"], rtol=1e-12)
    assert_allclose(records.infsup_ub_inv_identity[0], J1["inv"], rtol=1e-12)
    assert_allclose(records.c_prime_lb[0], J1["c_prime"], rtol=1e-12)
    assert_allclose(records.c_lb[0], J1["c_lb"], rtol=1e-12)
    assert_allclose(records.margin[0], J1["margin"], rtol=1e-12)
    assert records.a[0] == 1e-4
    assert_allclose(records.c_lb[1], J2_C_LB, rtol=1e-12)


def test_certify_floor_beats_target_through_defining_relation():
    sched = demo_schedule(3)
    boxes, _ = build_layered(sched, 3)
    records = certify_geometry(boxes)
    for k, c_lb, a in zip(records.k.tolist(), records.c_lb.tolist(),
                          records.a.tolist()):
        assert 2 * k * k * c_lb ** 2 + c_lb > 2 * k * k * a ** 2 + a


def test_certify_rejects_tampered_box():
    sched = demo_schedule()
    boxes, _ = build_layered(sched, 2)
    first = take(boxes, [0])
    broken = with_values(first, 0, k=first.k[0] * 1.01)
    with pytest.raises(CertifyError):
        certify_geometry(broken)
    mistargeted = with_values(first, 0, a=1.0)
    with pytest.raises(CertifyError):
        certify_geometry(mistargeted)


def hex_rows(rows):
    return [[v.hex() if isinstance(v, float) else v for v in row] for row in rows]


def certificate_rows(records):
    """The rows of `scalar_certify`, read off the columns."""
    columns = (records.j, records.k, records.a, records.eps, records.infsup_ub,
               records.infsup_ub_inv_identity, records.c_prime_lb,
               records.c_lb, records.margin)
    return hex_rows(zip(*(c.tolist() for c in columns)))


@pytest.mark.parametrize("n, layers", [(2, 30), (3, 5), (4, 4)])
def test_certificate_columns_equal_the_scalar_functions(n, layers):
    sched = demo_schedule(n)
    boxes, _ = build_layered(sched, layers)
    records = certify_geometry(boxes)
    got = certificate_rows(records)
    want = hex_rows(scalar_certify(boxes))
    assert len(got) == len(want) == len(boxes)
    assert got == want
    assert [schedule_oracle.gap_fraction(n, k, a).hex() for k, a in zip(
        records.k.tolist(), records.a.tolist())] == [e.hex() for e in records.eps.tolist()]


# each case names the box and the gate its error must report: the first
# failing box, and of its failing gates the first
TAMPERED = {
    "wavenumber": (lambda b: with_values(take(b, [0]), 0, k=b.k[0] * 1.01),
                   "box 1: k*ell = "),
    "target": (lambda b: with_values(take(b, [0]), 0, a=1.0),
               "box 1: inf-sup routes disagree"),
    "later-box": (lambda b: with_values(with_values(b, 40, a=1.0), 70,
                                        k=b.k[70] * 1.01),
                  "box 41: inf-sup routes disagree"),
    "aperture": (lambda b: with_values(b, 5, gap=b.gap[5] * 0.9),
                 "box 6: inf-sup routes disagree"),
}


@pytest.mark.parametrize("case", list(TAMPERED))
def test_certify_names_the_first_failing_box_and_gate(case):
    boxes, _ = build_layered(demo_schedule(), 10)
    tamper, start = TAMPERED[case]
    tampered = tamper(boxes)
    with pytest.raises(CertifyError) as got:
        certify_geometry(tampered)
    with pytest.raises(CertifyError) as want:
        scalar_certify(tampered)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(start)


def test_certify_two_failing_gates_report_the_earlier():
    boxes, _ = build_layered(demo_schedule(), 10)
    tampered = TAMPERED["wavenumber"][0](boxes)
    k, a, eps = tampered.k[0].item(), tampered.a[0].item(), tampered.gap[0].item()
    # the box also fails the routes gate, which comes after the resonance
    inv = _threshold(2, k, a)
    assert abs(1.0 / _infsup(2, column(eps))[0].item() - inv) > 1e-9 * inv
    with pytest.raises(CertifyError, match="^box 1: k[*]ell = .* violates the resonance relation"):
        certify_geometry(tampered)


def one_box(n, k, eps, a):
    """A hand-made box on the resonance relation, at the origin."""
    return make_boxes([1], [1], [ell_for(n, k)], [0.0] * n, [eps], [k], [a])


@pytest.mark.parametrize("n, eps", [(2, 1e-210), (2, 1e-250), (32, 1.4e-7), (2, 0.0)])
def test_certify_refuses_a_subnormal_aperture_power(n, eps):
    # 1e-250 ** 1.5 underflows to 0.0; the others keep a few bits; a sealed
    # box, eps = 0, fails here too
    power = eps ** (1.5 * (n - 1))
    assert power < sys.float_info.min
    with pytest.raises(ArithmeticError) as info:
        certify_geometry(one_box(n, 1.0, eps, 1e-3))
    assert not isinstance(info.value, CertifyError)
    assert str(info.value) == f"box 1: eps^(3(n-1)/2) = {power!r} is below the normal range"


@pytest.mark.parametrize("k, a, values", [
    (1e200, 1.0, "inf or margin inf"),  # 2k^2 a^2 overflows
])
def test_certify_refuses_a_threshold_outside_binary64(k, a, values):
    # eps is not the box's designed gap fraction, so its power stays normal
    with pytest.raises(ArithmeticError) as info:
        certify_geometry(one_box(2, k, 0.5, a))
    assert not isinstance(info.value, CertifyError)
    assert str(info.value) == f"box 1: threshold {values} is not finite"


@pytest.mark.parametrize("a", [-1e-3, 0.0])
def test_certify_refuses_a_nonpositive_target(a):
    # a Boxes refuses the box before certify_geometry sees it: a negative
    # target would make the threshold NaN
    with pytest.raises(GeometryError) as info:
        one_box(2, 1.0, 0.5, a)
    assert str(info.value) == f"box 1: a {a!r} is not positive"


def test_certify_range_and_claim_gates_report_the_first_box():
    boxes, _ = build_layered(demo_schedule(), 10)
    out_of_range = with_values(boxes, 5, gap=1e-250)
    with pytest.raises(ArithmeticError, match="^box 6: eps"):
        certify_geometry(out_of_range)
    # a failed claim on an earlier box is reported first, as a claim failure
    with pytest.raises(CertifyError, match="^box 3: inf-sup routes disagree"):
        certify_geometry(with_values(out_of_range, 2, a=1.0))
    # and on a later one the range refusal comes first
    with pytest.raises(ArithmeticError, match="^box 6: eps"):
        certify_geometry(with_values(out_of_range, 8, a=1.0))


# -------------------------------------------------------------------
# trace inequality
# -------------------------------------------------------------------

def test_trace_worked_case():
    lhs, rhs = trace_inequality_residual(2, 1.0, TraceTest(p=(1,), q=1))
    assert lhs == 0.5
    assert_allclose(rhs, TRACE_WORKED_RHS, rtol=1e-12)
    assert round(rhs, 4) == 1.1958


def test_trace_zero_function():
    assert trace_inequality_residual(2, 1.0, TraceTest(p=(0,), q=2)) == (0.0, 0.0)


def test_trace_n3_frozen_case():
    lhs, rhs = trace_inequality_residual(3, 0.7, TraceTest(p=(2, 3), q=2))
    assert_allclose(lhs, TRACE_N3_CASE[0], rtol=1e-13)
    assert_allclose(rhs, TRACE_N3_CASE[1], rtol=1e-12)


def test_trace_randomized_and_second_form():
    rng = random.Random(4711)
    for _ in range(50):
        n = rng.choice((2, 3))
        test = TraceTest(p=tuple(rng.randint(0, 5) for _ in range(n - 1)),
                         q=rng.randint(1, 4))
        a = rng.choice((0.5, 1.0, 2.0))
        lhs, rhs = trace_inequality_residual(n, a, test)
        assert lhs <= rhs * (1 + 1e-12)
        _, v_sq, grad_sq = quadrature_trace_norms(n, a, test)
        for k in (1.0, 10.0):
            assert lhs <= (grad_sq + k * k * v_sq) / k + 1e-12


def test_trace_rejects_bad_specs():
    with pytest.raises(CertifyError):
        trace_inequality_residual(3, 1.0, TraceTest(p=(1,), q=1))
    with pytest.raises(CertifyError):
        trace_inequality_residual(2, 1.0, TraceTest(p=(1,), q=0))
    with pytest.raises(CertifyError):
        trace_inequality_residual(2, -1.0, TraceTest(p=(1,), q=1))
    with pytest.raises(CertifyError):
        trace_inequality_residual(2, 1.0, TraceTest(p=(1,), q=1), quad_points=4)


def test_threshold_helper_matches_expansion():
    # _threshold is the certified route; spot-check the algebra directly
    n, k, a = 3, 7.0, 1e-3
    expect = math.sqrt(math.pi) * 3 ** 0.75 * (
        1.0 + 14.0 * math.sqrt(2.0 * 49.0 * 1e-6 + 1e-3))
    assert _threshold(n, k, a) == pytest.approx(expect, rel=1e-15)


# -------------------------------------------------------------------
# the column steps of the chain against the scalar oracle
# -------------------------------------------------------------------

def outcome(fn, *args):
    """The type and float.hex of each float `fn` returns, or the type and
    message of what it raises; a warning counts as raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = fn(*args)
        except Exception as exc:
            return type(exc).__name__, str(exc)
    return [(type(v).__name__, v.hex()) for v in (got if isinstance(got, tuple) else (got,))]


_ANY = st.floats(allow_nan=True, allow_infinity=True)
# inside (0,1), its edges and beyond
_EPS = st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                           exclude_max=True),
                 st.sampled_from([0.0, -0.0, 1.0, 5e-324, math.nan, math.inf]), _ANY)
_K = st.one_of(st.floats(min_value=1e-3, max_value=1e3), _ANY)
# on the resonance, off it by more than its 1e-12 tolerance, or anywhere
_DETUNE = st.one_of(st.just(0.0), st.builds(
    lambda m, e: m * 10.0 ** e, st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=-16, max_value=-1)))


@given(n=st.integers(min_value=2, max_value=6),
       eps=st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                     st.sampled_from([0.0, -0.0, 5e-324])))
@settings(max_examples=300, deadline=None)
@example(n=3, eps=0.25)
@example(n=2, eps=0.0)
def test_infsup_upper_equals_the_oracle(n, eps):
    # on the domain of a Boxes: n >= 2 and eps in [0,1)
    want = outcome(oracle.infsup_upper, n, eps)
    assert outcome(lambda: _infsup(n, column(eps))[0].item()) == want


@given(n=st.integers(min_value=2, max_value=6), k=_K.filter(math.isfinite),
       detune=_DETUNE, eps=_EPS.filter(math.isfinite))
@settings(max_examples=300, deadline=None)
@example(n=2, k=3.0, detune=0.0, eps=0.3)
@example(n=3, k=3.0, detune=5e-12, eps=0.3)  # just past the tolerance
@example(n=3, k=3.0, detune=5e-13, eps=0.3)  # just inside it
@example(n=4, k=3.0, detune=0.0, eps=1.0)
@example(n=2, k=-3.0, detune=0.0, eps=0.3)
def test_certify_gates_a_resonant_box_as_the_oracle(n, k, detune, eps):
    # the resonance gate: one box on or near k*ell = pi*sqrt(n)
    ell = math.pi * math.sqrt(n) / k * (1.0 + detune) if k else 1.0
    assume(math.isfinite(ell))  # a Boxes holds finite values only
    columns = ([1], [1], [ell], [0.0] * n, [eps], [k], [1e-3])
    if not (k > 0.0 and 0.0 <= eps < 1.0):  # no such box is built
        with pytest.raises(GeometryError, match="^box 1: (side|gap|k) .* is not "):
            make_boxes(*columns)
        return
    box = make_boxes(*columns)
    try:
        got = certificate_rows(certify_geometry(box))
    except CertifyError as exc:
        got = str(exc)
    except ArithmeticError:
        return  # a range refusal, a gate the scalar chain does not have
    try:
        want = hex_rows(scalar_certify(box))
    except CertifyError as exc:
        want = str(exc)
    assert got == want


@st.composite
def thresholds(draw):
    """(threshold, k): design thresholds 1 + 2k sqrt(2k^2 a^2 + a), also
    where 8 k^2 S overflows (k from about 1e77), thresholds <= 1, and
    anything."""
    k = draw(st.one_of(st.floats(min_value=1e-3, max_value=1e3),
                       st.floats(min_value=1e77, max_value=1e160), _ANY))
    kind = draw(st.sampled_from(["design", "uninformative", "any"]))
    if kind == "design" and 0.0 < k < math.inf:
        a = draw(st.floats(min_value=1e-8, max_value=1.0))
        return 1.0 + 2.0 * k * math.sqrt(2.0 * k * k * a * a + a), k
    if kind == "uninformative":
        return draw(st.floats(max_value=1.0)), k
    return draw(_ANY), k


@given(case=thresholds())
@settings(max_examples=300, deadline=None)
@example(case=(1.0 + 2e100 * math.sqrt(2e192 + 1e-4), 1e100))  # 8 k^2 S = inf
@example(case=(1.0, 2.0))
@example(case=(0.5, 2.0))
@example(case=(3.0, 0.0))
def test_resolvent_lower_equals_the_oracle(case):
    # the oracle refuses k <= 0, as a Boxes does
    want = outcome(oracle.resolvent_lower, *case)
    if want[0] != "CertifyError":
        assert outcome(lambda: tuple(c.item() for c in _floor(*map(column, case)))) == want

