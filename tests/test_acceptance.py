"""Acceptance gate: twelve binding checks, one test per criterion.

Each test prints a single verdict line and then asserts it, so a full run
reads as a checklist: build counts, quadrature oracles for the quasimode
norms, both routes to the inf-sup bound, the certification chain with its
spot value, the special-function residual grid, the modal sign sweep with
its exact boundary cases, the trace inequality, packing invariants, and
byte determinism of the emitted artifacts.
"""

import dataclasses
import math
import random
import time

import numpy as np
from numpy.polynomial.legendre import leggauss

from certify_oracle import (TraceTest, quadrature_trace_norms, quasimode_norms,
                            trace_inequality_residual)
from columns import take
from sweep_oracle import a_terms, b_terms, hankel

from trapcert.certify import _floor, _infsup, certify_geometry
from trapcert.cli import run
from trapcert.dtnverify import SweepParams, verify_sweep
from trapcert.geometry import (
    build_layered,
    disjointness_certificate,
    flood_fill_oracle,
    layer_plans,
    suggested_resolution,
)
from trapcert.sequences import demo_schedule, gap_fractions, paddings
from trapcert.specfun import selftest_grid


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _gauss(lo: float, hi: float, m: int = 48):
    x, w = leggauss(m)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


# -------------------------------------------------------------------
# 1. layered build count
# -------------------------------------------------------------------

def test_criterion_01_layered_figure_count():
    t0 = time.perf_counter()
    boxes, summary = build_layered(demo_schedule(), 30)
    elapsed = time.perf_counter() - t0
    ok = len(boxes) == 1413 and summary.box_count == 1413 and elapsed < 1.0
    _verdict(1, ok, f"30-level layered build has {len(boxes)} boxes "
                    f"(want 1413) in {elapsed:.3f}s (budget 1s)")


# -------------------------------------------------------------------
# 2. layer-2 count across dimensions
# -------------------------------------------------------------------

def test_criterion_02_layer_two_count():
    counts = {n: layer_plans(demo_schedule(n), 2).count[1] for n in (2, 3, 4)}
    ok = all(counts[n] == 3 ** (n - 1) for n in (2, 3, 4))
    _verdict(2, ok, f"level-2 box counts {counts} match 3^(n-1) exactly")


# -------------------------------------------------------------------
# 3. quasimode norms vs tensor quadrature
# -------------------------------------------------------------------

def _tensor_quadrature_norms(n: int, k: float, eps: float, m: int = 32):
    """Unfactorized tensor-product Gauss quadrature of the energy density
    over the cube and of the normal-derivative square over the aperture."""
    ell = math.pi * math.sqrt(n) / k
    c = k / math.sqrt(n)

    x, w = _gauss(0.0, ell, m)
    grids = np.meshgrid(*([x] * n), indexing="ij")
    u = np.ones_like(grids[0])
    for g in grids:
        u = u * np.sin(c * g)
    grad_sq = np.zeros_like(u)
    for i in range(n):
        term = np.full_like(u, c)
        for axis, g in enumerate(grids):
            term = term * (np.cos(c * g) if axis == i else np.sin(c * g))
        grad_sq = grad_sq + term * term
    weight = np.ones_like(u)
    for i in range(n):
        shape = [1] * n
        shape[i] = m
        weight = weight * w.reshape(shape)
    h1k = float(((grad_sq + k * k * u * u) * weight).sum())

    xg, wg = _gauss(0.0, eps * ell, m)
    ggrids = np.meshgrid(*([xg] * (n - 1)), indexing="ij")
    dn = np.full_like(ggrids[0], c)
    for g in ggrids:
        dn = dn * np.sin(c * g)
    gweight = np.ones_like(ggrids[0])
    for i in range(n - 1):
        shape = [1] * (n - 1)
        shape[i] = m
        gweight = gweight * wg.reshape(shape)
    flux = float((dn * dn * gweight).sum())
    return h1k, flux


def test_criterion_03_norm_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    pi_sq_ok = True
    for n in (2, 3):
        for k in (1.0, 5.0, 20.0):
            ell = math.pi * math.sqrt(n) / k
            for eps in (0.05, 0.3, 0.517):
                norms = quasimode_norms(n, k, ell, eps)
                ref_h1k, ref_flux = _tensor_quadrature_norms(n, k, eps)
                worst = max(worst,
                            abs(norms.h1k_norm_sq - ref_h1k) / ref_h1k,
                            abs(norms.flux_norm_sq - ref_flux) / ref_flux)
                if n == 2 and abs(norms.h1k_norm_sq - math.pi ** 2) > 1e-12 * math.pi ** 2:
                    pi_sq_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0e-8 and pi_sq_ok and elapsed < 10.0
    _verdict(3, ok, f"closed-form norms vs quadrature worst rel err "
                    f"{worst:.3e} (tol 1e-8), n=2 energy = pi^2: {pi_sq_ok}, "
                    f"{elapsed:.2f}s (budget 10s)")


# -------------------------------------------------------------------
# 4. inverse identity for the inf-sup bound
# -------------------------------------------------------------------

def test_criterion_04_infsup_inverse_identity():
    rng = random.Random(20260823)
    cases = np.array([(rng.randint(2, 5), 10.0 ** rng.uniform(-1.0, 2.0),
                       10.0 ** rng.uniform(-5.0, 1.0)) for _ in range(100)])
    ub = np.empty(len(cases))
    for n in range(2, 6):
        rows = cases[:, 0] == n
        ub[rows] = _infsup(n, gap_fractions(n, cases[rows, 1], cases[rows, 2]))[0]
    worst = 0.0
    for (n, k, a), u in zip(cases.tolist(), ub.tolist()):
        lhs = 1.0 / u
        rhs = (math.sqrt(math.pi) * n ** 0.75
               * (1.0 + 2.0 * k * math.sqrt(2.0 * k * k * a * a + a)))
        worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1.0e-9
    _verdict(4, ok, f"1/ub vs sqrt(pi) n^(3/4) X on 100 random "
                    f"cases, worst rel err {worst:.3e} (tol 1e-9)")


# -------------------------------------------------------------------
# 5. certification chain on the figure configuration
# -------------------------------------------------------------------

def test_criterion_05_certification_margins():
    t0 = time.perf_counter()
    boxes, _ = build_layered(demo_schedule(), 10)
    records = certify_geometry(take(boxes, slice(0, 100)))
    elapsed = time.perf_counter() - t0
    min_margin = records.margin.min()
    spot_c_lb, spot_a = records.c_lb[0], records.a[0]
    spot_ok = abs(spot_c_lb - 0.09401) < 5.0e-5 and spot_a == 1.0e-4
    ok = (len(records) == 100 and min_margin > 0.0 and spot_ok
          and elapsed < 5.0)
    _verdict(5, ok, f"first 100 boxes: min margin {min_margin:.3e} > 0, "
                    f"cLB(j=1) = {spot_c_lb:.5f} (spot 0.09401 +- 5e-5) vs "
                    f"a_1 = {spot_a:g}, {elapsed:.2f}s (budget 5s)")


# -------------------------------------------------------------------
# 6. resolvent-floor round trip
# -------------------------------------------------------------------

def test_criterion_06_resolvent_round_trip():
    # ranges keep threshold - 1 well above roundoff of the literal 1;
    # below k ~ 1, a ~ 1e-6 the forward map itself discards the digits
    rng = random.Random(915)
    k, a, threshold = np.empty((3, 1000))
    for i in range(1000):
        k[i] = 10.0 ** rng.uniform(0.0, 3.0)
        a[i] = 10.0 ** rng.uniform(-6.0, 2.0)
        threshold[i] = 1.0 + 2.0 * k[i] * math.sqrt(2.0 * k[i] * k[i] * a[i] * a[i] + a[i])
    # NaN propagates through max and fails the criterion
    worst = (np.abs(_floor(threshold, k)[1] - a) / a).max()
    ok = worst <= 1.0e-12
    _verdict(6, ok, f"the resolvent floor inverts the threshold on 1000 random "
                    f"cases, worst rel err {worst:.3e} (tol 1e-12)")


# -------------------------------------------------------------------
# 7. special-function residual grid
# -------------------------------------------------------------------

def test_criterion_07_special_function_grid():
    t0 = time.perf_counter()
    grid = selftest_grid()
    rows = grid.ok.size
    failures = rows - int(np.count_nonzero(grid.ok))
    # NaN propagates through max and fails the criterion
    worst_wronskian = grid.residuals.max()
    worst_halfint = grid.halfint[:, grid.box].max()
    elapsed = time.perf_counter() - t0
    ok = (failures == 0 and worst_wronskian <= 1.0e-10
          and worst_halfint <= 1.0e-10 and elapsed < 30.0)
    _verdict(7, ok, f"{rows} grid points: worst wronskian residual "
                    f"{worst_wronskian:.3e}, worst closed-form error "
                    f"{worst_halfint:.3e} (tol 1e-10), {failures} failures, "
                    f"{elapsed:.1f}s (budget 30s)")


# -------------------------------------------------------------------
# 8. modal sign sweep
# -------------------------------------------------------------------

def test_criterion_08_dtn_sweep_clean():
    t0 = time.perf_counter()
    summary = verify_sweep()
    elapsed = time.perf_counter() - t0
    ok = (summary.passed and summary.a_violations == 0
          and summary.b_violations == 0 and summary.re_violations == 0
          and summary.im_violations == 0 and elapsed < 300.0)
    _verdict(8, ok, f"sweep n={summary.n_values}, m<={summary.m_max}, "
                    f"{summary.rho_count} radii: "
                    f"{summary.a_violations}/{summary.b_violations}/"
                    f"{summary.re_violations}/{summary.im_violations} "
                    f"violations over {summary.checked_modes} checks, "
                    f"{elapsed:.1f}s (budget 300s)")


# -------------------------------------------------------------------
# 9. exact boundary cases of the sign kernels
# -------------------------------------------------------------------

def test_criterion_09_exact_boundary_cases():
    # batched engine entries at order 1/2, the bits of one-point calls (every
    # engine decision is per point); B_0 of n = 3 is at order 1/2 too
    rho = SweepParams().rho_grid()
    worst_a = (np.abs(sum(a_terms(0.5, rho))) / np.maximum(1.0, 4.0 * rho / math.pi)).max()
    b_alpha1 = sum(b_terms(0, 3, rho, 1.0, *hankel(3, 0.5, rho)))
    worst_b = (np.abs(b_alpha1) / np.maximum(1.0, 4.0 / (math.pi * rho))).max()
    point = sum(b_terms(0, 3, 1.0, 2.0, *hankel(3, 0.5, 1.0))).item()
    point_err = abs(point + 2.0 / math.pi)
    ok = worst_a <= 1.0e-10 and worst_b <= 1.0e-10 and point_err <= 1.0e-10
    _verdict(9, ok, f"A_(1/2) scaled residual {worst_a:.3e}, B_0(n=3,alpha=1) "
                    f"scaled residual {worst_b:.3e} (tol 1e-10), "
                    f"B_0(n=3,alpha=2,rho=1) = {point:.12f} vs -2/pi "
                    f"(err {point_err:.3e})")


# -------------------------------------------------------------------
# 10. trace inequality
# -------------------------------------------------------------------

def test_criterion_10_trace_inequality():
    lhs, rhs = trace_inequality_residual(2, 1.0, TraceTest((1,), 1))
    worked_ok = lhs == 0.5 and round(rhs, 4) == 1.1958

    rng = random.Random(4711)
    all_hold = True
    second_form_ok = True
    quad_agree = 0.0
    for _ in range(50):
        n = rng.choice((2, 3))
        p = tuple(rng.randint(1, 5) for _ in range(n - 1))
        q = rng.randint(1, 4)
        a = 10.0 ** rng.uniform(-1.0, 1.0)
        lhs_i, rhs_i = trace_inequality_residual(n, a, TraceTest(p, q))
        if lhs_i > rhs_i * (1.0 + 1.0e-12):
            all_hold = False
        q_lhs, q_vol, q_grad = quadrature_trace_norms(n, a, TraceTest(p, q))
        q_rhs = 2.0 * math.sqrt(q_vol) * math.sqrt(q_grad)
        scale = max(1.0, rhs_i)
        quad_agree = max(quad_agree, abs(lhs_i - q_lhs) / scale,
                         abs(rhs_i - q_rhs) / scale)
        for k in (1.0, 10.0):
            h1k_over_k = (q_grad + k * k * q_vol) / k
            if lhs_i > h1k_over_k * (1.0 + 1.0e-10):
                second_form_ok = False
    ok = (worked_ok and all_hold and second_form_ok and quad_agree <= 1.0e-8)
    _verdict(10, ok, f"worked case ({lhs}, {rhs:.5f}) vs (0.5, 1.19580); "
                     f"50 random cases hold: {all_hold}, quadrature "
                     f"agreement {quad_agree:.3e}, second form "
                     f"(k in {{1,10}}): {second_form_ok}")


# -------------------------------------------------------------------
# 11. packing invariants and the connectivity oracle
# -------------------------------------------------------------------

def test_criterion_11_packing_invariants():
    sched = demo_schedule()
    boxes, _ = build_layered(sched, 3)
    report = disjointness_certificate(boxes, sched)
    disjoint_ok = not report.overlap_pairs
    gaps = report.in_layer
    in_layer_ok = bool((abs(gaps.min_distance - gaps.expected) / gaps.expected
                        <= 1.0e-12).all())
    # each adjacent pair's measured distance against d_(layer_a)
    cross = report.cross
    d = paddings(sched, cross.layer_a.tolist())
    cross_ok = len(cross) > 0 and bool(
        (abs(cross.min_distance - d) / d <= 1.0e-12).all())

    res = suggested_resolution(boxes)
    open_connected = flood_fill_oracle(boxes, res)
    sealed = dataclasses.replace(boxes, gap=np.zeros(len(boxes)))
    sealed_disconnected = not flood_fill_oracle(sealed, res)

    ok = (disjoint_ok and in_layer_ok and cross_ok and open_connected
          and sealed_disconnected)
    _verdict(11, ok, f"disjoint: {disjoint_ok}, in-layer gaps match "
                     f"d_i/ln(i+e) to 1e-12: {in_layer_ok}, adjacent-layer "
                     f"gaps are exactly d_i: {cross_ok}, flood fill "
                     f"open/sealed: {open_connected}/{not sealed_disconnected}")


# -------------------------------------------------------------------
# 12. artifact determinism
# -------------------------------------------------------------------

def test_criterion_12_artifact_determinism(tmp_path):
    config = tmp_path / "fig.json"
    config.write_text(
        '{\n'
        ' "dimension": 2,\n'
        ' "schedule": {\n'
        '  "wavenumbers": {"family": "log-growth", "c": 2.0},\n'
        '  "targets": {"family": "power", "amplitude": 1.0e-4, "exponent": 0.25},\n'
        '  "paddings": {"family": "shifted-power", "amplitude": 2.0,'
        ' "shift": 6.0, "exponent": 1.2}\n'
        ' },\n'
        ' "layout": "layered",\n'
        ' "layers": 6\n'
        '}\n', encoding="utf-8")
    codes = []
    for name in ("one", "two"):
        out = tmp_path / name
        codes.append(run(["build", "--config", str(config), "--out", str(out)]))
        codes.append(run(["plot", "--config", str(config), "--out", str(out)]))
    json_same = ((tmp_path / "one" / "geometry.json").read_bytes()
                 == (tmp_path / "two" / "geometry.json").read_bytes())
    svg_same = ((tmp_path / "one" / "figure.svg").read_bytes()
                == (tmp_path / "two" / "figure.svg").read_bytes())
    ok = codes == [0, 0, 0, 0] and json_same and svg_same
    _verdict(12, ok, f"two runs, exit codes {codes}: geometry JSON "
                     f"byte-identical: {json_same}, SVG byte-identical: "
                     f"{svg_same}")
