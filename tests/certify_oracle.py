"""The per-box certificate chain as it ran before the column code, in
Python floats, the closed-form norms of the quasimode, and the trace
inequality of the flux estimate.

These are the scalar references: `trapcert.certify` writes each step of
the chain once, on columns.  The tests require those steps (`_infsup`,
`_floor`), and every column of `certify_geometry`, to equal the functions
here bit for bit, and `certify_geometry` to raise the same first error
with the same message.

The quasimode's norms live only here: `quasimode_norms` gives them in
closed form, and the tests check them against tensor quadrature.

The trace inequality lives only here: `trace_inequality_residual` checks
it on separable test functions, with closed-form integrals cross-checked
against quadrature (it keeps its two copies of the product formula, one
per route), and `quadrature_trace_norms` is a third, independent route.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from trapcert.certify import CertifyError


@dataclass(frozen=True)
class QuasimodeNorms:
    """Squared norms of the product Dirichlet mode of one box."""

    h1k_norm_sq: float
    flux_norm_sq: float
    flux_cubic_ub: float


def _s_minus_sin(s):
    """s - sin(s), series below s = 1/2 to dodge the cancellation."""
    if s < 0.5:
        s2 = s * s
        return s * s2 * (1.0 / 6 - s2 * (1.0 / 120 - s2 * (1.0 / 5040
                         - s2 * (1.0 / 362880 - s2 / 39916800))))
    return s - math.sin(s)


def resonant_box(n, k, ell, where=""):
    """The resonance gate of one box: k*ell = pi*sqrt(n) to 1e-12 relative,
    which makes the product mode an exact Dirichlet eigenmode.  `where`
    leads the message."""
    target = math.pi * math.sqrt(n)
    if abs(k * ell - target) > 1e-12 * target:
        raise CertifyError(
            f"{where}k*ell = {k * ell!r} violates the resonance relation pi*sqrt(n)"
        )


def quasimode_norms(n, k, ell, eps):
    """Closed-form norms of the product mode u(x) = prod_i sin(k x_i / sqrt(n))
    of a box with k, ell > 0 and eps in (0,1) that passes `resonant_box`:
    the squared H1_k norm over the box, the squared normal flux through the
    aperture [0, eps*ell]^(n-1), and its cubic bound from s - sin s <= s^3/6."""
    if n < 2:
        raise CertifyError(f"dimension must be >= 2, got {n}")
    if not (k > 0.0 and ell > 0.0 and 0.0 < eps < 1.0):
        raise CertifyError(f"need k, ell > 0 and eps in (0,1), got {k}, {ell}, {eps}")
    resonant_box(n, k, ell)
    h1k = k * k * ell ** n / 2.0 ** (n - 1)
    s = 2.0 * k * ell * eps / math.sqrt(n)
    flux = (math.sqrt(n) / (4.0 * k)) ** (n - 3) * _s_minus_sin(s) ** (n - 1) / 16.0
    cubic = ((k * ell * eps) ** (3 * (n - 1))
             / (3.0 ** (n - 1) * k ** (n - 3) * float(n) ** n))
    return QuasimodeNorms(h1k_norm_sq=h1k, flux_norm_sq=flux, flux_cubic_ub=cubic)


def infsup_upper(n, eps):
    """c_n eps^(3(n-1)/2), for n >= 2 and eps in [0,1) as in a `Boxes`."""
    c_n = (2.0 ** ((n - 1) / 2.0) * math.pi ** (n - 1.5)
           / (3.0 ** ((n - 1) / 2.0) * n ** 0.75))
    return c_n * eps ** (1.5 * (n - 1))


def threshold(n, k, a):
    return (math.sqrt(math.pi) * n ** 0.75
            * (1.0 + 2.0 * k * math.sqrt(2.0 * k * k * a * a + a)))


def resolvent_lower(threshold, k):
    if k <= 0.0:
        raise CertifyError(f"wavenumber must be positive, got {k}")
    c_prime = max(0.0, (threshold - 1.0) / (2.0 * k))
    s = c_prime * c_prime
    disc = 8.0 * k * k * s
    if math.isinf(disc):
        return c_prime, c_prime / (math.sqrt(2.0) * k)
    return c_prime, 2.0 * s / (1.0 + math.sqrt(1.0 + disc))


def scalar_certify(boxes):
    """certify_geometry box by box: the rows (j, k, a, eps, ub, inv,
    c_prime, c_lb, margin), or the first box's first error.  The domain of
    every box is the invariant of `Boxes`, and the range gates of the
    columns (a normal eps^(3(n-1)/2), a finite threshold and margin) are
    not here."""
    n = boxes.lo.shape[1]
    rows = []
    for j, k, a, eps, ell in zip(boxes.j.tolist(), boxes.k.tolist(),
                                 boxes.a.tolist(), boxes.gap.tolist(),
                                 boxes.side.tolist()):
        resonant_box(n, k, ell, f"box {j}: ")
        ub = infsup_upper(n, eps)
        inv = threshold(n, k, a)
        if abs(1.0 / ub - inv) > 1e-9 * inv:
            raise CertifyError(f"box {j}: inf-sup routes disagree, "
                               f"1/ub = {1.0 / ub!r} vs identity {inv!r}")
        c_prime, c_lb = resolvent_lower(inv, k)
        if not c_lb - a > 0.0:
            raise CertifyError(f"box {j}: resolvent floor {c_lb!r} does not "
                               f"clear target {a!r}")
        if not 2.0 * k * k * c_lb * c_lb + c_lb > 2.0 * k * k * a * a + a:
            raise CertifyError(f"box {j}: floor fails the defining relation")
        rows.append((j, k, a, eps, ub, inv, c_prime, c_lb, c_lb - a))
    return rows


@dataclass(frozen=True)
class TraceTest:
    """Separable test function on [0, a]^n:
    prod_{i<n} sin(pi p_i x_i / a) * (1 - x_n/a)^q."""

    p: Tuple[int, ...]
    q: int


def trace_inequality_residual(n, a, test, quad_points=24):
    """(lhs, rhs) of the boundary-trace inequality for the separable test:
    lhs = squared trace norm on the face x_n = 0, rhs = 2 ||v|| ||grad v||.

    The closed forms are cross-checked against Gauss-Legendre quadrature of
    each one-dimensional factor with `quad_points` nodes (>= 8 so the
    oscillatory factors are resolved); disagreement beyond 1e-10 relative
    raises, as does a violated inequality.
    """
    if n < 2:
        raise CertifyError(f"dimension must be >= 2, got {n}")
    if a <= 0.0:
        raise CertifyError(f"cube side must be positive, got {a}")
    if len(test.p) != n - 1:
        raise CertifyError(f"need {n - 1} frequencies, got {len(test.p)}")
    if any(p < 0 for p in test.p) or test.q < 1:
        raise CertifyError("frequencies must be >= 0 and the power >= 1")
    if quad_points < 8:
        raise CertifyError(f"need at least 8 quadrature points, got {quad_points}")

    s_fac = [a / 2.0 if p > 0 else 0.0 for p in test.p]
    c_fac = [a / 2.0 if p > 0 else a for p in test.p]
    iq0 = a / (2 * test.q + 1)
    iq1 = a / (2 * test.q - 1)
    trace_sq = math.prod(s_fac)
    v_sq = trace_sq * iq0
    grad_sq = trace_sq * test.q ** 2 / (a * a) * iq1
    for i, p in enumerate(test.p):
        rest = math.prod(s_fac[:i] + s_fac[i + 1:])
        grad_sq += (math.pi * p / a) ** 2 * c_fac[i] * rest * iq0
    lhs = trace_sq
    rhs = 2.0 * math.sqrt(v_sq) * math.sqrt(grad_sq)

    x, w = np.polynomial.legendre.leggauss(quad_points)
    t = 0.5 * a * (x + 1.0)
    wt = 0.5 * a * w

    def quad(vals):
        return float(wt @ vals)

    s_fac = [quad(np.sin(math.pi * p * t / a) ** 2) for p in test.p]
    c_fac = [quad(np.cos(math.pi * p * t / a) ** 2) for p in test.p]
    iq0 = quad((1.0 - t / a) ** (2 * test.q))
    iq1 = quad((1.0 - t / a) ** (2 * test.q - 2))
    q_trace = math.prod(s_fac)
    q_v = q_trace * iq0
    q_grad = q_trace * test.q ** 2 / (a * a) * iq1
    for i, p in enumerate(test.p):
        rest = math.prod(s_fac[:i] + s_fac[i + 1:])
        q_grad += (math.pi * p / a) ** 2 * c_fac[i] * rest * iq0
    scale = max(abs(v_sq), abs(grad_sq), a ** n)
    for closed, numeric in ((trace_sq, q_trace), (v_sq, q_v), (grad_sq, q_grad)):
        if abs(closed - numeric) > 1e-10 * max(abs(closed), scale * 1e-6):
            raise CertifyError(
                f"closed form {closed!r} disagrees with quadrature {numeric!r}"
            )

    if lhs > rhs + 1e-12 * max(1.0, rhs):
        raise CertifyError(f"trace inequality violated: {lhs!r} > {rhs!r}")
    return lhs, rhs


def quadrature_trace_norms(n, a, test, m=48):
    """Face, volume, and gradient norms of the separable test function by
    one-dimensional Gauss quadrature of each factor, the tail's derivative
    taken as it is rather than through the closed-form power."""
    x, w = leggauss(m)
    x, w = 0.5 * a + 0.5 * a * x, 0.5 * a * w
    sin_sq = [float(w @ np.sin(math.pi * p * x / a) ** 2) for p in test.p]
    cos_sq = [float(w @ np.cos(math.pi * p * x / a) ** 2) for p in test.p]
    tail_sq = float(w @ (1.0 - x / a) ** (2 * test.q))
    dtail_sq = float(w @ ((test.q / a) * (1.0 - x / a) ** (test.q - 1)) ** 2)
    lhs = float(np.prod(sin_sq))
    vol = lhs * tail_sq
    grad = lhs * dtail_sq
    for i, p in enumerate(test.p):
        term = (math.pi * p / a) ** 2 * cos_sq[i] * tail_sq
        for jj, _ in enumerate(test.p):
            if jj != i:
                term *= sin_sq[jj]
        grad += term
    return lhs, vol, grad
