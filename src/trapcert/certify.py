"""Per-box certificates: resonance gates, inf-sup bound, resolvent floor.

For a box of side ell with k*ell = pi*sqrt(n), the product Dirichlet mode
u(x) = prod_i sin(k x_i / sqrt(n)) has fully explicit norms: the squared
wavenumber-weighted H1 norm over the box, and the squared normal-flux norm
through the aperture [0, eps*ell]^(n-1) in the bottom face.  Their ratio
drives an upper bound on the inf-sup constant of the exterior problem,

    beta <= c_n * eps^(3(n-1)/2),
    c_n  = 2^((n-1)/2) pi^(n-3/2) / (3^((n-1)/2) n^(3/4)),

whose reciprocal, by the choice of eps, reproduces the resolvent threshold
sqrt(pi) n^(3/4) (1 + 2k sqrt(2k^2 a^2 + a)) up to roundoff.  Inverting the
threshold through the resolvent functional calculus yields a certified
lower bound c_lb on the cut-off resolvent norm which must exceed the target
a with positive margin.  The bounds are uniform in the cut-off radius, so a
single record certifies every R larger than the circumradius of the
arrangement.

Each step of the chain is written once, on columns (the design identity
and the defining relation in `sequences`), and `certify_geometry` runs it
over a `Boxes`.  Arrays carry only correctly rounded operations and
eps^(3(n-1)/2) stays one Python float power per box, so the columns are
the bits of the scalar chain that `tests/certify_oracle.py` keeps.

The mode's closed-form norms and the trace inequality used in the flux
estimate are checked in the tests (`tests/certify_oracle.py`): the norms
against tensor quadrature, the inequality on separable
polynomial-times-sine test functions with closed-form integrals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from trapcert.geometry import Boxes
from trapcert.sequences import defining_relation, design_identity, powers


class CertifyError(ValueError):
    """A certificate precondition or invariant failed."""


def _infsup(n: int, eps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """c_n eps^(3(n-1)/2) over a column of eps in [0,1) (n >= 2, as in a
    `Boxes`), and where eps^(3(n-1)/2) is a normal binary64 (else the bound
    lost bits)."""
    c_n = (2.0 ** ((n - 1) / 2.0) * math.pi ** (n - 1.5)
           / (3.0 ** ((n - 1) / 2.0) * n ** 0.75))
    p = 1.5 * (n - 1)
    power = powers(eps, p)
    return c_n * power, power >= sys.float_info.min


def _threshold(n: int, k, a):
    """sqrt(pi) n^(3/4) (1 + 2k sqrt(2k^2 a^2 + a)), for floats or arrays of
    k and a; by construction of the aperture fraction this equals 1/ub of
    `_infsup` up to roundoff."""
    return math.sqrt(math.pi) * n ** 0.75 * design_identity(k, a)


def _floor(threshold, k) -> Tuple[np.ndarray, np.ndarray]:
    """Invert 'resolvent norm exceeds threshold' over columns (k > 0) into
    (c_prime_lb, c_lb): (threshold - 1)/(2k) clamped at zero, then the
    positive root C of 2 k^2 C^2 + C = S = c_prime_lb^2 in the rationalized
    form 2S / (1 + sqrt(1 + 8 k^2 S)), accurate for small S.  Where 8 k^2 S
    overflows (from k ~ 1e78 at a = 1e-4) the denominator is sqrt(8) k
    c_prime_lb to far below one rounding, and C = c_prime_lb / (sqrt(2) k)."""
    with np.errstate(all="ignore"):
        c_prime = (threshold - 1.0) / (2.0 * k)
        c_prime = np.where(c_prime > 0.0, c_prime, 0.0)  # max(0.0, x), NaN to 0
        s = c_prime * c_prime
        disc = 8.0 * k * k * s
        return c_prime, np.where(np.isinf(disc), c_prime / (math.sqrt(2.0) * k),
                                 2.0 * s / (1.0 + np.sqrt(1.0 + disc)))


@dataclass(frozen=True, eq=False)
class Certificates:
    """Per-box columns: inputs, both inf-sup routes, floor and margin."""

    j: np.ndarray
    k: np.ndarray
    a: np.ndarray
    eps: np.ndarray
    infsup_ub: np.ndarray
    infsup_ub_inv_identity: np.ndarray
    c_prime_lb: np.ndarray
    c_lb: np.ndarray
    margin: np.ndarray

    def __len__(self) -> int:
        return len(self.j)


def certify_geometry(boxes: Boxes) -> Certificates:
    """Certify every box of a built arrangement.

    `Boxes` guarantees the domain of each box: k, ell > 0, eps in [0,1) and
    a > 0.  Every box passes six gates or the call fails, naming the first
    failing box and its first failing gate: the resonance k*ell = pi*sqrt(n)
    to 1e-12 relative, which makes the product mode an exact Dirichlet
    eigenmode; eps^(3(n-1)/2) normal (a sealed box, eps = 0, fails here) and
    a finite threshold and margin, else ArithmeticError, as a bound outside
    binary64 proves nothing; the inf-sup routes agreeing to 1e-9 relative, a
    positive margin, and the defining relation.
    """
    n = boxes.lo.shape[1]
    k, a, eps, ell = boxes.k, boxes.a, boxes.gap, boxes.side
    root = math.pi * math.sqrt(n)
    ub, normal = _infsup(n, eps)
    with np.errstate(all="ignore"):
        inv = _threshold(n, k, a)
        c_prime, c_lb = _floor(inv, k)
        margin = c_lb - a
        gates = np.stack((
            ~(np.abs(k * ell - root) > 1e-12 * root),
            normal,
            (np.abs(inv) < math.inf) & (np.abs(margin) < math.inf),
            ~(np.abs(1.0 / ub - inv) > 1e-9 * inv),
            margin > 0.0,
            defining_relation(k, c_lb) > defining_relation(k, a)))
        failed = ~gates.all(axis=0)
        if failed.any():
            i = int(np.argmax(failed))
            gate = int(np.argmin(gates[:, i]))
            j, ki, ai, ei, li = (c[i].item() for c in (boxes.j, k, a, eps, ell))
            error = ArithmeticError if gate in (1, 2) else CertifyError
            raise error([
                f"box {j}: k*ell = {ki * li!r} violates the resonance relation pi*sqrt(n)",
                f"box {j}: eps^(3(n-1)/2) = {ei ** (1.5 * (n - 1))!r} is below the normal range",
                f"box {j}: threshold {inv[i].item()!r} or margin {margin[i].item()!r} is not finite",
                f"box {j}: inf-sup routes disagree, 1/ub = "
                f"{(1.0 / ub[i]).item()!r} vs identity {inv[i].item()!r}",
                f"box {j}: resolvent floor {c_lb[i].item()!r} does not clear "
                f"target {ai!r}",
                f"box {j}: floor fails the defining relation",
            ][gate])
    return Certificates(j=boxes.j, k=k, a=a, eps=eps, infsup_ub=ub,
                        infsup_ub_inv_identity=inv, c_prime_lb=c_prime,
                        c_lb=c_lb, margin=margin)

