"""Schedule families and derived per-box parameters.

A build is driven by three sequences: wavenumbers k_j (strictly increasing,
unbounded), target resolvent norms a_j (positive, nondecreasing), and
inter-layer paddings d_i (positive, decreasing, summable).  Box j then gets
sidelength ell_j = pi*sqrt(n)/k_j, which makes k_j**2 the lowest Dirichlet
eigenvalue of the box, and a gap fraction eps_j in (0,1) sizing the aperture
cut into one face: small enough that the box still traps a quasimode strong
enough to force the resolvent norm above a_j at wavenumber k_j.

Families are closed-form (log-growth wavenumbers, power-law targets,
shifted-power paddings) or finite explicit tables.  Querying past a table
is an error, never an extrapolation.  With ``precision_digits > 15`` the
wavenumber formula is evaluated in software arbitrary precision and rounded
once, so certificates do not hinge on binary64 rounding of nested logs.

Each formula is written once, over a range of indices; the per-index
functions are one-element calls.  Only correctly rounded operations
(+ - * /, sqrt) run as numpy, in the scalar association order.  Logs and
powers stay CPython's `math.log` and `**` per element: over 1M points
numpy's log differed from `math.log` on 56 and its power from `**` on
58,619 (numpy 2.4, AVX-512), and `x*x` differs from `x**2` on 822.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import mpmath as mp
import numpy as np

_E_E = math.exp(math.e)
# (3/(2 pi^2))^(1/3), the dimensional prefactor of the gap-fraction formula;
# since the other factor is < 1, eps < 0.5336 always
_APERTURE_C = (3.0 / (2.0 * math.pi**2)) ** (1.0 / 3.0)


class ScheduleError(ValueError):
    """Out-of-range index or malformed schedule family."""


# -------------------------------------------------------------------
# families
# -------------------------------------------------------------------

def _finite_floats(values, what: str) -> Tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in out):
        raise ScheduleError(f"{what} table entries must be finite")
    return out


@dataclass(frozen=True)
class KLogGrowth:
    """Wavenumbers on the slow-growth floor:

    k_j = c * (j ln(j+e))^(1/n) * ln^2(ln(j+e^e)).

    This is the slowest admissible growth compatible with finite total
    volume of the box family (up to the constant c); the standard
    demonstration configuration uses c = 2.
    """

    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ScheduleError(f"growth constant must be positive, got {self.c}")


@dataclass(frozen=True)
class KTable:
    """Finite explicit wavenumber table, 1-indexed; must be increasing."""

    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _finite_floats(self.values, "wavenumber"))
        if not self.values:
            raise ScheduleError("wavenumber table is empty")
        if self.values[0] <= 0.0:
            raise ScheduleError("wavenumbers must be positive")
        for a, b in zip(self.values, self.values[1:]):
            if not b > a:
                raise ScheduleError("wavenumber table must be strictly increasing")


@dataclass(frozen=True)
class APower:
    """Target norms a_j = amplitude * j**exponent (exponent >= 0)."""

    amplitude: float
    exponent: float

    def __post_init__(self) -> None:
        if not (0.0 < self.amplitude < math.inf and 0.0 <= self.exponent < math.inf):
            raise ScheduleError(
                "power target family needs finite amplitude > 0, exponent >= 0")


@dataclass(frozen=True)
class ATable:
    """Finite explicit target table, 1-indexed; positive and nondecreasing."""

    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _finite_floats(self.values, "target"))
        if not self.values or self.values[0] <= 0.0:
            raise ScheduleError("target table must be nonempty and positive")
        for a, b in zip(self.values, self.values[1:]):
            if b < a:
                raise ScheduleError("target table must be nondecreasing")


@dataclass(frozen=True)
class DShiftedPower:
    """Paddings d_i = amplitude * (i + shift)**(-exponent), exponent > 1.

    The exponent condition guarantees a summable padding sequence, which is
    what keeps the stacked total height and the layered height offsets
    finite in the limit.
    """

    amplitude: float
    shift: float
    exponent: float

    def __post_init__(self) -> None:
        if not (0.0 < self.amplitude < math.inf and 0.0 <= self.shift < math.inf):
            raise ScheduleError(
                "shifted-power family needs finite amplitude > 0, shift >= 0")
        if not 1.0 < self.exponent < math.inf:
            raise ScheduleError("padding exponent must be finite and exceed 1 "
                                "for summability")


@dataclass(frozen=True)
class DTable:
    """Finite explicit padding table, 1-indexed; positive and decreasing."""

    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _finite_floats(self.values, "padding"))
        if not self.values or self.values[-1] <= 0.0:
            raise ScheduleError("padding table must be nonempty and positive")
        for a, b in zip(self.values, self.values[1:]):
            if not b < a:
                raise ScheduleError("padding table must be strictly decreasing")


KFamily = Union[KLogGrowth, KTable]
AFamily = Union[APower, ATable]
DFamily = Union[DShiftedPower, DTable]


@dataclass(frozen=True)
class Schedule:
    """Immutable bundle of the three input families for one build."""

    n: int
    k_family: KFamily
    a_family: AFamily
    d_family: DFamily
    precision_digits: int = 15

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ScheduleError(f"dimension must be >= 2, got {self.n}")
        if self.precision_digits < 15:
            raise ScheduleError("precision_digits must be >= 15")


def demo_schedule(n: int = 2, precision_digits: int = 15) -> Schedule:
    """The standard demonstration schedule: wavenumbers on the growth floor
    with c = 2, a_j = j^(1/4)/10000, d_i = 2(i+6)^(-6/5)."""
    return Schedule(
        n=n,
        k_family=KLogGrowth(2.0),
        a_family=APower(1.0e-4, 0.25),
        d_family=DShiftedPower(2.0, 6.0, 1.2),
        precision_digits=precision_digits,
    )


# -------------------------------------------------------------------
# sequence evaluation
# -------------------------------------------------------------------

def _check_index(j: int, what: str) -> None:
    if j < 1:
        raise ScheduleError(f"{what} index must be >= 1, got {j}")


def _table_values(values: Tuple[float, ...], js: range, what: str) -> np.ndarray:
    if js and js[-1] > len(values):
        raise ScheduleError(
            f"{what} table has {len(values)} entries, index "
            f"{max(js[0], len(values) + 1)} queried; tables are never extrapolated")
    return np.array([values[j - 1] for j in js], dtype=float)


def _growth_values(n: int, c: float, js: range, digits: int) -> np.ndarray:
    """c (j ln(j+e))^(1/n) ln^2(ln(j+e^e)) for j in js."""
    if digits > 15:
        with mp.workdps(digits):
            root, e_e = mp.mpf(1) / n, mp.exp(mp.e)
            return np.array([float(c * (jj * mp.log(jj + mp.e)) ** root
                                   * mp.log(mp.log(jj + e_e)) ** 2)
                             for jj in map(mp.mpf, js)], dtype=float)
    return np.array([c * (j * math.log(j + math.e)) ** (1.0 / n)
                     * math.log(math.log(j + _E_E)) ** 2 for j in js], dtype=float)


def wavenumbers(sched: Schedule, js: Sequence[int]) -> np.ndarray:
    """k_j for j in the increasing sequence js."""
    if js:
        _check_index(js[0], "wavenumber")
    fam = sched.k_family
    if isinstance(fam, KTable):
        return _table_values(fam.values, js, "wavenumber")
    return _growth_values(sched.n, fam.c, js, sched.precision_digits)


def wavenumber(sched: Schedule, j: int) -> float:
    """k_j under the schedule's wavenumber family."""
    return wavenumbers(sched, range(j, j + 1))[0].item()


def target_norms(sched: Schedule, js: range) -> np.ndarray:
    """a_j for j in the increasing range js."""
    if js:
        _check_index(js[0], "target")
    fam = sched.a_family
    if isinstance(fam, ATable):
        return _table_values(fam.values, js, "target")
    return np.array([fam.amplitude * float(j) ** fam.exponent for j in js], dtype=float)


def target_norm(sched: Schedule, j: int) -> float:
    """a_j, the resolvent norm the j-th box is required to certify."""
    return target_norms(sched, range(j, j + 1))[0].item()


def padding(sched: Schedule, i: int) -> float:
    """d_i, the vertical padding below layer i."""
    _check_index(i, "padding")
    fam = sched.d_family
    if isinstance(fam, DTable):
        return _table_values(fam.values, range(i, i + 1), "padding")[0].item()
    return fam.amplitude * (i + fam.shift) ** (-fam.exponent)


def _side(n: int, k):
    """ell = pi sqrt(n) / k, for a float or an array of k."""
    with np.errstate(over="ignore"):  # inf, as for floats
        return math.pi * math.sqrt(n) / k


def sidelengths(sched: Schedule, js: Sequence[int]) -> np.ndarray:
    """ell_j = pi sqrt(n) / k_j for j in the increasing sequence js."""
    return _side(sched.n, wavenumbers(sched, js))


def sidelength(sched: Schedule, j: int) -> float:
    """ell_j = pi sqrt(n) / k_j."""
    return _side(sched.n, wavenumber(sched, j))


def gap_fractions(n: int, k: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Aperture fractions eps in (0,1) for boxes at wavenumbers k, targets a.

    eps = (3/(2 pi^2))^(1/3) * (1 + 2k sqrt(2 k^2 a^2 + a))^(-2/(3n-3)).

    Strictly decreasing in both k and a: a harder target or a higher
    frequency needs a smaller opening.  The prefactor is below 0.534, so the
    result is structurally inside (0,1) for every valid input; the outgoing
    range check is a misuse diagnostic, not a clamp.  The first box that
    fails a check raises, naming its own values.
    """
    if n < 2:
        raise ScheduleError(f"dimension must be >= 2, got {n}")
    with np.errstate(all="ignore"):
        domain = (k > 0.0) & (a > 0.0)
        x = np.where(domain, 1.0 + 2.0 * k * np.sqrt(2.0 * k * k * a * a + a), 1.0)
        p = -2.0 / (3.0 * n - 3.0)
        eps = _APERTURE_C * np.array([v ** p for v in x.tolist()], dtype=float)
        failed = ~(domain & (0.0 < eps) & (eps < 1.0))
    if failed.any():
        i = int(np.argmax(failed))
        ki, ai = k[i].item(), a[i].item()
        if not domain[i]:
            raise ScheduleError(f"gap fraction needs k > 0 and a > 0, got k={ki}, a={ai}")
        raise ScheduleError(
            f"gap fraction {eps[i].item()} left (0,1) at n={n}, k={ki}, a={ai}; "
            "the schedule violates its own hypotheses")
    return eps


def gap_fraction(n: int, k: float, a: float) -> float:
    """eps of one box (see :func:`gap_fractions`)."""
    return gap_fractions(n, np.array([k], float), np.array([a], float))[0].item()


@dataclass(frozen=True)
class DerivedParams:
    """Everything box j needs: index, wavenumber, sidelength, gap fraction,
    and the certified target."""

    j: int
    k: float
    ell: float
    eps: float
    a: float


def derived_columns(sched: Schedule, js: range) -> Tuple[np.ndarray, ...]:
    """Columns (k, ell, eps, a) of the boxes j in the increasing range js.

    The first failing box raises what it raises on its own (checks in the
    order wavenumber, target, gap fraction).  Boxes fail independently, so
    halving a failing range finds it in about three evaluations of the range.
    """
    try:
        k = wavenumbers(sched, js)
        a = target_norms(sched, js)
        return k, _side(sched.n, k), gap_fractions(sched.n, k, a), a
    except (ScheduleError, ArithmeticError) as exc:
        if len(js) == 1:
            raise
        error = exc
    half = len(js) // 2
    derived_columns(sched, js[:half])
    derived_columns(sched, js[half:])
    raise error


def derived_params(sched: Schedule, j: int) -> DerivedParams:
    """The parameters of box j, from :func:`derived_columns`."""
    return DerivedParams(j, *(c[0].item() for c in derived_columns(sched, range(j, j + 1))))


# -------------------------------------------------------------------
# validators and partial sums
# -------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFloorReport:
    """Result of checking k_j >= c (j ln(j+e))^(1/n) ln^2(ln(j+e^e)) for
    all j <= j_max; `failures` lists every failing index."""

    c: float
    j_max: int
    failures: Tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first_failure(self) -> int | None:
        return self.failures[0] if self.failures else None


def growth_floor_check(sched: Schedule, c: float, j_max: int) -> GrowthFloorReport:
    """Check the wavenumber family against the growth floor with constant c.

    c = 0 passes vacuously for positive wavenumbers.  The floor is evaluated
    through the same code path as :class:`KLogGrowth`, so a schedule defined
    on the floor passes bit-for-bit.
    """
    _check_index(j_max, "j_max")
    if c < 0.0 or not math.isfinite(c):
        raise ScheduleError(f"floor constant must be finite and >= 0, got {c}")
    js = range(1, j_max + 1)
    k = wavenumbers(sched, js)
    floor = 0.0 if c == 0.0 else _growth_values(sched.n, c, js, sched.precision_digits)
    failures = np.flatnonzero(~(k >= floor)) + 1
    return GrowthFloorReport(c=c, j_max=j_max, failures=tuple(failures.tolist()))


def partial_volume(sched: Schedule, J: int) -> float:
    """sum_{j<=J} ell_j^n, the total volume of the first J boxes."""
    _check_index(J, "volume")
    return math.fsum(sidelength(sched, j) ** sched.n for j in range(1, J + 1))


def padding_tail_bound(sched: Schedule, i0: int) -> float:
    """Upper bound on sum_{i>i0} d_i.

    Shifted-power family: integral comparison gives
    amplitude * (i0 + shift)^(1-exponent) / (exponent - 1).
    Tables: the exact remaining finite sum (zero past the end).
    """
    _check_index(i0, "padding tail")
    fam = sched.d_family
    if isinstance(fam, DTable):
        return math.fsum(fam.values[i0:])
    q = fam.exponent
    return fam.amplitude * (i0 + fam.shift) ** (1.0 - q) / (q - 1.0)


def volume_tail_bound(sched: Schedule, J: int) -> float:
    """Upper bound on sum_{j>J} ell_j^n.

    Log-growth family (needs J >= 3): dropping the e-shifts monotonically,
    k_j^-n <= c^-n / (j ln j (ln ln j)^(2n)), whose tail is bounded by the
    integral  (ln ln J)^(1-2n) / (2n-1).  Tables: exact remaining sum.
    """
    _check_index(J, "volume tail")
    fam = sched.k_family
    n = sched.n
    if isinstance(fam, KTable):
        return math.fsum(_side(n, v) ** n for v in fam.values[J:])
    if J < 3:
        raise ScheduleError("volume tail bound for the log-growth family needs J >= 3")
    return (
        (math.pi * math.sqrt(n)) ** n / fam.c ** n
        * math.log(math.log(J)) ** (1 - 2 * n) / (2 * n - 1)
    )
