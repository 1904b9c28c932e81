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
is an error, never an extrapolation.  The log-growth wavenumbers are
evaluated in binary64, and the certificates are computed on exactly the k_j
that the geometry is built from.  Against the formula at 40 digits they are
at most 5 ulps off (4 at n=2 over 169,999 boxes, 5 at n=3 and 4 at n=4 over
4,999), and they increase strictly, as the exact values do.

Each formula is written once, over a range of indices, also those that
`certify` and `geometry` share (the design identity, the defining relation,
the volume sum); `derived_params` is the one per-box call.  Only
correctly rounded operations (+ - * /, sqrt) run as numpy, in the scalar
association order.  Logs and powers stay CPython's `math.log` and `**`,
per element, chunk by chunk (so a column holds one chunk of Python floats
at a time): over 1M points numpy's log differed from `math.log` on 56 and
its power from `**` on 58,619 (numpy 2.4, AVX-512), and `x*x` differs from
`x**2` on 822.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterator, Sequence, Tuple, Union

import numpy as np

_E_E = math.exp(math.e)
# (3/(2 pi^2))^(1/3), the dimensional prefactor of the gap-fraction formula;
# since the other factor is < 1, eps < 0.5336 always
_APERTURE_C = (3.0 / (2.0 * math.pi**2)) ** (1.0 / 3.0)
# rows per chunk of the per-element evaluations (about 128 KiB of Python floats)
CHUNK = 4096


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

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ScheduleError(f"dimension must be >= 2, got {self.n}")


def demo_schedule(n: int = 2) -> Schedule:
    """The standard demonstration schedule: wavenumbers on the growth floor
    with c = 2, a_j = j^(1/4)/10000, d_i = 2(i+6)^(-6/5)."""
    return Schedule(
        n=n,
        k_family=KLogGrowth(2.0),
        a_family=APower(1.0e-4, 0.25),
        d_family=DShiftedPower(2.0, 6.0, 1.2),
    )


# -------------------------------------------------------------------
# sequence evaluation
# -------------------------------------------------------------------

def _check_index(j: int, what: str) -> None:
    if j < 1:
        raise ScheduleError(f"{what} index must be >= 1, got {j}")


def _table_values(values: Tuple[float, ...], js: Sequence[int], what: str) -> np.ndarray:
    if js and js[-1] > len(values):
        past = next(j for j in js if j > len(values))
        raise ScheduleError(f"{what} table has {len(values)} entries, index {past} "
                            f"queried; tables are never extrapolated")
    return np.array([values[j - 1] for j in js], dtype=float)


def row_chunks(count: int) -> Iterator[slice]:
    """Slices of CHUNK rows that cover rows 0..count-1 in order."""
    return (slice(lo, lo + CHUNK) for lo in range(0, count, CHUNK))


def each(fn: Callable[..., float], x: np.ndarray, *args: float) -> np.ndarray:
    """fn(v, *args) per element v of x, as Python floats, chunk by chunk."""
    out = np.empty(len(x))
    for rows in row_chunks(len(x)):
        part = x[rows].tolist()
        out[rows] = np.fromiter(map(fn, part, *map(repeat, args)), float, len(part))
    return out


def _growth_values(n: int, c: float, js: Sequence[int]) -> np.ndarray:
    """c (j ln(j+e))^(1/n) ln^2(ln(j+e^e)) for j in js."""
    j = np.fromiter(js, float, len(js))
    lnln = each(math.log, each(math.log, j + _E_E))
    with np.errstate(over="ignore"):  # inf, as for floats
        return c * each(pow, j * each(math.log, j + math.e), 1.0 / n) * each(pow, lnln, 2)


def wavenumbers(sched: Schedule, js: Sequence[int]) -> np.ndarray:
    """k_j for j in the increasing sequence js."""
    if js:
        _check_index(js[0], "wavenumber")
    fam = sched.k_family
    if isinstance(fam, KTable):
        return _table_values(fam.values, js, "wavenumber")
    return _growth_values(sched.n, fam.c, js)


def target_norms(sched: Schedule, js: range) -> np.ndarray:
    """a_j for j in the increasing range js."""
    if js:
        _check_index(js[0], "target")
    fam = sched.a_family
    if isinstance(fam, ATable):
        return _table_values(fam.values, js, "target")
    with np.errstate(over="ignore"):
        return fam.amplitude * each(pow, np.fromiter(js, float, len(js)), fam.exponent)


def paddings(sched: Schedule, js: Sequence[int]) -> np.ndarray:
    """d_i, the vertical padding below level i, for i in the increasing
    sequence js."""
    if js:
        _check_index(js[0], "padding")
    fam = sched.d_family
    if isinstance(fam, DTable):
        return _table_values(fam.values, js, "padding")
    return np.array([fam.amplitude * (i + fam.shift) ** (-fam.exponent) for i in js],
                    dtype=float)


def _side(n: int, k):
    """ell = pi sqrt(n) / k, for a float or an array of k."""
    with np.errstate(over="ignore"):  # inf, as for floats
        return math.pi * math.sqrt(n) / k


def sidelengths(sched: Schedule, js: Sequence[int]) -> np.ndarray:
    """ell_j = pi sqrt(n) / k_j for j in the increasing sequence js."""
    return _side(sched.n, wavenumbers(sched, js))


def defining_relation(k, c):
    """2 k^2 c^2 + c, for floats or arrays."""
    return 2.0 * k * k * c * c + c


def design_identity(k, a):
    """1 + 2k sqrt(2k^2 a^2 + a), for floats or arrays."""
    return 1.0 + 2.0 * k * np.sqrt(defining_relation(k, a))


def gap_fractions(n: int, k: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Aperture fractions eps in (0,1) for boxes at wavenumbers k, targets a.

    eps = (3/(2 pi^2))^(1/3) * (1 + 2k sqrt(2 k^2 a^2 + a))^(-2/(3n-3)).

    Strictly decreasing in both k and a: a harder target or a higher
    frequency needs a smaller opening.  The prefactor is below 0.534 and the
    design identity is at least 1, so the result lies in (0,1) wherever the
    identity is finite.  The first box that fails a check raises, naming
    its own values.
    """
    if n < 2:
        raise ScheduleError(f"dimension must be >= 2, got {n}")
    with np.errstate(all="ignore"):
        domain = (k > 0.0) & (a > 0.0)
        x = np.where(domain, design_identity(k, a), 1.0)
        p = -2.0 / (3.0 * n - 3.0)
        eps = _APERTURE_C * each(pow, x, p)
        failed = ~(domain & (x < math.inf))
    if failed.any():
        i = int(np.argmax(failed))
        ki, ai = k[i].item(), a[i].item()
        if not domain[i]:
            raise ScheduleError(f"gap fraction needs k > 0 and a > 0, got k={ki}, a={ai}")
        raise ScheduleError(f"design identity 1 + 2k sqrt(2k^2 a^2 + a) leaves binary64 "
                            f"at n={n}, k={ki}, a={ai}")
    return eps


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
    on the floor passes bit-for-bit.  That is all the report's growth-floor
    line shows: `report` runs this check only on a log-growth schedule and
    passes the family's own c, so the line passes by construction.  It
    would test something only on a table, which the report never checks.
    """
    _check_index(j_max, "j_max")
    if c < 0.0 or not math.isfinite(c):
        raise ScheduleError(f"floor constant must be finite and >= 0, got {c}")
    js = range(1, j_max + 1)
    k = wavenumbers(sched, js)
    failures = np.flatnonzero(~(k >= _growth_values(sched.n, c, js))) + 1
    return GrowthFloorReport(c=c, j_max=j_max, failures=tuple(failures.tolist()))


def volume_sum(n: int, sides: np.ndarray, first: int, what: str) -> float:
    """sum ell^n over the sides of the boxes first, first + 1, ...; past
    binary64 it raises, naming `what` and the largest side."""
    try:
        total = math.fsum(chain.from_iterable(
            map(pow, sides[rows].tolist(), repeat(n)) for rows in row_chunks(len(sides))))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        big = int(np.argmax(sides))
        raise ScheduleError(f"{what} leaves binary64: box {first + big} "
                            f"has side {sides[big].item()!r}")
    return total


def padding_tail_bound(sched: Schedule, i0: int) -> float:
    """Upper bound on sum_{i>i0} d_i for the shifted-power family, by
    integral comparison: amplitude * (i0 + shift)^(1-exponent) / (exponent - 1).
    A build sums a table's tail itself, over the levels it can place.
    """
    _check_index(i0, "padding tail")
    fam = sched.d_family
    q = fam.exponent
    return fam.amplitude * (i0 + fam.shift) ** (1.0 - q) / (q - 1.0)


def volume_tail_bound(sched: Schedule, J: int) -> float:
    """Upper bound on sum_{j>J} ell_j^n for the log-growth family (needs
    J >= 3): dropping the e-shifts monotonically,
    k_j^-n <= c^-n / (j ln j (ln ln j)^(2n)), whose tail is bounded by the
    integral  (ln ln J)^(1-2n) / (2n-1).  A build sums a table's tail
    itself, over the boxes it can place.
    """
    _check_index(J, "volume tail")
    fam = sched.k_family
    n = sched.n
    if J < 3:
        raise ScheduleError("volume tail bound for the log-growth family needs J >= 3")
    try:
        bound = ((math.pi * math.sqrt(n) / fam.c) ** n
                 * math.log(math.log(J)) ** (1 - 2 * n) / (2 * n - 1))
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ScheduleError(f"volume tail bound leaves binary64 at c={fam.c!r}, n={n}")
    return bound
