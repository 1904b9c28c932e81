"""The per-box schedule evaluation as it ran before the range functions.

`derived_params` here is the scalar reference: one Python evaluation per
box index, in the order wavenumber, target, gap fraction.  The tests
require `sequences.derived_columns` (and the one-element calls built on
it) to equal it bit for bit, and to raise the same exception with the same
message on the first failing box.  `padding` is the same reference for
`sequences.paddings`.
"""

import math

from trapcert.sequences import (
    ATable,
    DerivedParams,
    DTable,
    KTable,
    Schedule,
    ScheduleError,
)

_E_E = math.exp(math.e)
_APERTURE_C = (3.0 / (2.0 * math.pi**2)) ** (1.0 / 3.0)


def _check_index(j: int, what: str) -> None:
    if j < 1:
        raise ScheduleError(f"{what} index must be >= 1, got {j}")


def _table_lookup(values, j: int, what: str) -> float:
    if j > len(values):
        raise ScheduleError(
            f"{what} table has {len(values)} entries, index {j} queried; "
            "tables are never extrapolated"
        )
    return values[j - 1]


def growth_value(n: int, c: float, j: int) -> float:
    return (c * (j * math.log(j + math.e)) ** (1.0 / n)
            * math.log(math.log(j + _E_E)) ** 2)


def wavenumber(sched: Schedule, j: int) -> float:
    _check_index(j, "wavenumber")
    fam = sched.k_family
    if isinstance(fam, KTable):
        return _table_lookup(fam.values, j, "wavenumber")
    return growth_value(sched.n, fam.c, j)


def target_norm(sched: Schedule, j: int) -> float:
    _check_index(j, "target")
    fam = sched.a_family
    if isinstance(fam, ATable):
        return _table_lookup(fam.values, j, "target")
    return fam.amplitude * float(j) ** fam.exponent


def padding(sched: Schedule, i: int) -> float:
    _check_index(i, "padding")
    fam = sched.d_family
    if isinstance(fam, DTable):
        return _table_lookup(fam.values, i, "padding")
    return fam.amplitude * (i + fam.shift) ** (-fam.exponent)


def gap_fraction(n: int, k: float, a: float) -> float:
    if n < 2:
        raise ScheduleError(f"dimension must be >= 2, got {n}")
    if not (k > 0.0 and a > 0.0):
        raise ScheduleError(f"gap fraction needs k > 0 and a > 0, got k={k}, a={a}")
    x = 1.0 + 2.0 * k * math.sqrt(2.0 * k * k * a * a + a)
    if not math.isfinite(x):
        raise ScheduleError(
            f"design identity 1 + 2k sqrt(2k^2 a^2 + a) leaves binary64 at "
            f"n={n}, k={k}, a={a}")
    eps = _APERTURE_C * x ** (-2.0 / (3.0 * n - 3.0))
    if not 0.0 < eps < 1.0:
        raise ScheduleError(
            f"gap fraction {eps} left (0,1) at n={n}, k={k}, a={a}; "
            "the schedule violates its own hypotheses"
        )
    return eps


def derived_params(sched: Schedule, j: int) -> DerivedParams:
    k = wavenumber(sched, j)
    a = target_norm(sched, j)
    return DerivedParams(
        j=j, k=k,
        ell=math.pi * math.sqrt(sched.n) / k,
        eps=gap_fraction(sched.n, k, a),
        a=a,
    )


def layer_plans(sched: Schedule, limit):
    """The level loop as it ran before the plan columns: one tuple (i, count,
    start, cols, height, max_side, pitch, width) per level 1..limit (all
    levels the tables allow when limit is None), the height as the running
    (H - ell) - d, raising at the first level that leaves binary64."""
    k_end = len(sched.k_family.values) if isinstance(sched.k_family, KTable) else math.inf
    d_end = len(sched.d_family.values) if isinstance(sched.d_family, DTable) else math.inf
    rows = []
    b, h = 1, 0.0
    while (limit is None or len(rows) < limit) and len(rows) < d_end:
        i = len(rows) + 1
        cols = int(math.floor(i * math.log(i + math.e)))
        count = cols ** (sched.n - 1)
        if b + count - 1 > k_end:
            break
        ell = math.pi * math.sqrt(sched.n) / wavenumber(sched, b)
        if i > 1:
            h = h - ell - padding(sched, i - 1)
        pitch = ell + padding(sched, i) / math.log(i + math.e)
        if not all(map(math.isfinite, (ell, pitch, cols * pitch, h))):
            raise ScheduleError(f"level {i} leaves binary64: side {ell!r}, "
                                f"pitch {pitch!r}, height {h!r}")
        rows.append((i, count, b, cols, h, ell, pitch, cols * pitch))
        b += count
    return rows
