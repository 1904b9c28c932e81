"""The digit kernel against `%`, value by value: `_digits.g17` must write
the bytes of `'%.17g' % v`, `_digits.r` those of `'%r' % v`, `_digits.f6`
those of `'%.6f' % v` (with "-0.000000" printed unsigned) and `_digits.d`
those of `'%d' % v`, on the values where a fast route goes wrong:
neighbours of powers of ten, of powers of two and of d * 10^k, exact and
near rounding ties, integers, the switches between fixed and scientific
notation, the ends of repr's interval, random bit patterns of both signs,
and blocks that mix kernel values with every value the kernel leaves to
`%`.  A call over several columns stacked end to end must write what one
call per column writes, also in the CSV emitter's batches."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import trapcert.cli as cli
from trapcert import _digits
from trapcert.certify import Certificates
from trapcert.geometry import build_layered
from trapcert.sequences import demo_schedule

TINY = 2.0 ** -1022


def lines(canvas):
    return _digits.join([canvas, b"\n"]).decode("ascii").split("\n")[:-1]


def mismatches_g17(values):
    values = np.asarray(values, dtype=float)
    return [(v, got) for v, got in zip(values.tolist(), lines(_digits.g17(values)))
            if got != "%.17g" % v]


def mismatches_r(values):
    values = np.asarray(values, dtype=float)
    return [(v, got) for v, got in zip(values.tolist(), lines(_digits.r(values)))
            if got != "%r" % v]


def f6_reference(v):
    text = "%.6f" % v
    return "0.000000" if text == "-0.000000" else text


def mismatches_f6(values):
    values = np.asarray(values, dtype=float)
    return [(v, got) for v, got in zip(values.tolist(), lines(_digits.f6(values)))
            if got != f6_reference(v)]


def ulps(centres, reach=3):
    """Every double within `reach` ulps of each centre, both signs."""
    centres = np.asarray(centres, dtype=float)
    out = [centres]
    up = down = centres
    for _ in range(reach):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    values = np.concatenate(out)
    return np.concatenate([values, -values])


def test_g17_around_d_times_powers_of_ten():
    # one past the table on each side, so the edges of the range are crossed
    exponents = np.arange(-282, 292)
    centres = [float(Fraction(d) * Fraction(10) ** k)
               for d in ("1", "9.9999999999999995", "9.99999999999999949", "5", "1.5", "2.5")
               for k in exponents.tolist()]
    assert mismatches_g17(ulps(centres)) == []


def test_g17_exact_ties_of_small_multiples_of_powers_of_two():
    m = np.arange(1, 64, 2, dtype=float)
    q = np.arange(-1074, 1000)
    values = np.ldexp(m[:, None], q[None, :]).ravel()
    values = values[np.isfinite(values)]
    assert mismatches_g17(np.concatenate([values, -values])) == []


def test_g17_integers_up_to_ten_to_the_seventeen():
    rng = np.random.default_rng(17)
    powers = [10 ** k + step for k in range(18) for step in (-2, -1, 0, 1, 2)]
    twos = [2 ** 53 + step for step in range(-4, 5)]
    values = np.concatenate([np.array(powers + twos, dtype=float),
                             rng.integers(0, 10 ** 17, 20_000).astype(float),
                             rng.integers(0, 200_000, 2_000).astype(float)])
    assert mismatches_g17(values) == []


def test_g17_random_bit_patterns():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 2 ** 64, 60_000, dtype=np.uint64).view(np.float64)
    with np.errstate(invalid="ignore"):
        assert mismatches_g17(values) == []


def near_ties(t):
    """Doubles x = m 2^(w+t) whose x 10^-t lies k/(2 5^t) from a half-integer,
    for small odd k: the 17th digit is a near tie that 10^-t, no double,
    cannot settle in binary64."""
    five, out = 5 ** t, []
    for w in range(int(math.log2(1e16 * five / 2 ** 53)) - 1,
                   int(math.log2(1e17 * five / 2 ** 52)) + 2):
        for k in range(-15, 16, 2):
            # m 2^w = (5^t + k) / 2 (mod 5^t)
            first = (five + k) // 2 * pow(2 ** w, -1, five) % five
            out += [math.ldexp(m, w + t) for m in range(first, 2 ** 53, five)
                    if m >= 2 ** 52 and 1e16 <= m * 2.0 ** w / five < 1e17]
    return out


def test_g17_values_the_kernel_leaves_to_percent():
    ties = [v for t in (22, 23, 24) for v in near_ties(t)]
    for v in ties:
        scaled = Fraction(v) / 10 ** (math.floor(math.log10(v)) - 16)
        assert abs(scaled % 1 - Fraction(1, 2)) < Fraction(1, 2 ** 40)
    fallback = [0.0, -0.0, 5e-324, -TINY / 3, TINY, math.inf, -math.inf, math.nan,
                1e-300, -1e300, 1.7976931348623157e308, *ties[:5]]
    kernel = [1.0, -0.1, 1e16, 9.9999999999999996e-270, 123456.789, 2.5e-5]
    values = np.array(fallback + kernel) * np.ones((3, 1))
    assert mismatches_g17(values.ravel()) == []
    assert mismatches_g17(values.ravel()[::-1]) == []
    assert mismatches_g17(ties + [-v for v in ties]) == []


def test_r_random_bit_patterns():
    rng = np.random.default_rng(25)
    for _ in range(8):
        values = rng.integers(0, 2 ** 64, 2 ** 17, dtype=np.uint64).view(np.float64)
        with np.errstate(invalid="ignore"):
            assert mismatches_r(values) == []


def test_r_powers_of_two_and_their_neighbours():
    # the interval of a power of two is asymmetric; the kernel leaves it to `%`
    assert mismatches_r(ulps(np.ldexp(1.0, np.arange(-1074, 1024)), reach=1)) == []


def test_r_around_d_times_powers_of_ten():
    centres = [float(Fraction(d) * Fraction(10) ** k)
               for d in ("1", "2", "3", "5", "7", "9", "1.5", "2.5", "9.5", "1.25",
                         "9.9999999999999995", "1.2345678901234567")
               for k in range(-307, 308)]
    assert mismatches_r(ulps(centres, reach=1)) == []


def test_r_short_decimals_and_integers():
    rng = np.random.default_rng(9)
    short = [float("%.*e" % (digits, v)) for digits in range(16)
             for v in np.exp(rng.uniform(-690, 700, 2_000)).tolist()]
    integers = np.concatenate([[2.0, 1e16, 123456789012345.0, 2.0 ** 53, 2.0 ** 53 + 2],
                               rng.integers(0, 10 ** 17, 20_000).astype(float)])
    assert mismatches_r(short) == []
    assert mismatches_r(integers) == []
    assert lines(_digits.r([2.0, 1e16, 123456789012345.0])) == ["2.0", "1e+16",
                                                               "123456789012345.0"]


def test_r_exact_and_near_ties_between_two_shortest_candidates():
    # x = k + 1/4 or k + 3/4 in [2^50, 2^51): 10 x lies halfway between two
    # 17-digit integers, both inside the interval, and repr rounds half-even;
    # near ties that 10^-t cannot settle are left to `%`
    rng = np.random.default_rng(50)
    k = rng.integers(2 ** 50, 2 ** 51, 5_000).astype(float)
    ties = np.concatenate([k + 0.25, k + 0.75, [v for t in (22, 23, 24) for v in near_ties(t)]])
    assert lines(_digits.r([1125899906842624.25, -1125899906842626.75])) == [
        "1125899906842624.2", "-1125899906842626.8"]
    assert mismatches_r(np.concatenate([ties, -ties])) == []


def test_r_interval_ends():
    # in [2^54, 10^17) a double is a multiple of its ulp u = 4, 8 or 16, so
    # x -+ u/2 can be a multiple of 10, 100 or 1000: a shorter candidate
    # exactly at an end of the interval, inside only for an even significand
    rng = np.random.default_rng(54)
    values, parities = [], set()
    for low, u in ((2 ** 54, 4), (2 ** 55, 8), (2 ** 56, 16)):
        for step in (10, 100, 1000):
            ends = rng.integers(low // step + 1, min(2 * low, 10 ** 17) // step, 3_000) * step
            exact = [x for c in ends.tolist() for x in (c - u // 2, c + u // 2) if x % u == 0]
            values += exact
            parities |= {x // u % 2 for x in exact}
    assert len(values) > 10_000 and parities == {0, 1}
    assert mismatches_r(np.array(values, dtype=float)) == []


def test_r_notation_switches():
    # fixed notation for 1e-4 <= |x| < 1e16, scientific outside
    switches = [1e-4, 1e-5, 1e16, 1e15, 9.9999999999999995e-5, 9999999999999998.0,
                1.0000000000000002e16, 0.00012345678901234567]
    assert mismatches_r(ulps(switches, reach=3)) == []
    assert lines(_digits.r([1e-4, 1e-5, 1e16, 9999999999999998.0])) == [
        "0.0001", "1e-05", "1e+16", "9999999999999998.0"]


def test_r_values_the_kernel_leaves_to_percent():
    fallback = [5e-324, -TINY / 3, TINY, math.inf, -math.inf, math.nan, 1e-300,
                -1e300, 1.7976931348623157e308, 1125899906842624.25, 0.5, -2.0 ** -60]
    kernel = [0.0, -0.0, 1.0 / 3, -0.1, 1e16, 123456.789, 2.5e-5, 1e-280]
    values = np.array(fallback + kernel) * np.ones((3, 1))
    assert mismatches_r(values.ravel()) == []
    assert mismatches_r(values.ravel()[::-1]) == []
    assert lines(_digits.r([0.0, -0.0])) == ["0.0", "-0.0"]


@pytest.mark.parametrize("n, layers", [(2, 60), (4, 6)])
def test_r_leaves_few_figure_values_to_percent(n, layers):
    boxes, _ = build_layered(demo_schedule(n), layers)
    columns = np.array([boxes.side, *boxes.lo.T, boxes.gap, boxes.k, boxes.a])
    with mock.patch.object(_digits, "_fallback", wraps=_digits._fallback) as fallback:
        assert mismatches_r(columns.ravel()) == []
    slow = fallback.call_args.args[2]
    assert slow.sum() <= 0.05 * columns.size


def test_f6_ties_and_neighbours():
    ties = [1 / 128, 3 * 2.0 ** -8, 2.0 ** -7 + 2.0 ** -20, 0.5, 2.5, 1e-6 / 2]
    centres = ties + [5e-7, 1.5e-6, 2.5e-6, 0.0000125, 0.1, 1 / 3, 2.0 ** 32, 4e9]
    dyadic = np.ldexp(np.arange(1, 200, 2, dtype=float)[:, None],
                      -np.arange(1, 30)[None, :]).ravel()
    assert mismatches_f6(np.concatenate([ulps(centres), dyadic, -dyadic])) == []


def test_f6_random_magnitudes_and_fallbacks():
    rng = np.random.default_rng(6)
    values = np.concatenate([
        rng.uniform(-1000, 1000, 20_000),
        np.exp(rng.uniform(-20, 23, 20_000)) * rng.choice([-1, 1], 20_000),
        [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e300, -1e20,
         2.0 ** 32, -(2.0 ** 32), np.nextafter(2.0 ** 32, 0)],
    ])
    assert mismatches_f6(values) == []


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_join_lays_literals_and_canvases_side_by_side(rows):
    values = np.arange(rows) - 2.5
    parts = [b"<", _digits.g17(values), b" ", _digits.f6(values), b">\n"]
    expected = "".join("<%.17g %s>\n" % (v, f6_reference(v)) for v in values.tolist())
    assert _digits.join(parts) == expected.encode("ascii")
    assert parts == []


def test_d_equals_percent_d():
    rng = np.random.default_rng(16)
    edges = [10 ** k + step for k in range(17) for step in (-1, 0, 1)]
    values = ([v for v in edges if 1 <= v < 10 ** 16]
              + rng.integers(1, 10 ** rng.integers(1, 17, 20_000)).tolist())
    assert lines(_digits.d(values)) == ["%d" % v for v in values]


@pytest.mark.parametrize("bad", [0, -1, 10 ** 16, 2 ** 62])
def test_d_refuses_values_outside_its_guard(bad):
    assert lines(_digits.d([1, 10 ** 16 - 1])) == ["1", "9999999999999999"]
    with pytest.raises(ValueError, match=r"1 <= v < 10\^16"):
        _digits.d([7, bad])


# columns a kernel may be given stacked; the second widens the `f6` canvas
# (1e300 prints 308 bytes) and the third and fourth hold values `g17` leaves
# to `%` (NaN, and near ties that 10^-22 cannot settle)
PARTS = [np.array([1.0, -0.1, 123456.789, 0.5]),
         np.array([1e300, -2.5, 2.0 ** 32 - 1, -4e-7]),
         np.array([math.nan, 3.0, -math.inf, 5e-324]),
         np.array(near_ties(22)[:3] + [1e-5]),
         np.array([9.9999999999999995e-5, 1e16, -0.0, 7.0])]


@pytest.mark.parametrize("kernel, widened",
                         [(_digits.g17, False), (_digits.r, False), (_digits.f6, True)])
def test_a_stacked_call_writes_what_its_parts_write(kernel, widened):
    whole = kernel(np.concatenate(PARTS))
    parts = [kernel(part) for part in PARTS]
    # a canvas is as wide as its longest field, and no `%.17g` or repr field
    # is longer than 24 bytes
    assert whole.shape[1] == max(canvas.shape[1] for canvas in parts) > parts[0].shape[1]
    assert (whole.shape[1] > 24) == widened
    assert _digits.join([whole, b"\n"]) == b"".join(_digits.join([c, b"\n"]) for c in parts)
    # a stacked canvas splits into its columns' canvases, as the emitters use it
    rows = [_digits.join([column, b"\n"]) for column in whole.reshape(len(PARTS), 4, -1)]
    assert rows == [_digits.join([canvas, b"\n"]) for canvas in parts]


@pytest.mark.parametrize("block", [1, 3, 2048])
def test_csv_blocks_write_every_column_in_order(block):
    # seven distinct columns, each holding kernel and fallback values
    values = np.concatenate(PARTS)
    columns = [np.roll(values, 3 * shift) * (shift + 1) for shift in range(7)]
    records = Certificates(j=np.arange(1, len(values) + 1), k=columns[0], a=columns[1],
                           eps=columns[2], infsup_ub=columns[3],
                           infsup_ub_inv_identity=columns[3], c_prime_lb=columns[4],
                           c_lb=columns[5], margin=columns[6])
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        chunks = list(cli._csv_blocks(records))
    expected = "".join("%d" % j + "".join(",%.17g" % c[j - 1] for c in columns) + "\n"
                       for j in records.j.tolist())
    assert chunks[0] == ",".join(cli._CSV_COLUMNS) + "\n"
    assert b"".join(chunks[1:]) == expected.encode("ascii")
