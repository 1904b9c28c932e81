"""Frozen reference values for the test suite, and the scalar selftest.

Every number here was produced by an independent route (mpmath at 45
significant digits, or a closed form evaluated by hand) and then frozen as a
binary64 literal.  Regenerate with  python tests/oracles.py  and compare the
printed output against this file before editing anything.

`scalar_selftest_rows` is the special-function selftest as it ran before
the batched ladders: one scalar `wronskian_residual` per grid point.  The
tests require `specfun.selftest_rows` to yield the same rows bit for bit.
"""

from typing import Iterator, Optional, Tuple

from trapcert.specfun import (
    spherical_hankel,
    spherical_hankel_closed,
    validation_grid,
    wronskian_residual,
)

# (nu, t, J, Y, J', Y') spanning the series region, the continued-fraction
# region, long downward ladders, and the large-t oscillatory regime.
JY_TABLE = [
    (0.0, 0.001,
     0.9999997500000156, -4.471416611375923,
     -0.0004999999375000026, 636.6221672311394),
    (0.0, 1.0,
     0.7651976865579666, 0.08825696421567696,
     -0.4400505857449335, 0.7812128213002887),
    (0.5, 1.5707963267948966,
     0.6366197723675814, -3.8981718325193755e-17,
     -0.20264236728467552, 0.6366197723675814),
    (1.0, 0.01,
     0.004999937500260416, -63.67859628206065,
     0.49998125013020794, 6364.854172568982),
    (2.5, 0.7,
     0.021053968866313298, -6.369265486037367,
     0.07307076236898269, 21.091022585449956),
    (5.0, 2.0,
     0.007039629755871685, -9.935989128481975,
     0.01639664541788922, 22.074029594874336),
    (7.5, 40.0,
     -0.1260587778710217, 0.01761925514710957,
     -0.015675718865191896, -0.12406355259838281),
    (20.0, 1.9999,
     3.915074376458227e-19, -4.085713617500842e+16,
     3.896587345697571e-18, 4.064351973228265e+17),
    (33.5, 12.5,
     2.8789750790172845e-12, -3557685160.612026,
     7.176347650566724e-12, 8822027127.189249),
    (100.0, 150.0,
     -0.015359526118405391, 0.07387607124501987,
     -0.054976798213053873, -0.011892421209163595),
    (200.0, 1000.0,
     0.004183531525022076, 0.025144488299691112,
     -0.02463864943053019, 0.004085911612996323),
    (0.5, 0.001,
     0.02523132101498094, -25.23131260454004,
     12.615652097049571, 12615.681533591036),
]

# Points where the plain values overflow binary64: frozen as
# (nu, t, sign J, ln|J|, sign Y, ln|Y|).
LOG_EXTREME_TABLE = [
    (100.0, 0.01, 1, -893.5711124578919, -1, 887.8212123910549),
    (200.0, 0.001, 1, -2383.412479102066, -1, 2376.969431849681),
    (150.5, 0.002, 1, -1647.1450874481866, -1, 1640.9863944782367),
]

# (m, n, t, h_m(n,t), h_m'(n,t)) for the spherical evaluator.
SPH_TABLE = [
    (0, 2, 1.0,
     complex(0.7651976865579666, 0.08825696421567696),
     complex(-0.4400505857449335, 0.7812128213002887)),
    (3, 5, 7.3,
     complex(0.01111560487492292, 0.01248930365687266),
     complex(-0.013451178549846, 0.005054148968846617)),
    (2, 4, 0.35,
     complex(0.002532603682989534, -344.66895645688305),
     complex(0.014361049535629566, 3908.415155353328)),
    (1, 3, 0.5,
     complex(0.12968578730325986, -3.565890778462397),
     complex(0.246309321400744, 12.863143959925281)),
    (20, 3, 60.0,
     complex(0.00886645943994957, -0.01046585930164485),
     complex(0.00967924153459455, 0.008519437338156655)),
]


def scalar_selftest_rows(
    wronskian_tol: float = 1.0e-10,
    halfint_tol: float = 1.0e-10,
) -> Iterator[Tuple[float, float, float, Optional[float], bool]]:
    """`selftest_rows` one scalar evaluation per grid point."""
    nus, ts = validation_grid()
    for nu in nus:
        half = (nu * 2.0) % 2.0 == 1.0 and nu - 0.5 <= 20.0
        for t in ts:
            wr = wronskian_residual(nu, t)
            he: Optional[float] = None
            ok = wr <= wronskian_tol
            if half and 0.1 <= t <= 100.0:
                mm = int(nu - 0.5)
                ref_h, ref_hp = spherical_hankel_closed(mm, 3, t)
                got = spherical_hankel(mm, 3, t)
                he = max(
                    abs(got.h - ref_h) / abs(ref_h),
                    abs(got.hp - ref_hp) / abs(ref_hp),
                )
                ok = ok and he <= halfint_tol
            yield nu, t, wr, he, ok


def _regenerate() -> None:
    import mpmath as mp

    mp.mp.dps = 45

    def jy(nu, t):
        j = mp.besselj(nu, t)
        y = mp.bessely(nu, t)
        jp = (mp.besselj(nu - 1, t) - mp.besselj(nu + 1, t)) / 2
        yp = (mp.bessely(nu - 1, t) - mp.bessely(nu + 1, t)) / 2
        return j, y, jp, yp

    print("JY_TABLE = [")
    for nu, t, *_ in JY_TABLE:
        j, y, jp, yp = jy(nu, t)
        print(f"    ({nu!r}, {t!r},\n     {float(j)!r}, {float(y)!r},\n"
              f"     {float(jp)!r}, {float(yp)!r}),")
    print("]\n")

    print("LOG_EXTREME_TABLE = [")
    for nu, t, *_ in LOG_EXTREME_TABLE:
        j, y, _, _ = jy(nu, t)
        print(f"    ({nu!r}, {t!r}, {int(mp.sign(j))}, {float(mp.log(abs(j)))!r},"
              f" {int(mp.sign(y))}, {float(mp.log(abs(y)))!r}),")
    print("]\n")

    print("SPH_TABLE = [")
    for m, n, t, *_ in SPH_TABLE:
        nu = m + n / 2 - 1
        j, y, jp, yp = jy(nu, t)
        scale = mp.power(t, n / 2 - 1)
        h = complex((j + 1j * y) / scale)
        hp = complex((jp + 1j * yp - (n / 2 - 1) * (j + 1j * y) / t) / scale)
        print(f"    ({m}, {n}, {t!r},\n     complex({h.real!r}, {h.imag!r}),\n"
              f"     complex({hp.real!r}, {hp.imag!r})),")
    print("]")


if __name__ == "__main__":
    _regenerate()
