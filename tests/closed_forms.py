"""L(f, 1), L(f, 2) and L(f, 3) in closed form, as known truth at any precision.

f = eta(t)^6 eta(9t)^3/eta(3t)^3 is a combination of Eisenstein series
(``qexp._divisor_sieve``), so with chi = chi_{-3}

    L(f, s) = (3/2)(1 - 3^-s) zeta(s) L(chi, s - 2)
              + ((27/2) 3^-s - 1/2) L(chi, s) zeta(s - 2).

At s = 1 and s = 3 a pole and a zero cancel (at s = 1 through L(chi, -1) = 0),
and with L(chi, 1) = pi/(3 sqrt 3), L(chi, 3) = 4 pi^3/(81 sqrt 3) and
L(chi, 2) = (zeta(2, 1/3) - zeta(2, 2/3))/9 (Hurwitz zeta):

    L(f, 1) = (3 sqrt 3/(4 pi)) L(chi, 2) - pi/(9 sqrt 3)
    L(f, 2) = 2 pi^2/27 - L(chi, 2)/2
    L(f, 3) = (13/9) zeta(3) pi/(3 sqrt 3) - (ln 3/2) L(chi, 3)
"""

from mpmath import mp


def l_value(n: int, dps: int):
    """L(f, n), n = 1, 2, 3, as an mpf computed at ``dps`` + 10 digits."""
    with mp.workdps(dps + 10):
        sqrt3, pi = mp.sqrt(3), mp.pi
        if n == 1:
            value = 3 * sqrt3 / (4 * pi) * _l_chi_2() - pi / (9 * sqrt3)
        elif n == 2:
            value = 2 * pi ** 2 / 27 - _l_chi_2() / 2
        elif n == 3:
            value = (mp.mpf(13) / 9 * mp.zeta(3) * pi / (3 * sqrt3)
                     - mp.log(3) / 2 * 4 * pi ** 3 / (81 * sqrt3))
        else:
            raise ValueError("n must be 1, 2 or 3")
    return value


def _l_chi_2():
    """L(chi_{-3}, 2) at the working precision."""
    return (mp.zeta(2, mp.mpf(1) / 3) - mp.zeta(2, mp.mpf(2) / 3)) / 9
