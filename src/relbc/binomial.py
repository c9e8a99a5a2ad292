"""The incomplete beta function of integer parameters, and its quantiles,
in plain Python.

``beta_quantile`` gives the bounds of the Clopper-Pearson interval
(``analysis.clopper_pearson``).  I_x(a, b) is Loader's saddle-point
prefactor (Loader 2000, "Fast and accurate computation of binomial
probabilities") times the even part of its continued fraction (DiDonato
and Morris, ACM TOMS 18, 1992), on the smaller tail; the quantile is
solved by Halley's method on the log-odds scale.
"""

from __future__ import annotations

import math

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n), tabulated for n <= 15
# as in Loader (2000)
_STIRLERR = (
    0.0,  # n = 0: never asked for
    0.0810614667953272582196702,
    0.0413406959554092940938221,
    0.02767792568499833914878929,
    0.02079067210376509311152277,
    0.01664469118982119216319487,
    0.01387612882307074799874573,
    0.01189670994589177009505572,
    0.010411265261972096497478567,
    0.009255462182712732917728637,
    0.008330563433362871256469318,
    0.007573675487951840794972024,
    0.006942840107209529865664152,
    0.006408994188004207068439631,
    0.005951370112758847735624416,
    0.005554733551962801371038690,
)


def _stirlerr(n: int) -> float:
    """The error of Stirling's formula for log(n!), from the table or from
    as many terms of its series as n needs (Loader 2000)."""
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = n * n
    if n > 500:
        return (1 / 12 - 1 / 360 / nn) / n
    if n > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / nn) / nn) / n
    if n > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / nn) / nn) / nn) / n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x, by a series where x is near m, so that it keeps
    its relative precision where the terms cancel (Loader 2000)."""
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s = (x - m) * v
        term = 2 * x * v
        v *= v
        j = 3
        while True:
            term *= v
            s1 = s + term / j
            if s1 == s:
                return s
            s, j = s1, j + 2
    return x * math.log(x / m) + m - x


def _log_beta_kernel(a: int, b: int, x: float, y: float) -> float:
    """log(x^a y^b / B(a, b)) for y = 1 - x: the binomial probability of a
    in a + b trials, times ab/(a+b), in Loader's saddle-point form.  No
    term grows with a + b, so the log keeps its absolute precision."""
    n = a + b
    return (_stirlerr(n) - _stirlerr(a) - _stirlerr(b) - _bd0(a, n * x) - _bd0(b, n * y)
            + 0.5 * math.log(a * b / (2 * math.pi * n)))


def _beta_cf(a: int, b: int, x: float, y: float) -> float:
    """I_x(a, b) B(a, b) / (x^a y^b) for x below (a+1)/(a+b+2), y = 1 - x.

    The even part of the continued fraction, as in DiDonato and Morris's
    ``bfrac`` (ACM TOMS 18, 1992), by forward recurrence.  Below that point
    every term is positive, so no step cancels; (a+1) - (a+b)x is formed
    from the smaller of x and y; and for integer b the fraction ends after
    b terms.
    """
    lam = (a + 1) - (a + b) * x if x <= 0.5 else (a + b) * y - (b - 1)
    c1 = 1 + 1 / a
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, lam / c1
    r = c1 / lam
    for n in range(1, b):
        s = a + 2 * n - 1
        w = n * (b - n) * x
        alpha = (a + n - 1) * (a + b + n - 1) * w * x / (s * s)
        beta = n + w / s + (a + n) / (s + 2) * (lam + n * (1 + y))
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 4e-16 * r:
            break
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    return r


def _log_beta_cdf(a: int, b: int, x: float, y: float) -> tuple[float, float]:
    """log I_x(a, b) for y = 1 - x, and its derivative in t = log(x/y).

    The continued fraction runs on the smaller tail, split at
    x = (a+1)/(a+b+2).  The derivative is the density times xy over the
    tail, which is the kernel over the tail.
    """
    log_kernel = _log_beta_kernel(a, b, x, y)
    if x * (a + b + 2) < a + 1:
        log_cdf = log_kernel + math.log(_beta_cf(a, b, x, y))
    else:
        log_cdf = math.log1p(-math.exp(log_kernel + math.log(_beta_cf(b, a, y, x))))
    return log_cdf, math.exp(log_kernel - log_cdf)


def _expit(t: float) -> tuple[float, float]:
    """x = 1/(1 + e^-t) and 1 - x, each to its own relative precision."""
    e = math.exp(-abs(t))
    return (1 / (1 + e), e / (1 + e)) if t >= 0 else (e / (1 + e), 1 / (1 + e))


def beta_quantile(a: int, b: int, p: float) -> tuple[float, float]:
    """x with I_x(a, b) = p, and 1 - x, each to its own relative precision,
    for integers a, b >= 1 and 0 < p < 1 (``clopper_pearson`` checks these).

    Halley's method (Newton's, with a second-order term) on
    log I_x(a, b) = log p over t = log(x/y), kept in a bracket, from the
    normal approximation on that scale.  A step moves x and y by the
    factors it implies, so a small y (an upper bound near 1) is not
    rounded through 1 - x.
    """
    if b == 1:  # I_x(a, 1) = x^a
        return p ** (1 / a), -math.expm1(math.log(p) / a)
    if a == 1:  # I_x(1, b) = 1 - (1-x)^b
        return -math.expm1(math.log1p(-p) / b), math.exp(math.log1p(-p) / b)
    from statistics import NormalDist

    log_p = math.log(p)
    # log(X / (1-X)) is near normal, mean log(a/b) and variance 1/a + 1/b
    x, y = _expit(math.log(a / b) + NormalDist().inv_cdf(p) * math.sqrt(1 / a + 1 / b))
    lo, hi = -700.0, 700.0  # on t; e^-700 keeps every log finite
    last = math.inf
    for _ in range(100):
        log_cdf, slope = _log_beta_cdf(a, b, x, y)
        f = log_cdf - log_p
        t = math.log(x / y)
        if f > 0:
            hi = t
        else:
            lo = t
        dt = -f / slope if slope else math.inf
        # Halley's correction, from f''/f' = d log(slope)/dt = ay - bx - slope
        halley = 1 + 0.5 * dt * (a * y - b * x - slope)
        if halley > 0:
            dt /= halley
        if abs(dt) < 1e-6 and abs(dt) > last / 4:
            break  # the steps stopped shrinking: what is left is rounding
        if lo - t <= dt <= hi - t:
            if abs(dt) < 1:
                e = math.expm1(dt)
                x, y = x * (1 + e) / (1 + x * e), y / (1 + x * e)
                # the larger of the two is 1 minus the smaller, rounded once
                x, y = (x, 1 - x) if x < y else (1 - y, y)
            else:  # far from the root, where 1 + e could underflow
                x, y = _expit(t + dt)
            # convergence is cubic, so the next step would be about
            # dt^4/last^3: stop when that could not move x
            if abs(dt) <= 2**-53 or dt**4 <= 1e-17 * last**3 < math.inf:
                break
            last = abs(dt)
        elif hi - lo > 2**-50 * (1 + abs(t)):
            x, y = _expit((lo + hi) / 2)
            last = math.inf
        else:
            break
    return x, y
