"""A 40-digit reference for the index kernels, in the standard library's
decimal: the true KL-UCB upper and lower indices and the UCB index of
float64 inputs, taken as the exact binary values they hold."""

from decimal import Decimal, localcontext

PRECISION = 40

# below this |x|, x - ln(1 + x) is summed as its series, which does not cancel
_SERIES_BELOW = Decimal("1e-5")


def _phi(x: Decimal) -> Decimal:
    """x - ln(1 + x) for x > -1, which is >= 0."""
    if abs(x) >= _SERIES_BELOW:
        return x - (1 + x).ln()
    # the sum over k >= 2 of (-x)^k / k; each term is under 1e-5 of the last
    total, term, k = Decimal(0), x * x, 2
    while term and abs(term) >= Decimal("1e-50") * x * x:
        total += term / k
        term *= -x
        k += 1
    return total


def _kl(p: Decimal, d: Decimal) -> Decimal:
    """K(p, p + d) for p + d in (0, 1), as a sum of nonnegative terms, so
    that it does not cancel where d is small: p d/p - (1-p) d/(1-p) = 0."""
    if p == 0:
        return d + _phi(-d)
    if p == 1:
        return _phi(d) - d
    return p * _phi(d / p) + (1 - p) * _phi(-d / (1 - p))


def kl_index(mu: float, budget: float, upper: bool = True) -> Decimal:
    """sup{q in [mu, 1): K(mu, q) <= budget}, or with upper=False
    inf{q in (0, mu]: K(mu, q) <= budget}.

    Newton's method in t = |q - mu|, on K, which is convex and increasing in
    t, kept inside a bisection bracket [lo, hi] with K(lo) <= budget < K(hi).
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        p, b = Decimal(mu), Decimal(budget)
        span = 1 - p if upper else p
        if b <= 0 or span == 0:
            return p
        sign = 1 if upper else -1
        # K is infinite at q = 0 and q = 1; Pinsker's K >= 2 t^2 puts the
        # root below sqrt(b / 2)
        lo, hi = Decimal(0), span
        t = min((b / 2).sqrt(), span / 2)
        for _ in range(500):
            q = p + sign * t
            excess = _kl(p, sign * t) - b
            if excess > 0:
                hi = t
            else:
                lo = t
            if hi - lo <= Decimal("1e-30") * hi:
                return q
            if not excess.is_finite():
                # a root past the exponent range (the lower index at mu near
                # 0) makes K infinite inside the bracket
                t = (lo + hi) / 2
                continue
            # dK/dt = t / (q (1 - q))
            newton = t - excess * q * (1 - q) / t
            if abs(newton - t) <= Decimal("1e-30") * t:
                return p + sign * newton
            t = newton if lo < newton < hi else (lo + hi) / 2
        raise AssertionError(f"no convergence at mu={mu!r}, budget={budget!r}")


def ucb_index(mu: float, counts: float, f_value: float) -> Decimal:
    """mu + sqrt(f_value / (2 counts))."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return Decimal(mu) + (Decimal(f_value) / (2 * Decimal(counts))).sqrt()


def error(computed: float, true: Decimal) -> float:
    """|computed - true| as a float."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return float(abs(Decimal(float(computed)) - true))
