"""Exact rational evaluation of a SplineFunction, the oracle for far points.

De Boor's algorithm in fractions.Fraction on the span that owns the point:
the last nonempty span starting at or before it, or the first one for a
point left of the domain. A point outside the domain thus reads the
boundary span's polynomial piece, extended, with no rounding at all.
"""

from fractions import Fraction
from itertools import accumulate

from decoupline.bspline import Representation


def exact_level(basis, cs, x, order: int) -> Fraction:
    """sum_j cs[j] * (B_j, B_j' or int B_j)(x) exactly; order 0, 1 or -1 as in bspline._span_table."""
    t = [Fraction(k) for k in basis.knots]
    c = [Fraction(v) for v in cs]
    d = basis.degree
    if order == 1:
        # the derivative: degree d-1 on the same knots, coefficients
        # d (c_l - c_{l-1}) / (t_{l+d} - t_l), 0 where that gap is empty
        c = [
            d * (b - a) / (t[l + d] - t[l]) if t[l + d] > t[l] else Fraction(0)
            for l, (a, b) in enumerate(zip([Fraction(0)] + c, c + [Fraction(0)]))
        ]
        d -= 1
    elif order == -1:
        # the running integral from the left end: degree d+1 on the knots
        # padded by one boundary knot on each side, coefficients the prefix
        # sums of c_j (t_{j+d+1} - t_j) / (d+1) after a leading 0
        steps = [v * (t[j + d + 1] - t[j]) / (d + 1) for j, v in enumerate(c)]
        c = [Fraction(0)] + list(accumulate(steps))
        t = t[:1] + t + t[-1:]
        d += 1
    x = Fraction(x)
    spans = [k for k in range(d, len(t) - d - 1) if t[k] < t[k + 1]]
    k = max((s for s in spans if t[s] <= x), default=spans[0])
    dd = [c[j + k - d] for j in range(d + 1)]
    for r in range(1, d + 1):
        for j in range(d, r - 1, -1):
            alpha = (x - t[j + k - d]) / (t[j + 1 + k - r] - t[j + k - d])
            dd[j] = (1 - alpha) * dd[j - 1] + alpha * dd[j]
    return dd[d]


def exact_value(fn, x, derivative: bool = False) -> Fraction:
    """fn.value(x) (derivative=False) or fn.derivative(x) of a SplineFunction, exactly."""
    order = (1 if derivative else 0) - (fn.representation is Representation.DERIVATIVE)
    level = exact_level(fn.basis, fn.coeffs[1:], x, order)
    return level if derivative else Fraction(fn.coeffs[0]) + level
