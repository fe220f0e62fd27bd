"""Adaptive Simpson quadrature: the tests' reference integral of a scalar rate.

It shares no code with ``validate_protocol``'s Gauss-Legendre check, so the
tests can hold a protocol's closed-form antiderivative against it.
"""

from typing import Callable

QUADRATURE_TOL = 1e-10
_MAX_DEPTH = 48


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to reach its tolerance."""


def adaptive_simpson(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = QUADRATURE_TOL,
) -> float:
    """Integral of ``func`` over ``[lo, hi]`` by adaptive Simpson quadrature.

    Subdivides until the standard error estimate (difference between one and
    two Simpson panels, divided by 15) drops below the tolerance budget of
    the subinterval.  Raises ``QuadratureError`` if the recursion depth limit
    is reached before that happens.
    """
    if hi == lo:
        return 0.0
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    mid = 0.5 * (lo + hi)
    fa, fm, fb = func(lo), func(mid), func(hi)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    return sign * _simpson(func, lo, hi, fa, fm, fb, whole, tol, _MAX_DEPTH)


def _simpson(func, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm, frm = func(lm), func(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"no convergence on [{a:.6g}, {b:.6g}] (estimate error {abs(err) / 15.0:.3g})"
        )
    half = 0.5 * tol
    return _simpson(func, a, mid, fa, flm, fm, left, half, depth - 1) + _simpson(
        func, mid, b, fm, frm, fb, right, half, depth - 1
    )
