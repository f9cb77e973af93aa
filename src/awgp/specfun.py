"""Special functions needed by the fractional kernel evaluators.

Gamma and the Gauss hypergeometric function F(a, b; c; z) on the
non-positive real axis, which is the argument range
produced by the Molchan-Golosov kernel (z = 1 - t/s <= 0 for 0 < s <= t).

Everything here is a pure function of its arguments and accepts either
scalars or numpy arrays for the main argument.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "gamma_fn",
    "hyp2f1",
    "hyp2f1_series",
]

# Lanczos approximation, g = 7, 9 terms.  Classic published coefficient set;
# relative error ~1e-15 over the positive real axis.
_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])

# Series truncation: a term counts as negligible when it is below
# _TAIL_RTOL * |partial sum|; three consecutive negligible terms are
# required so that even/odd cancellation cannot trigger an early stop.
_TAIL_RTOL = 1e-14
_CONSECUTIVE_SMALL = 3

# Below this argument the Pfaff-transformed series needs too many terms
# (the transformed argument approaches 1), so a 1/z linear transformation
# is applied first.  At the switch point both routes converge in under
# fifty terms.
_Z_SWITCH = -1.0


def _lanczos_positive(x: np.ndarray) -> np.ndarray:
    """Lanczos gamma for x > 0 (array, no validation)."""
    # reflection for x < 0.5 keeps the core evaluation in its sweet spot
    small = x < 0.5
    xs = np.where(small, 1.0 - x, x)

    acc = np.full_like(xs, _LANCZOS_COEF[0])
    for i in range(1, len(_LANCZOS_COEF)):
        acc = acc + _LANCZOS_COEF[i] / (xs - 1.0 + i)
    t = xs - 1.0 + _LANCZOS_G + 0.5
    out = math.sqrt(2.0 * math.pi) * t ** (xs - 0.5) * np.exp(-t) * acc

    if np.any(small):
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        out = np.where(small, np.pi / (np.sin(np.pi * x) * out), out)
    return out


def gamma_fn(x):
    """Gamma function for positive real ``x``.

    Raises
    ------
    DomainError
        If any entry of ``x`` is <= 0.  Non-positive arguments never arise
        from valid Hurst parameters, so no analytic continuation is done.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("gamma_fn requires x > 0")
    out = _lanczos_positive(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _gamma_signed(x: float) -> float:
    """Gamma extended to negative non-integer arguments (scalar, internal)."""
    if x > 0.0:
        return float(_lanczos_positive(np.asarray(x)))
    if x == math.floor(x):
        raise DomainError(f"gamma pole at {x}")
    # reflection formula
    return math.pi / (math.sin(math.pi * x) * float(_lanczos_positive(np.asarray(1.0 - x))))


def _rgamma(x: float) -> float:
    """Reciprocal gamma 1/Gamma(x); zero at the poles (scalar, internal)."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / _gamma_signed(x)


def _is_nonpositive_int(x: float, tol: float = 0.0) -> bool:
    r = round(x)
    return r <= 0 and abs(x - r) <= tol


def _terminating(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray | None:
    """Exact finite sum when a or b is a non-positive integer (any z), else None."""
    degrees = [-round(p) for p in (a, b) if _is_nonpositive_int(p)]
    if not degrees:
        return None
    total = np.ones_like(z)
    term = np.ones_like(z)
    for n in range(min(degrees)):
        term = term * ((a + n) * (b + n)) / ((c + n) * (n + 1)) * z
        total = total + term
    return total


def hyp2f1_series(a: float, b: float, c: float, w, max_terms: int = 10_000):
    """Direct hypergeometric series at argument ``w``, |w| < 1.

    This is the raw building block: no argument transformation is applied.
    It is exposed so cross-checks can evaluate the series independently of
    the transformed route used by :func:`hyp2f1`.
    """
    if _is_nonpositive_int(c):
        raise DomainError("hyp2f1 parameter c must not be zero or a negative integer")
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(np.abs(w_arr) >= 1.0):
        raise DomainError("hyp2f1_series requires |w| < 1")

    poly = _terminating(a, b, c, w_arr)
    if poly is not None:
        return _match_shape(poly, w)

    flat = w_arr.ravel()
    out = np.empty_like(flat)
    # converged lanes are compacted away so tail lanes do not drag the
    # whole array through every iteration
    idx = np.arange(flat.size)
    wv = flat.copy()
    total = np.ones_like(wv)
    term = np.ones_like(wv)
    small_count = np.zeros(wv.shape, dtype=np.int8)
    for n in range(max_terms):
        term *= ((a + n) * (b + n)) / ((c + n) * (n + 1)) * wv
        total += term
        negligible = np.abs(term) <= _TAIL_RTOL * np.abs(total)
        small_count = np.where(negligible, small_count + 1, 0).astype(np.int8)
        done = small_count >= _CONSECUTIVE_SMALL
        if np.any(done):
            out[idx[done]] = total[done]
            keep = ~done
            if not np.any(keep):
                return _match_shape(out.reshape(w_arr.shape), w)
            idx, wv, total, term, small_count = (
                idx[keep], wv[keep], total[keep], term[keep], small_count[keep])
    raise ConvergenceError(
        f"hyp2f1 series did not meet the tail bound within {max_terms} terms "
        f"(worst |w| = {np.abs(wv).max():.6g})")


def _match_shape(out: np.ndarray, template):
    if np.isscalar(template) or np.asarray(template).ndim == 0:
        return float(out[0])
    return out.reshape(np.shape(template))


def _pfaff(a: float, b: float, c: float, z: np.ndarray, max_terms: int) -> np.ndarray:
    # F(a,b;c;z) = (1-z)^{-a} F(a, c-b; c; z/(z-1)), z <= 0 maps to w in [0,1)
    w = z / (z - 1.0)
    return (1.0 - z) ** (-a) * np.atleast_1d(hyp2f1_series(a, c - b, c, w, max_terms))


def _large_z(a: float, b: float, c: float, z: np.ndarray, max_terms: int) -> np.ndarray:
    # Linear transformation z -> 1/z for z << -1 (requires a - b non-integer):
    # F(a,b;c;z) = C1 (-z)^{-a} F(a, a-c+1; a-b+1; 1/z)
    #            + C2 (-z)^{-b} F(b, b-c+1; b-a+1; 1/z)
    u = 1.0 / z
    c1 = _gamma_signed(c) * _gamma_signed(b - a) * _rgamma(b) * _rgamma(c - a)
    c2 = _gamma_signed(c) * _gamma_signed(a - b) * _rgamma(a) * _rgamma(c - b)
    out = np.zeros_like(z)
    if c1 != 0.0:
        out = out + c1 * (-z) ** (-a) * _pfaff(a, a - c + 1.0, a - b + 1.0, u, max_terms)
    if c2 != 0.0:
        out = out + c2 * (-z) ** (-b) * _pfaff(b, b - c + 1.0, b - a + 1.0, u, max_terms)
    return out


def hyp2f1(a: float, b: float, c: float, z, max_terms: int = 10_000):
    """Gauss hypergeometric function F(a, b; c; z) for real z <= 0.

    The argument is mapped into [0, 1) by the Pfaff transformation and the
    series is summed with a relative tail bound of 1e-14.  For large |z| a
    1/z linear transformation is applied first, since the Pfaff-transformed
    argument approaches 1 and the series alone would need O(|z|) terms.

    Parameters
    ----------
    a, b, c : float
        Parameters; ``c`` must not be zero or a negative integer.
    z : float or ndarray
        Argument(s), each <= 0.
    max_terms : int
        Term budget per series before a ConvergenceError is raised.
    """
    if _is_nonpositive_int(c):
        raise DomainError("hyp2f1 parameter c must not be zero or a negative integer")
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr > 0.0):
        raise DomainError("hyp2f1 requires z <= 0")

    # terminating series: exact for any z, no transformation needed
    poly = _terminating(a, b, c, z_arr)
    if poly is not None:
        return _match_shape(poly, z)

    out = np.empty_like(z_arr)
    near = z_arr >= _Z_SWITCH
    far = ~near
    # the 1/z route degenerates when a - b is an integer; fall back to Pfaff,
    # which still converges (slowly) and errors out honestly past its budget
    if abs((a - b) - round(a - b)) < 1e-8:
        near[:] = True
        far[:] = False
    if np.any(near):
        out[near] = _pfaff(a, b, c, z_arr[near], max_terms)
    if np.any(far):
        out[far] = _large_z(a, b, c, z_arr[far], max_terms)
    return _match_shape(out, z)

