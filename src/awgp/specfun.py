"""Special functions needed by the fractional kernel evaluators.

Gamma and the Gauss hypergeometric function F(a, b; c; z) on the
non-positive real axis, which is the argument range
produced by the Molchan-Golosov kernel (z = 1 - t/s <= 0 for 0 < s <= t).

A hypergeometric series sums its lanes sorted by |w|, in blocks of _BLOCK
that stay in cache; each term advances in place only the suffix of a
block's lanes still summing.  Every _CHECK_EVERY terms that suffix is tested
against the tail bound |term| <= _TAIL_RTOL |partial sum|; a lane stops once
it passed at two successive checks and every lane before it in its block
has stopped.

Everything here is a pure function of its arguments and accepts either
scalars or numpy arrays for the main argument.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special

from .errors import ConvergenceError, DomainError

__all__ = [
    "gamma_fn",
    "hyp2f1",
    "hyp2f1_series",
]

# Series truncation (see the module docstring): two successive checks span
# five terms, so even/odd cancellation cannot stop a lane early.  A block's
# three arrays (value, term, argument) take 768 KiB, well inside an L2 cache.
_TAIL_RTOL = 1e-14
_CHECK_EVERY = 4
_BLOCK = 32768

# Below this argument the Pfaff-transformed series needs too many terms
# (the transformed argument approaches 1), so a 1/z linear transformation
# is applied first.  At the switch point both routes converge in under
# fifty terms.
_Z_SWITCH = -1.0


def gamma_fn(x):
    """Gamma function for positive real ``x``: ``scipy.special.gamma`` behind a domain check.

    Raises
    ------
    DomainError
        If any entry of ``x`` is <= 0 or NaN.  Non-positive arguments never arise
        from valid Hurst parameters, so no analytic continuation is done.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):  # NaN fails too
        raise DomainError("gamma_fn requires x > 0")
    out = scipy.special.gamma(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _rgamma(x: float) -> float:
    """Reciprocal gamma 1/Gamma(x); zero at the poles (scalar, internal)."""
    return 0.0 if x <= 0.0 and x == math.floor(x) else 1.0 / math.gamma(x)


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


def _series_sorted(a: float, b: float, c: float, wv: np.ndarray, max_terms: int) -> np.ndarray:
    """The series at every lane of ``wv``, whose |w| must ascend (no validation)."""
    total = np.ones_like(wv)
    for start in range(0, wv.size, _BLOCK):
        w, tot = wv[start:start + _BLOCK], total[start:start + _BLOCK]
        term = np.ones_like(w)
        lo = lead_prev = 0
        for n in range(max_terms):
            term[lo:] *= ((a + n) * (b + n)) / ((c + n) * (n + 1))
            term[lo:] *= w[lo:]
            tot[lo:] += term[lo:]
            if n % _CHECK_EVERY == _CHECK_EVERY - 1:
                # written so that a NaN lane never counts as converged
                big = ~(np.abs(term[lo:]) <= _TAIL_RTOL * np.abs(tot[lo:]))
                lead = int(big.argmax()) if big.any() else big.size
                frozen = min(lead, lead_prev)
                lo, lead_prev = lo + frozen, lead - frozen
                if lo == w.size:
                    break
        else:
            raise ConvergenceError(
                f"hyp2f1 series did not meet the tail bound within {max_terms} terms "
                f"(worst |w| = {np.abs(w).max(initial=0.0):.6g})")
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
    if not np.all(np.abs(w_arr) < 1.0):
        raise DomainError("hyp2f1_series requires finite |w| < 1")

    poly = _terminating(a, b, c, w_arr)
    if poly is not None:
        return _match_shape(poly, w)
    order = np.argsort(np.abs(w_arr.ravel()))
    out = np.empty(w_arr.size)
    out[order] = _series_sorted(a, b, c, w_arr.ravel()[order], max_terms)
    return _match_shape(out, w)


def _match_shape(out: np.ndarray, template):
    if np.isscalar(template) or np.asarray(template).ndim == 0:
        return float(out[0])
    return out.reshape(np.shape(template))


def _large_z(a: float, b: float, c: float, z: np.ndarray, max_terms: int) -> np.ndarray:
    # Linear transformation z -> 1/z for z << -1 (requires a - b non-integer),
    # then Pfaff on each term, so both series share w = 1/(1-z), which must ascend:
    # F(a,b;c;z) = C1 (1-z)^{-a} F(a, c-b; a-b+1; w) + C2 (1-z)^{-b} F(b, c-a; b-a+1; w)
    x = 1.0 - z
    w = 1.0 / x
    c1 = math.gamma(c) * math.gamma(b - a) * _rgamma(b) * _rgamma(c - a)
    c2 = math.gamma(c) * math.gamma(a - b) * _rgamma(a) * _rgamma(c - b)
    out = np.zeros_like(z)
    if c1 != 0.0:
        out += c1 * x ** (-a) * _series_sorted(a, c - b, a - b + 1.0, w, max_terms)
    if c2 != 0.0:
        out += c2 * x ** (-b) * _series_sorted(b, c - a, b - a + 1.0, w, max_terms)
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
    if not (np.all(z_arr <= 0.0) and np.isfinite(z_arr).all()):
        raise DomainError("hyp2f1 requires finite z <= 0")

    # terminating series: exact for any z, no transformation needed
    poly = _terminating(a, b, c, z_arr)
    if poly is not None:
        return _match_shape(poly, z)

    # one sort by |z| serves every series: the near lanes come first, and the
    # far ones are handed to _large_z reversed, so that each series' |w| ascends
    order = np.argsort(np.abs(z_arr.ravel()))
    zs = z_arr.ravel()[order]
    # the 1/z route degenerates when a - b is an integer; fall back to Pfaff,
    # which still converges (slowly) and errors out honestly past its budget
    k = zs.size if abs((a - b) - round(a - b)) < 1e-8 else np.count_nonzero(zs >= _Z_SWITCH)
    vals = np.empty_like(zs)
    if k:
        # Pfaff: F(a,b;c;z) = (1-z)^{-a} F(a, c-b; c; w), w = z/(z-1) in [0, 1)
        near = zs[:k]
        vals[:k] = (1.0 - near) ** (-a) * _series_sorted(a, c - b, c, near / (near - 1.0),
                                                         max_terms)
    if k < zs.size:
        vals[k:] = _large_z(a, b, c, zs[k:][::-1], max_terms)[::-1]
    out = np.empty_like(zs)
    out[order] = vals
    return _match_shape(out, z)

