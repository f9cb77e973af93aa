"""Special functions needed by the fractional kernel evaluators.

Gamma and the Gauss hypergeometric function F(a, b; c; z) on the
non-positive real axis, which is the argument range
produced by the Molchan-Golosov kernel (z = 1 - t/s <= 0 for 0 < s <= t).

``hyp2f1`` gives each lane one series variable w in [0, 1/2]: the Pfaff
w = z/(z - 1) for z >= -1, and w = 1/(1 - z) on the 1/z route below.  Each
block of _BLOCK lanes is ordered by one stable sort on uint8 degree-class
keys, which follow from |z| alone, and summed by Horner, each lane at the
degree an a-priori tail bound sets at its class's largest w.  A series
F(alpha, beta; beta; w) is (1 - w)^(-alpha) (DLMF 15.4.6): with c = a + 1,
as in the Molchan-Golosov family, that is the first series of the 1/z route.

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

# Degree classes: the bucket of |z| is its binary exponent and first three
# fraction bits, (2^e (1 + j/8), 2^e (1 + (j+1)/8)] for 2^-16 < |z| <= 2^16,
# clipped beyond, and _CLASS maps the 256 buckets to the classes between the
# bucket ends _Z_EDGES.  The classes up to |z| = 1 take the Pfaff route, whose
# w is largest at a class's upper end, the rest the 1/z route, whose w is
# largest at its lower end; _KEY numbers the latter downwards, so that the
# degree ascends with the key on each route.  A class's degree bounds the tail
# of each of its lanes by _TAIL_TOL of the leading term 1.
_TAIL_TOL = 2.0 ** -53
_Z_EDGES = np.r_[2.0 ** np.arange(-15, -3),
                 np.outer(2.0 ** np.arange(-3, 3), [1.25, 1.5, 1.75, 2.0]).ravel(),
                 2.0 ** np.arange(4, 16)]
_BUCKET0 = (1023 - 16) << 3  # exponent and three fraction bits of 2^-16
_CLASS = np.searchsorted(
    _Z_EDGES, ((np.arange(1, 257) + _BUCKET0) << 49).view(float)).astype(np.uint8)
_N_PFAFF = int(np.searchsorted(_Z_EDGES, 1.0, side="right"))
_KEY = np.where(_CLASS < _N_PFAFF, _CLASS, _N_PFAFF + _Z_EDGES.size - _CLASS).astype(np.uint8)
_W_PFAFF = np.r_[_Z_EDGES / (1.0 + _Z_EDGES), 1.0]
_W_KEY = np.r_[_W_PFAFF[:_N_PFAFF], 1.0 / (1.0 + _Z_EDGES[:_N_PFAFF - 2:-1])]
_BLOCK = 32768  # lanes per block; a block array takes 256 KiB


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


def _check_parameters(a: float, b: float, c: float) -> None:
    if not all(math.isfinite(p) for p in (a, b, c)) or _is_nonpositive_int(c):
        raise DomainError("hyp2f1 parameters must be finite and c not zero or a negative "
                          f"integer, got a={a}, b={b}, c={c}")


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
    """Direct hypergeometric series at argument ``w``, |w| < 1, summed forward.

    This is the raw building block: no argument transformation is applied.
    It is exposed so cross-checks can evaluate the series independently of
    the transformed route used by :func:`hyp2f1`: terms are added until every
    lane's term was below 1e-14 of its partial sum at two successive checks,
    four terms apart, so even/odd cancellation cannot stop a lane early.
    """
    _check_parameters(a, b, c)
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if not np.all(np.abs(w_arr) < 1.0):
        raise DomainError("hyp2f1_series requires finite |w| < 1")

    poly = _terminating(a, b, c, w_arr)
    if poly is not None:
        return _match_shape(poly, w)
    total, term = np.ones_like(w_arr), np.ones_like(w_arr)
    passed = False
    for n in range(max_terms):
        term *= ((a + n) * (b + n)) / ((c + n) * (n + 1))
        term *= w_arr
        total += term
        if n % 4 == 3:
            # written so that a NaN lane never counts as converged
            small = bool(np.all(np.abs(term) <= 1e-14 * np.abs(total)))
            if small and passed:
                return _match_shape(total, w)
            passed = small
    raise ConvergenceError(f"hyp2f1 series did not meet the tail bound within {max_terms} terms "
                           f"(worst |w| = {np.abs(w_arr).max():.6g})")


def _match_shape(out: np.ndarray, template):
    if np.isscalar(template) or np.asarray(template).ndim == 0:
        return float(out[0])
    return out.reshape(np.shape(template))


def _summer(alpha: float, beta: float, gamma: float, w_max: np.ndarray, max_terms: int):
    """A function (w, key) giving F(alpha, beta; gamma; w) on lanes sorted by key, w <= w_max[key].

    A key's degree N is the least whose a-priori tail bound holds at e = w_max[key]:
    once gamma + N + 1 > 0, every ratio |c_{k+1} / c_k| (k > N) of the coefficients is
    at most rho = (1 + |alpha - 1|/(N + 2)) (1 + |beta - gamma|/(gamma + N + 1)), so
    sum_{k > N} |c_k| w^k <= |c_{N+1}| e^(N+1) / (1 - rho e) for w <= e.  Horner runs
    from the block's top degree down, each step on the lanes whose degree reaches it:
    a lane joins at its own N as 0 * w + c_N, whatever else the block holds.
    """
    degree, coef = [], [1.0, alpha * beta / gamma]  # c_0 ... c_{N+1}

    def horner(w, key):
        for e in w_max[len(degree):key[-1] + 1]:  # the keys ascend with e, and so does N
            while True:
                n = len(coef) - 1  # = N + 1
                rho = (1.0 + abs(alpha - 1.0) / (n + 1)) * (1.0 + abs(beta - gamma) / (gamma + n))
                if gamma + n > 0 and rho * e < 1.0 and (
                        abs(coef[n]) * e ** n <= _TAIL_TOL * (1.0 - rho * e)):
                    break
                if n >= max_terms:
                    raise ConvergenceError(f"hyp2f1 series needs more than {max_terms} terms "
                                           f"at series variable {e:.6g}")
                coef.append(coef[n] * ((alpha + n) * (beta + n) / ((gamma + n) * (n + 1))))
            degree.append(n - 1)
        lane_deg = np.take(degree, key)
        starts = np.searchsorted(lane_deg, np.arange(lane_deg[-1] + 1))
        acc = np.zeros_like(w)
        for n in range(lane_deg[-1], -1, -1):
            tail = acc[starts[n]:]
            tail *= w[starts[n]:]
            tail += coef[n]
        return acc
    return horner


def hyp2f1(a: float, b: float, c: float, z, max_terms: int = 10_000):
    """Gauss hypergeometric function F(a, b; c; z) for real z <= 0.

    The argument is mapped into [0, 1/2] by the Pfaff transformation, or for
    z < -1 by the 1/z linear transformation (DLMF 15.8.2) followed by Pfaff,
    and each series is summed by Horner to a tail below 2^-53 of its leading
    term (see the module docstring).  A batch returns bitwise what single
    calls would.

    Parameters
    ----------
    a, b, c : float
        Parameters; ``c`` must not be zero or a negative integer.
    z : float or ndarray
        Argument(s), each <= 0.
    max_terms : int
        Term budget per series; a lane whose degree needs more raises ConvergenceError.
    """
    _check_parameters(a, b, c)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if not (np.all(z_arr <= 0.0) and np.isfinite(z_arr).all()):
        raise DomainError("hyp2f1 requires finite z <= 0")

    # terminating series: exact for any z, no transformation needed
    poly = _terminating(a, b, c, z_arr)
    if poly is not None:
        return _match_shape(poly, z)

    # 1/z, then Pfaff on each term, so both series share w = 1/(1-z): F(a,b;c;z) =
    # C1 (1-z)^{-a} F(a, c-b; a-b+1; w) + C2 (1-z)^{-b} F(b, c-a; b-a+1; w).  Within 1e-8 of
    # an integer a - b, C1 and C2 cancel unless both stay bounded (both near 1/2 in the
    # Molchan-Golosov family near H = 1/2); else Pfaff takes every lane, up to max_terms
    # as z -> -inf
    far = []
    off = abs((a - b) - round(a - b))
    if off > 0.0 and z_arr.min(initial=0.0) < -1.0:  # some lane has z < -1
        c1 = math.gamma(c) * math.gamma(b - a) * _rgamma(b) * _rgamma(c - a)
        c2 = math.gamma(c) * math.gamma(a - b) * _rgamma(a) * _rgamma(c - b)
        if off >= 1e-8 or abs(c1) + abs(c2) <= 16.0:
            # with c = ex + 1, as c = a + 1 in the Molchan-Golosov family, a series is
            # F(ex, beta; beta; w) = (1 - w)^(-ex) (DLMF 15.4.6), and (1 - z)(1 - w) = -z
            far = [(cf, ex, None if abs(c - ex - 1.0) <= 1e-15 * max(abs(c), 1.0)
                    else _summer(ex, p, ex - q + 1.0, _W_KEY[_N_PFAFF:], max_terms))
                   for cf, ex, p, q in ((c1, a, c - b, b), (c2, b, c - a, a)) if cf != 0.0]
    lut, n_pfaff, w_max = (_KEY, _N_PFAFF, _W_KEY) if far else (_CLASS, _W_PFAFF.size, _W_PFAFF)
    # Pfaff: F(a,b;c;z) = (1-z)^{-a} F(a, c-b; c; w), w = z/(z-1)
    near = _summer(a, c - b, c, w_max[:n_pfaff], max_terms)
    zf = z_arr.ravel()
    out = np.empty_like(zf)
    for lo in range(0, zf.size, _BLOCK):
        zb = zf[lo:lo + _BLOCK]
        # |z| bits - 1 puts a bucket's upper end in that bucket; z = 0 clips to bucket 0
        key = lut.take((np.abs(zb).view(np.int64) - (1 + (_BUCKET0 << 49))) >> 49, mode="clip")
        order = np.argsort(key, kind="stable")
        key, zs = key[order], zb[order]
        split = int(np.searchsorted(key, n_pfaff))
        x = 1.0 - zs
        vals = np.empty_like(zs)
        if split:
            zn = zs[:split]
            vals[:split] = x[:split] ** (-a) * near(zn / (zn - 1.0), key[:split])
        if split < zs.size:
            zr, xr, kr = zs[split:], x[split:], key[split:] - n_pfaff
            vals[split:] = sum(cf * ((-zr) ** (-ex) if series is None
                                     else xr ** (-ex) * series(1.0 / xr, kr))
                               for cf, ex, series in far)
        out[lo:lo + _BLOCK][order] = vals
    return _match_shape(out, z)
