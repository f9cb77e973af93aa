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
scalars or numpy arrays for the main argument; the degree table of each parameter
set is kept in a bounded cache, so a Hurst sweep that meets one H again reuses it.
"""

from __future__ import annotations

import functools
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
# (key table, Pfaff classes, class bounds e, e^(N+1) for N < 64) without and with the 1/z route
_ROUTES = [(lut, n, w, w[:, None] ** np.arange(1.0, 65.0))
           for lut, n, w in ((_CLASS, _W_PFAFF.size, _W_PFAFF), (_KEY, _N_PFAFF, _W_KEY))]


def gamma_fn(x):
    """Gamma function for positive real ``x``: ``scipy.special.gamma`` behind a domain check.

    Raises
    ------
    DomainError
        If any entry of ``x`` is <= 0 or NaN.  Non-positive arguments never arise
        from valid Hurst parameters, so no analytic continuation is done.
    """
    scalar = isinstance(x, float)  # a Python or numpy float skips the array round-trip
    arr = x if scalar else np.asarray(x, dtype=float)
    if not (arr > 0.0 if scalar else np.all(arr > 0.0)):  # NaN fails too
        raise DomainError("gamma_fn requires x > 0")
    out = scipy.special.gamma(arr)
    return float(out) if scalar or np.isscalar(x) or arr.ndim == 0 else out


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


def _degrees(params: list, counts: list, e: np.ndarray, e_pow: np.ndarray, max_terms: int):
    """Coefficients c_0 ... c_m of F(alpha, beta; gamma; w) for each (alpha, beta, gamma) of
    ``params``, on ``counts`` rows, and each row's degree N, the least whose a-priori tail
    bound holds for w <= its e (e_pow[:, N] = e^(N+1)): once gamma + N + 1 > 0, every ratio
    |c_{k+1} / c_k| (k > N) is at most rho = (1 + |alpha - 1|/(N + 2)) (1 + |beta - gamma| /
    (gamma + N + 1)), so sum_{k > N} |c_k| w^k <= |c_{N+1}| e^(N+1) / (1 - rho e).  One
    cumprod and one test on every (row, N <= m) give both; m doubles from 64 up to max_terms,
    and a row that needs more gets N = -1.
    """
    alpha, beta, gamma = np.array(params, dtype=float).T[..., None]
    series, e = np.repeat(np.arange(len(params)), counts), e[:, None]
    m = min(64, max_terms)
    while True:
        k = np.arange(m + 2.0)
        n = k[1:-1]  # N + 1
        ratio = np.ones((len(params), m + 1))
        with np.errstate(all="ignore"):  # a NaN or inf bound fails the test
            ratio[:, 1:] = (alpha + k[:-2]) * (beta + k[:-2]) / ((gamma + k[:-2]) * n)
            rho = (1.0 + np.abs(alpha - 1.0) / k[2:]) * (1.0 + np.abs(beta - gamma) / (gamma + n))
        rho[gamma + n <= 0.0] = np.inf
        coef = np.cumprod(ratio, axis=1).take(series, axis=0)
        rho_e = rho.take(series, axis=0) * e
        ok = (rho_e < 1.0) & (np.abs(coef[:, 1:]) * (e_pow[:, :m] if m <= e_pow.shape[1] else e ** n)
                              <= _TAIL_TOL * (1.0 - rho_e))
        found = ok.any(axis=1)
        if found.all() or m >= max_terms:
            return coef, np.where(found, ok.argmax(axis=1), -1)
        m = min(2 * m, max_terms)


@functools.lru_cache(maxsize=32)  # a few tens of KiB each
def _table(series: tuple, top: int, far: bool, max_terms: int):
    """(coef, deg, e) of :func:`_degrees` on the rows :func:`hyp2f1` takes for ``series``, class
    ``top`` and route ``far``: read-only, and cut to the columns :func:`_summer` reads."""
    _, n_pfaff, w_max, w_pow = _ROUTES[far]
    n_far, n_sum = w_max.size - n_pfaff, len(series) - 1
    rows = np.concatenate([np.arange(top + 1)] + [np.arange(n_pfaff, w_max.size)] * n_sum)
    coef, deg = _degrees(series, [top + 1] + [n_far] * n_sum, w_max[rows], w_pow[rows], max_terms)
    out = coef[:, :deg.max() + 1].copy(), deg, w_max[rows]
    for arr in out:
        arr.flags.writeable = False
    return out


def _summer(w: np.ndarray, g: np.ndarray, deg: np.ndarray, coef: np.ndarray, cuts: list):
    """sum_{n <= N} c_n w^n by Horner on each lane, c and N from its row g of :func:`_degrees`,
    the rows ascending within each section cuts[i]:cuts[i + 1].  A lane joins at its own N as
    0 * w + c_N: if the lanes' coefficients, 0 above each one's N, fit in _BLOCK values, all
    lanes take every step; else each section takes one pass, each step on the lanes it reaches.
    """
    top = max(int(deg[g[hi - 1]]) for lo, hi in zip(cuts, cuts[1:]) if hi > lo)
    acc = np.zeros_like(w)
    if w.size * (top + 1) <= _BLOCK:
        table = np.where(np.arange(top + 1) <= deg[:, None], coef[:, :top + 1], 0.0)
        for c in table.T[::-1].take(g, axis=1):
            acc *= w
            acc += c
        return acc
    for lo, hi in zip(cuts, cuts[1:]):
        if hi > lo:
            d = deg.take(g[lo:hi])
            c, starts = coef[g[lo]].tolist(), (lo + np.searchsorted(d, np.arange(d[-1] + 1))).tolist()
            for n in range(d[-1], -1, -1):
                acc[starts[n]:hi] *= w[starts[n]:hi]
                acc[starts[n]:hi] += c[n]
    return acc


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
    z_min = z_arr.min(initial=0.0)
    if not (z_arr.max(initial=0.0) <= 0.0 and z_min > -np.inf):  # NaN fails the first
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
    if off > 0.0 and z_min < -1.0:  # some lane has z < -1
        c1 = math.gamma(c) * math.gamma(b - a) * _rgamma(b) * _rgamma(c - a)
        c2 = math.gamma(c) * math.gamma(a - b) * _rgamma(a) * _rgamma(c - b)
        if off >= 1e-8 or abs(c1) + abs(c2) <= 16.0:
            # with c = ex + 1, as c = a + 1 in the Molchan-Golosov family, a series is
            # F(ex, beta; beta; w) = (1 - w)^(-ex) (DLMF 15.4.6), and (1 - z)(1 - w) = -z
            far = [(cf, ex, None if abs(c - ex - 1.0) <= 1e-15 * max(abs(c), 1.0)
                    else (ex, p, ex - q + 1.0))
                   for cf, ex, p, q in ((c1, a, c - b, b), (c2, b, c - a, a)) if cf != 0.0]
    lut, n_pfaff, w_max, _ = _ROUTES[bool(far)]
    # Pfaff: F(a,b;c;z) = (1-z)^{-a} F(a, c-b; c; w), w = z/(z-1).  One row of degrees per
    # Pfaff class up to |z|_max, then per 1/z-route class of each summed series; with that
    # route, the Pfaff rows are all its classes, so a lane's row is its key (+ n_far before)
    top = n_pfaff - 1 if far else int(np.searchsorted(_Z_EDGES, -z_min))  # class of |z|_max
    series = [(a, c - b, c)] + [p for cf, ex, p in far if p is not None]
    n_far, n_sum = w_max.size - n_pfaff, len(series) - 1
    coef, deg, e = _table(tuple(series), top, bool(far), max_terms)
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
        zn, xr, n_r = zs[:split], x[split:], zs.size - split
        cuts = [0, split] + [zs.size + i * n_r for i in range(n_sum)]
        w = np.empty(cuts[-1])
        np.divide(zn, zn - 1.0, out=w[:split])
        for lo_s, hi_s in zip(cuts[1:], cuts[2:]):
            np.divide(1.0, xr, out=w[lo_s:hi_s])
        g = key[:w.size] if n_sum < 2 else np.concatenate([key, key[split:] + n_far])
        for i, (lo_s, hi_s) in enumerate(zip(cuts, cuts[1:])):
            if hi_s > lo_s and deg[g[hi_s - 1]] < 0:  # the series' rows ascend in degree
                first = 0 if i == 0 else top + 1 + (i - 1) * n_far
                e_bad = e[first + np.argmax(deg[first:] < 0)]
                raise ConvergenceError(f"hyp2f1 series needs more than {max_terms} terms "
                                       f"at series variable {e_bad:.6g}")
        sums = _summer(w, g, deg, coef, cuts) if w.size else w
        vals = np.empty_like(zs)
        vals[:split] = x[:split] ** (-a) * sums[:split]
        if n_r:
            secs = zip(cuts[1:], cuts[2:])
            vals[split:] = sum(cf * ((-zs[split:]) ** (-ex) if p is None
                                     else xr ** (-ex) * sums[slice(*next(secs))])
                               for cf, ex, p in far)
        out[lo:lo + _BLOCK][order] = vals
    return _match_shape(out, z)
