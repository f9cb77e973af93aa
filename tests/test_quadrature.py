import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from awgp.quadrature import linear_scan

_SIZES = st.integers(1, 300) | st.sampled_from(
    [2 ** k + d for k in range(1, 9) for d in (-1, 1) if 2 ** k + d <= 300])
# a chain break (0), a link in (0, 1], or one up to e^5
_LINKS = st.just(0.0) | st.floats(0.0, 1.0, exclude_min=True) | st.floats(1.0, math.exp(5.0))


def _loop(q, c) -> np.ndarray:
    """f_j = q_j + c_j f_(j-1) one step at a time, in Python floats."""
    f, prev = [], 0.0
    for qj, cj in zip(q.tolist(), c.tolist()):
        prev = qj + cj * prev
        f.append(prev)
    return np.array(f)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), _SIZES)
def test_linear_scan_matches_the_loop(data, n):
    q = data.draw(arrays(float, n, elements=st.floats(-1e3, 1e3)))
    c = data.draw(arrays(float, n, elements=_LINKS))
    assume(_loop(np.ones(n), c).max() < 1e300)  # bounds every product of successive links
    q_in, c_in = q.copy(), c.copy()
    f = linear_scan(q, c)
    # to the sum of the terms' sizes, since q of either sign may cancel
    assert np.all(np.abs(f - _loop(q, c)) <= 1e-13 * _loop(np.abs(q), c))
    assert np.array_equal(q, q_in) and np.array_equal(c, c_in)
