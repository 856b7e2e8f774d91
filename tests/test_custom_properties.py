"""Properties of Custom escorts phi(v) = v^a + c v^b, checked by hypothesis.

Exponents in [0.5, 1.5] keep |log_phi| below about 1e6 on [1e-12, 1e12], so
a roundtrip within 1e-10 stays above the spacing of floats there.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escortdyn import Custom  # noqa: E402

GRID = np.geomspace(1e-12, 1e12, 49)

exponents = st.floats(0.5, 1.5)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(a=exponents, b=exponents, c=st.floats(0.0, 10.0), x=st.floats(-12.0, 12.0))
def test_log_is_anchored_increasing_and_inverted_by_exp(a, b, c, x):
    phi = Custom(lambda v: v**a + c * v**b, name="v^a+c*v^b")
    assert phi.log(1.0) == 0.0
    assert np.all(np.diff(phi.log(GRID)) > 0.0)
    w = phi.log(10.0**x)
    assert abs(phi.log(phi.exp(w)) - w) <= 1e-10
