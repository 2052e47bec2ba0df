import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ellipstream import linalg

ATOL = 1e-10


def unit_vectors(max_dim=8):
    return arrays(np.float64, st.integers(2, max_dim),
                  elements=st.floats(-10, 10)).filter(
        lambda v: np.linalg.norm(v) > 1e-3).map(
        lambda v: v / np.linalg.norm(v))


class TestOrthonormalCompletion:
    def test_first_column_is_input(self):
        w = np.array([3.0, 4.0]) / 5.0
        q = linalg.orthonormal_completion(w)
        assert np.allclose(q[:, 0], w, atol=ATOL)

    def test_result_is_orthogonal(self):
        w = np.array([1.0, 2.0, 2.0]) / 3.0
        q = linalg.orthonormal_completion(w)
        assert np.allclose(q.T @ q, np.eye(3), atol=ATOL)

    @settings(max_examples=50, deadline=None)
    @given(unit_vectors())
    # close to e1: w - e1 loses its first entry to cancellation
    @example(np.array([1.0, 2.0**-26, 0.0]))
    def test_orthogonality_random(self, w):
        q = linalg.orthonormal_completion(w)
        assert np.allclose(q.T @ q, np.eye(len(w)), atol=1e-8)
        assert np.allclose(q[:, 0], w, atol=1e-8)

    def test_zero_vector_rejected(self):
        with pytest.raises(linalg.LinalgError, match="degenerate"):
            linalg.orthonormal_completion(np.zeros(3))

    def test_non_unit_rejected(self):
        with pytest.raises(linalg.LinalgError):
            linalg.orthonormal_completion(np.array([1.0, 1.0]))
