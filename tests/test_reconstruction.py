"""Tests for WENO5 and PLM reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.solver.reconstruction import (
    face_states,
    plm_states_along,
    weno5_states_along,
)


def faces_of(fn, q, ng, nxa):
    return fn(q[None, None, None, :], ng, nxa)


class TestWeno5:
    def test_constant_is_exact(self):
        q = np.full(16, 3.7)
        ql, qr = faces_of(weno5_states_along, q, 4, 8)
        assert ql.shape[-1] == 9
        np.testing.assert_allclose(ql, 3.7, atol=1e-13)
        np.testing.assert_allclose(qr, 3.7, atol=1e-13)

    def test_linear_is_exact(self):
        # q_i = i on cell centers; face j between cells ng+j-1 and ng+j has
        # coordinate ng + j - 0.5.
        q = np.arange(16.0)
        ql, qr = faces_of(weno5_states_along, q, 4, 8)
        expected = 4.0 + np.arange(9.0) - 0.5
        np.testing.assert_allclose(ql[0, 0, 0], expected, atol=1e-11)
        np.testing.assert_allclose(qr[0, 0, 0], expected, atol=1e-11)

    def test_parabola_is_exact(self):
        # Finite-volume WENO5 maps *cell averages* to face point values.
        # Cell average of x^2/2 over [x_i - 1/2, x_i + 1/2] is
        # x_i^2/2 + 1/24, so feeding averages must recover the point values.
        x = np.arange(20.0)
        q = 0.5 * x * x + 1.0 / 24.0
        ql, qr = faces_of(weno5_states_along, q, 4, 12)
        xf = 4.0 + np.arange(13.0) - 0.5
        np.testing.assert_allclose(ql[0, 0, 0], 0.5 * xf * xf, atol=1e-9)
        np.testing.assert_allclose(qr[0, 0, 0], 0.5 * xf * xf, atol=1e-9)

    def test_no_oscillation_at_step(self):
        q = np.where(np.arange(20) < 10, 0.0, 1.0).astype(float)
        ql, qr = faces_of(weno5_states_along, q, 4, 12)
        assert ql.min() >= -1e-6 and ql.max() <= 1.0 + 1e-6
        assert qr.min() >= -1e-6 and qr.max() <= 1.0 + 1e-6

    def test_rejects_insufficient_ghosts(self):
        with pytest.raises(ValueError):
            faces_of(weno5_states_along, np.ones(12), 2, 8)

    def test_left_right_symmetry(self):
        # Mirroring the data must swap and mirror the states.
        rng = np.random.default_rng(0)
        q = rng.normal(size=18)
        ql, qr = faces_of(weno5_states_along, q, 4, 10)
        qml, qmr = faces_of(weno5_states_along, q[::-1].copy(), 4, 10)
        np.testing.assert_allclose(ql[0, 0, 0], qmr[0, 0, 0, ::-1], atol=1e-12)
        np.testing.assert_allclose(qr[0, 0, 0], qml[0, 0, 0, ::-1], atol=1e-12)


class TestPlm:
    def test_constant_is_exact(self):
        q = np.full(12, -2.5)
        ql, qr = faces_of(plm_states_along, q, 2, 8)
        np.testing.assert_allclose(ql, -2.5)
        np.testing.assert_allclose(qr, -2.5)

    def test_linear_is_exact(self):
        q = 3.0 * np.arange(12.0)
        ql, qr = faces_of(plm_states_along, q, 2, 8)
        expected = 3.0 * (2.0 + np.arange(9.0) - 0.5)
        np.testing.assert_allclose(ql[0, 0, 0], expected)
        np.testing.assert_allclose(qr[0, 0, 0], expected)

    def test_monotone_at_step(self):
        q = np.where(np.arange(12) < 6, 0.0, 1.0).astype(float)
        ql, qr = faces_of(plm_states_along, q, 2, 8)
        assert ql.min() >= 0.0 and ql.max() <= 1.0
        assert qr.min() >= 0.0 and qr.max() <= 1.0

    def test_rejects_insufficient_ghosts(self):
        with pytest.raises(ValueError):
            faces_of(plm_states_along, np.ones(10), 1, 8)


class TestFaceStates:
    def test_moveaxis_matches_direct(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(2, 1, 4, 16))
        ql_d, _ = weno5_states_along(q, 4, 8)
        ql_m, _ = face_states(q, axis=3, ng=4, nxa=8, scheme="weno5")
        np.testing.assert_array_equal(ql_d, ql_m)

    def test_reconstruction_along_middle_axis(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 1, 16, 4))
        ql, qr = face_states(q, axis=2, ng=4, nxa=8, scheme="weno5")
        assert ql.shape == (1, 1, 9, 4)
        # Must equal transposed reconstruction along the last axis.
        qt = np.swapaxes(q, 2, 3)
        qlt, _ = face_states(qt, axis=3, ng=4, nxa=8, scheme="weno5")
        np.testing.assert_allclose(ql, np.swapaxes(qlt, 2, 3))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown reconstruction"):
            face_states(np.ones((1, 1, 1, 16)), 3, 4, 8, scheme="ppm")


@settings(max_examples=30)
@given(
    hnp.arrays(np.float64, 16, elements=st.floats(-10, 10, allow_nan=False))
)
def test_weno5_states_bounded_by_stencil(q):
    """Property: WENO5 face values stay within the global data range
    (convex combination of interpolants of bounded data, up to eps slack)."""
    ql, qr = faces_of(weno5_states_along, q, 4, 8)
    lo, hi = q.min(), q.max()
    span = max(hi - lo, 1.0)
    assert ql.min() >= lo - 0.6 * span
    assert ql.max() <= hi + 0.6 * span


@settings(max_examples=30)
@given(
    hnp.arrays(np.float64, 12, elements=st.floats(-10, 10, allow_nan=False))
)
def test_plm_states_within_data_range(q):
    """Property: minmod-limited PLM never creates new extrema."""
    ql, qr = faces_of(plm_states_along, q, 2, 8)
    assert ql.min() >= q.min() - 1e-12
    assert ql.max() <= q.max() + 1e-12
    assert qr.min() >= q.min() - 1e-12
    assert qr.max() <= q.max() + 1e-12
