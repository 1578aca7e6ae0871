"""Tests for prolongation/restriction operators (conservation, exactness)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.mesh.prolongation import limited_slopes, minmod, prolong, prolong_shape
from repro.mesh.restriction import restrict


class TestMinmod:
    def test_opposite_signs_give_zero(self):
        assert minmod(np.array([1.0]), np.array([-2.0]))[0] == 0.0

    def test_same_sign_gives_smaller_magnitude(self):
        assert minmod(np.array([3.0]), np.array([2.0]))[0] == 2.0
        assert minmod(np.array([-3.0]), np.array([-2.0]))[0] == -2.0

    def test_zero_argument_gives_zero(self):
        assert minmod(np.array([0.0]), np.array([5.0]))[0] == 0.0


class TestRestrict:
    def test_1d_average(self):
        fine = np.arange(8.0).reshape(1, 1, 1, 8)
        coarse = restrict(fine, 1)
        assert coarse.shape == (1, 1, 1, 4)
        assert np.allclose(coarse[0, 0, 0], [0.5, 2.5, 4.5, 6.5])

    def test_2d_average(self):
        fine = np.ones((2, 1, 4, 4))
        coarse = restrict(fine, 2)
        assert coarse.shape == (2, 1, 2, 2)
        assert np.allclose(coarse, 1.0)

    def test_3d_conservation(self):
        rng = np.random.default_rng(42)
        fine = rng.normal(size=(3, 8, 8, 8))
        coarse = restrict(fine, 3)
        assert coarse.sum() * 8 == pytest.approx(fine.sum())

    def test_rejects_odd_extent(self):
        with pytest.raises(ValueError):
            restrict(np.ones((1, 1, 1, 7)), 1)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            restrict(np.ones((4, 4)), 2)


class TestProlong:
    def test_output_shape(self):
        coarse = np.zeros((2, 1, 6, 6))
        fine = prolong(coarse, 2)
        assert fine.shape == (2, 1, 8, 8)
        assert prolong_shape((2, 1, 6, 6), 2) == (2, 1, 8, 8)

    def test_constant_exact(self):
        coarse = np.full((1, 1, 1, 6), 3.5)
        fine = prolong(coarse, 1)
        assert np.allclose(fine, 3.5)

    def test_linear_exact_1d(self):
        # q(x) = 2x on coarse cell centers; children at +-dx/4.
        xs = np.arange(6.0)
        coarse = (2.0 * xs).reshape(1, 1, 1, 6)
        fine = prolong(coarse, 1)
        expected_x = np.repeat(xs[1:-1], 2) + np.tile([-0.25, 0.25], 4)
        assert np.allclose(fine[0, 0, 0], 2.0 * expected_x)

    def test_linear_exact_3d(self):
        x = np.arange(5.0)
        X3, X2, X1 = np.meshgrid(x, x, x, indexing="ij")
        coarse = (1.5 * X1 - 2.0 * X2 + 0.5 * X3)[None]
        fine = prolong(coarse, 3)
        xf = np.repeat(x[1:-1], 2) + np.tile([-0.25, 0.25], 3)
        F3, F2, F1 = np.meshgrid(xf, xf, xf, indexing="ij")
        assert np.allclose(fine[0], 1.5 * F1 - 2.0 * F2 + 0.5 * F3)

    def test_preserves_cell_averages(self):
        rng = np.random.default_rng(7)
        coarse = rng.normal(size=(2, 1, 6, 6))
        fine = prolong(coarse, 2)
        # Restricting back must recover the coarse interior exactly.
        interior = coarse[:, :, 1:-1, 1:-1]
        assert np.allclose(restrict(fine, 2), interior)

    def test_limiter_suppresses_overshoot(self):
        # A step function: limited prolongation must not create new extrema.
        coarse = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]).reshape(1, 1, 1, 6)
        fine = prolong(coarse, 1, limit=True)
        assert fine.min() >= 0.0 - 1e-14
        assert fine.max() <= 1.0 + 1e-14

    def test_unlimited_uses_central_slopes(self):
        coarse = np.array([0.0, 1.0, 4.0, 9.0, 16.0]).reshape(1, 1, 1, 5)
        limited = prolong(coarse, 1, limit=True)
        unlimited = prolong(coarse, 1, limit=False)
        assert not np.allclose(limited, unlimited)

    def test_rejects_missing_margin(self):
        with pytest.raises(ValueError):
            prolong(np.ones((1, 1, 1, 2)), 1)


class TestLimitedSlopes:
    def test_monotone_data_gets_minimum_slope(self):
        arr = np.array([0.0, 1.0, 3.0, 6.0]).reshape(1, 1, 1, 4)
        s = limited_slopes(arr, 3)
        assert np.allclose(s[0, 0, 0], [1.0, 2.0])

    def test_extremum_gets_zero_slope(self):
        arr = np.array([0.0, 1.0, 0.0]).reshape(1, 1, 1, 3)
        s = limited_slopes(arr, 3)
        assert s[0, 0, 0, 0] == 0.0


@settings(max_examples=30)
@given(
    hnp.arrays(
        np.float64,
        (1, 1, 6, 6),
        elements=st.floats(-100, 100, allow_nan=False),
    )
)
def test_prolong_restrict_roundtrip_property(coarse):
    """Property: restrict(prolong(c)) == interior(c) for any data."""
    fine = prolong(coarse, 2)
    assert np.allclose(restrict(fine, 2), coarse[:, :, 1:-1, 1:-1], atol=1e-9)


@settings(max_examples=30)
@given(
    hnp.arrays(
        np.float64,
        (2, 1, 1, 8),
        elements=st.floats(-50, 50, allow_nan=False),
    )
)
def test_restrict_conserves_total_property(fine):
    """Property: volume-weighted total is invariant under restriction."""
    coarse = restrict(fine, 1)
    assert coarse.sum() * 2 == pytest.approx(fine.sum(), abs=1e-6)


@settings(max_examples=40)
@given(
    c=st.floats(-1e30, 1e30, allow_nan=False),
    ndim=st.integers(1, 3),
    ncomp=st.integers(1, 3),
    extent=st.sampled_from([4, 6, 8]),
)
def test_restrict_of_prolonged_constant_exact_property(c, ndim, ncomp, extent):
    """Property: a constant field survives prolong+restrict bit-exactly.

    Minmod slopes of a constant are exactly zero and the 2^ndim-child
    average divides by a power of two, so no rounding at all is allowed.
    """
    shape = (ncomp,) + (1,) * (3 - ndim) + (extent,) * ndim
    coarse = np.full(shape, c)
    fine = prolong(coarse, ndim)
    assert np.all(fine == c)
    interior = coarse[
        (slice(None),)
        + tuple(
            slice(1, -1) if axis >= 3 - ndim else slice(None)
            for axis in range(3)
        )
    ]
    assert np.array_equal(restrict(fine, ndim), interior)


@settings(max_examples=40)
@given(data=st.data())
def test_restrict_conserves_sum_over_random_regions_property(data):
    """Property: restriction conserves the volume-weighted total for any
    refined region shape, dimensionality, and component count."""
    ndim = data.draw(st.integers(1, 3), label="ndim")
    ncomp = data.draw(st.integers(1, 4), label="ncomp")
    extents = tuple(
        data.draw(st.sampled_from([2, 4, 6, 8]), label=f"extent{axis}")
        for axis in range(ndim)
    )
    shape = (ncomp,) + (1,) * (3 - ndim) + extents
    fine = data.draw(
        hnp.arrays(
            np.float64,
            shape,
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        label="fine",
    )
    coarse = restrict(fine, ndim)
    # Each coarse cell has 2^ndim times the fine-cell volume.
    assert coarse.sum() * 2 ** ndim == pytest.approx(
        fine.sum(), rel=1e-9, abs=1e-5
    )
