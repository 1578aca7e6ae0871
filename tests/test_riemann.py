"""Tests for the Burgers HLL/LLF Riemann solvers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.riemann import (
    hll_flux,
    llf_flux,
    physical_flux,
    wave_speeds,
)


def state(u1, q0=1.0, nvel=1):
    out = np.zeros((nvel + 1, 1))
    out[0, 0] = u1
    out[nvel, 0] = q0
    return out


class TestPhysicalFlux:
    def test_momentum_flux(self):
        u = state(2.0)
        f = physical_flux(u, 0, nvel=1)
        assert f[0, 0] == pytest.approx(0.5 * 2.0 * 2.0)

    def test_scalar_flux(self):
        u = state(2.0, q0=3.0)
        f = physical_flux(u, 0, nvel=1)
        assert f[1, 0] == pytest.approx(3.0 * 2.0)

    def test_transverse_component(self):
        u = np.zeros((3 + 1, 1))
        u[0, 0] = 2.0  # u1
        u[1, 0] = 4.0  # u2
        f = physical_flux(u, 0, nvel=3)
        # flux of u2 in direction 1 is 0.5 * u2 * u1.
        assert f[1, 0] == pytest.approx(0.5 * 4.0 * 2.0)


class TestWaveSpeeds:
    def test_bracket_zero(self):
        sl, sr = wave_speeds(state(1.0), state(2.0), 0)
        assert sl[0] == 0.0 and sr[0] == 2.0
        sl, sr = wave_speeds(state(-2.0), state(-1.0), 0)
        assert sl[0] == -2.0 and sr[0] == 0.0


class TestHll:
    def test_supersonic_right_is_upwind(self):
        ul, ur = state(2.0), state(1.0)
        f = hll_flux(ul, ur, 0, nvel=1)
        # Both speeds >= 0: flux must be F(UL).
        np.testing.assert_allclose(f, physical_flux(ul, 0, 1))

    def test_supersonic_left_is_upwind(self):
        ul, ur = state(-1.0), state(-2.0)
        f = hll_flux(ul, ur, 0, nvel=1)
        np.testing.assert_allclose(f, physical_flux(ur, 0, 1))

    def test_quiescent_interface_zero_flux(self):
        f = hll_flux(state(0.0), state(0.0), 0, nvel=1)
        np.testing.assert_allclose(f, 0.0)

    def test_consistency(self):
        # F(U, U) == F(U) for any state.
        u = state(1.5, q0=2.0)
        f = hll_flux(u, u, 0, nvel=1)
        np.testing.assert_allclose(f, physical_flux(u, 0, 1))

    def test_expansion_fan_dissipates(self):
        ul, ur = state(-1.0), state(1.0)
        f = hll_flux(ul, ur, 0, nvel=1)
        # Symmetric expansion: HLL gives the average of the two physical
        # momentum fluxes plus the jump term.
        expected = (1.0 * 0.5 - (-1.0) * 0.5 + (-1.0) * 1.0 * 2.0) / 2.0
        assert f[0, 0] == pytest.approx(expected)


class TestLlf:
    def test_consistency(self):
        u = state(0.7, q0=4.0)
        f = llf_flux(u, u, 0, nvel=1)
        np.testing.assert_allclose(f, physical_flux(u, 0, 1))

    def test_more_dissipative_than_hll_on_jump(self):
        ul, ur = state(1.0, q0=2.0), state(1.0, q0=0.0)
        f_hll = hll_flux(ul, ur, 0, nvel=1)
        f_llf = llf_flux(ul, ur, 0, nvel=1)
        # HLL with positive speeds is pure upwind; LLF adds diffusion but
        # here equals it since |u| is the wave speed on both sides.
        assert f_llf[1, 0] == pytest.approx(f_hll[1, 0])


@settings(max_examples=50)
@given(
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
    st.floats(0.1, 5, allow_nan=False),
)
def test_hll_consistency_property(u1, u2, q):
    """Property: equal states reproduce the physical flux exactly."""
    u = state(u1, q0=q)
    f = hll_flux(u, u, 0, nvel=1)
    np.testing.assert_allclose(f, physical_flux(u, 0, 1), atol=1e-12)


@settings(max_examples=50)
@given(st.floats(0.01, 5), st.floats(0.01, 5))
def test_hll_upwind_when_flow_positive(ul1, ur1):
    """Property: strictly positive flow on both sides -> left upwind flux."""
    ul, ur = state(ul1, q0=2.0), state(ur1, q0=3.0)
    f = hll_flux(ul, ur, 0, nvel=1)
    np.testing.assert_allclose(f, physical_flux(ul, 0, 1), atol=1e-12)
