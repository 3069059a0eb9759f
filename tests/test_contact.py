"""Polynomial phase-function models."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mp_polyder, mp_polyval, richardson_derivative
from resokit.contact import PhaseShiftModel
from resokit.errors import InvalidInput

# fixed draw for the arbitrary-precision comparisons
DEG6_COEFFS = (-0.73, 1.21, -0.44, 0.9, -1.37, 0.25, 0.61)


class TestConstruction:
    def test_effective_range_cases(self):
        assert PhaseShiftModel.from_effective_range(1.0, 0.0).coeffs == (-1.0,)
        assert PhaseShiftModel.from_effective_range(2.0, 0.5).coeffs == (-0.5, -0.5)
        assert PhaseShiftModel.from_effective_range(-1.0, 1.0).coeffs == (1.0, -1.0)

    def test_zero_scattering_length_rejected(self):
        with pytest.raises(InvalidInput):
            PhaseShiftModel.from_effective_range(0.0, 1.0)

    def test_trailing_zeros_stripped(self):
        model = PhaseShiftModel((1.0, 2.0, 0.0, 0.0))
        assert model.coeffs == (1.0, 2.0)
        assert model.degree == 1
        assert PhaseShiftModel((0.0, 0.0)).coeffs == (0.0,)

    def test_empty_or_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            PhaseShiftModel(())
        with pytest.raises(InvalidInput):
            PhaseShiftModel((1.0, math.nan))

    def test_accessor_round_trip(self):
        model = PhaseShiftModel.from_effective_range(2.5, -0.75)
        assert model.coeffs == (-1.0 / 2.5, 0.75)

    @given(
        a=st.floats(min_value=0.05, max_value=50.0),
        rstar=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_accessor_round_trip_property(self, a, rstar):
        model = PhaseShiftModel.from_effective_range(a, rstar)
        c0, c1 = (*model.coeffs, 0.0)[:2]  # R* = 0 strips c_1
        assert -1.0 / c0 == pytest.approx(a, rel=1e-12)
        assert -c1 == pytest.approx(rstar, rel=1e-12, abs=1e-12)


class TestValue:
    def test_read_only(self):
        model = PhaseShiftModel((1.0, 2.0))
        with pytest.raises(AttributeError):
            model.coeffs = (3.0,)
        with pytest.raises(AttributeError):
            del model.coeffs
        with pytest.raises(AttributeError):
            model.extra = 1.0
        assert model.coeffs == (1.0, 2.0)

    @pytest.mark.parametrize("copy_of", [lambda m: pickle.loads(pickle.dumps(m)),
                                         copy.deepcopy, copy.copy])
    def test_copy_and_pickle(self, copy_of):
        back = copy_of(PhaseShiftModel((1.0, 2.0, 0.0)))
        assert type(back) is PhaseShiftModel
        assert back.coeffs == (1.0, 2.0)


class TestEvaluation:
    def test_constant_model(self):
        model = PhaseShiftModel.from_effective_range(1.0)
        for energy in (0.0, 0.3, 100.0):
            assert model.g(energy) == -1.0
            assert model.g_prime(energy) == 0.0

    def test_two_term_value(self):
        model = PhaseShiftModel.from_effective_range(2.0, 0.5)
        assert model.g(1.0) == pytest.approx(-1.0, rel=1e-15)
        assert model.g_prime(10.0) == pytest.approx(-0.5, rel=1e-15)

    def test_degree6_against_mp_horner(self):
        model = PhaseShiftModel(DEG6_COEFFS)
        expected = mp_polyval(DEG6_COEFFS, 0.37)
        assert expected == pytest.approx(-0.31932561366551, rel=1e-13)
        assert model.g(0.37) == pytest.approx(expected, rel=1e-14)

    def test_degree6_derivative_against_finite_differences(self):
        model = PhaseShiftModel(DEG6_COEFFS)
        fd = richardson_derivative(model.g, 0.37)
        exact = mp_polyder(DEG6_COEFFS, 0.37)
        assert exact == pytest.approx(1.025258460762, rel=1e-12)
        assert model.g_prime(0.37) == pytest.approx(exact, rel=1e-14)
        assert model.g_prime(0.37) == pytest.approx(fd, rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        coeffs=st.lists(
            st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=7
        ),
        energy=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_derivative_matches_finite_differences(self, coeffs, energy):
        model = PhaseShiftModel(tuple(coeffs))
        fd = richardson_derivative(model.g, energy, h0=1e-2)
        scale = max(abs(fd), abs(model.g_prime(energy)), 1.0)
        assert abs(model.g_prime(energy) - fd) / scale < 1e-8

