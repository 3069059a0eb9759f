"""Scattering observables: amplitude, phase shift, cross section, unitarity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mp_amplitude, mp_arccot
from resokit import scattering
from resokit.contact import PhaseShiftModel
from resokit.errors import DivergentAmplitude, InvalidInput

CONST = PhaseShiftModel.from_effective_range(1.0)
EFF = PhaseShiftModel.from_effective_range(1.0, 1.0)
UNITARY = PhaseShiftModel((0.0,))  # g identically zero
DEG6 = PhaseShiftModel((-0.73, 1.21, -0.44, 0.9, -1.37, 0.25, 0.61))


class TestAmplitude:
    def test_threshold_value(self):
        assert scattering.amplitude(CONST, 0.0) == complex(-1.0, 0.0)

    def test_const_model_at_unit_wavenumber(self):
        f = scattering.amplitude(CONST, 1.0)
        assert f == pytest.approx(complex(-0.5, 0.5), rel=1e-15)

    def test_effective_range_against_mp(self):
        f = scattering.amplitude(EFF, 0.7)
        expected = mp_amplitude(EFF.coeffs, 0.7)
        assert expected == pytest.approx(complex(-0.54979521050883731, 0.25829305191690344), rel=1e-15)
        assert abs(f - expected) / abs(expected) < 1e-14

    def test_zero_energy_resonance_raises(self):
        with pytest.raises(DivergentAmplitude):
            scattering.amplitude(UNITARY, 0.0)

    def test_negative_wavenumber_rejected(self):
        with pytest.raises(InvalidInput):
            scattering.amplitude(CONST, -0.1)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "observable", [scattering.amplitude, scattering.phase_shift, scattering.cross_section]
    )
    def test_non_finite_wavenumber_rejected(self, observable, k):
        with pytest.raises(InvalidInput):
            observable(CONST, k)

    def test_threshold_error_is_quadratic(self):
        # Re f + a shrinks by 4 when k halves
        errors = [abs(scattering.amplitude(EFF, k).real + 1.0) for k in (0.02, 0.01, 0.005)]
        for e1, e2 in zip(errors, errors[1:]):
            assert 3.5 < e1 / e2 < 4.5


class TestPhaseShift:
    def test_const_model_three_quarter_pi(self):
        assert scattering.phase_shift(CONST, 1.0) == pytest.approx(0.75 * math.pi, rel=1e-15)

    def test_unitarity_limit_half_pi(self):
        for k in (0.1, 1.0, 10.0):
            assert scattering.phase_shift(UNITARY, k) == pytest.approx(0.5 * math.pi, rel=1e-15)

    def test_against_arccot_oracle(self):
        k = 0.5
        expected = mp_arccot(EFF.g(k * k) / k)
        assert expected == pytest.approx(2.7610862764774284, rel=1e-15)
        assert scattering.phase_shift(EFF, k) == pytest.approx(expected, rel=1e-14)

    def test_branch_is_open_zero_pi(self):
        for model in (CONST, EFF, DEG6):
            for k in np.geomspace(1e-3, 1e3, 50):
                delta = scattering.phase_shift(model, float(k))
                assert 0.0 < delta <= math.pi

    def test_continuity_through_resonance(self):
        # g(E) = 1 - E crosses zero at k = 1, where delta passes pi/2
        model = PhaseShiftModel.from_effective_range(-1.0, 1.0)
        ks = np.linspace(0.5, 1.5, 2001)
        deltas = np.array([scattering.phase_shift(model, float(k)) for k in ks])
        assert np.max(np.abs(np.diff(deltas))) < 0.01
        mid = scattering.phase_shift(model, 1.0)
        assert mid == pytest.approx(0.5 * math.pi, rel=1e-15)


class TestCrossSection:
    def test_unitarity_limit(self):
        for k in (0.5, 2.0):
            assert scattering.cross_section(UNITARY, k) == pytest.approx(
                4.0 * math.pi / k**2, rel=1e-14
            )

    def test_identical_flag_doubles(self):
        sigma = scattering.cross_section(CONST, 0.7)
        sigma_id = scattering.cross_section(CONST, 0.7, identical=True)
        assert sigma_id == pytest.approx(2.0 * sigma, rel=1e-15)

    def test_const_model_value(self):
        assert scattering.cross_section(CONST, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-14)


class TestUnitarity:
    def test_reference_models(self):
        for model in (CONST, EFF, UNITARY, DEG6):
            for k in (0.1, 1.0, 10.0):
                assert scattering.unitarity_residual(model, k) < 1e-13

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=7),
        k=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_optical_theorem_property(self, coeffs, k):
        model = PhaseShiftModel(tuple(coeffs))
        assert scattering.unitarity_residual(model, k) < 1e-13
        # unitarity bound |f| <= 1/k
        assert abs(scattering.amplitude(model, k)) <= (1.0 / k) * (1.0 + 1e-13)

    def test_amplitude_phase_consistency(self):
        # |f| = sin(delta)/k for every model and wavenumber
        for model in (CONST, EFF, DEG6):
            for k in (0.3, 1.1, 4.0):
                f = scattering.amplitude(model, k)
                delta = scattering.phase_shift(model, k)
                assert abs(f) == pytest.approx(math.sin(delta) / k, rel=1e-12)
