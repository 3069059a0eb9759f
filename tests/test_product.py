"""Modified scalar product: orthogonality, series form, two-pole fixtures."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mp_difference_quotient, mp_modified_product, radial_overlap_quadrature
from resokit import bound
from resokit.contact import PhaseShiftModel
from resokit.errors import InvalidInput, KindMismatch, SingularSystem
from resokit.product import (
    ContactEigenstate,
    construct_two_pole_model,
    modified_product,
    modified_product_series,
    plain_overlap_bound,
    reg_matrix_element,
)

CONST = PhaseShiftModel.from_effective_range(1.0)
EFF = PhaseShiftModel.from_effective_range(1.0, 1.0)


def bound_state(energy, amplitude=1.0):
    return ContactEigenstate.bound(energy, amplitude)


class TestEigenstate:
    def test_kind_validation(self):
        with pytest.raises(InvalidInput):
            ContactEigenstate.bound(0.5, 1.0)
        with pytest.raises(InvalidInput):
            ContactEigenstate.scattering(-0.5, 1.0)

    def test_kind_follows_energy(self):
        assert ContactEigenstate(-0.5, 1.0).kind == "bound"
        assert ContactEigenstate(0.0, 1.0).kind == "scattering"
        assert ContactEigenstate.scattering(2.0, 1.0).kind == "scattering"

    def test_q_accessor(self):
        s = bound_state(-4.0)
        assert s.q == pytest.approx(2.0, rel=1e-15)
        with pytest.raises(KindMismatch):
            _ = ContactEigenstate.scattering(1.0, 1.0).q

    def test_from_bound_state(self):
        state = bound.find_bound_states(CONST, q_max=10.0)[0]
        s = ContactEigenstate.from_bound_state(state)
        assert s.amplitude == pytest.approx(math.sqrt(state.a2), rel=1e-15)
        assert s.energy == state.energy


class TestPlainOverlap:
    def test_equal_states(self):
        s = bound_state(-1.0)
        assert plain_overlap_bound(s, s) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_mixed_decay_constants(self):
        s1 = bound_state(-0.25)   # q = 0.5
        s2 = bound_state(-1.0)    # q = 1.0
        expected = 4.0 * math.pi / 1.5
        assert expected == pytest.approx(8.3775804095727813, rel=1e-15)
        assert plain_overlap_bound(s1, s2) == pytest.approx(expected, rel=1e-14)

    def test_against_radial_quadrature(self):
        s1 = bound_state(-0.49, 0.8)   # q = 0.7
        s2 = bound_state(-2.25, 1.3)   # q = 1.5
        oracle = radial_overlap_quadrature(0.7, 1.5, 0.8, 1.3)
        assert plain_overlap_bound(s1, s2).real == pytest.approx(oracle, rel=1e-10)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            plain_overlap_bound(bound_state(-1.0), ContactEigenstate.scattering(1.0, 1.0))


class TestModifiedProduct:
    def test_same_model_states_orthogonal(self):
        model = construct_two_pole_model(0.5, 1.0)
        s1 = bound_state(-0.25)
        s2 = bound_state(-1.0)
        plain = plain_overlap_bound(s1, s2)
        assert abs(modified_product(model, s1, s2, plain)) < 1e-12 * abs(plain)

    def test_constant_model_passthrough(self):
        s1 = bound_state(-1.0, 0.3 + 0.4j)
        s2 = bound_state(-2.0, -1.1)
        plain = 1.23 - 0.5j
        assert modified_product(CONST, s1, s2, plain) == plain

    def test_linear_model_subtraction_value(self):
        # D = -R* for the two-term model, so the subtraction adds +4 pi R*
        s1 = bound_state(-1.0)
        s2 = bound_state(-2.0)
        got = modified_product(EFF, s1, s2, 0.0j)
        assert got.real == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert got.imag == 0.0

    def test_degenerate_branch_uses_derivative(self):
        s = bound_state(-1.5, 1.0)
        got = modified_product(EFF, s, s, 0.0j)
        # g' = -1 for the two-term model with R* = 1
        assert got.real == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_degenerate_limit_linear_in_h(self):
        model = PhaseShiftModel((-1.0, 0.5, 0.8))  # needs curvature
        e = -1.0
        base = modified_product(model, bound_state(e), bound_state(e), 0.0j)
        diffs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            shifted = modified_product(model, bound_state(e), bound_state(e + h), 0.0j)
            diffs.append(abs(shifted - base))
        for d1, d2 in zip(diffs, diffs[1:]):
            assert 1.8 < d1 / d2 < 2.2

    def test_near_degenerate_against_mpmath(self):
        # relative energy gaps 1e-9 to 1e-12: synthetic division does not
        # cancel the way the literal quotient does
        coeffs = (-1.0, 0.5, 0.8, -0.3)
        model = PhaseShiftModel(coeffs)
        prefactor = 4.0 * math.pi
        for e in (-0.3, -1.7):
            for gap in (1e-9, 1e-10, 1e-11, 1e-12):
                e2 = e * (1.0 + gap)
                got = modified_product(model, bound_state(e), bound_state(e2), 0.0j)
                expected = -prefactor * mp_difference_quotient(coeffs, e, e2)
                assert abs(got.real - expected) <= 1e-13 * abs(expected)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = PhaseShiftModel(tuple(rng.uniform(-2.0, 2.0, 5)))
            s1 = bound_state(-rng.uniform(0.1, 3.0), complex(*rng.normal(size=2)))
            s2 = bound_state(-rng.uniform(0.1, 3.0), complex(*rng.normal(size=2)))
            plain = complex(*rng.normal(size=2))
            lhs = modified_product(model, s1, s2, plain)
            rhs = modified_product(model, s2, s1, plain.conjugate()).conjugate()
            assert cmath.isclose(lhs, rhs, rel_tol=1e-13, abs_tol=1e-13)


def _exact_quotient(coeffs, e1, e2):
    """(g(e1) - g(e2))/(e1 - e2), or g'(e1) at e1 = e2, in exact rationals."""
    cs = [Fraction(c) for c in coeffs]
    x1, x2 = Fraction(e1), Fraction(e2)
    if x1 == x2:
        return sum(n * c * x1 ** (n - 1) for n, c in enumerate(cs) if n >= 1)

    def g(x):
        return sum(c * x**n for n, c in enumerate(cs))

    return (g(x1) - g(x2)) / (x1 - x2)


class TestDifferenceQuotient:
    @pytest.mark.parametrize("degree", range(9))
    def test_against_exact_rationals(self, degree):
        # Forward error within 2N u sum_n |c_n| sum_p |e1|^(n-p) |e2|^(p-1):
        # N multiply-adds for the partial sums and N for the outer Horner
        # pass. Energies are equal, relatively 1e-12..1e-2 apart or drawn
        # independently, with both signs.
        rng = np.random.default_rng(500 + degree)
        u = 2.0**-53
        for trial in range(600):
            coeffs = tuple(rng.uniform(-2.0, 2.0, degree + 1).tolist())
            e1 = (-1.0, 1.0)[rng.integers(2)] * 10.0 ** rng.uniform(-2.0, 1.0)
            mode = trial % 4
            if mode == 0:
                e2 = e1
            elif mode == 1:
                e2 = e1 * (1.0 + (-1.0, 1.0)[rng.integers(2)] * 10.0 ** rng.uniform(-12.0, -2.0))
            else:
                e2 = (-1.0, 1.0)[rng.integers(2)] * 10.0 ** rng.uniform(-2.0, 1.0)
            scale = sum(
                abs(coeffs[n]) * abs(e1) ** (n - p) * abs(e2) ** (p - 1)
                for n in range(1, degree + 1)
                for p in range(1, n + 1)
            )
            got = PhaseShiftModel(coeffs).difference_quotient(e1, e2)
            err = abs(Fraction(got) - _exact_quotient(coeffs, e1, e2))
            assert err <= 2 * degree * u * scale, (coeffs, e1, e2)
            if degree <= 1:  # 0.0 and c_1, bit for bit
                assert got.hex() == (coeffs[1] if degree else 0.0).hex()


class TestRegMatrixElement:
    def test_zero_power_vanishes(self):
        s = bound_state(-0.5, 2.0 + 1.0j)
        assert reg_matrix_element(s, 0) == 0.0j

    def test_first_power_energy_independent(self):
        for energy in (-0.5, -2.0):
            s = bound_state(energy, 1.0)
            assert reg_matrix_element(s, 1) == pytest.approx(-4.0 * math.pi, rel=1e-15)

    def test_cubic_power_value(self):
        s = bound_state(-0.5, 1.0)
        assert reg_matrix_element(s, 3).real == pytest.approx(-math.pi, rel=1e-15)

    def test_threshold_scattering_state(self):
        s = ContactEigenstate.scattering(0.0, 1.0)
        assert reg_matrix_element(s, 1) == pytest.approx(-4.0 * math.pi, rel=1e-15)
        assert reg_matrix_element(s, 2) == 0.0j

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidInput):
            reg_matrix_element(bound_state(-1.0), -1)


class TestSeriesEquivalence:
    def test_constant_model_empty_sum(self):
        s1 = bound_state(-1.0)
        s2 = bound_state(-2.0)
        assert modified_product_series(CONST, s1, s2, 0.5 + 0.5j) == 0.5 + 0.5j

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=9),
        e1=st.floats(min_value=-10.0, max_value=10.0),
        e2=st.floats(min_value=-10.0, max_value=10.0),
        re1=st.floats(min_value=-2.0, max_value=2.0),
        im2=st.floats(min_value=-2.0, max_value=2.0),
    )
    # e1 ~ -e2 with a degree-8 model: the two routes differ by 1.6e-9 and
    # both sit 1e-9 and 5e-10 off the exact value, because the sums cancel.
    @example(coeffs=[0.0] * 7 + [1.8828125, 1.140625], e1=7.152977259412175,
             e2=-7.5703125, re1=0.0, im2=0.0)
    def test_series_equals_quotient(self, coeffs, e1, e2, re1, im2):
        # Both routes are finite sums (the double series, and the quotient by
        # synthetic division), so each must lie within the forward rounding
        # bound gamma_k * scale of the exact value, k counting the roundings
        # along the longest chain (powers, inner and outer sums, the complex
        # prefactor and the subtraction).
        model = PhaseShiftModel(tuple(coeffs))
        s1 = _any_state(e1, complex(re1, 0.3))
        s2 = _any_state(e2, complex(0.7, im2))
        plain = 0.25 - 1.5j
        exact, scale = mp_modified_product(
            model.coeffs, s1.energy, s1.amplitude, s2.energy, s2.amplitude, plain
        )
        k = 4 * model.degree + 16
        u = np.finfo(float).eps / 2.0
        bound = k * u / (1.0 - k * u) * scale
        for route in (modified_product, modified_product_series):
            assert abs(route(model, s1, s2, plain) - exact) <= bound, route.__name__

    def test_exactly_degenerate_energies_agree(self):
        model = PhaseShiftModel((-1.0, 0.7, -0.3, 0.2))
        s1 = bound_state(-0.8, 1.0 + 0.2j)
        s2 = bound_state(-0.8, 0.5 - 0.1j)
        lhs = modified_product(model, s1, s2, 1.0 + 0.0j)
        rhs = modified_product_series(model, s1, s2, 1.0 + 0.0j)
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)


def _any_state(energy, amplitude):
    if energy < 0.0:
        return ContactEigenstate.bound(energy, amplitude)
    return ContactEigenstate.scattering(energy, amplitude)


class TestTwoPoleModel:
    def test_coincident_poles_rejected(self):
        with pytest.raises(SingularSystem):
            construct_two_pole_model(1.0, 1.0)
        with pytest.raises(InvalidInput):
            construct_two_pole_model(-0.5, 1.0)

    def test_round_trip_through_finder(self):
        model = construct_two_pole_model(0.5, 1.0)
        states = bound.find_bound_states(model, q_max=5.0)
        assert len(states) == 2
        assert states[0].q == pytest.approx(0.5, rel=1e-12)
        assert states[1].q == pytest.approx(1.0, rel=1e-12)

    def test_orthogonality_of_constructed_pair(self):
        model = construct_two_pole_model(0.5, 1.0)
        s1 = bound_state(-0.25)
        s2 = bound_state(-1.0)
        plain = plain_overlap_bound(s1, s2)
        assert abs(modified_product(model, s1, s2, plain)) < 1e-12 * abs(plain)

    def test_pole_conditions_satisfied(self):
        model = construct_two_pole_model(0.3, 2.1)
        for q in (0.3, 2.1):
            assert model.g(-q * q) + q == pytest.approx(0.0, abs=1e-14)
