"""Scattering observables: amplitude, phase shift, cross section, unitarity, the table."""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mp_amplitude, mp_arccot
from resokit import cli, scattering
from resokit.contact import PhaseShiftModel
from resokit.errors import InvalidInput, NumericalFailure, ResokitError

CONST = PhaseShiftModel.from_effective_range(1.0)
EFF = PhaseShiftModel.from_effective_range(1.0, 1.0)
UNITARY = PhaseShiftModel((0.0,))  # g identically zero
DEG6 = PhaseShiftModel((-0.73, 1.21, -0.44, 0.9, -1.37, 0.25, 0.61))


def unitarity_residual(model, k):
    """|Im(1/f) + k| / k of a model at wavenumbers k > 0."""
    k = np.asarray(k, dtype=float)
    return scattering.unitarity_kernel(k, model.g(k * k))


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
        with pytest.raises(NumericalFailure):
            scattering.amplitude(UNITARY, 0.0)

    def test_negative_wavenumber_rejected(self):
        with pytest.raises(InvalidInput):
            scattering.amplitude(CONST, -0.1)

    @pytest.mark.parametrize("k", [math.nan, math.inf, 1e160])
    @pytest.mark.parametrize(
        "observable", [scattering.amplitude, scattering.phase_shift, scattering.cross_section]
    )
    def test_non_finite_wavenumber_rejected(self, observable, k):
        with pytest.raises(InvalidInput):
            observable(CONST, k)

    def test_arrays_keep_shape_and_scalar_types(self):
        ks = np.array([[0.0, 0.5], [1.0, 2.0]])
        columns = scattering.table(EFF, ks)
        listed = scattering.table(EFF, [1.0])
        assert len(columns) == len(listed) == 6
        for column, (value,) in zip(columns, listed):
            assert column.shape == ks.shape and column.dtype == float
            assert column[1, 0] == value and type(value) is float
        assert type(scattering.amplitude(EFF, 1.0)) is complex
        assert type(scattering.phase_shift(EFF, 1.0)) is float
        assert type(scattering.cross_section(EFF, 1.0)) is float
        # one wavenumber per call: an array of them is float()'s TypeError
        for observable in (scattering.amplitude, scattering.phase_shift,
                           scattering.cross_section):
            with pytest.raises(TypeError):
                observable(EFF, ks[1])

    @pytest.mark.parametrize(
        "observable", [scattering.amplitude, scattering.phase_shift, scattering.cross_section]
    )
    def test_int_past_the_float_range_rejected(self, observable):
        # float() raised OverflowError where 10**200 (a finite float) was rejected
        for k in (10**400, -(10**400), 10**200):
            with pytest.raises(InvalidInput, match="wavenumber must be finite"):
                observable(CONST, k)
        with pytest.raises(InvalidInput, match="finite and nonnegative"):
            scattering.table(CONST, [0.5, 10**400])

    @pytest.mark.parametrize(
        "model, ks, error",
        [
            (UNITARY, [0.0, 1e200], NumericalFailure),
            (UNITARY, [-1.0, 0.0], InvalidInput),
            (CONST, [0.5, 1e200], InvalidInput),
            (CONST, [0.5, math.nan, 1.0], InvalidInput),
        ],
    )
    def test_first_offending_point_decides(self, model, ks, error):
        # as if the points were evaluated one by one, in order
        outcomes = set()
        for route in (list, np.array):
            with pytest.raises(error) as err:
                scattering.table(model, route(ks))
            outcomes.add(str(err.value))
        with pytest.raises(error) as err:
            for k in ks:
                scattering.amplitude(model, k)
        assert outcomes == {str(err.value)}

    @pytest.mark.parametrize(
        "model, ks, error",
        [
            (CONST, (10**400,), InvalidInput),
            (CONST, (0.5, -(10**400)), InvalidInput),
            (UNITARY, (0.0, 10**400), NumericalFailure),
            (UNITARY, (10**400, 0.0), InvalidInput),
            (UNITARY, ((0.5,), (10**400,), (0.0,)), InvalidInput),
        ],
        ids=["alone", "after-a-point", "threshold-first", "int-first", "nested"],
    )
    def test_int_past_the_float_range_in_a_sequence(self, model, ks, error):
        # numpy's float conversion raised OverflowError; the first offending
        # point decides, as on the list route
        with pytest.raises(error) as err:
            scattering.table(model, ks)
        with pytest.raises(error) as expected:
            scattering.table(model, np.asarray(ks, dtype=object).ravel().tolist())
        assert str(err.value) == str(expected.value)

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
                assert unitarity_residual(model, k) < 1e-13

    def test_residual_array_matches_scalar_complex_division(self):
        # the reference divides with CPython's complex arithmetic, point by point
        ks = np.geomspace(1e-2, 1e2, 200)
        expected = []
        for k in ks.tolist():
            f = -1.0 / complex(-DEG6.g(k * k), k)
            expected.append(abs((1.0 / f).imag + k) / k)
        assert unitarity_residual(DEG6, ks).tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=7),
        k=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_optical_theorem_property(self, coeffs, k):
        model = PhaseShiftModel(tuple(coeffs))
        assert unitarity_residual(model, k) < 1e-13
        # unitarity bound |f| <= 1/k
        assert abs(scattering.amplitude(model, k)) <= (1.0 / k) * (1.0 + 1e-13)

    def test_amplitude_phase_consistency(self):
        # |f| = sin(delta)/k for every model and wavenumber
        for model in (CONST, EFF, DEG6):
            for k in (0.3, 1.1, 4.0):
                f = scattering.amplitude(model, k)
                delta = scattering.phase_shift(model, k)
                assert abs(f) == pytest.approx(math.sin(delta) / k, rel=1e-12)


class TestScalarRoute:
    """The table's list and array routes give the same bits and errors, and
    the list route those of the one-number observables."""

    @staticmethod
    def outcome(call):
        try:
            columns = call()
        except ResokitError as exc:
            return type(exc), str(exc)
        return [[value.hex() for value in np.asarray(column, dtype=float).tolist()]
                for column in columns]

    @staticmethod
    def observables(model, k, identical):
        """The row of one wavenumber from amplitude, phase_shift and cross_section."""
        f = scattering.amplitude(model, k)
        if not k > 0.0:
            return [k, k * k, f.real, f.imag, math.nan, math.nan]
        sigma = scattering.cross_section(model, k, identical)
        return [k, k * k, f.real, f.imag, scattering.phase_shift(model, k), sigma]

    def assert_routes_agree(self, model, ks):
        for identical in (False, True):
            listed = [self.outcome(lambda: scattering.table(model, [k], identical)) for k in ks]
            for k, row in zip(ks, listed):
                array = self.outcome(lambda: scattering.table(model, np.array([k]), identical))
                scalar = self.outcome(lambda: [[v] for v in self.observables(model, k, identical)])
                assert row == array == scalar, (model.coeffs, k, identical)
            # many points at once: the array's masks and the list's rows agree
            good = [k for k, row in zip(ks, listed) if isinstance(row, list)]
            assert self.outcome(lambda: scattering.table(model, good, identical)) == self.outcome(
                lambda: scattering.table(model, np.array(good), identical))
            columns = scattering.table(model, good, identical)
            assert all(type(value) is float for column in columns for value in column)

    @staticmethod
    def models():
        # degree 0-4, coefficients over 10^+-300 with some zeros, and of order 1
        rng = np.random.default_rng(29)
        for degree in range(5):
            for exponent in [300] * 8 + [0] * 8:
                coeffs = rng.choice([-1.0, 1.0], degree + 1) * 10.0 ** rng.uniform(
                    -exponent, exponent, degree + 1) * rng.uniform(1.0, 3.0, degree + 1)
                coeffs[rng.random(degree + 1) < 0.1] = 0.0
                yield PhaseShiftModel(tuple(coeffs.tolist()))

    def test_bits_and_errors_agree(self):
        rng = np.random.default_rng(2029)
        fixed = [0.0, 5e-324, 3.3e-309, 1e154, 1.3e154, 1e308]
        bad = [-1.0, -math.inf, math.inf, math.nan, 1e155]
        for model in self.models():
            drawn = 10.0 ** np.concatenate([rng.uniform(-320, 154, 12), rng.uniform(-2, 2, 12)])
            self.assert_routes_agree(model, fixed + bad + drawn.tolist())
            for k in bad:
                with pytest.raises(InvalidInput, match="finite and nonnegative"):
                    scattering.amplitude(model, k)
        # |Re f| ~ |Im f|, where a modulus by math.hypot would differ in the last bit
        for c0 in rng.uniform(-3.0, 3.0, 40).tolist():
            self.assert_routes_agree(PhaseShiftModel((c0,)), rng.uniform(0.1, 3.0, 25).tolist())

    def test_zero_energy_resonance_and_overflowing_modulus(self):
        # g(0) = 0 at k = 0 raises on both routes
        for model in (UNITARY, PhaseShiftModel((0.0, 1.0))):
            self.assert_routes_agree(model, [0.0, 0.5])
            with pytest.raises(NumericalFailure, match="zero-energy resonance"):
                scattering.amplitude(model, 0.0)
        # both parts of f are finite, its modulus is not
        model = PhaseShiftModel((-3.3e-309,))
        self.assert_routes_agree(model, [3.3e-309])
        assert scattering.cross_section(model, 3.3e-309) == math.inf

    def test_threshold_overflow_is_silent(self):
        # Re f = 1/g(0) overflows to -inf without a warning on either route
        model = PhaseShiftModel((-1e-312, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scattering.amplitude(model, 0.0) == complex(-math.inf, 0.0)
            for route in (list, np.array):
                _, _, re_f, im_f, _, _ = scattering.table(model, route([0.0, 1.0]))
                assert (re_f[0], im_f[0]) == (-math.inf, 0.0)


class TestTable:
    def test_g_is_evaluated_once_per_point(self, monkeypatch, capsys):
        # a list table evaluates g once per point, an array table once
        calls = []
        g = PhaseShiftModel.g

        def counted(model, energy):
            calls.append(np.size(energy))
            return g(model, energy)

        monkeypatch.setattr(PhaseShiftModel, "g", counted)
        monkeypatch.delenv("RESOKIT_CONFIG", raising=False)
        sweep = ["amplitude", "--a", "1", "--rstar", "0.5", "--min", "0", "--max", "2"]
        for argv, expected in [
            (sweep + ["--steps", "4"], [1] * 4),
            (sweep + ["--steps", "4", "--identical", "--format", "json"], [1] * 4),
            (["phase-shift", "--coeffs=-1,0.3", "--k", "0.5"], [1]),
            (sweep + ["--steps", str(cli.BLOCK_ROWS + 1), "--out", os.devnull],
             [cli.BLOCK_ROWS + 1]),
        ]:
            calls.clear()
            assert cli.main(argv) == 0
            assert calls == expected, argv
        capsys.readouterr()
        for ks, expected in [(np.linspace(0.0, 2.0, 7), [7]), ([0.0, 0.5, 1.0], [1] * 3)]:
            calls.clear()
            scattering.table(DEG6, ks, identical=True)
            assert calls == expected
