"""Two-channel resonance model: loop integral, mapping, bound state, identity."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    loop_imag_eta_oracle,
    mp_dawson,
    mp_effective_params,
    mp_loop_integral,
    mp_loop_integral_above,
    mp_norm_integral,
    mp_open_norm,
    mp_pole_bracket,
    mp_pole_energy,
    richardson_derivative,
)
from resokit import twochannel as tc
from resokit.bound import find_bound_states
from resokit.contact import PhaseShiftModel
from resokit.errors import (
    InvalidInput,
    NoBoundState,
    ParameterMismatch,
)
from resokit.verify import (
    BETA2_LIMIT,
    E_REFERENCE,
    Q_REFERENCE,
    fit_effective_params,
    loop_integral_quadrature,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def reference_params(eps=0.1, a=1.0, rstar=1.0):
    return tc.params_for_targets(a, rstar, eps)


class TestParams:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=0.0)
        with pytest.raises(InvalidInput):
            tc.TwoChannelParams(lam=0.0, e_mol=0.0, eps=0.1)
        with pytest.raises(InvalidInput):
            tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=0.1, mass=-1.0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"lam": math.nan}, {"lam": math.inf}, {"e_mol": math.inf},
            {"e_mol": math.nan}, {"eps": math.inf}, {"eps": math.nan},
            {"mass": math.inf}, {"eps": 1e160}, {"eps": 1e-300},
            {"lam": 1e200}, {"lam": 1e-200}, {"e_mol": 1e308}, {"e_mol": -1e308},
            {"lam": 1e150, "e_mol": 1e-300, "mass": 1e-300}, {"mass": 1e200},
            {"mass": 1e-200},
        ],
    )
    def test_non_finite_or_overflowing_rejected(self, fields):
        values = {"lam": 1.0, "e_mol": 0.0, "eps": 0.1, **fields}
        with pytest.raises(InvalidInput):
            tc.TwoChannelParams(**values)

    def test_form_factor(self):
        p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=2.0)
        assert p.chi(0.0) == 1.0
        assert p.chi(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_form_factor_past_an_overflowing_square(self):
        # (k eps)^2 = 1e310 overflows; chi underflows to 0
        assert tc.TwoChannelParams(1.0, 0.0, 0.1).chi(1e156) == 0.0


class TestLoopIntegral:
    def test_threshold_value(self):
        p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=1.0)
        expected = -SQRT_2PI / (4.0 * math.pi**2)
        assert expected == pytest.approx(-0.063493635934240969, rel=1e-15)
        got = tc.loop_integral(p, 0.0)
        assert got.imag == 0.0
        assert got.real == pytest.approx(expected, rel=1e-14)

    def test_quadrature_oracle_below_threshold(self):
        for eps in (0.1, 0.5, 1.0):
            p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=eps)
            for energy in (-100.0, -1.0, -1e-3, -1e-6):
                closed = tc.loop_integral(p, energy).real
                oracle = loop_integral_quadrature(p, energy)
                assert abs(closed - oracle) / abs(oracle) < 1e-10

    def test_quadrature_oracle_above_threshold(self):
        for eps in (0.2, 1.0):
            p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=eps)
            for energy in (1e-4, 0.3, 2.0, 30.0):
                closed = tc.loop_integral(p, energy).real
                oracle = loop_integral_quadrature(p, energy)
                assert abs(closed - oracle) / abs(oracle) < 1e-8

    @staticmethod
    def _worst_oracle_errors(masses, epses, magnitudes):
        """Worst relative error of the quadrature oracle below and above threshold."""
        worst = {-1.0: 0.0, 1.0: 0.0}
        for mass in masses:
            for eps in epses:
                p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=eps, mass=mass)
                for sign, magnitude in itertools.product(worst, magnitudes):
                    energy = sign * magnitude
                    mp_ref = mp_loop_integral if sign < 0 else mp_loop_integral_above
                    ref = float(mp_ref(eps, energy, mass))
                    got = loop_integral_quadrature(p, energy)
                    assert type(got) is float
                    worst[sign] = max(worst[sign], abs(got - ref) / abs(ref))
        return worst[-1.0], worst[1.0]

    def test_quadrature_oracle_against_mpmath_on_battery_grid(self):
        below, above = self._worst_oracle_errors(
            [1.0], [0.05, 0.1, 0.2, 0.5, 1.0], np.geomspace(1e-6, 100.0, 15).tolist()
        )
        assert below < 1e-14 and above < 1e-13

    def test_quadrature_oracle_against_mpmath_on_wide_grid(self):
        below, above = self._worst_oracle_errors(
            np.geomspace(1e-3, 1e3, 7).tolist(), np.geomspace(1e-3, 10.0, 9).tolist(),
            np.geomspace(1e-10, 1e4, 15).tolist(),
        )
        assert below < 1e-13 and above < 1e-11

    def test_imaginary_part_exact_form(self):
        p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=1.0)
        got = tc.loop_integral(p, 1.0).imag
        expected = -math.exp(-0.5) / (4.0 * math.pi)
        assert expected == pytest.approx(-0.048266176315026954, rel=1e-15)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_imaginary_part_against_eta_regularized_oracle(self):
        p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=1.0)
        for energy in (0.5, 1.0):
            oracle = loop_imag_eta_oracle(eps=1.0, energy=energy)
            assert tc.loop_integral(p, energy).imag == pytest.approx(oracle, rel=1e-6)

    def test_deep_energy_decay(self):
        p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=0.5)
        shallow = tc.loop_integral(p, -1e4).real
        deep = tc.loop_integral(p, -2e4).real
        assert shallow < 0.0 and deep < 0.0
        assert shallow / deep == pytest.approx(2.0, rel=0.05)  # ~ 1/E decay

    def test_against_mpmath_below_threshold(self):
        # x = kappa eps/sqrt(2) across both branches, incl. the series crossover
        xs = np.geomspace(1e-3, 1e6, 61).tolist() + [6.9, 7.0, 7.1, 24.0, 707.0]
        for eps in (0.1, 0.5, 1.0):
            p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=eps)
            for x in xs:
                energy = -((x * math.sqrt(2.0) / eps) ** 2)
                ref = float(mp_loop_integral(eps, energy))
                assert abs(tc.loop_integral(p, energy).real - ref) <= 1e-13 * abs(ref)

    def test_against_mpmath_above_threshold(self):
        # Re I = I(0) D'(x) at x = k0 eps/sqrt(2), across the Dawson
        # crossovers and up to x = 1e4, where 1 - 2x D(x) would cancel by
        # 2x^2. Re I changes sign at the maximum of D, x = 0.924; near it
        # only the absolute error is meaningful.
        xs = np.geomspace(1e-3, 1e4, 301).tolist() + [
            c * f for c in (tc.DAWSON_TAYLOR_X, tc.SERIES_X) for f in (1 - 1e-12, 1.0, 1 + 1e-12)
        ] + [8.9e3]
        for eps in (0.1, 1.0):
            p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=eps)
            loop_zero = tc.loop_integral(p, 0.0).real
            for x in xs:
                energy = (x * math.sqrt(2.0) / eps) ** 2
                ref = float(mp_loop_integral_above(eps, energy))
                tol = 1e-15 * abs(loop_zero) if abs(x - 0.924) < 0.05 else 1e-13 * abs(ref)
                assert abs(tc.loop_integral(p, energy).real - ref) <= tol, x

    def test_no_overflow_for_extreme_energies(self):
        p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=1.0)
        value = tc.loop_integral(p, -1e12)
        assert math.isfinite(value.real)


class TestNormIntegral:
    def test_against_mpmath_quadrature(self):
        # the bracket S of J = (m^2/(8 pi kappa)) S, which bound_state's
        # weight w = 2 lam^2 J carries, at x = kappa eps/sqrt(2) across both
        # branches, incl. the series crossover
        xs = list(np.geomspace(1e-4, 1e6, 41)) + [6.9, 7.0, 7.1, 9.5]
        for mass in (1.0, 2.5):
            p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=0.1, mass=mass)
            for x in xs:
                energy = -((float(x) * math.sqrt(2.0) / p.eps) ** 2) / mass
                kappa = mp.sqrt(-mp.mpf(mass) * mp.mpf(energy))
                j = mp_norm_integral(p.eps, energy, mass)
                ref = float(j * 8 * mp.pi * kappa / mp.mpf(mass) ** 2)
                shape = tc._shapes(p, tc._kappa(p, energy))[2]
                assert abs(shape - ref) <= 1e-11 * ref


class TestAmplitude:
    def test_unitarity_on_log_grid(self):
        p = reference_params(eps=0.1)
        for k0 in np.geomspace(1e-3, 10.0, 60):
            energy = float(k0) ** 2
            inv = tc.inverse_amplitude(p, energy)
            assert abs(inv.imag + k0) / k0 < 1e-12

    def test_far_above_threshold(self):
        # 1/chi(k0)^2 = exp(m E eps^2/2) overflows once m E eps^2/2 > 709.78
        p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=0.1)
        inv = tc.inverse_amplitude(p, 1e5)
        assert inv != 0.0 and math.isfinite(abs(inv))
        with pytest.raises(InvalidInput, match="overflows"):
            tc.inverse_amplitude(p, 1.5e5)

    def test_far_below_threshold(self):
        # -D exp(m E eps^2/2) with D = -12566.37 at E = -2000: the product is
        # below the float range, and a 0 would read as a pole
        p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=1.0)
        inv = tc.inverse_amplitude(p, -1400.0)
        assert inv.imag == 0.0 and 8e-301 < inv.real < 9e-301
        assert tc._denominator(p, -2000.0)[0] == pytest.approx(-12566.37, rel=1e-6)
        with pytest.raises(InvalidInput, match="underflows at E = -2000.0"):
            tc.inverse_amplitude(p, -2000.0)

    def test_threshold_matches_effective_scattering_length(self):
        p = reference_params(eps=0.1)
        a_eps, _ = tc.effective_params(p)
        inv0 = tc.inverse_amplitude(p, 0.0)
        assert inv0.imag == 0.0
        assert inv0.real == pytest.approx(-1.0 / a_eps, rel=1e-12)

    def test_against_quadrature_assembled_oracle(self):
        lam = math.sqrt(2.0 * math.pi)
        p = tc.TwoChannelParams(lam=lam, e_mol=0.0, eps=0.1)
        energy = 0.01
        k0 = math.sqrt(energy)
        loop_re = loop_integral_quadrature(p, energy)
        loop_im = -(k0 / (4.0 * math.pi)) * math.exp(-0.5 * (0.1 * k0) ** 2)
        chi2 = math.exp(-0.5 * (0.1 * k0) ** 2)
        bracket = (energy - p.e_mol) / (2.0 * lam**2) - complex(loop_re, loop_im)
        oracle = -(1.0 / (4.0 * math.pi)) * chi2 / bracket
        got = tc.inverse_amplitude(p, energy)
        assert abs(got - 1.0 / oracle) * abs(oracle) < 1e-8

    def test_inverse_vanishes_at_the_pole(self):
        # D is exactly 0 at bound_state's energy for these parameters
        p = reference_params(eps=0.1)
        state = tc.bound_state(p)
        inv = tc.inverse_amplitude(p, state.energy)
        assert inv == 0.0 and math.copysign(1.0, inv.real) == -1.0

    def test_near_threshold_at_large_a(self):
        # (E - e_mol)/(2 lam^2) and I(E) cancel to 1e-13 of either here; the
        # bracket sums B(0-) + E/(2 lam^2) - (I - I(0)) instead, so 1/f is the
        # effective-range one and nowhere near a pole
        p = tc.params_for_targets(1e10, 1.0, 1e-3)
        a_eps, _ = tc.effective_params(p)
        for energy in (1e-24, 1e-30):
            inv = tc.inverse_amplitude(p, energy)
            assert inv == pytest.approx(-(1.0 / a_eps + 1j * math.sqrt(energy)), rel=1e-12)

    @pytest.mark.parametrize(
        "a_range, eps_range",
        [((0.3, 30.0), (1e-3, 0.5)), ((1e2, 1e6), (1e-4, 1e-2)), ((1e6, 1e12), (1e-4, 1e-2))],
        ids=["targets", "a-much-larger-than-eps", "a-beyond-1e6"],
    )
    def test_bracket_against_mpmath(self, a_range, eps_range):
        # Re D = (4 pi/m) Re B on both sides of threshold, E = +-10^U(-10, 3)/eps^2
        rng = np.random.default_rng(46)
        log_a, log_eps = np.log10(a_range), np.log10(eps_range)
        worst = 0.0
        for _ in range(300):
            a = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(*log_a))
            p = tc.params_for_targets(
                a, float(10.0 ** rng.uniform(-1.0, 1.0)), float(10.0 ** rng.uniform(*log_eps))
            )
            energy = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10.0, 3.0) / p.eps**2)
            denominator = tc._denominator(p, energy)[0]
            with mp.workdps(80):
                bracket = mp_pole_bracket(p.lam, p.e_mol, p.eps, p.mass, energy, dps=80)
                ref = 4 * mp.pi / p.mass * bracket
            worst = max(worst, float(abs(denominator.real - ref) / abs(ref)))
        assert worst <= 2e-15

    def test_one_dawson_call_above_threshold(self, monkeypatch):
        calls = []
        dawson = tc._dawson

        def counted(x):
            calls.append(x)
            return dawson(x)

        monkeypatch.setattr(tc, "_dawson", counted)
        inv = tc.inverse_amplitude(reference_params(eps=0.1), 0.5)
        assert len(calls) == 1
        assert inv.imag == pytest.approx(-math.sqrt(0.5), rel=1e-12)


class TestEffectiveParams:
    def test_against_mpmath(self):
        # a_eps and rstar_eps from the exact B(0-), also at targets far
        # beyond what the float parameters resolve; the first draw is
        # two-channel params --a 1e9 --rstar 1 --eps 1e-3
        rng = np.random.default_rng(15)
        draws = [tc.params_for_targets(1e9, 1.0, 1e-3)] + [
            tc.params_for_targets(
                float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 300.0)),
                float(10.0 ** rng.uniform(-1.0, 1.0)), float(10.0 ** rng.uniform(-4.0, -2.0)),
                float(10.0 ** rng.uniform(-2.0, 2.0)),
            )
            for _ in range(300)
        ]
        for p in draws:
            values = tc.effective_params(p)
            refs = mp_effective_params(p.lam, p.e_mol, p.eps, p.mass)
            for value, ref in zip(values, refs):
                assert abs(value - ref) <= 4.0 * math.ulp(ref), (p, values, refs)

    def test_reference_values(self):
        p = tc.TwoChannelParams(lam=math.sqrt(2.0 * math.pi), e_mol=0.0, eps=0.1)
        a_eps, rstar_eps = tc.effective_params(p)
        assert a_eps == pytest.approx(0.12533141373155003, rel=1e-12)
        # lam^2 = 2 pi contributes exactly 1 to rstar
        expected_rstar = -math.sqrt(2.0 / math.pi) * 0.1 + 1.0 + 0.1**2 / (2.0 * a_eps)
        assert rstar_eps == pytest.approx(expected_rstar, rel=1e-12)

    def test_coupling_only_term(self):
        assert tc.rstar_from_lambda(math.sqrt(2.0 * math.pi)) == pytest.approx(1.0, rel=1e-15)

    def test_fit_route_agrees(self):
        for eps in (0.2, 0.05):
            p = reference_params(eps=eps)
            a_cf, r_cf = tc.effective_params(p)
            a_fit, r_fit = fit_effective_params(p)
            assert a_fit == pytest.approx(a_cf, rel=1e-8)
            assert r_fit == pytest.approx(r_cf, rel=1e-8)

    def test_zero_range_slope_of_rstar(self):
        # holding a_eps = 1: rstar_eps - R* = -sqrt(2/pi) eps + eps^2/2
        for eps in (0.2, 0.1, 0.05, 0.025):
            p = reference_params(eps=eps)
            _, rstar_eps = tc.effective_params(p)
            expected = 1.0 - math.sqrt(2.0 / math.pi) * eps + 0.5 * eps**2
            assert rstar_eps == pytest.approx(expected, rel=1e-12)


class TestParameterMaps:
    def test_lambda_from_rstar_values(self):
        assert tc.lambda_from_rstar(1.0) == pytest.approx(SQRT_2PI, rel=1e-15)
        assert tc.lambda_from_rstar(0.25) == pytest.approx(math.sqrt(8.0 * math.pi), rel=1e-15)

    def test_round_trip(self):
        for rstar in (0.3, 1.0, 7.5):
            lam = tc.lambda_from_rstar(rstar)
            assert tc.rstar_from_lambda(lam) == pytest.approx(rstar, rel=1e-14)

    def test_invalid_rstar(self):
        with pytest.raises(InvalidInput):
            tc.lambda_from_rstar(0.0)
        with pytest.raises(InvalidInput):
            tc.lambda_from_rstar(-1.0)

    @pytest.mark.parametrize(
        "call, args",
        [
            # m^2 R* and m^2 lam^2 underflow to 0, where 2 pi/(m^2 x) divided by zero
            (tc.lambda_from_rstar, (1e-320, 1e-160)),
            (tc.params_for_targets, (-1e100, 1e200, 3.0, 1e-320)),
            (tc.rstar_from_lambda, (1e100, 0.0)),
            # lam^2 overflows, which lam**2 raised as OverflowError
            (tc.rstar_from_lambda, (1e308, 1e308)),
        ],
    )
    def test_map_leaving_the_float_range_is_input_error(self, call, args):
        with pytest.raises(InvalidInput, match="leave"):
            call(*args)

    @pytest.mark.parametrize(
        "args, message",
        [
            *(((1.0, 1.0, eps), "regulator width eps must be positive")
              for eps in (0.0, -1.0, math.nan)),
            *(((1.0, 1.0, eps), "regulator width eps needs a finite, nonzero square")
              for eps in (math.inf, 1e-200)),
            *(((1.0, 1.0, 0.1, mass),
               f"lam^2 and R* = 2 pi/(m^2 lam^2) leave (0, inf) at 1.0, mass {mass!r}")
              for mass in (0.0, math.nan, math.inf)),
            ((1.0, 1.0, 0.1, -1.0), "mass must be positive and finite"),
            ((0.0, 1.0, 0.1), "target scattering length must be nonzero"),
        ],
    )
    def test_targets_rejected_before_the_emol_formula(self, args, message):
        # the checks and messages of a construction at e_mol = 0, run before
        # e_mol = (lam^2 m/(2 pi)) (sqrt(2/pi)/eps - 1/a) divides by eps or a
        with pytest.raises(InvalidInput) as err:
            tc.params_for_targets(*args)
        assert type(err.value) is InvalidInput and str(err.value) == message

    def test_emol_reference_value(self):
        emol = tc.emol_for_target_a(1.0, SQRT_2PI, 0.1)
        assert emol == pytest.approx(6.9788456080286536, rel=1e-14)

    def test_emol_round_trip(self):
        p = tc.TwoChannelParams(lam=1.7, e_mol=3.1, eps=0.2)
        a_eps, _ = tc.effective_params(p)
        assert tc.emol_for_target_a(a_eps, p.lam, p.eps) == pytest.approx(p.e_mol, rel=1e-12)

    def test_emol_grows_inversely_with_eps(self):
        # E_mol = C/eps - D at fixed target a; halving eps doubles C/eps
        lam = SQRT_2PI
        d = lam**2 / (2.0 * math.pi)  # the 1/a term for a = 1, m = 1
        values = []
        for eps in (0.1, 0.05, 0.025):
            values.append(tc.emol_for_target_a(1.0, lam, eps) + d)
        assert values[1] / values[0] == pytest.approx(2.0, rel=1e-12)
        assert values[2] / values[1] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "eps, mass, message",
        [
            *((eps, 1.0, "regulator width eps must be positive") for eps in (0.0, -0.1, math.nan)),
            *((eps, 1.0, "regulator width eps needs a finite, nonzero square")
              for eps in (1e-320, math.inf)),
            *((0.1, mass, "mass must be positive and finite") for mass in (0.0, math.inf)),
        ],
    )
    def test_emol_checks_width_and_mass_first(self, eps, mass, message):
        # eps = 0 divided by zero, and the others returned a number
        for a_target in (1.0, 0.0):
            with pytest.raises(InvalidInput) as err:
                tc.emol_for_target_a(a_target, 1.0, eps, mass)
            assert type(err.value) is InvalidInput and str(err.value) == message


class TestKernels:
    def test_erfcx_against_mpmath(self):
        rng = np.random.default_rng(41)
        xs = np.concatenate([
            10.0 ** rng.uniform(-8.0, math.log10(tc.SERIES_X), 1500),
            rng.uniform(0.0, tc.SERIES_X, 1500),
            [1e-8, 0.5, 1.0, 2.0, math.nextafter(tc.SERIES_X, 0.0)],
        ])
        worst = 0.0
        for x in map(float, xs):
            ref = mp.exp(mp.mpf(x) ** 2) * mp.erfc(mp.mpf(x))
            worst = max(worst, float(abs(tc._erfcx(x) - ref) / ref))
        assert worst <= 1e-15

    def test_dawson_against_mpmath(self):
        # [0, 1e6] with points on both sides of each crossover; D' is
        # checked away from its zero at x = 0.924, where it carries the
        # absolute rounding error of its terms.
        rng = np.random.default_rng(44)
        crossovers = [
            c * f for c in (tc.DAWSON_TAYLOR_X, tc.SERIES_X) for f in (1 - 1e-12, 1.0, 1 + 1e-12)
        ]
        xs = np.concatenate([
            10.0 ** rng.uniform(-8.0, 6.0, 1500),
            rng.uniform(0.0, 1.2 * tc.SERIES_X, 1500),
            crossovers,
            [math.nextafter(c, 0.0) for c in (tc.DAWSON_TAYLOR_X, tc.SERIES_X)],
            [1e-300, 1.0, 1e6],
        ])
        worst_d = worst_slope = 0.0
        for x in map(float, xs):
            d, slope = tc._dawson(x)
            ref_d, ref_slope = mp_dawson(x)
            worst_d = max(worst_d, float(abs(d - ref_d) / ref_d))
            if abs(x - 0.924) >= 0.05:
                worst_slope = max(worst_slope, float(abs(slope - ref_slope) / abs(ref_slope)))
        assert worst_d <= 2e-15
        assert worst_slope <= 1e-14
        assert tc._dawson(0.0) == (0.0, 1.0)

    def test_loop_scale_constant(self):
        with mp.workdps(100):
            ref = mp.sqrt(2 * mp.pi) / (4 * mp.pi**2)
            assert tc._LOOP_SCALE == float(ref)
            scaled = ref * 2**tc._LOOP_SCALE_BITS
            assert abs(tc._LOOP_SCALE_NUM - scaled) <= 0.5

    def test_threshold_bracket_correctly_rounded(self):
        # 1/a_eps = (4 pi/m) B(0-), with 4 pi as a float, including near-edge
        # draws, where e_mol/(2 lam^2) and -I(0) cancel to a few ulp of either
        rng = np.random.default_rng(42)
        for i in range(300):
            a = float(10.0 ** rng.uniform(-1.0, 17.0 if i % 2 else 2.0))
            p = tc.params_for_targets(
                a, float(rng.uniform(0.1, 10.0)), float(10.0 ** rng.uniform(-4.0, 0.0)),
                float(10.0 ** rng.uniform(-2.0, 2.0)),
            )
            with mp.workdps(80):
                lam, e_mol, eps, m = (mp.mpf(v) for v in (p.lam, p.e_mol, p.eps, p.mass))
                scale = mp.sqrt(2 * mp.pi) / (4 * mp.pi**2)
                ref = float(4 * math.pi / m * (scale * m / eps - e_mol / (2 * lam**2)))
            assert p._threshold[0] == ref

    @pytest.mark.parametrize(
        "a_range, eps_range, draws",
        [((0.3, 30.0), (1e-3, 0.5), 400), ((1e2, 1e6), (1e-4, 1e-2), 100)],
        ids=["targets", "a-much-larger-than-eps"],
    )
    def test_bound_state_energies_against_mpmath(self, a_range, eps_range, draws):
        # B(0-) is exact, so only roundings of terms of B's own size remain;
        # where a/eps is large the e_mol - 1/eps cancellation would amplify
        # an inexact B(0-) by up to a/eps.
        rng = np.random.default_rng(43)
        log_a, log_eps = np.log10(a_range), np.log10(eps_range)
        worst = 0.0
        for _ in range(draws):
            a = 10.0 ** rng.uniform(*log_a) if a_range[0] >= 1.0 else rng.uniform(*a_range)
            p = tc.params_for_targets(
                float(a), float(rng.uniform(0.1, 10.0)), float(10.0 ** rng.uniform(*log_eps))
            )
            energy = tc.bound_state(p).energy
            ref = mp_pole_energy(p.lam, p.e_mol, p.eps, energy)
            worst = max(worst, abs(energy - ref) / abs(ref))
        assert worst <= 4e-15

    def test_newton_step_leaving_the_bracket_bisects(self, monkeypatch):
        p = reference_params(eps=0.1)
        root = mp_pole_energy(p.lam, p.e_mol, p.eps, E_REFERENCE)
        # D(hi) > 0 just right of the root, so Newton from the left overshoots hi
        lo, hi = 4.0 * root, root * (1.0 - 1e-9)
        assert tc._denominator(p, lo)[0] < 0.0 < tc._denominator(p, hi)[0]
        calls = []
        denominator = tc._denominator

        def recorded(p_, energy):
            calls.append(energy)
            d, s = denominator(p_, energy)
            # the slope overflowing at the start makes the first Newton step zero
            return d, math.inf if len(calls) == 1 else s

        monkeypatch.setattr(tc, "_denominator", recorded)
        energy, s_root = tc._pole_energy(p, lo, hi)
        assert calls[0] == hi
        # the zero step from D(hi) > 0 is replaced by bisection of log|E|
        x1 = calls[1]
        assert x1 == -math.sqrt(-lo) * math.sqrt(-hi)
        d1, s1 = denominator(p, x1)
        assert d1 < 0.0
        kappa1 = math.sqrt(-p.mass * x1)
        assert x1 - d1 / (p.mass * (p._rstar + s1 / (2.0 * kappa1))) > hi
        # so is the Newton step from x1 that leaves [x1, hi]
        assert calls[2] == -math.sqrt(-x1) * math.sqrt(-hi)
        assert abs(energy - root) <= 4e-15 * abs(root)
        assert s_root == denominator(p, energy)[1]

    @pytest.mark.parametrize(
        "a_range, eps_range, draws",
        [((0.3, 30.0), (1e-3, 0.5), 200), ((1e2, 1e6), (1e-4, 1e-2), 100)],
        ids=["targets", "a-much-larger-than-eps"],
    )
    def test_pole_bracket_against_mpmath(self, a_range, eps_range, draws):
        # the effective-range pole and the line B(0-) + E/(2 lam^2) bracket the pole
        rng = np.random.default_rng(44)
        log_a, log_eps = np.log10(a_range), np.log10(eps_range)
        for _ in range(draws):
            a = 10.0 ** rng.uniform(*log_a) if a_range[0] >= 1.0 else rng.uniform(*a_range)
            p = tc.params_for_targets(
                float(a), float(rng.uniform(0.1, 10.0)), float(10.0 ** rng.uniform(*log_eps))
            )
            lo, hi = tc._pole_bracket(p)
            assert lo <= hi
            b_lo, b_hi = (
                mp_pole_bracket(p.lam, p.e_mol, p.eps, p.mass, e, dps=60) for e in (lo, hi)
            )
            assert b_lo <= 0 <= b_hi

    def test_pole_far_below_its_upper_end(self, monkeypatch):
        # The pole lies 383 decades below hi, the effective-range pole, and
        # within 0.2% of lo; bisection of log|E| reaches it in about 20 steps.
        p = tc.TwoChannelParams(
            lam=1.4257383677677716e43, e_mol=-1.7438521467977464e96,
            eps=7.865298955609291e94, mass=5.978136818830484e102,
        )
        calls = []
        denominator = tc._denominator

        def counted(*args):
            calls.append(args[-1])
            return denominator(*args)

        monkeypatch.setattr(tc, "_denominator", counted)
        energy = tc.bound_state(p).energy
        assert len(calls) <= 30
        assert_is_pole(p, energy)


def assert_is_pole(p, energy, rel=1e-12):
    """B changes sign across energy (1 -+ rel) in 800-digit mpmath."""
    below, above = (
        mp_pole_bracket(p.lam, p.e_mol, p.eps, p.mass, energy * (1.0 + s * rel)) for s in (1, -1)
    )
    assert below <= 0 <= above, (p, energy)


class TestBoundState:
    def test_effective_range_limit_sequence(self):
        errors = []
        for eps in (0.2, 0.1, 0.05):
            state = tc.bound_state(reference_params(eps=eps))
            errors.append(abs(state.energy - E_REFERENCE))
        for e1, e2 in zip(errors, errors[1:]):
            assert 1.5 < e1 / e2 < 2.5

    def test_contact_limit(self):
        # small R* and eps: the pole approaches E = -1/a^2
        state = tc.bound_state(tc.params_for_targets(1.0, 0.01, 0.01))
        assert abs(state.energy + 1.0) < 0.05
        closer = tc.bound_state(tc.params_for_targets(1.0, 0.005, 0.005))
        assert abs(closer.energy + 1.0) < abs(state.energy + 1.0)

    def test_normalization_residual(self):
        for eps in (0.2, 0.05):
            state = tc.bound_state(reference_params(eps=eps))
            assert abs(state.open_norm + state.beta2 - 1.0) < 1e-9

    def test_open_norm_against_loop_derivative(self):
        # the norm integral equals -dI/dE at the pole
        p = reference_params(eps=0.1)
        state = tc.bound_state(p)
        j_fd = -richardson_derivative(
            lambda e: tc.loop_integral(p, e).real, state.energy, h0=1e-4
        )
        j_quad = state.open_norm / (2.0 * p.lam**2 * state.beta2)
        assert j_quad == pytest.approx(j_fd, rel=1e-8)

    def test_closed_channel_fraction_approaches_limit(self):
        state = tc.bound_state(reference_params(eps=0.025))
        assert abs(state.beta2 - BETA2_LIMIT) / BETA2_LIMIT < 0.02

    def test_no_bound_state_for_negative_a(self):
        with pytest.raises(NoBoundState):
            tc.bound_state(tc.params_for_targets(-1.0, 1.0, 0.1))

    def test_no_bound_state_exactly_when_a_eps_not_positive(self):
        # two-channel params prints a finite a_eps > 0 exactly when
        # two-channel bound returns a state, also at targets a = +-10^U(-1, 300)
        # far beyond what the float parameters resolve
        rng = np.random.default_rng(11)
        draws = [
            tc.TwoChannelParams(
                lam=float(10.0 ** rng.uniform(-1.0, 2.0)),
                e_mol=float(rng.uniform(-50.0, 50.0)),
                eps=float(10.0 ** rng.uniform(-3.0, 0.0)),
            )
            for _ in range(200)
        ] + [
            tc.params_for_targets(
                float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 300.0)),
                float(10.0 ** rng.uniform(-1.0, 1.0)), float(10.0 ** rng.uniform(-4.0, 0.0)),
            )
            for _ in range(300)
        ]
        for p in draws:
            a_eps, _ = tc.effective_params(p)
            if 0.0 < a_eps < math.inf:
                assert tc.bound_state(p).energy < 0.0
            else:
                with pytest.raises(NoBoundState):
                    tc.bound_state(p)

    def test_no_bound_state_at_infinite_a(self):
        lam, eps = 1.0, 0.1
        p = tc.TwoChannelParams(
            lam=lam, e_mol=lam**2 * math.sqrt(2.0 / math.pi) / (2.0 * math.pi * eps), eps=eps
        )
        assert not tc.effective_params(p)[0] > 0.0
        with pytest.raises(NoBoundState):
            tc.bound_state(p)

    def test_no_bound_state_past_a_negative_overflowing_threshold_bracket(self):
        # e_mol/(2 lam^2) = 5e319: B(0-) overflows, 1/a_eps = (4 pi/m) B(0-)
        # = -6.3e300 does not, and no pole lies below threshold
        p = tc.TwoChannelParams(lam=1e-10, e_mol=1e300, eps=1.0, mass=1e20)
        assert p._threshold[0] == pytest.approx(-2e300 * math.pi, rel=1e-15)
        with pytest.raises(NoBoundState):
            tc.bound_state(p)

    def test_deep_pole(self):
        # strong coupling puts the pole far below the regulator scale 1/eps^2
        p = tc.TwoChannelParams(lam=1e4, e_mol=0.0, eps=0.1)
        state = tc.bound_state(p)
        assert state.energy == pytest.approx(-1.125e5, rel=1e-3)
        detuning = (state.energy - p.e_mol) / (2.0 * p.lam**2)
        loop = tc.loop_integral(p, state.energy).real
        assert abs(detuning - loop) <= 4.0 * np.finfo(float).eps * abs(loop)
        # x = kappa eps/sqrt(2) ~ 24 lies on the asymptotic branch of loop_integral
        assert state.energy == pytest.approx(
            mp_pole_energy(p.lam, p.e_mol, p.eps, state.energy), rel=1e-15
        )

    def test_pole_far_above_an_overflowing_start(self):
        # The line -2 lam^2 B(0-) overflows, so the lower end of the
        # bracket is -float_info.max; the pole lies 50 decades higher.
        p = tc.TwoChannelParams(
            lam=4.015714583431735e25, e_mol=2.9493435390456395e-107,
            eps=8.029334432772652e-156, mass=2.9464939187426935e108,
        )
        energy = tc.bound_state(p).energy
        # x = kappa eps/sqrt(2) ~ 8e27, where -I(E) = -I(0) (1/(2x^2) - 3/(4x^4))
        # up to a relative x^-4 ~ 1e-110
        with mp.workdps(60):
            lam, e_mol, eps, m = (mp.mpf(v) for v in (p.lam, p.e_mol, p.eps, p.mass))

            def bracket(e):
                x2 = -m * e * eps**2 / 2
                scale = m * mp.sqrt(2 * mp.pi) / (4 * mp.pi**2 * eps)
                return (e - e_mol) / (2 * lam**2) + scale * (1 / (2 * x2) - 3 / (4 * x2**2))

            e = mp.mpf(energy)
            assert bracket(e * (1 + mp.mpf("4e-15"))) < 0 < bracket(e * (1 - mp.mpf("4e-15")))

    @pytest.mark.parametrize(
        "fields",
        [
            # the pole lies above -float_info.min, among the subnormals
            dict(lam=3.134949096248444e-58, e_mol=3.7428694277135415e-100,
                 eps=6.208915557726983e98, mass=5.745028699624415e124),
            # and here below -float_info.max
            dict(lam=5.8690101901473526e128, e_mol=-1.766495962707357e221,
                 eps=2.2142039495934917e-124, mass=135501145.64314356),
            # and here the effective-range pole -kappa^2/m is about -6e309,
            # where kappa/sqrt(m) ~ 8e154 squares past float_info.max
            dict(lam=1e100, e_mol=0.0, eps=1e-145, mass=1e-20),
        ],
        ids=["subnormal", "beyond-float-max", "effective-range-pole-overflows"],
    )
    def test_pole_outside_the_normal_range(self, fields):
        with pytest.raises(InvalidInput, match="outside the normal floating-point range"):
            tc.bound_state(tc.TwoChannelParams(**fields))

    def test_norm_integral_past_an_overflowing_intermediate(self):
        # m^2/(8 pi kappa) ~ 3e313 overflows, J ~ 6.5e224 does not. An
        # infinite J would make the Newton step zero, and beta2 = 0 with
        # open_norm = nan.
        p = tc.TwoChannelParams(
            lam=6.391712545612873e-48, e_mol=3.553014767997292e-83,
            eps=6.035555872700008e66, mass=1.621860810576458e139,
        )
        state = tc.bound_state(p)
        assert_is_pole(p, state.energy)
        # x = kappa eps/sqrt(2) ~ 4e29, so J = m^2/(8 pi kappa sqrt(pi) x^3)
        # up to a relative x^-2
        with mp.workdps(40):
            m = mp.mpf(p.mass)
            kappa = mp.sqrt(-m * mp.mpf(state.energy))
            x = kappa * mp.mpf(p.eps) / mp.sqrt(2)
            j = m**2 / (8 * mp.pi * kappa * mp.sqrt(mp.pi) * x**3)
            beta2 = 1 / (1 + 2 * mp.mpf(p.lam) ** 2 * j)
        assert state.beta2 == pytest.approx(float(beta2), rel=1e-14)
        assert state.open_norm == 1.0

    def test_pole_past_an_overflowing_threshold_bracket(self):
        # B(0-) = -I(0) = 6.3e309 overflows, 1/a_eps = sqrt(2/pi)/eps = 8e160
        # does not, and the pole lies near -(1/a_eps)/(R* m) = -1.27e10; only
        # the tail samples k = c/eps overflow
        p = tc.TwoChannelParams(lam=1e-150, e_mol=0.0, eps=1e-161, mass=1e150)
        energy, _ = tc._pole_energy(p, *tc._pole_bracket(p))
        assert energy == pytest.approx(-1.2698727186848192e10, rel=4e-15)
        assert_is_pole(p, energy)
        with pytest.raises(InvalidInput, match="tail samples"):
            tc.bound_state(p)

    @pytest.mark.parametrize(
        "fields",
        [
            # 2 lam^2 J = 8.2e-297 while J ~ 3.5e-373 underflows
            dict(lam=1.0837971601527623e38, e_mol=-2.3723249898283253e132,
                 eps=3.1844439946218624e35, mass=2.56761853896999e-130),
            # the bracket S of J is subnormal
            dict(lam=1.6569234713810841e40, e_mol=-1.4623919568330155e105,
                 eps=1.5606374528514322e37, mass=4.8618710800131323e30),
        ],
    )
    def test_open_norm_where_the_norm_integral_underflows(self, fields):
        p = tc.TwoChannelParams(**fields)
        state = tc.bound_state(p)
        assert_is_pole(p, state.energy)
        ref = mp_open_norm(p.lam, p.eps, p.mass, state.energy)
        assert state.open_norm == pytest.approx(float(ref), rel=1e-6, abs=0.0)
        assert state.beta2 == 1.0

    def test_beta2_tends_to_the_rstar_share_of_the_modified_norm(self):
        # beta^2 = R*/(R* + S/(2 kappa)) -> R*/(R* + 1/(2q)) = 4 pi R* |A|^2 of
        # the one-channel effective-range state, with an error linear in eps
        rng = np.random.default_rng(20)
        for _ in range(8):
            a, rstar = float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.2, 5.0))
            (state,) = find_bound_states(PhaseShiftModel.from_effective_range(a, rstar), 1e3)
            gaps = [
                abs(tc.bound_state(tc.params_for_targets(a, rstar, eps)).beta2
                    - 4.0 * math.pi * rstar * state.a2)
                for eps in (0.2, 0.1, 0.05, 0.025)
            ]
            for g1, g2 in zip(gaps, gaps[1:]):
                assert 1.8 <= g1 / g2 <= 2.2, (a, rstar, gaps)

    def test_pole_past_an_overflowing_twice_threshold_bracket(self):
        # B(0-) = 1e308, so 2 B(0-) overflows, 1/a_eps = (4 pi/m) B(0-) does
        # not; the pole lies near e_mol, within rounding of both ends of the bracket
        p = tc.TwoChannelParams(lam=1e-4, e_mol=-2e300, eps=1.0, mass=100.0)
        assert p._threshold[0] == pytest.approx(4e306 * math.pi, rel=1e-15)
        for end in tc._pole_bracket(p):
            assert end == pytest.approx(-2e300, rel=4e-15)
        energy = tc.bound_state(p).energy
        assert energy == pytest.approx(-2e300, rel=4e-15)
        assert_is_pole(p, energy)

    def test_beta2_where_only_the_norm_integral_overflows(self):
        # J ~ 10^313.6 overflows, 2 lam^2 J ~ 10^219.8 does not: beta2 is
        # about 1e-220, not the 0 of the overflowing limit
        p = tc.TwoChannelParams(
            lam=9.102995853625582e-48, e_mol=1.0260614212873525e-08,
            eps=8.330301008194824e46, mass=4.835278429074239e134,
        )
        state = tc.bound_state(p)
        assert_is_pole(p, state.energy)
        with mp.workdps(40):
            m = mp.mpf(p.mass)
            kappa = mp.sqrt(-m * mp.mpf(state.energy))
            x = kappa * mp.mpf(p.eps) / mp.sqrt(2)
            shape = (1 + 2 * x * x) * mp.exp(x * x) * mp.erfc(x) - 2 * x / mp.sqrt(mp.pi)
            weight = 2 * mp.mpf(p.lam) ** 2 * m**2 / (8 * mp.pi * kappa) * shape
            beta2 = 1 / (1 + weight)
        assert state.beta2 == pytest.approx(float(beta2), rel=1e-13)
        assert state.open_norm == pytest.approx(1.0, rel=1e-15)

    def test_extreme_range_fuzz(self):
        # lam, e_mol, eps and mass over 120, 320, 260 and 300 decades: every
        # pole is a pole and every column of two-channel bound is finite
        rng = np.random.default_rng(3)
        solved = 0
        for _ in range(1000):
            lam = float(10.0 ** rng.uniform(-60, 60))
            e_mol = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-160, 160))
            eps = float(10.0 ** rng.uniform(-160, 100))
            mass = float(10.0 ** rng.uniform(-150, 150))
            try:
                p = tc.TwoChannelParams(lam=lam, e_mol=e_mol, eps=eps, mass=mass)
                state = tc.bound_state(p)
            except (InvalidInput, NoBoundState):
                continue
            solved += 1
            assert_is_pole(p, state.energy)
            columns = (state.energy, state.beta2, state.a_tail**2, state.open_norm)
            assert all(math.isfinite(c) for c in columns), (p, columns)
        assert solved >= 600

    @pytest.mark.parametrize(
        "fields",
        [
            dict(lam=1.2188098194285188, e_mol=74.78813971301692, eps=0.002522315167373921),
            dict(lam=3.2258066116733604, e_mol=26.602193845433078, eps=0.04967288617277046),
        ],
    )
    def test_pole_where_the_float_a_eps_overflows(self, fields):
        # 1/a_eps in floats rounds to 0 here, while the exact B(0-) is
        # positive: a_eps from it is finite and positive, and the state exists
        p = tc.TwoChannelParams(**fields)
        a_eps = tc.effective_params(p)[0]
        assert 0.0 < a_eps < math.inf
        state = tc.bound_state(p)
        assert_is_pole(p, state.energy)
        columns = (state.energy, state.beta2, state.a_tail**2, state.open_norm)
        assert all(math.isfinite(c) for c in columns), (p, columns)

    def test_shallow_pole_to_full_precision(self):
        # a large scattering length puts the pole at |E| ~ 1e-3
        p = tc.params_for_targets(28.454393197906118, 9.945882700671524, 0.04292441413980349)
        state = tc.bound_state(p)
        ref = mp_pole_energy(p.lam, p.e_mol, p.eps, state.energy)
        assert abs(state.energy - ref) <= 1e-11 * abs(ref)

    def test_beta2_against_mpmath_norm(self):
        for eps in (0.2, 0.05, 1e-3):
            p = reference_params(eps=eps)
            state = tc.bound_state(p)
            j = float(mp_norm_integral(p.eps, state.energy))
            expected = 1.0 / (1.0 + 2.0 * p.lam**2 * j)
            assert state.beta2 == pytest.approx(expected, rel=1e-12)

    def test_psi_past_an_overflowing_square(self):
        # k^2 = 1e320 overflows: E - k^2/m = -inf and psi = -0.0
        psi = tc.bound_state(reference_params(eps=0.1)).psi(1e160)
        assert psi == 0.0 and math.copysign(1.0, psi) == -1.0

    def test_psi_matches_tail_near_plateau(self):
        p = reference_params(eps=0.025)
        state = tc.bound_state(p)
        k = 0.075 / p.eps
        plateau = -(k * k * float(state.psi(k))) / (4.0 * math.pi)
        assert plateau == pytest.approx(state.a_tail, rel=0.05)

    def test_tail_is_the_extrapolated_plateau_of_psi(self):
        # a_tail and psi share one open-channel wavefunction, bit for bit
        rng = np.random.default_rng(14)
        for _ in range(300):
            p = tc.params_for_targets(
                float(rng.uniform(0.3, 30.0)), float(rng.uniform(0.1, 10.0)),
                float(10.0 ** rng.uniform(-3.0, math.log10(0.5))),
            )
            state = tc.bound_state(p)

            def plateau(c):
                k = c / p.eps
                return -(k * k * state.psi(k)) / (4.0 * math.pi)

            expected = (4.0 * plateau(0.1) - plateau(0.05)) / 3.0
            assert state.a_tail.hex() == expected.hex()


class TestZeroRangeAmplitudeConvergence:
    def test_amplitude_approaches_effective_range_model(self):
        # at fixed E the difference to the one-channel 1/f is O(eps)
        from resokit import scattering
        from resokit.contact import PhaseShiftModel

        eff = PhaseShiftModel.from_effective_range(1.0, 1.0)
        energy = 0.01
        inv_ref = 1.0 / scattering.amplitude(eff, math.sqrt(energy))
        gaps = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            inv_2ch = tc.inverse_amplitude(reference_params(eps=eps), energy)
            gaps.append(abs(inv_2ch - inv_ref))
        for g1, g2 in zip(gaps, gaps[1:]):
            assert 1.5 < g1 / g2 < 2.5


class TestProductIdentity:
    def test_keystone_exact_algebra(self):
        for eps in (0.2, 0.05):
            p = reference_params(eps=eps)
            state = tc.bound_state(p)
            report = tc.product_identity_check(p, state, state)
            assert report.residual_exact < 1e-13

    def test_tail_residual_shrinks_linearly(self):
        residuals = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            p = reference_params(eps=eps)
            state = tc.bound_state(p)
            residuals.append(tc.product_identity_check(p, state, state).residual_beta)
        assert all(r1 > r2 for r1, r2 in zip(residuals, residuals[1:]))
        assert residuals[-1] < 0.02

    def test_two_distinct_states(self):
        eps = 0.05
        lam = tc.lambda_from_rstar(1.0)
        p1 = tc.TwoChannelParams(lam=lam, e_mol=tc.emol_for_target_a(1.0, lam, eps), eps=eps)
        p2 = tc.TwoChannelParams(lam=lam, e_mol=tc.emol_for_target_a(0.7, lam, eps), eps=eps)
        s1 = tc.bound_state(p1)
        s2 = tc.bound_state(p2)
        report = tc.product_identity_check(p1, s1, s2)
        assert s1.energy != s2.energy
        assert report.residual_beta < 0.1

    # The model has one bound state, so the only open-channel overlap is that
    # of a state with itself: open_norm, with beta^2 its complement.
    def test_open_overlap_of_deep_states(self):
        # x ~ 350 and 700: the bracket S of open_norm on its asymptotic series
        for e_mol in (-1e6, -4e6):
            s = tc.bound_state(tc.TwoChannelParams(lam=1.0, e_mol=e_mol, eps=0.5))
            ref = mp_open_norm(1.0, 0.5, 1.0, s.energy)
            assert s.open_norm == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a, eps", [(1e2, 1e-3), (1e4, 1e-3), (1e6, 1e-4)])
    def test_open_overlap_of_shallow_states(self, a, eps):
        # open_norm near 1 and a small beta^2 = R*/(R* + S/(2 kappa)), both
        # to rounding
        s = tc.bound_state(tc.params_for_targets(a, 1.0, eps))
        ref = mp_open_norm(s.params.lam, s.params.eps, s.params.mass, s.energy)
        assert s.open_norm == pytest.approx(float(ref), rel=1e-14, abs=0.0)
        assert s.beta2 == pytest.approx(float(1 - ref), rel=1e-14, abs=0.0)

    def test_open_overlap_at_tiny_mass(self):
        # m E ~ -1.6e-311 is subnormal: kappa must come from sqrt(m) sqrt(-E)
        s = tc.bound_state(tc.params_for_targets(1e10, 2.0 * math.pi / 1e-300, 1.0, mass=1e-150))
        ref = mp_open_norm(s.params.lam, s.params.eps, s.params.mass, s.energy)
        assert s.open_norm == pytest.approx(float(ref), rel=1e-15, abs=0.0)

    def test_parameter_mismatch_rejected(self):
        p1 = reference_params(eps=0.1)
        p2 = reference_params(eps=0.2)
        s1 = tc.bound_state(p1)
        s2 = tc.bound_state(p2)
        with pytest.raises(ParameterMismatch):
            tc.product_identity_check(p1, s1, s2)
