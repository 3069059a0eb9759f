"""Two-channel resonance model: loop integral, mapping, bound state, identity."""

import math

import numpy as np
import pytest

from oracles import (
    loop_imag_eta_oracle,
    mp_loop_integral,
    mp_norm_integral,
    mp_pole_energy,
    open_overlap_quadrature,
    richardson_derivative,
)
from resokit import twochannel as tc
from resokit.errors import (
    InvalidInput,
    NoBoundState,
    ParameterMismatch,
    PoleHit,
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
            {"lam": 1e200}, {"lam": 1e-200},
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

    def test_no_overflow_for_extreme_energies(self):
        p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=1.0)
        value = tc.loop_integral(p, -1e12)
        assert math.isfinite(value.real)


class TestNormIntegral:
    def test_against_mpmath_quadrature(self):
        # x = kappa eps/sqrt(2) across both branches, incl. the series crossover
        xs = list(np.geomspace(1e-4, 1e6, 41)) + [6.9, 7.0, 7.1, 9.5]
        for mass in (1.0, 2.5):
            p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=0.1, mass=mass)
            for x in xs:
                kappa = float(x) * math.sqrt(2.0) / p.eps
                energy = -(kappa**2) / mass
                ref = float(mp_norm_integral(p.eps, energy, mass))
                assert abs(tc.norm_integral(p, energy) - ref) <= 1e-11 * ref

    def test_above_threshold_rejected(self):
        p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=0.1)
        with pytest.raises(InvalidInput):
            tc.norm_integral(p, 0.0)


class TestAmplitude:
    def test_unitarity_on_log_grid(self):
        p = reference_params(eps=0.1)
        for k0 in np.geomspace(1e-3, 10.0, 60):
            energy = float(k0) ** 2
            inv = tc.inverse_amplitude(p, energy)
            assert abs(inv.imag + k0) / k0 < 1e-12

    def test_threshold_matches_effective_scattering_length(self):
        p = reference_params(eps=0.1)
        a_eps, _ = tc.effective_params(p)
        f0 = tc.amplitude(p, 0.0)
        assert f0.imag == 0.0
        assert f0.real == pytest.approx(-a_eps, rel=1e-12)

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
        got = tc.amplitude(p, energy)
        assert abs(got - oracle) / abs(oracle) < 1e-8

    def test_pole_raises(self):
        p = reference_params(eps=0.1)
        state = tc.bound_state(p)
        with pytest.raises(PoleHit):
            tc.amplitude(p, state.energy)


class TestEffectiveParams:
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

    def test_emol_reference_value(self):
        p = tc.TwoChannelParams(lam=SQRT_2PI, e_mol=0.0, eps=0.1)
        emol = tc.emol_for_target_a(1.0, p)
        assert emol == pytest.approx(6.9788456080286536, rel=1e-14)

    def test_emol_round_trip(self):
        p = tc.TwoChannelParams(lam=1.7, e_mol=3.1, eps=0.2)
        a_eps, _ = tc.effective_params(p)
        assert tc.emol_for_target_a(a_eps, p) == pytest.approx(p.e_mol, rel=1e-12)

    def test_emol_grows_inversely_with_eps(self):
        # E_mol = C/eps - D at fixed target a; halving eps doubles C/eps
        lam = SQRT_2PI
        d = lam**2 / (2.0 * math.pi)  # the 1/a term for a = 1, m = 1
        values = []
        for eps in (0.1, 0.05, 0.025):
            p = tc.TwoChannelParams(lam=lam, e_mol=0.0, eps=eps)
            values.append(tc.emol_for_target_a(1.0, p) + d)
        assert values[1] / values[0] == pytest.approx(2.0, rel=1e-12)
        assert values[2] / values[1] == pytest.approx(2.0, rel=1e-12)


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
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = tc.TwoChannelParams(
                lam=float(10.0 ** rng.uniform(-1.0, 2.0)),
                e_mol=float(rng.uniform(-50.0, 50.0)),
                eps=float(10.0 ** rng.uniform(-3.0, 0.0)),
            )
            a_eps, _ = tc.effective_params(p)
            if a_eps > 0.0:
                assert tc.bound_state(p).energy < 0.0
            else:
                with pytest.raises(NoBoundState):
                    tc.bound_state(p)

    def test_no_bound_state_at_infinite_a(self):
        lam, eps = 1.0, 0.1
        p = tc.TwoChannelParams(
            lam=lam, e_mol=lam**2 * math.sqrt(2.0 / math.pi) / (2.0 * math.pi * eps), eps=eps
        )
        assert tc.effective_params(p)[0] == math.inf
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

    def test_psi_matches_tail_near_plateau(self):
        p = reference_params(eps=0.025)
        state = tc.bound_state(p)
        k = 0.075 / p.eps
        plateau = -(k * k * float(state.psi(k))) / (4.0 * math.pi)
        assert plateau == pytest.approx(state.a_tail, rel=0.05)


class TestZeroRangeAmplitudeConvergence:
    def test_amplitude_approaches_effective_range_model(self):
        # at fixed E the difference to the one-channel amplitude is O(eps)
        from resokit import scattering
        from resokit.contact import PhaseShiftModel

        eff = PhaseShiftModel.from_effective_range(1.0, 1.0)
        energy = 0.01
        f_ref = scattering.amplitude(eff, math.sqrt(energy))
        gaps = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            f_2ch = tc.amplitude(reference_params(eps=eps), energy)
            gaps.append(abs(f_2ch - f_ref))
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
        base = tc.TwoChannelParams(lam=lam, e_mol=0.0, eps=eps)
        p1 = tc.TwoChannelParams(lam=lam, e_mol=tc.emol_for_target_a(1.0, base), eps=eps)
        p2 = tc.TwoChannelParams(lam=lam, e_mol=tc.emol_for_target_a(0.7, base), eps=eps)
        s1 = tc.bound_state(p1)
        s2 = tc.bound_state(p2)
        report = tc.product_identity_check(p1, s1, s2)
        assert s1.energy != s2.energy
        assert report.open_overlap > 0.0
        assert report.total_overlap == pytest.approx(
            report.open_overlap + report.beta_product, rel=1e-14
        )
        assert report.residual_beta < 0.1

    def test_open_overlap_against_quadrature(self):
        eps = 0.05
        lam = tc.lambda_from_rstar(1.0)
        base = tc.TwoChannelParams(lam=lam, e_mol=0.0, eps=eps)
        states = [
            tc.bound_state(
                tc.TwoChannelParams(lam=lam, e_mol=tc.emol_for_target_a(a, base), eps=eps)
            )
            for a in (1.0, 0.7, 1.0 + 1e-8)
        ]
        for i, j in ((0, 0), (1, 1), (0, 1), (0, 2)):
            s1, s2 = states[i], states[j]
            oracle = open_overlap_quadrature(lam, eps, s1.energy, s1.beta, s2.energy, s2.beta)
            assert tc.open_channel_overlap(s1, s2) == pytest.approx(oracle, rel=1e-10)
        assert tc.open_channel_overlap(states[0], states[0]) == pytest.approx(
            states[0].open_norm, rel=1e-14
        )

    def test_open_overlap_of_deep_states(self):
        # x ~ 350 and 700: the difference of loop integrals on the series branch
        p = tc.TwoChannelParams(lam=1.0, e_mol=0.0, eps=0.5)
        s1, s2 = (
            tc.TwoChannelBoundState(params=p, energy=e, beta2=0.5, a_tail=1.0, open_norm=0.5)
            for e in (-1e6, -4e6)
        )
        oracle = open_overlap_quadrature(p.lam, p.eps, s1.energy, s1.beta, s2.energy, s2.beta)
        assert tc.open_channel_overlap(s1, s2) == pytest.approx(oracle, rel=1e-13, abs=0.0)

    def test_parameter_mismatch_rejected(self):
        p1 = reference_params(eps=0.1)
        p2 = reference_params(eps=0.2)
        s1 = tc.bound_state(p1)
        s2 = tc.bound_state(p2)
        with pytest.raises(ParameterMismatch):
            tc.product_identity_check(p1, s1, s2)
