"""Bound-state location, normalization and the modified-norm identity."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.polynomial import polycompanion

from oracles import mp_bound_poles, mp_pole_residual, radial_norm_quadrature
from resokit import bound
from resokit.contact import PhaseShiftModel
from resokit.product import construct_two_pole_model
from resokit.errors import InvalidInput, RootAtGridBoundary

CONST = PhaseShiftModel.from_effective_range(1.0)
EFF = PhaseShiftModel.from_effective_range(1.0, 1.0)

# positive root of R* q^2 + q - 1/a = 0 for a = R* = 1, by the quadratic
# formula in high precision
Q_EFF = float((-1 + mp.sqrt(5)) / 2)
A2_EFF = float(mp.mpf(1) / (4 * mp.pi) * 2 / (1 / ((-1 + mp.sqrt(5)) / 2) + 2))


def reference_bound_states(model, q_max):
    """find_bound_states with the roots taken as eigvals(polycompanion(h)), sorted.

    The real-root filter, tangent merge and polish are those of
    find_bound_states; each state is (q, energy, a2, norm_sign).
    """
    coeffs = model.coeffs
    h = [0.0] * max(2, 2 * len(coeffs) - 1)
    h[0::2] = [-c if n % 2 else c for n, c in enumerate(coeffs)]
    h[1] += 1.0
    roots = np.linalg.eigvals(polycompanion(h))
    roots.sort()
    candidates = []
    for z in map(complex, roots.tolist()):
        if not 0.0 <= z.imag <= bound.REAL_ROOT_REL * abs(z):
            continue
        if candidates and z.real - candidates[-1] <= bound.REAL_ROOT_REL * abs(z):
            candidates[-1] = 0.5 * (candidates[-1] + z.real)
            continue
        candidates.append(z.real)
    q_min = bound.Q_MIN_DEFAULT
    qs = sorted(bound._polish(model, q, q_min, q_max) for q in candidates if q_min < q <= q_max)
    return [(q, -q * q, *bound._normalization_parts(model, q)) for q in qs]


def state_bits(states):
    return [(q.hex(), e.hex(), a2.hex(), sign) for q, e, a2, sign in states]


class TestFindBoundStates:
    def test_const_model_single_state(self):
        states = bound.find_bound_states(CONST, q_max=10.0)
        assert len(states) == 1
        assert states[0].q == pytest.approx(1.0, rel=1e-12)
        assert states[0].energy == pytest.approx(-1.0, rel=1e-12)

    def test_negative_scattering_length_empty(self):
        model = PhaseShiftModel.from_effective_range(-1.0)
        assert bound.find_bound_states(model, q_max=10.0) == []

    def test_effective_range_against_quadratic_oracle(self):
        states = bound.find_bound_states(EFF, q_max=10.0)
        assert len(states) == 1
        assert Q_EFF == pytest.approx(0.61803398874989485, rel=1e-15)
        assert states[0].q == pytest.approx(Q_EFF, rel=1e-12)
        assert states[0].energy == pytest.approx(-Q_EFF * Q_EFF, rel=1e-12)

    def test_pole_condition_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            coeffs = rng.uniform(-2.0, 2.0, rng.integers(1, 5))
            model = PhaseShiftModel(tuple(coeffs))
            for state in bound.find_bound_states(model, q_max=10.0):
                residual = abs(model.g(state.energy) + state.q)
                scale = max(abs(1.0 / model.scattering_length)
                            if model.coeffs[0] != 0.0 else 0.0, state.q)
                assert residual < 1e-11 * scale

    def test_boundary_root_warns(self):
        with pytest.warns(RootAtGridBoundary):
            states = bound.find_bound_states(CONST, q_max=1.0)
        assert len(states) == 1
        assert states[0].q == pytest.approx(1.0, rel=1e-9)

    def test_two_pole_model_finds_both(self):
        # g(E) = c0 + c1 E with poles pinned at 0.5 and 1.0
        model = PhaseShiftModel((-1.0 / 3.0, 2.0 / 3.0))
        states = bound.find_bound_states(model, q_max=5.0)
        assert [pytest.approx(s.q, rel=1e-12) for s in states] == [0.5, 1.0]

    def test_scale_covariance(self):
        # lengths divided by s: q -> s q, c_n -> s^(1-2n) c_n
        rng = np.random.default_rng(11)
        for _ in range(10):
            coeffs = tuple(rng.uniform(-2.0, 2.0, 4))
            s = 2.7
            scaled = tuple(c * s ** (1 - 2 * n) for n, c in enumerate(coeffs))
            states = bound.find_bound_states(PhaseShiftModel(coeffs), q_max=8.0)
            states_scaled = bound.find_bound_states(
                PhaseShiftModel(scaled), q_max=8.0 * s
            )
            assert len(states) == len(states_scaled)
            for a, b in zip(states, states_scaled):
                assert b.q == pytest.approx(s * a.q, rel=1e-10)

    def test_window_validation(self):
        with pytest.raises(InvalidInput):
            bound.find_bound_states(CONST, q_max=-1.0)
        with pytest.raises(InvalidInput, match=r"^q_max must exceed 1e-08$"):
            bound.find_bound_states(CONST, q_max=1e-9)

    def test_overflowing_companion_matrix_rejected(self):
        # h(q) = 1e-300 + q - 5e-324 q^2: the companion matrix holds 1/5e-324
        model = PhaseShiftModel((1e-300, 5e-324))
        with pytest.raises(InvalidInput, match="companion matrix"):
            bound.find_bound_states(model, q_max=1e300)


class TestPolynomialRoots:
    @pytest.mark.parametrize("q2", [1.001, 1.003])
    def test_close_pair_both_found(self, q2):
        states = bound.find_bound_states(construct_two_pole_model(1.0, q2), q_max=10.0)
        assert [s.q for s in states] == [
            pytest.approx(1.0, rel=1e-10),
            pytest.approx(q2, rel=1e-10),
        ]

    def test_seeded_close_pairs_at_rounding_level(self):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(41)
        for _ in range(200):
            q1 = 10.0 ** rng.uniform(-1.0, 1.0)
            q2 = q1 * (1.0 + 10.0 ** rng.uniform(-4.0, -2.0))
            model = construct_two_pole_model(q1, q2)
            states = bound.find_bound_states(model, q_max=100.0)
            assert len(states) == 2
            for s in states:
                c0, c1 = model.coeffs
                scale = abs(c0) + abs(c1) * s.q * s.q + s.q
                assert abs(mp_pole_residual(model.coeffs, s.q)) <= 4.0 * eps * scale

    def test_random_models_against_mpmath_oracle(self):
        rng = np.random.default_rng(31)
        for degree in range(1, 7):
            for _ in range(25):
                model = PhaseShiftModel(tuple(rng.uniform(-2.0, 2.0, degree + 1)))
                got = [s.q for s in bound.find_bound_states(model, q_max=50.0)]
                ref = mp_bound_poles(model.coeffs, bound.Q_MIN_DEFAULT, 50.0)
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_tangent_pole_reported_once(self):
        # g = -q0/2 + E/(2 q0) gives h(q) = -(q - q0)^2/(2 q0), a double root
        rng = np.random.default_rng(5)
        for q0 in [1.0, 0.5, 2.0, *10.0 ** rng.uniform(-2.0, 2.0, 50)]:
            model = PhaseShiftModel((-q0 / 2.0, 1.0 / (2.0 * q0)))
            states = bound.find_bound_states(model, q_max=1e3)
            assert len(states) == 1
            assert states[0].q == pytest.approx(q0, rel=1e-14, abs=0.0)

    @pytest.mark.filterwarnings("ignore::resokit.errors.RootAtGridBoundary")
    def test_matches_polycompanion_reference_bit_for_bit(self):
        rng = np.random.default_rng(1401)
        # degrees 0 to 8, then 2000 draws like the resonance-scan benchmark's
        degrees = [d for d in range(9) for _ in range(20)]
        degrees += rng.integers(1, 7, 2000).tolist()
        models = [
            (PhaseShiftModel(tuple(rng.uniform(-2.0, 2.0, d + 1))), 10.0 ** rng.uniform(1.0, 4.0))
            for d in degrees
        ]
        for _ in range(100):
            q1 = 10.0 ** rng.uniform(-1.0, 1.0)
            q2 = q1 * (1.0 + 10.0 ** rng.uniform(-4.0, -2.0))
            models.append((construct_two_pole_model(q1, q2), 100.0))
        models.append((PhaseShiftModel((-0.5, 0.5)), 10.0))  # tangent pole at q = 1
        found = 0
        for model, q_max in models:
            states = bound.find_bound_states(model, q_max)
            found += len(states)
            got = [(s.q, s.energy, s.a2, s.norm_sign) for s in states]
            assert state_bits(got) == state_bits(reference_bound_states(model, q_max))
        assert found > len(models) // 2

    @pytest.mark.parametrize("c0", [-1.0, -(1.0 + 1e-8) / 2.0])
    def test_complex_pair_not_reported(self, c0):
        # h(q) = c0 + q - q^2/2 has roots 1 +- i sqrt(-1 - 2 c0): Im z/|z| is
        # 0.7 and 1e-4 here, both outside the real-root band
        model = PhaseShiftModel((c0, 0.5))
        assert bound.find_bound_states(model, q_max=10.0) == []


class TestNormalization:
    def test_const_model_value(self):
        state = bound.find_bound_states(CONST, q_max=10.0)[0]
        assert state.a2 == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
        assert state.norm_sign == "positive"

    def test_effective_range_value(self):
        state = bound.find_bound_states(EFF, q_max=10.0)[0]
        assert A2_EFF == pytest.approx(0.043989344375088815, rel=1e-15)
        assert state.a2 == pytest.approx(A2_EFF, rel=1e-12)

    def test_negative_norm_flagged(self):
        # R* < 0 with 1/q + 2 R* < 0 for the deeper state
        model = PhaseShiftModel.from_effective_range(1.0, -0.2)
        states = bound.find_bound_states(model, q_max=10.0)
        assert len(states) == 2
        signs = {round(s.q, 3): s.norm_sign for s in states}
        assert signs[min(signs)] == "positive"
        assert signs[max(signs)] == "negative"
        deep = max(states, key=lambda s: s.q)
        assert deep.a2 < 0.0


class TestWavefunction:
    def make_state(self, q=1.0, a2=1.0):
        return bound.BoundState(q=q, energy=-q * q, a2=a2, norm_sign="positive")

    def test_point_value(self):
        state = self.make_state()
        assert bound.wavefunction(state, 1.0) == pytest.approx(-math.exp(-1.0), rel=1e-15)

    def test_decay(self):
        state = self.make_state()
        assert abs(bound.wavefunction(state, 50.0)) < 1e-20

    @pytest.mark.parametrize(
        "r", [0.0, math.nan, pytest.param([1.0, math.nan], id="array-with-nan")]
    )
    def test_origin_rejected(self, r):
        with pytest.raises(InvalidInput):
            bound.wavefunction(self.make_state(), r)

    def test_negative_norm_state_rejected(self):
        state = bound.BoundState(q=1.0, energy=-1.0, a2=-0.5, norm_sign="negative")
        with pytest.raises(InvalidInput):
            bound.wavefunction(state, 1.0)

    def test_norm_quadrature_matches_closed_form(self):
        state = self.make_state(q=0.618, a2=0.37)
        expected = 4.0 * math.pi * state.a2 / (2.0 * state.q)
        assert radial_norm_quadrature(state.q, state.a2) == pytest.approx(
            expected, rel=1e-10
        )


class TestModifiedNorm:
    def test_const_model(self):
        state = bound.find_bound_states(CONST, q_max=10.0)[0]
        assert bound.modified_norm_check(CONST, state) < 1e-14

    def test_effective_range(self):
        state = bound.find_bound_states(EFF, q_max=10.0)[0]
        assert bound.modified_norm_check(EFF, state) < 1e-12

    def test_quadrature_route(self):
        # plain norm by radial quadrature + analytic derivative subtraction
        state = bound.find_bound_states(EFF, q_max=10.0)[0]
        plain = radial_norm_quadrature(state.q, state.a2)
        modified = plain - 4.0 * math.pi * state.a2 * EFF.g_prime(state.energy)
        assert abs(modified - 1.0) < 1e-10

    def test_random_models(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 40:
            coeffs = tuple(rng.uniform(-2.0, 2.0, rng.integers(1, 6)))
            model = PhaseShiftModel(coeffs)
            for state in bound.find_bound_states(model, q_max=10.0):
                denom = 1.0 / state.q - 2.0 * model.g_prime(state.energy)
                if abs(denom) < 1e-2 / state.q:
                    continue
                assert bound.modified_norm_check(model, state) < 1e-10
                checked += 1
