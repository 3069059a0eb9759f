"""Bound-state location, normalization and the modified-norm identity."""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.polynomial import polycompanion

from oracles import mp_bound_poles, mp_pole_residual, mp_quadratic_poles, radial_norm_quadrature
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


def resonance_scan_draws():
    """(model, q_max) of every degree 0 to 8, 2000 draws like the resonance-scan
    benchmark's, 100 close pairs and a tangent pole (h = -(q - 1)^2/2)."""
    rng = np.random.default_rng(1401)
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
    models.append((PhaseShiftModel((-0.5, 0.5)), 10.0))
    return models


def degree_one_draws():
    """(model, q_max) for the closed-form branch, in groups that the companion
    route resolves: both signs of 1/a and R*, near-tangent pairs 10x inside
    and outside the real-root band, roots 1e-9 below the window edge, and
    coefficients up to 1e300 whose roots lie within 1e8 of each other."""
    rng = np.random.default_rng(1601)

    def sign():
        return (-1.0, 1.0)[rng.integers(2)]

    models = [(PhaseShiftModel((1e300, 1e300)), 10.0)]  # 1 + 4 c0 c1 overflows
    for _ in range(400):
        inv_a, rstar = (sign() * 10.0 ** rng.uniform(-2.0, 2.0) for _ in range(2))
        models.append((PhaseShiftModel((-inv_a, -rstar)), 10.0 ** rng.uniform(1.0, 4.0)))
    for _ in range(400):
        # roots q0 (1 +- gap/2), real or a conjugate pair
        q0 = 10.0 ** rng.uniform(-2.0, 2.0)
        gap = 10.0 ** (rng.uniform(-9.0, -7.0) if rng.integers(2) else rng.uniform(-5.0, -3.0))
        c1 = 1.0 / (2.0 * q0)
        models.append((PhaseShiftModel((-c1 * q0 * q0 * (1.0 + sign() * gap * gap / 4.0), c1)),
                       1e3))
    edge = []
    while len(edge) < 200:
        model = PhaseShiftModel(tuple(rng.uniform(-2.0, 2.0, 2)))
        states = bound.find_bound_states(model, q_max=1e6)
        if states:
            edge.append((model, states[-1].q * (1.0 + 1e-9)))
    models += edge
    for _ in range(400):
        # roots near +-r for w >= 1, near -w r and r/w for w < 1
        r = 10.0 ** rng.uniform(-7.0, 150.0)
        w = 10.0 ** rng.uniform(-4.0, 300.0 - abs(math.log10(r)))
        models.append((PhaseShiftModel((sign() * w * r, sign() * w / r)), 1e300))
    return models


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
                scale = max(abs(model.coeffs[0]), state.q)  # |c_0| = 1/|a|
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
        # h(q) = 1e-300 + q + 5e-324 q^4: the companion matrix holds 1/5e-324
        model = PhaseShiftModel((1e-300, 0.0, 5e-324))
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
        # degree 1 has its own closed form, checked below
        models = [(m, q_max) for m, q_max in resonance_scan_draws() if m.degree != 1]
        found = 0
        for model, q_max in models:
            states = bound.find_bound_states(model, q_max)
            found += len(states)
            got = [(s.q, s.energy, s.a2, s.norm_sign) for s in states]
            assert state_bits(got) == state_bits(reference_bound_states(model, q_max))
        assert found > len(models) // 2

    def test_degree_one_closed_form_against_companion_and_mpmath(self):
        # The companion route's states, with every q within 2 ulps of the
        # 60-digit root. At a tangent pole the exact norm denominator
        # 1/q - 2 c1 = h'(q)/q is 0, so both routes report the sign of its
        # rounding; there it must be at the rounding level instead.
        eps = np.finfo(float).eps
        models = [(m, q_max) for m, q_max in resonance_scan_draws() if m.degree == 1]
        models += degree_one_draws()
        edge = tangent = 0
        for model, q_max in models:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                states = bound.find_bound_states(model, q_max)
            c0, c1 = model.coeffs
            poles = mp_quadratic_poles(c0, c1, bound.Q_MIN_DEFAULT, q_max, bound.REAL_ROOT_REL)
            ref = reference_bound_states(model, q_max)
            assert len(states) == len(poles) == len(ref)
            for s, (q_mp, is_tangent), (_, _, _, ref_sign) in zip(states, poles, ref):
                assert abs(s.q - q_mp) <= 2 * math.ulp(float(q_mp))
                if is_tangent:
                    assert abs(1.0 - 2.0 * c1 * s.q) <= 8 * eps
                    tangent += 1
                else:
                    assert s.norm_sign == ref_sign
            at_edge = bool(states) and states[-1].q >= q_max * (1.0 - bound.EDGE_REL)
            assert [w.category for w in caught] == [RootAtGridBoundary] * at_edge
            edge += at_edge
        assert edge >= 200 and tangent >= 200

    def test_degree_one_over_the_float_range_against_mpmath(self):
        # c0 and c1 drawn apart over 1e-300..1e300, roots up to 1e308 apart:
        # eigenvalues of the companion matrix lose the smaller root of such
        # a pair, the closed form keeps both within 2 ulps. A root in the
        # window whose energy -q^2 overflows is rejected.
        rng = np.random.default_rng(1602)
        rejected = 0
        for _ in range(500):
            c0, c1 = ((-1.0, 1.0)[rng.integers(2)] * 10.0 ** rng.uniform(-300.0, 300.0)
                      for _ in range(2))
            model = PhaseShiftModel((c0, c1))
            poles = mp_quadratic_poles(c0, c1, bound.Q_MIN_DEFAULT, 1e300, bound.REAL_ROOT_REL)
            if any(q_mp * q_mp > sys.float_info.max for q_mp, _ in poles):
                with pytest.raises(InvalidInput, match="energy -q\\^2 that overflows"):
                    bound.find_bound_states(model, 1e300)
                rejected += 1
                continue
            states = bound.find_bound_states(model, 1e300)
            assert len(states) == len(poles)
            for s, (q_mp, _) in zip(states, poles):
                assert abs(s.q - q_mp) <= 2 * math.ulp(float(q_mp))
                assert math.isfinite(s.energy) and not math.isnan(s.a2)
                denom = 1 / q_mp - 2 * mp.mpf(c1)
                assert s.norm_sign == ("positive" if denom > 0 else "negative")
        assert rejected > 0

    def test_roots_past_the_float_range(self):
        # the larger root of h(q) = -1 + q -+ 1e-310 q^2 is +-1e310
        assert bound._quadratic_roots(-1.0, 1e-310) == [1.0, math.inf]
        assert bound._quadratic_roots(-1.0, -1e-310) == [-math.inf, 1.0]
        # a conjugate pair with finite parts whose modulus overflows
        assert bound.find_bound_states(PhaseShiftModel((-1.7e308, 4e-309)), q_max=1e300) == []

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

    @pytest.mark.parametrize("q, energy", [(-1.0, -1.0), (1.0, 0.0)])
    def test_constructor_needs_a_bound_pole(self, q, energy):
        with pytest.raises(InvalidInput, match="q > 0 and energy < 0"):
            bound.BoundState(q=q, energy=energy, a2=1.0, norm_sign="positive")

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
