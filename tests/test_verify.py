"""The battery against its per-draw loops: same draws, same bits.

The checks draw their cases as Python floats from raw ``rng.random``
doubles and batch only evaluation. Each reference below is the
straightforward per-draw form of a check, with ``rng.uniform``,
``rng.normal``, numpy scalars and ``rng.choice`` for random signs; the
check must return exactly its ``worst`` value.
"""

import math

import numpy as np
import pytest

from resokit import scattering, twochannel, verify
from resokit.errors import InvalidInput
from resokit.contact import PhaseShiftModel
from resokit.product import ContactEigenstate, construct_two_pole_model, modified_product

SEEDS = (verify.DEFAULT_SEED, 0, 1, 2, 3, 4)
# The series-quotient breach seeds of ROADMAP item 2 (tolerance 1e-12) and
# the worst value each reads: all but 61097360 breach. A change that
# re-draws the battery shows here before it can hide the known breach.
SERIES_BREACH_SEEDS = (
    (1225879262, "2.18e-12", False),
    (61097360, "4.89e-13", True),
    (680, "2.26e-12", False),
    (476338473, "1.23e-12", False),
    (1559277049, "1.55e-12", False),
)
# Every (lo, hi) the battery draws uniforms from.
UNIFORM_RANGES = ((-2.0, 2.0), (0.2, 5.0), (0.05, 0.5), (-5.0, 5.0), (-1.0, 1.0),
                  (-5.0, -2.0), (-2.0, 1.0), (-12.0, -2.0), (0.3, 3.0), (0.03, 0.3), (0.5, 3.0))


def _random_model_numpy(rng, max_degree, coeff_range=2.0):
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = rng.uniform(-coeff_range, coeff_range, degree + 1)
    if abs(coeffs[0]) < 1e-3:
        coeffs[0] = math.copysign(1e-3, coeffs[0] if coeffs[0] != 0.0 else 1.0)
    if degree > 0 and coeffs[degree] == 0.0:
        coeffs[degree] = 0.5
    return PhaseShiftModel(tuple(coeffs))


def _unitarity_residual(model, ks):
    return scattering.unitarity_kernel(ks, model.g(ks * ks))


def _unitarity_per_model(seed):
    # f of each model from the amplitude table's per-point route, 1/f by
    # CPython's complex division
    rng = np.random.default_rng(seed)
    ks = np.geomspace(1e-2, 1e2, 50).tolist()
    worst = 0.0
    for _ in range(200):
        model = _random_model_numpy(rng, max_degree=6)
        _, _, re_f, im_f, _, _ = scattering.table(model, ks)
        for k, f in zip(ks, map(complex, re_f, im_f)):
            worst = max(worst, abs((1.0 / f).imag + k) / k)
    return worst


def _loop_quadrature_one_energy(p, energy):
    """The exp-sinh oracle for one energy: 1-D arrays and one dot per sum."""
    m = p.mass
    alpha = 0.5 * p.eps**2

    def g(k):
        return k * k * np.exp(-alpha * k * k)

    x, w = verify._DE_X, verify._DE_W
    if energy <= 0.0:
        return float(w @ (g(x) / (energy - x * x / m))) / (2.0 * math.pi**2)
    k0 = math.sqrt(m * energy)
    u = k0 * x / (1.0 + x)
    gp = g(k0 + u)
    gm = g(k0 - u)
    paired = (2.0 * k0 * (gp - gm) - u * (gp + gm)) / (u * (2.0 * k0 + u) * (2.0 * k0 - u))
    inner = w @ (paired * k0 / (1.0 + x) ** 2)
    k = 2.0 * k0 + x
    tail = w @ (g(k) / (k * k - k0 * k0))
    return float(-m * (inner + tail) / (2.0 * math.pi**2))


def _loop_oracle_per_energy():
    magnitudes = np.geomspace(1e-6, 100.0, 15).tolist()
    by_sign = {-1.0: 0.0, 1.0: 0.0}
    for eps in (0.05, 0.1, 0.2, 0.5, 1.0):
        p = twochannel.TwoChannelParams(lam=1.0, e_mol=0.0, eps=eps)
        for sign, magnitude in ((s, mag) for s in by_sign for mag in magnitudes):
            energy = sign * magnitude
            closed = twochannel.loop_integral(p, energy).real
            oracle = _loop_quadrature_one_energy(p, energy)
            by_sign[sign] = max(by_sign[sign], abs(closed - oracle) / abs(oracle))
    return by_sign[-1.0], by_sign[1.0]


def _two_channel_sets(seed):
    """The (params, k0 grid) pairs of the two-channel unitarity check, one draw at a time."""
    rng = np.random.default_rng(seed + 1)
    sets = []
    for _ in range(50):
        rstar = rng.uniform(0.2, 5.0)
        eps = rng.uniform(0.05, 0.5)
        p = twochannel.TwoChannelParams(
            lam=twochannel.lambda_from_rstar(rstar), e_mol=rng.uniform(-5.0, 5.0), eps=eps
        )
        sets.append((p, np.geomspace(1e-3, 1.0 / eps, 40).tolist()))
    return sets


def _matrix_element(s, n):
    """Regularized large-k limit of <k|(p^2/2mu)^n|s>, n >= 1: -4 pi A E^(n-1)."""
    return -4.0 * math.pi * s.amplitude * s.energy ** (n - 1)


def _series_by_double_loop(model, s1, s2, plain):
    acc = 0.0j
    for n in range(1, model.degree + 1):
        c = model.coeffs[n]
        if c == 0.0:
            continue
        inner = 0.0j
        for p in range(1, n + 1):
            inner += _matrix_element(s1, n - p + 1).conjugate() * _matrix_element(s2, p)
        acc += c * inner
    return plain - (1.0 / (4.0 * math.pi)) * acc


def _series_quotient_per_draw(seed):
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for i in range(500):
        model = _random_model_numpy(rng, max_degree=8)
        e1 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 1.0))
        mode = i % 5
        if mode == 0:
            e2 = e1
        elif mode in (1, 2):
            e2 = e1 * (1.0 + 10.0 ** rng.uniform(-12.0, -2.0))
        else:
            e2 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 1.0))
        amps = rng.normal(size=4)
        s1 = ContactEigenstate(e1, complex(amps[0], amps[1]))
        s2 = ContactEigenstate(e2, complex(amps[2], amps[3]))
        plain = complex(rng.normal(), rng.normal())
        lhs = modified_product(model, s1, s2, plain)
        rhs = _series_by_double_loop(model, s1, s2, plain)
        scale = max(abs(lhs), abs(rhs), abs(plain), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_unitarity_equals_per_model_loop(seed):
    assert verify.check_unitarity_one_channel(seed).worst == _unitarity_per_model(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_horner_block_rows_equal_model_g(seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    table = [verify._random_coeffs(ours, max_degree=6) for _ in range(200)]
    models = [_random_model_numpy(theirs, max_degree=6) for _ in range(200)]
    ks = np.geomspace(1e-2, 1e2, 50)
    energies = ks * ks
    block = verify._horner_block(table, energies)
    assert block.shape == (200, 50)
    for coeffs, model, row in zip(table, models, block):
        assert _bits(coeffs) == _bits(model.coeffs)
        assert _bits(row) == _bits(model.g(energies))


@pytest.mark.parametrize("seed", range(20))
def test_raw_double_uniforms_equal_rng_uniform(seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for lo, hi in UNIFORM_RANGES * 4:
        assert verify._uniform(ours, lo, hi).hex() == theirs.uniform(lo, hi).hex()
        assert ours.integers(2) == theirs.integers(2)
        for size in (1, 2, 9):
            assert _bits(verify._uniform(ours, lo, hi, size)) == _bits(theirs.uniform(lo, hi, size))
            assert ours.integers(2) == theirs.integers(2)


@pytest.mark.parametrize("seed", range(20))
def test_six_normals_at_once_equal_four_then_two(seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(50):
        six = ours.normal(size=6).tolist()
        assert _bits(six) == _bits([*theirs.normal(size=4).tolist(), theirs.normal(), theirs.normal()])
        assert ours.integers(2) == theirs.integers(2)


@pytest.mark.parametrize("seed", SEEDS)
def test_orthogonality_pairs_take_pow_per_value(seed):
    # numpy's array power may round other than the C library's pow,
    # depending on the CPU; the pairs must not.
    rng = np.random.default_rng(seed + 2)
    pairs = []
    while len(pairs) < 100:
        q1, q2 = (10.0 ** x for x in rng.uniform(-1.0, 1.0, 2).tolist())
        if abs(q1 - q2) >= 0.05 * max(q1, q2):
            pairs.append((q1, q2))
    for _ in range(50):
        q1 = 10.0 ** rng.uniform(-1.0, 1.0)
        pairs.append((q1, q1 * (1.0 + 10.0 ** rng.uniform(-5.0, -2.0))))
    cases = verify.check_orthogonality(seed).cases
    assert [_bits(case["model"]) for case in cases] == [
        _bits(construct_two_pole_model(q1, q2).coeffs) for q1, q2 in pairs
    ]


def test_unitarity_kernel_of_a_stack_equals_one_model_calls():
    ks = np.geomspace(1e-2, 1e2, 50)
    models = [PhaseShiftModel((-1.0, 0.3, -2.0e-3)), PhaseShiftModel((0.7,)),
              PhaseShiftModel((1e-3, -1.9, 0.4, 1.2))]
    stacked = scattering.unitarity_kernel(ks, np.array([m.g(ks * ks) for m in models]))
    for row, model in zip(stacked, models):
        assert row.tolist() == _unitarity_residual(model, ks).tolist()


@pytest.mark.parametrize("degree", range(9))
def test_series_equals_double_loop_exactly(degree):
    rng = np.random.default_rng(100 + degree)
    for trial in range(40):
        coeffs = rng.uniform(-2.0, 2.0, degree + 1).tolist()
        if degree > 2 and trial % 4 == 0:
            coeffs[1] = 0.0  # a skipped interior power
        model = PhaseShiftModel(tuple(coeffs))
        e1 = (-1.0, 1.0)[rng.integers(2)] * 10.0 ** rng.uniform(-2.0, 1.0)
        for e2 in (e1, e1 * (1.0 + 10.0 ** rng.uniform(-12.0, -2.0)), -e1):
            a1, b1, a2, b2 = rng.normal(size=4).tolist()
            s1 = ContactEigenstate(e1, complex(a1, b1))
            s2 = ContactEigenstate(e2, complex(a2, b2))
            plain = complex(rng.normal(), rng.normal())
            assert verify._modified_product_series(model, s1, s2, plain) == _series_by_double_loop(
                model, s1, s2, plain
            )


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_series_quotient_equals_per_draw_loop(seed):
    assert verify.check_series_quotient(seed).worst == _series_quotient_per_draw(seed)


@pytest.mark.parametrize(
    "seed, worst, passed", SERIES_BREACH_SEEDS, ids=[str(s[0]) for s in SERIES_BREACH_SEEDS]
)
def test_series_quotient_breach_seed_is_unchanged(seed, worst, passed):
    result = verify.check_series_quotient(seed)
    assert result.worst == _series_quotient_per_draw(seed)
    assert f"{result.worst:.2e}" == worst
    assert result.passed is passed


@pytest.mark.parametrize("seed", (verify.DEFAULT_SEED, 7))
def test_every_check_reports_python_floats(seed):
    for result in verify.run_battery("all", seed):
        assert type(result.worst) is float, result.name
        assert type(result.tolerance) is float, result.name
        assert type(result.passed) is bool, result.name


@pytest.mark.parametrize("group, seed", [("bogus", verify.DEFAULT_SEED), ("all", -1)])
def test_unknown_group_or_negative_seed_is_input_error(group, seed):
    with pytest.raises(InvalidInput):
        verify.run_battery(group, seed)


@pytest.mark.parametrize("eps", (0.05, 0.1, 0.2, 0.5, 1.0))
@pytest.mark.parametrize("sign", (-1.0, 1.0))
def test_loop_oracle_block_equals_one_energy_calls(eps, sign):
    p = twochannel.TwoChannelParams(lam=1.0, e_mol=0.0, eps=eps)
    energies = [sign * magnitude for magnitude in np.geomspace(1e-6, 100.0, 15).tolist()]
    block = verify.loop_integral_quadrature(p, energies)
    assert all(type(value) is float for value in block)
    assert block == [verify.loop_integral_quadrature(p, e) for e in energies]
    assert block == [_loop_quadrature_one_energy(p, e) for e in energies]
    assert verify.loop_integral_quadrature(p, energies[:1]) == block[:1]


def test_loop_oracle_block_across_threshold_is_input_error():
    p = twochannel.TwoChannelParams(lam=1.0, e_mol=0.0, eps=0.1)
    with pytest.raises(InvalidInput, match="one side of threshold"):
        verify.loop_integral_quadrature(p, [-1.0, 1.0])


def test_loop_oracle_check_equals_per_energy_loop():
    result = verify.check_loop_oracle()
    worst_neg, worst_pos = _loop_oracle_per_energy()
    assert result.worst == max(worst_neg, worst_pos)
    assert result.detail == (
        f"E<0 worst {worst_neg:.2e} (tol 1e-10), E>0 Re worst {worst_pos:.2e} (tol 1e-8)"
    )


@pytest.mark.parametrize("seed", range(10))
def test_two_channel_grids_equal_per_set_geomspace(seed, monkeypatch):
    calls = []
    inverse_amplitude = twochannel.inverse_amplitude

    def record(p, energy):
        calls.append((p, energy))
        return inverse_amplitude(p, energy)

    monkeypatch.setattr(twochannel, "inverse_amplitude", record)
    result = verify.check_unitarity_two_channel(seed)
    monkeypatch.undo()
    sets = _two_channel_sets(seed)
    epses = np.array([p.eps for p, _ in sets])
    assert np.geomspace(1e-3, 1.0 / epses, 40, axis=1).tolist() == [grid for _, grid in sets]
    assert calls == [(p, k0**2 / p.mass) for p, grid in sets for k0 in grid]
    worst = 0.0
    for p, grid in sets:
        for k0 in grid:
            inv = twochannel.inverse_amplitude(p, k0**2 / p.mass)
            worst = max(worst, abs(inv.imag + k0) / k0)
    assert result.worst == worst
