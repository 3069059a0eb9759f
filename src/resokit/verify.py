"""Verification battery: every library-level invariant as a named check.

Each check returns a :class:`CheckResult` with the worst observed residual
and its tolerance. The CLI ``verify`` subcommand and the acceptance test
module both run these functions, so there is a single source of truth for
what "passing" means. Derived reference values are produced by independent
oracles (quadrature of defining integrals, closed-form roots, the double
series of the modified product) rather than by the code paths under test,
except the intercept of the two-channel low-energy fit, anchored on the
closed-form a_eps (:func:`fit_effective_params`).

A randomized check draws its cases one at a time from a generator seeded
by the battery seed plus a fixed offset, in a fixed order, so one seed
fixes every draw and reproduces every ``worst`` value bit for bit on a
given numpy and CPU (numpy picks its ``exp``, ``sinh``, ``cosh`` and
``power`` kernels by the CPU, for the quadrature nodes and the geomspace
grids).

Draws cost only their arithmetic:
- a uniform is numpy's own lo + (hi - lo) u on raw ``rng.random()``
  doubles (:func:`_uniform`), the bits of ``rng.uniform`` at less cost;
- ``series-quotient`` takes the six normals of a draw from one
  ``rng.normal(size=6)``, the values of ``normal(size=4)`` and two
  ``normal()`` calls;
- a log-uniform value is ``10.0 ** x`` per Python float, the C library's
  ``pow``, so the drawn two-pole models do not depend on numpy's
  CPU-dependent array power;
- a random sign is ``(-1.0, 1.0)[rng.integers(2)]``, which consumes the
  generator as ``rng.choice([-1.0, 1.0])`` does and picks the same entry.
Draws are Python floats, whose arithmetic carries the same bits as
numpy's float64 scalars at less cost per operation.

Only evaluation is batched, in four places: the one-channel unitarity
check evaluates g of all its models in one Horner pass over their
zero-padded coefficient table (:func:`_horner_block`) and their residuals
in one kernel call, the two-channel one builds the wavenumber grids of
all its drawn sets in one geomspace call, and the loop oracle evaluates
the 15 energies of each (eps, sign) as one block whose rows keep their
one-energy bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bound, scattering, twochannel
from .contact import PhaseShiftModel
from .errors import InvalidInput
from .product import (
    ContactEigenstate,
    construct_two_pole_model,
    modified_product,
    plain_overlap_bound,
)
from .species import parse_species
from .units import scattering_length_of_field, vdw_length, width_radius

DEFAULT_SEED = 20260810

# Bound state of the two-term model with a = R* = 1: positive root of
# q^2 + q - 1 = 0 and the normalization constant it implies.
Q_REFERENCE = (math.sqrt(5.0) - 1.0) / 2.0
E_REFERENCE = -(Q_REFERENCE**2)
BETA2_LIMIT = 2.0 / ((1.0 + math.sqrt(5.0)) / 2.0 + 2.0)

EPS_SEQUENCE = (0.2, 0.1, 0.05, 0.025)

SYNTHETIC_SPECIES_CSV = """\
# synthetic resonance table for the verification battery
species,mass_amu,C6_au,B0_G,DeltaB_G,abg_a0,dmu_muB
synthA,86.909,4700.0,100.5,2.5,98.98,2.0
synthB,39.964,3926.9,543.25,0.0625,61.65,1.5
synthC,6.0151,1393.4,716.0,10.0,-25.0,0.5
"""


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str
    seconds: float = 0.0
    cases: list | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: worst {self.worst:.3e} vs tol {self.tolerance:.0e}"
            f" ({self.seconds:.2f}s) {self.detail}"
        )


def _uniform(rng, lo, hi, size=None):
    """``rng.uniform(lo, hi, size)`` as a float or a list, at the cost of ``rng.random``.

    Each value is numpy's own lo + (hi - lo) u on the same double u, so the
    generator stream and every bit stay those of ``rng.uniform``.
    """
    if size is None:
        return lo + (hi - lo) * rng.random()
    scale = hi - lo
    return [lo + scale * u for u in rng.random(size).tolist()]


def _random_coeffs(rng, max_degree):
    """Coefficients of a random polynomial model of degree at most ``max_degree``."""
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = _uniform(rng, -2.0, 2.0, degree + 1)
    if abs(coeffs[0]) < 1e-3:
        coeffs[0] = math.copysign(1e-3, coeffs[0] if coeffs[0] != 0.0 else 1.0)
    if degree > 0 and coeffs[degree] == 0.0:
        coeffs[degree] = 0.5
    return coeffs


def _horner_block(table, energies):
    """g of every coefficient list in ``table`` on ``energies``, one row each, in one pass.

    The lists are zero-padded to the longest into one array. On a grid of
    finite energies a padded leading coefficient keeps the running sum at
    0 * E + 0 = 0, so each row has the bits of :meth:`PhaseShiftModel.g`.
    """
    width = max(map(len, table))
    columns = np.array([coeffs + [0.0] * (width - len(coeffs)) for coeffs in table]).T
    gs = np.zeros((len(table), len(energies)))
    for column in columns[::-1]:
        gs = gs * energies + column[:, None]
    return gs


def check_unitarity_one_channel(seed: int = DEFAULT_SEED) -> CheckResult:
    """Im(1/f) = -k for 200 random polynomial models on a 50-point log grid.

    The coefficients of the models are drawn in turn; g of all of them on
    the shared grid is one Horner pass over their zero-padded table, and
    the residual of the stacked 200 x 50 array is one kernel call.
    """
    rng = np.random.default_rng(seed)
    ks = np.geomspace(1e-2, 1e2, 50)
    energies = scattering.energy(ks)
    gs = _horner_block([_random_coeffs(rng, max_degree=6) for _ in range(200)], energies)
    worst = float(scattering.unitarity_kernel(ks, gs).max())
    tol = 1e-13
    return CheckResult(
        "unitarity-one-channel", worst < tol, worst, tol,
        "200 models x 50 wavenumbers",
    )


def check_unitarity_two_channel(seed: int = DEFAULT_SEED) -> CheckResult:
    """Im(1/f) = -k0 at finite regulator width for 50 random parameter sets."""
    rng = np.random.default_rng(seed + 1)
    draws = [(_uniform(rng, 0.2, 5.0), _uniform(rng, 0.05, 0.5), _uniform(rng, -5.0, 5.0))
             for _ in range(50)]
    grids = np.geomspace(1e-3, 1.0 / np.array([eps for _, eps, _ in draws]), 40, axis=1)
    worst = 0.0
    for (rstar, eps, e_mol), k0s in zip(draws, grids.tolist()):
        p = twochannel.TwoChannelParams(twochannel.lambda_from_rstar(rstar), e_mol, eps)
        for k0 in k0s:
            energy = k0**2 / p.mass
            inv = twochannel.inverse_amplitude(p, energy)
            worst = max(worst, abs(inv.imag + k0) / k0)
    tol = 1e-12
    return CheckResult(
        "unitarity-two-channel", worst < tol, worst, tol,
        "50 parameter sets, k0 in [1e-3, 1/eps]",
    )


def check_orthogonality(seed: int = DEFAULT_SEED) -> CheckResult:
    """Modified product of the two bound states of 150 two-pole models.

    100 pairs lie at least 5% apart; 50 close pairs follow from the same
    generator, at relative gaps log-uniform in 1e-5..1e-2, the lower end
    ten times outside the tangent band of :func:`bound.find_bound_states`.
    """
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    tol = 1e-12
    cases = []
    pairs = []
    while len(pairs) < 100:
        q1 = 10.0 ** _uniform(rng, -1.0, 1.0)
        q2 = 10.0 ** _uniform(rng, -1.0, 1.0)
        if abs(q1 - q2) >= 0.05 * max(q1, q2):
            pairs.append((q1, q2))
    for _ in range(50):
        q1 = 10.0 ** _uniform(rng, -1.0, 1.0)
        pairs.append((q1, q1 * (1.0 + 10.0 ** _uniform(rng, -5.0, -2.0))))
    for q1, q2 in pairs:
        model = construct_two_pole_model(q1, q2)
        states = bound.find_bound_states(model, q_max=4.0 * max(q1, q2))
        if len(states) != 2:
            return CheckResult("orthogonality", False, math.nan, tol,
                               f"two-pole model {model.coeffs} gave {len(states)} states")
        s1 = ContactEigenstate.bound(states[0].energy, 1.0)
        s2 = ContactEigenstate.bound(states[1].energy, 1.0)
        plain = plain_overlap_bound(s1, s2)
        mod = modified_product(model, s1, s2, plain)
        residual = abs(mod) / abs(plain)
        worst = max(worst, residual)
        cases.append(
            {
                "model": list(model.coeffs),
                "states": [states[0].q, states[1].q],
                "plain": plain.real,
                "modified": mod.real,
                "residual": residual,
            }
        )
    return CheckResult(
        "orthogonality", worst < tol, worst, tol,
        "100 two-pole models and 50 close pairs, relative to the plain overlap",
        cases=cases,
    )


def _modified_product_series(model, s1, s2, plain):
    """(1|2)_0 through the double series of regularized matrix elements.

    The regularized large-k limit of <k|(p^2/2mu)^n|s> is -4 pi A E^(n-1)
    for n >= 1, so the product is the finite sum
    plain - (1/4 pi) sum_n c_n sum_{p=1..n} conj(M_1,n-p+1) M_2,p, with no
    truncation for a polynomial model. It is the oracle of ``series-quotient``
    and shares no arithmetic with :func:`modified_product`.
    """
    powers = range(1, model.degree + 1)
    m1 = -4.0 * math.pi * s1.amplitude
    m2 = -4.0 * math.pi * s2.amplitude
    left = [(m1 * s1.energy ** (j - 1)).conjugate() for j in powers]
    right = [m2 * s2.energy ** (j - 1) for j in powers]
    acc = 0.0j
    for n in powers:
        c = model.coeffs[n]
        if c == 0.0:
            continue
        inner = 0.0j
        for p in range(1, n + 1):
            inner += left[n - p] * right[p - 1]
        acc += c * inner
    return plain - (1.0 / (4.0 * math.pi)) * acc


def check_series_quotient(seed: int = DEFAULT_SEED) -> CheckResult:
    """Difference-quotient and double-series products agree over 500 draws."""
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for i in range(500):
        model = PhaseShiftModel(tuple(_random_coeffs(rng, max_degree=8)))
        e1 = (-1.0, 1.0)[rng.integers(2)] * 10.0 ** _uniform(rng, -2.0, 1.0)
        mode = i % 5
        if mode == 0:
            e2 = e1  # exactly degenerate
        elif mode in (1, 2):
            e2 = e1 * (1.0 + 10.0 ** _uniform(rng, -12.0, -2.0))  # near degenerate
        else:
            e2 = (-1.0, 1.0)[rng.integers(2)] * 10.0 ** _uniform(rng, -2.0, 1.0)
        a = rng.normal(size=6).tolist()
        s1 = ContactEigenstate(e1, complex(a[0], a[1]))
        s2 = ContactEigenstate(e2, complex(a[2], a[3]))
        plain = complex(a[4], a[5])
        lhs = modified_product(model, s1, s2, plain)
        rhs = _modified_product_series(model, s1, s2, plain)
        scale = max(abs(lhs), abs(rhs), abs(plain), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    tol = 1e-12
    return CheckResult(
        "series-quotient", worst < tol, worst, tol,
        "500 draws incl. degenerate and near-degenerate pairs",
    )


def check_normalization(seed: int = DEFAULT_SEED) -> CheckResult:
    """Modified-norm residual for the reference models and 50 random ones."""
    worst = 0.0
    const_model = PhaseShiftModel.from_effective_range(1.0)
    for state in bound.find_bound_states(const_model, q_max=10.0):
        worst = max(worst, bound.modified_norm_check(const_model, state))
    eff = PhaseShiftModel.from_effective_range(1.0, 1.0)
    states = bound.find_bound_states(eff, q_max=10.0)
    if len(states) != 1:
        return CheckResult("normalization", False, math.nan, 1e-10,
                           f"reference model gave {len(states)} states, not 1")
    if abs(states[0].a2 - 0.043989344375088815) > 1e-12:
        return CheckResult(
            "normalization", False, abs(states[0].a2 - 0.043989344375088815), 1e-12,
            "reference |A|^2 mismatch",
        )
    worst = max(worst, bound.modified_norm_check(eff, states[0]))

    rng = np.random.default_rng(seed + 4)
    found = 0
    while found < 50:
        model = PhaseShiftModel(tuple(_random_coeffs(rng, max_degree=4)))
        states = bound.find_bound_states(model, q_max=10.0)
        for state in states:
            # Skip states whose normalization denominator nearly vanishes;
            # the residual there measures cancellation, not correctness.
            if abs(1.0 / state.q - 2.0 * model.g_prime(state.energy)) < 1e-2 / state.q:
                continue
            worst = max(worst, bound.modified_norm_check(model, state))
            found += 1
            if found == 50:
                break
    tol = 1e-10
    return CheckResult(
        "normalization", worst < tol, worst, tol,
        "reference models plus 50 random bound states",
    )


# Exp-sinh (double-exponential) rule on (0, inf), Takahasi & Mori, Publ. RIMS
# 9 (1974): nodes x_j = exp((pi/2) sinh(jh)), weights h (pi/2) cosh(jh) x_j,
# |jh| <= DE_RANGE. At h = 1/32 it is good to only 1e-13 on the battery grid.
DE_STEP = 1.0 / 64.0
DE_RANGE = 4.5
_DE_T = DE_STEP * np.arange(-round(DE_RANGE / DE_STEP), round(DE_RANGE / DE_STEP) + 1)
_DE_X = np.exp(0.5 * math.pi * np.sinh(_DE_T))
_DE_W = DE_STEP * 0.5 * math.pi * np.cosh(_DE_T) * _DE_X


def loop_integral_quadrature(p: twochannel.TwoChannelParams, energies):
    """Real part of the loop integral by exp-sinh quadrature of its definition.

    One energy gives a float; a sequence on one side of threshold gives a
    list, from the rows of one 2-D evaluation. Each row is summed by its own
    1-D dot product, not gemv, so each value has the bits of a lone call.
    Below threshold the radial integrand is smooth; above it the principal
    value is taken by pairing symmetric points around the on-shell
    wavenumber k0 (u = k0 x/(1 + x) on (0, k0)) plus the tail beyond 2 k0.
    Kept independent of the closed-form implementation.
    """
    m = p.mass
    alpha = 0.5 * p.eps**2
    rows = np.reshape(energies, (-1, 1))

    def g(k):
        return k * k * np.exp(-alpha * k * k)

    below = rows <= 0.0
    if below.all():
        integrands = g(_DE_X) / (rows - _DE_X * _DE_X / m)
        values = [float(_DE_W @ row) / (2.0 * math.pi**2) for row in integrands]
    elif below.any():
        raise InvalidInput("a block of energies must lie on one side of threshold")
    else:
        k0 = np.sqrt(m * rows)
        u = k0 * _DE_X / (1.0 + _DE_X)
        gp, gm = g(k0 + u), g(k0 - u)
        paired = (2.0 * k0 * (gp - gm) - u * (gp + gm)) / (u * (2.0 * k0 + u) * (2.0 * k0 - u))
        k = 2.0 * k0 + _DE_X
        parts = zip(paired * k0 / (1.0 + _DE_X) ** 2, g(k) / (k * k - k0 * k0))
        values = [float(-m * (_DE_W @ inner + _DE_W @ tail) / (2.0 * math.pi**2))
                  for inner, tail in parts]
    return values if np.ndim(energies) else values[0]


def check_loop_oracle(seed: int = DEFAULT_SEED) -> CheckResult:
    """Closed-form loop integral against the quadrature oracle on a 30x5 grid."""
    eps_values = (0.05, 0.1, 0.2, 0.5, 1.0)
    magnitudes = np.geomspace(1e-6, 100.0, 15).tolist()
    by_sign = {-1.0: 0.0, 1.0: 0.0}
    for eps in eps_values:
        p = twochannel.TwoChannelParams(lam=1.0, e_mol=0.0, eps=eps)
        for sign in by_sign:
            energies = [sign * magnitude for magnitude in magnitudes]
            for energy, oracle in zip(energies, loop_integral_quadrature(p, energies)):
                closed = twochannel.loop_integral(p, energy).real
                by_sign[sign] = max(by_sign[sign], abs(closed - oracle) / abs(oracle))
    worst_neg, worst_pos = by_sign[-1.0], by_sign[1.0]
    passed = worst_neg < 1e-10 and worst_pos < 1e-8
    worst = max(worst_neg, worst_pos)
    return CheckResult(
        "loop-integral-oracle", passed, worst, 1e-8,
        f"E<0 worst {worst_neg:.2e} (tol 1e-10), E>0 Re worst {worst_pos:.2e} (tol 1e-8)",
    )


def fit_effective_params(p: twochannel.TwoChannelParams) -> tuple[float, float]:
    """(a_eps, rstar_eps) from a quadratic fit of Re(1/f) at low energy.

    The fit window spans [1e-6, 1e-3] in units of 1/(m l^2), where l is
    the largest length scale of the model, so it stays inside the expansion
    region for any parameter set. Near threshold 1/f sums the exact B(0-), so a_fit is
    anchored on the closed-form a_eps: the fit checks rstar_eps and the energy dependence of
    Re(1/f), and ``zero-range-limit``'s |a_fit - 1| is the round trip of a_eps to its target.
    """
    a_cf, r_cf = twochannel.effective_params(p)
    scale_len = max(p.eps, abs(r_cf), abs(a_cf) if math.isfinite(a_cf) else p.eps)
    e_scale = 1.0 / (p.mass * scale_len**2)
    energies = np.linspace(1e-6, 1e-3, 24) * e_scale
    values = np.array([twochannel.inverse_amplitude(p, e).real for e in energies.tolist()])
    x = energies / energies[-1]
    coef = np.polyfit(x, values, 2)
    inv_a_fit = -float(coef[2])
    rstar_fit = -float(coef[1]) / float(energies[-1]) / p.mass
    a_fit = math.inf if inv_a_fit == 0.0 else 1.0 / inv_a_fit
    return a_fit, rstar_fit


def check_effective_params(seed: int = DEFAULT_SEED) -> CheckResult:
    """Closed-form (a_eps, R*_eps) against the low-energy fit; coupling round trip."""
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    for _ in range(20):
        rstar = _uniform(rng, 0.3, 3.0)
        eps = _uniform(rng, 0.03, 0.3)
        a_target = (-1.0, 1.0)[rng.integers(2)] * _uniform(rng, 0.5, 3.0)
        p = twochannel.params_for_targets(a_target, rstar, eps)
        a_cf, r_cf = twochannel.effective_params(p)
        a_fit, r_fit = fit_effective_params(p)
        worst = max(worst, abs(1.0 / a_fit - 1.0 / a_cf) * abs(a_cf))
        worst = max(worst, abs(r_fit - r_cf) / abs(r_cf))
    round_trip = 0.0
    for rstar in (0.25, 1.0, 4.0):
        lam = twochannel.lambda_from_rstar(rstar)
        round_trip = max(
            round_trip, abs(twochannel.rstar_from_lambda(lam) - rstar) / rstar
        )
    passed = worst < 1e-6 and round_trip < 1e-12
    return CheckResult(
        "effective-params", passed, max(worst, round_trip), 1e-6,
        f"fit worst {worst:.2e} (tol 1e-6), coupling round trip {round_trip:.2e} (tol 1e-12)",
    )


def check_zero_range_limit(seed: int = DEFAULT_SEED) -> CheckResult:
    """Convergence to the two-term model as eps -> 0 at fixed (a, R*) = (1, 1)."""
    energy_errors = []
    rstar_fits = []
    a_dev = 0.0
    for eps in EPS_SEQUENCE:
        p = twochannel.params_for_targets(1.0, 1.0, eps)
        state = twochannel.bound_state(p)
        energy_errors.append(abs(state.energy - E_REFERENCE))
        a_fit, r_fit = fit_effective_params(p)
        a_dev = max(a_dev, abs(a_fit - 1.0))
        rstar_fits.append(r_fit)
    ratios = [energy_errors[i] / energy_errors[i + 1] for i in range(3)]
    ratios_ok = all(1.5 <= r <= 2.5 for r in ratios)
    coeffs = np.polyfit(np.array(EPS_SEQUENCE), np.array(rstar_fits) - 1.0, 2)
    slope = float(coeffs[1])
    slope_target = -math.sqrt(2.0 / math.pi)
    slope_dev = abs(slope - slope_target) / abs(slope_target)
    passed = ratios_ok and a_dev < 1e-6 and slope_dev < 0.05
    worst = max(slope_dev, a_dev, max(abs(r - 2.0) for r in ratios))
    return CheckResult(
        "zero-range-limit", passed, worst, 0.5,
        f"energy error ratios {['%.2f' % r for r in ratios]} (2.0 +- 0.5), "
        f"|a_fit-1| {a_dev:.1e} (tol 1e-6), R* slope dev {slope_dev:.2e} (tol 5e-2)",
    )


def check_molecular_identity(seed: int = DEFAULT_SEED) -> CheckResult:
    """Closed-channel weight equals the tail term of the modified product."""
    exact_worst = 0.0
    residuals = []
    beta2_final = None
    for eps in EPS_SEQUENCE:
        p = twochannel.params_for_targets(1.0, 1.0, eps)
        state = twochannel.bound_state(p)
        report = twochannel.product_identity_check(p, state, state)
        exact_worst = max(exact_worst, report.residual_exact)
        residuals.append(report.residual_beta)
        beta2_final = state.beta2
    monotone = all(residuals[i] > residuals[i + 1] for i in range(3))
    beta2_dev = abs(beta2_final - BETA2_LIMIT) / BETA2_LIMIT
    passed = (
        exact_worst < 1e-13
        and monotone
        and residuals[-1] < 0.02
        and beta2_dev < 0.02
    )
    return CheckResult(
        "molecular-identity", passed, residuals[-1], 0.02,
        f"exact algebra {exact_worst:.1e} (tol 1e-13), tail residuals "
        f"{['%.3f' % r for r in residuals]} (monotone, last < 2e-2), "
        f"beta2 dev {beta2_dev:.4f} (tol 2e-2)",
    )


def check_feshbach_layer(seed: int = DEFAULT_SEED) -> CheckResult:
    """Field dependence, exact zero crossing and width-radius round trip."""
    rows = parse_species(SYNTHETIC_SPECIES_CSV, mode="natural")
    worst_bg = 0.0
    worst_product = 0.0
    zero_ok = True
    for res in rows:
        for sign in (1.0, -1.0):
            field = res.b0 + sign * 1e6 * res.delta_b
            a = scattering_length_of_field(res, field)
            worst_bg = max(worst_bg, abs(a - res.a_bg) / abs(res.a_bg))
        zero_ok = zero_ok and scattering_length_of_field(
            res, res.b0 + res.delta_b
        ) == 0.0
        product = width_radius(res) * (
            res.a_bg * res.dmu * res.delta_b * res.mass / res.units.hbar**2
        )
        worst_product = max(worst_product, abs(product - 1.0))
        vdw_length(res)  # must be finite and positive for every row
    passed = worst_bg < 1e-5 and zero_ok and worst_product < 1e-12
    return CheckResult(
        "feshbach-layer", passed, max(worst_bg, worst_product), 1e-5,
        f"background dev {worst_bg:.2e} (tol 1e-5), exact zero {zero_ok}, "
        f"width-radius product dev {worst_product:.2e} (tol 1e-12)",
    )


# Every check takes the battery seed; the deterministic ones ignore it.
GROUPS = {
    "all": (
        check_unitarity_one_channel,
        check_unitarity_two_channel,
        check_orthogonality,
        check_series_quotient,
        check_normalization,
        check_loop_oracle,
        check_effective_params,
        check_zero_range_limit,
        check_molecular_identity,
        check_feshbach_layer,
    ),
    "unitarity": (check_unitarity_one_channel, check_unitarity_two_channel),
    "orthogonality": (check_orthogonality, check_series_quotient),
    "mapping": (check_loop_oracle, check_effective_params, check_zero_range_limit),
    "identity": (check_normalization, check_molecular_identity),
}


def run_battery(group: str = "all", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run one named group of checks and return their results, each timed."""
    if group not in GROUPS:
        raise InvalidInput(f"unknown verification group {group!r}")
    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    results = []
    for check in GROUPS[group]:
        start = time.perf_counter()
        result = check(seed)
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
