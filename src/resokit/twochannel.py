"""Two-channel resonance model with a Gaussian interchannel form factor.

Open-channel atom pairs (mass m each) couple with amplitude ``lam`` to a
structureless molecular level of internal energy ``e_mol`` through the
momentum-space form factor chi(k) = exp(-k^2 eps^2/4). Everything here is
the two-body relative motion at zero total momentum, with hbar = 1.

The scattering amplitude is

    f(E) = -(m/4 pi hbar^2) chi(k0)^2 / [ (E - e_mol)/(2 lam^2) - I(E) ],

where I(E) is the regularized loop integral over intermediate atom pairs.
At low energy the model reproduces a two-term phase function with
scattering length a_eps and range parameter rstar_eps; as eps -> 0 at fixed
(a, R*) it converges to the one-channel effective-range description, and
R* = 2 pi hbar^4/(m^2 lam^2) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import dawsn, erfcx

from .errors import InvalidInput, NoBoundState, ParameterMismatch, PoleHit

HBAR = 1.0

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
SQRT_PI = math.sqrt(math.pi)

# Tail extraction window fractions c in k = c/eps.
TAIL_FRACTIONS = (0.05, 0.1)

# Below threshold I(E) carries the bracket sqrt(pi) x erfcx(x) - 1 and the
# norm integral J the bracket (1 + 2x^2) erfcx(x) - 2x/sqrt(pi), at
# x = kappa eps/sqrt(2). They cancel to about x^2 and x^4 machine epsilons,
# so from SERIES_X on both are summed as asymptotic series: the first is
# sum_{n>=1} a_n x^-2n with a_n = (-1)^n (2n-1)!!/2^n, the second, its
# derivative up to a factor, sum_{n>=1} -2n a_n x^-(2n+1)/sqrt(pi).
# Crossover and length were chosen against mpmath: both brackets stay within
# 3e-12 relative for all x.
SERIES_X = 7.0
SERIES_TERMS = 20
_LOOP_SERIES = tuple(
    (-1.0) ** n * math.prod(range(1, 2 * n, 2)) / 2.0**n
    for n in range(1, SERIES_TERMS + 1)
)
_NORM_SERIES = tuple(-2.0 * n * a for n, a in enumerate(_LOOP_SERIES, start=1))

# Open-channel overlaps of states whose decay constants differ by at most
# this fraction of their sum average J by Gauss-Legendre, because the
# difference of loop integrals cancels there. Against mpmath the average
# stays within 1e-13 relative and the difference within 5e-12.
OVERLAP_GAUSS_GAP = 0.2
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class TwoChannelParams:
    """Coupling amplitude, molecular energy, regulator width, atom mass."""

    lam: float
    e_mol: float
    eps: float
    mass: float = 1.0

    def __post_init__(self):
        if not self.eps > 0.0:
            raise InvalidInput("regulator width eps must be positive")
        if not 0.0 < self.mass < math.inf:
            raise InvalidInput("mass must be positive and finite")
        if not math.isfinite(self.e_mol):
            raise InvalidInput("molecular energy must be finite")
        # The closed forms divide by eps^2 and lam^2; this also rejects
        # lam = 0 and non-finite eps or lam.
        if not (0.0 < self.eps * self.eps < math.inf and 0.0 < self.lam * self.lam < math.inf):
            raise InvalidInput("eps and the coupling amplitude need finite, nonzero squares")

    def chi(self, k):
        """Form factor chi(k) = exp(-k^2 eps^2/4)."""
        return np.exp(-0.25 * (k * self.eps) ** 2)


@dataclass(frozen=True)
class TwoChannelBoundState:
    """Dressed molecular state below threshold.

    ``beta2`` is the closed-channel population, ``open_norm`` the open
    channel one (they sum to 1 by normalization), and ``a_tail`` the source
    amplitude extracted from the 1/k^2 tail of the open-channel momentum
    wavefunction.
    """

    params: TwoChannelParams
    energy: float
    beta2: float
    a_tail: float
    open_norm: float

    @property
    def beta(self) -> float:
        """Molecular amplitude, real positive by phase convention."""
        return math.sqrt(self.beta2)

    def psi(self, k):
        """Open-channel momentum wavefunction sqrt(2) lam beta chi(k)/(E - k^2/m)."""
        p = self.params
        denom = self.energy - (HBAR * np.asarray(k, dtype=float)) ** 2 / p.mass
        return math.sqrt(2.0) * p.lam * self.beta * p.chi(k) / denom


def loop_integral(p: TwoChannelParams, energy: float) -> complex:
    """Regularized loop integral I(E) over intermediate atom pairs.

    For the Gaussian form factor the integral has a closed form: below
    threshold it involves the scaled complementary error function, summed as
    its asymptotic series from x = kappa eps/sqrt(2) >= ``SERIES_X`` on,
    above it the Dawson function for the principal value plus an exact
    on-shell imaginary part. Scaled special functions keep the evaluation
    finite for arbitrarily deep energies.
    """
    m = p.mass
    alpha = 0.5 * p.eps**2
    prefactor = m / (2.0 * math.pi**2 * HBAR**2)
    if energy < 0.0:
        kappa = math.sqrt(-m * energy) / HBAR
        x = kappa * math.sqrt(alpha)
        if x < SERIES_X:
            real = prefactor * (
                -0.5 * math.sqrt(math.pi / alpha)
                + 0.5 * math.pi * kappa * float(erfcx(x))
            )
        else:
            real = prefactor * 0.5 * SQRT_PI / math.sqrt(alpha) * _series(_LOOP_SERIES, x)
        return complex(real, 0.0)
    if energy == 0.0:
        return complex(
            -(m / HBAR**2) * math.sqrt(2.0 * math.pi) / (4.0 * math.pi**2 * p.eps),
            0.0,
        )
    k0 = math.sqrt(m * energy) / HBAR
    x = k0 * math.sqrt(alpha)
    real = -prefactor * (
        0.5 * math.sqrt(math.pi / alpha) - math.sqrt(math.pi) * k0 * float(dawsn(x))
    )
    imag = -(m * k0 / (4.0 * math.pi * HBAR**2)) * math.exp(-alpha * k0 * k0)
    return complex(real, imag)


def _bracket(p: TwoChannelParams, energy: float) -> complex:
    """Denominator of f: (E - e_mol)/(2 lam^2) - I(E); it vanishes at the pole."""
    return (energy - p.e_mol) / (2.0 * p.lam**2) - loop_integral(p, energy)


def _series(coeffs, x: float) -> float:
    """sum_{n>=1} coeffs[n-1] x^-2n by Horner's rule in 1/x^2."""
    y = 1.0 / (x * x)
    total = 0.0
    for c in reversed(coeffs):
        total = (total + c) * y
    return total


def _norm_shape(x: float) -> float:
    """(1 + 2x^2) erfcx(x) - 2x/sqrt(pi), by its asymptotic series from SERIES_X on."""
    if x < SERIES_X:
        return (1.0 + 2.0 * x * x) * float(erfcx(x)) - 2.0 * x / SQRT_PI
    return _series(_NORM_SERIES, x) / (x * SQRT_PI)


def norm_integral(p: TwoChannelParams, energy: float) -> float:
    """J(E) = -I'(E) = int d3k/(2 pi)^3 chi^2/(E - k^2/m)^2 below threshold.

    With kappa = sqrt(-m E)/hbar and x = kappa eps/sqrt(2) the closed form is
    J = (m^2/(8 pi hbar^4 kappa)) [(1 + 2x^2) erfcx(x) - 2x/sqrt(pi)].
    """
    if not energy < 0.0:
        raise InvalidInput("the norm integral needs an energy below threshold")
    m = p.mass
    kappa = math.sqrt(-m * energy) / HBAR
    return m * m / (8.0 * math.pi * HBAR**4 * kappa) * _norm_shape(kappa * p.eps / math.sqrt(2.0))


def inverse_amplitude(p: TwoChannelParams, energy: float) -> complex:
    """1/f(E); safe on both sides of threshold.

    Below threshold the form factor is analytically continued, which makes
    1/f the numerically tame direction (the continued chi^2 grows, its
    inverse decays).
    """
    bracket = _bracket(p, energy)
    chi2_inv = math.exp(p.mass * energy * p.eps**2 / (2.0 * HBAR**2))
    return -(4.0 * math.pi * HBAR**2 / p.mass) * bracket * chi2_inv


def amplitude(p: TwoChannelParams, energy: float, pole_rtol: float = 1e-12) -> complex:
    """f(E), raising :class:`PoleHit` when the denominator vanishes.

    A vanishing bracket is the bound state, not a scattering point.
    """
    loop = loop_integral(p, energy)
    detuning = (energy - p.e_mol) / (2.0 * p.lam**2)
    bracket = detuning - loop
    scale = max(abs(detuning), abs(loop))
    if abs(bracket) <= pole_rtol * scale:
        raise PoleHit(f"amplitude pole within tolerance at E = {energy!r}")
    inv = inverse_amplitude(p, energy)
    if inv == 0.0:
        raise InvalidInput("energy too deep below threshold for the continued amplitude")
    return 1.0 / inv


def effective_params(p: TwoChannelParams) -> tuple[float, float]:
    """Closed-form low-energy parameters (a_eps, rstar_eps).

    1/a_eps = sqrt(2/pi)/eps - 2 pi hbar^2 e_mol/(lam^2 m) (a_eps is inf
    where it vanishes) and rstar_eps = R* - sqrt(2/pi) eps + eps^2/(2 a_eps).
    :func:`resokit.verify.fit_effective_params` checks them against a
    low-energy fit of Re(1/f).
    """
    m = p.mass
    inv_a = SQRT_2_OVER_PI / p.eps - 2.0 * math.pi * HBAR**2 * p.e_mol / (p.lam**2 * m)
    a_eps = math.inf if inv_a == 0.0 else 1.0 / inv_a
    rstar = -SQRT_2_OVER_PI * p.eps + 2.0 * math.pi * HBAR**4 / (p.lam**2 * m**2)
    if math.isfinite(a_eps):
        rstar += p.eps**2 / (2.0 * a_eps)
    return a_eps, rstar


def lambda_from_rstar(rstar: float, mass: float = 1.0) -> float:
    """Coupling amplitude reproducing a given width radius, lam = sqrt(2 pi hbar^4/(m^2 R*))."""
    if not rstar > 0.0:
        raise InvalidInput("this mapping covers only rstar > 0")
    return math.sqrt(2.0 * math.pi * HBAR**4 / (mass**2 * rstar))


def rstar_from_lambda(lam: float, mass: float = 1.0) -> float:
    """Width radius of the zero-range limit, R* = 2 pi hbar^4/(m^2 lam^2)."""
    if lam == 0.0:
        raise InvalidInput("coupling amplitude must be nonzero")
    return 2.0 * math.pi * HBAR**4 / (mass**2 * lam**2)


def emol_for_target_a(a_target: float, p: TwoChannelParams) -> float:
    """Molecular energy that sets the scattering length to ``a_target``."""
    if a_target == 0.0:
        raise InvalidInput("target scattering length must be nonzero")
    return (p.lam**2 * p.mass / (2.0 * math.pi * HBAR**2)) * (
        SQRT_2_OVER_PI / p.eps - 1.0 / a_target
    )


def params_for_targets(
    a: float, rstar: float, eps: float, mass: float = 1.0
) -> TwoChannelParams:
    """Parameter set holding (a_eps, R*) = (a, rstar) at regulator width eps."""
    lam = lambda_from_rstar(rstar, mass)
    probe = TwoChannelParams(lam=lam, e_mol=0.0, eps=eps, mass=mass)
    return TwoChannelParams(
        lam=lam, e_mol=emol_for_target_a(a, probe), eps=eps, mass=mass
    )


def bound_state(p: TwoChannelParams) -> TwoChannelBoundState:
    """Locate the dressed molecular state and build its normalized content.

    Below threshold the bracket B(E) = (E - e_mol)/(2 lam^2) - I(E) rises
    strictly (its slope is 1/(2 lam^2) + J(E) > 0) from -inf to
    B(0-) = m/(4 pi hbar^2 a_eps), so there is exactly one pole when
    0 < a_eps < inf and none otherwise (:class:`NoBoundState`, also raised
    when 1/a_eps is so small that the computed B(0) loses its sign to
    rounding). The lower end of the bracket starts at the zero-range energy
    -hbar^2/(m a_eps^2) and moves down geometrically until B < 0; one brentq
    then solves B = 0. The closed-channel weight is
    beta^2 = 1/(1 + 2 lam^2 J(E)) by unit total norm, and the tail amplitude
    follows from the plateau of k^2 psi(k), sampled at k = c/eps and
    extrapolated against the inverse-square window variable.
    """

    def bracket(e):
        return _bracket(p, e).real

    a_eps, _ = effective_params(p)
    if not (0.0 < a_eps < math.inf and bracket(0.0) > 0.0):
        raise NoBoundState(f"no pole below threshold for a_eps = {a_eps!r}")
    e_lo = min(-HBAR**2 / (p.mass * a_eps**2), -np.finfo(float).tiny)
    while bracket(e_lo) >= 0.0:
        e_lo *= 4.0
    energy = brentq(bracket, e_lo, 0.0, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)

    j = norm_integral(p, energy)
    beta2 = 1.0 / (1.0 + 2.0 * p.lam**2 * j)
    open_norm = 2.0 * p.lam**2 * j * beta2
    beta = math.sqrt(beta2)

    def plateau(c):
        k = c / p.eps
        psi = (
            math.sqrt(2.0)
            * p.lam
            * beta
            * math.exp(-0.25 * (k * p.eps) ** 2)
            / (energy - (HBAR * k) ** 2 / p.mass)
        )
        return -(k * k * psi) / (4.0 * math.pi)

    lo, hi = TAIL_FRACTIONS
    # Error model: plateau approached like 1/k^2 from the shallow side; with
    # samples at k and 2k the extrapolant is (4 P(2k) - P(k))/3.
    a_tail = (4.0 * plateau(hi) - plateau(lo)) / 3.0

    return TwoChannelBoundState(
        params=p, energy=energy, beta2=beta2, a_tail=a_tail, open_norm=open_norm
    )


def tail_amplitude_from_beta(p: TwoChannelParams, beta: float) -> float:
    """Zero-range-limit relation A = sqrt(2) m lam beta/(4 pi hbar^2)."""
    return math.sqrt(2.0) * p.mass * p.lam * beta / (4.0 * math.pi * HBAR**2)


def open_channel_overlap(
    s1: TwoChannelBoundState, s2: TwoChannelBoundState
) -> float:
    """<1_open|2_open> = 2 lam^2 beta_1 beta_2 K for two states of one model.

    K = int d3k/(2 pi)^3 chi^2/((E_1 - e_k)(E_2 - e_k)) is by partial
    fractions (I(E_1) - I(E_2))/(E_2 - E_1), the mean of J over [E_2, E_1].
    In decay constants that mean is (m^2/(4 pi hbar^4)) S/(kappa_1 + kappa_2),
    with S the mean of the bracket of J, (1 + 2x^2) erfcx(x) - 2x/sqrt(pi) at
    x = kappa eps/sqrt(2), over [kappa_2, kappa_1]. S is taken by
    Gauss-Legendre when the kappas are within ``OVERLAP_GAUSS_GAP``, which
    gives K = J(E) at E_1 = E_2.
    """
    p = s1.params
    m = p.mass
    k1, k2 = (math.sqrt(-m * s.energy) / HBAR for s in (s1, s2))
    if abs(k1 - k2) <= OVERLAP_GAUSS_GAP * (k1 + k2):
        mid, half = 0.5 * (k1 + k2), 0.5 * (k1 - k2)
        mean = 0.5 * sum(
            w * _norm_shape((mid + half * t) * p.eps / math.sqrt(2.0))
            for t, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS)
        )
        integral = m * m * mean / (4.0 * math.pi * HBAR**4 * (k1 + k2))
    else:
        e1, e2 = s1.energy, s2.energy
        integral = (loop_integral(p, e1).real - loop_integral(p, e2).real) / (e2 - e1)
    return 2.0 * p.lam**2 * s1.beta * s2.beta * integral


@dataclass(frozen=True)
class IdentityReport:
    """Numerical content of the closed-channel product identity.

    ``residual_beta`` compares beta_1 beta_2 against 4 pi R* A_1 A_2 with the
    tail-extracted amplitudes (vanishes linearly in eps), and
    ``residual_exact`` uses the algebraic amplitude relation A(beta), under
    which the identity holds to machine precision.
    """

    rstar: float
    beta_product: float
    open_overlap: float
    total_overlap: float
    tail_product: float
    exact_tail_product: float
    residual_beta: float
    residual_exact: float


def product_identity_check(
    p: TwoChannelParams,
    s1: TwoChannelBoundState,
    s2: TwoChannelBoundState,
) -> IdentityReport:
    """Check <1_tot|2_tot> = <1_open|2_open> + 4 pi R* A_1 A_2 numerically.

    The two states must share lam, eps and mass (their molecular energies
    and hence energies may differ).
    """
    for s in (s1, s2):
        q = s.params
        if (q.lam, q.eps, q.mass) != (p.lam, p.eps, p.mass):
            raise ParameterMismatch(
                "states must share coupling, regulator width and mass"
            )
    rstar = rstar_from_lambda(p.lam, p.mass)
    beta_product = s1.beta * s2.beta
    open_part = open_channel_overlap(s1, s2)
    total = open_part + beta_product
    tail_product = 4.0 * math.pi * rstar * s1.a_tail * s2.a_tail
    exact_tail = (
        4.0
        * math.pi
        * rstar
        * tail_amplitude_from_beta(p, s1.beta)
        * tail_amplitude_from_beta(p, s2.beta)
    )
    return IdentityReport(
        rstar=rstar,
        beta_product=beta_product,
        open_overlap=open_part,
        total_overlap=total,
        tail_product=tail_product,
        exact_tail_product=exact_tail,
        residual_beta=abs(beta_product - tail_product) / abs(beta_product),
        residual_exact=abs(beta_product - exact_tail) / abs(beta_product),
    )
