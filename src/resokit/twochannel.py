"""Two-channel resonance model with a Gaussian interchannel form factor.

Open-channel atom pairs (mass m each) couple with amplitude ``lam`` to a
structureless molecular level of internal energy ``e_mol`` through the
momentum-space form factor chi(k) = exp(-k^2 eps^2/4). Everything here is
the two-body relative motion at zero total momentum, with hbar = 1 and the
atom mass m the only mass, so the formulas carry no hbar.

The scattering amplitude is

    f(E) = -(m/4 pi) chi(k0)^2 / [ (E - e_mol)/(2 lam^2) - I(E) ],

where I(E) is the regularized loop integral over intermediate atom pairs.
At low energy the model reproduces a two-term phase function with
scattering length a_eps and range parameter rstar_eps; as eps -> 0 at fixed
(a, R*) it converges to the one-channel effective-range description, and
R* = 2 pi/(m^2 lam^2) exactly.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass

from .errors import InvalidInput, NoBoundState, NoConvergence, ParameterMismatch, PoleHit

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
SQRT_PI = math.sqrt(math.pi)

# Tail extraction window fractions c in k = c/eps.
TAIL_FRACTIONS = (0.05, 0.1)

# amplitude() reports a pole where |bracket| <= POLE_RTOL times its larger term.
POLE_RTOL = 1e-12

# Below threshold I(E) carries the bracket sqrt(pi) x erfcx(x) - 1 and the
# norm integral J the bracket (1 + 2x^2) erfcx(x) - 2x/sqrt(pi), at
# x = kappa eps/sqrt(2). They cancel to about x^2 and x^4 machine epsilons,
# so from SERIES_X on both are summed as asymptotic series: the first is
# sum_{n>=1} a_n x^-2n with a_n = (-1)^n (2n-1)!!/2^n, the second, its
# derivative up to a factor, sum_{n>=1} -2n a_n x^-(2n+1)/sqrt(pi).
# Crossover and length were chosen against mpmath: both brackets stay within
# 3e-12 relative for all x. Below SERIES_X, erfc(x) >= 4e-23 and
# exp(x^2) <= 2e21, so erfcx is their product with no under- or overflow.
SERIES_X = 7.0
SERIES_TERMS = 20
_LOOP_SERIES = tuple(
    (-1.0) ** n * math.prod(range(1, 2 * n, 2)) / 2.0**n
    for n in range(1, SERIES_TERMS + 1)
)
_NORM_SERIES = tuple(-2.0 * n * a for n, a in enumerate(_LOOP_SERIES, start=1))

# Dawson's integral D(x) (:func:`_dawson`) is its Taylor series
# x (1 + sum_{n>=1} (-2)^n x^(2n)/(2n+1)!!) below DAWSON_TAYLOR_X (the
# first omitted term is below 2e-20 relative there; _DAWSON_TAYLOR holds the
# n >= 1 coefficients) and Rybicki's sampling sum with step RYBICKI_STEP up
# to SERIES_X, over the odd n within RYBICKI_TERMS of x/h
# (the omitted terms carry exp(-u^2) < exp(-46)). With all odd n that sum
# would be off by about exp(-(pi/2h)^2) = 2e-27.
DAWSON_TAYLOR_X = 0.5
_DAWSON_TAYLOR = tuple((-2.0) ** n / math.prod(range(1, 2 * n + 2, 2)) for n in range(1, 14))
RYBICKI_STEP = 0.2
RYBICKI_TERMS = 33
_RYBICKI_OFFSETS = tuple(
    (n, n * RYBICKI_STEP) for n in range(-RYBICKI_TERMS, RYBICKI_TERMS + 1, 2)
)

# Open-channel overlaps of states whose decay constants differ by at most
# this fraction of their sum average J by Gauss-Legendre, because the
# difference of loop integrals cancels there. Against mpmath the average
# stays within 1e-13 relative and the difference within 5e-12. The rule's
# nodes and weights are numpy's leggauss(8), bit for bit (pinned by a test).
OVERLAP_GAUSS_GAP = 0.2
_GAUSS_NODES = (
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362
)
_GAUSS_WEIGHTS = (
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706
)

# exp(x) is finite exactly for x <= _LOG_FLOAT_MAX.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Veltkamp's splitter 2^27 + 1: c - (c - x) with c = _SPLITTER x keeps the
# upper 26 significand bits of x, so both halves square exactly.
_SPLITTER = 134217729.0

# sqrt(2 pi)/(4 pi^2) = -I(0) eps/m as the unevaluated sum of two
# doubles, hi + lo, within 1e-32 relative (mpmath; pinned by a test).
_LOOP_SCALE_HI = 0.06349363593424097
_LOOP_SCALE_LO = 8.203159112775494e-19

# bound_state's pole solve stops once a step is at most this fraction of the
# energy (brentq's rtol = 4 ulp). The cap is a backstop: a solve took at most
# 62 evaluations of the bracket (9.1 on average) over 2e4 seeded draws spread
# over 120 to 320 decades per parameter, and 6 (4.3) over 3000 target draws.
POLE_RTOL_STEP = 4.0 * sys.float_info.epsilon
POLE_MAX_STEPS = 100


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
        # effective_params divides by lam^2 m and lam^2 m^2: the product
        # must neither underflow (m = 1e-300) nor overflow, and both
        # quotients must stay finite (e_mol = 1e308 overflows the first).
        if not (
            0.0 < (self.lam * self.lam) * (self.mass * self.mass) < math.inf
            and math.isfinite(_molecular_term(self))
            and math.isfinite(rstar_from_lambda(self.lam, self.mass))
        ):
            raise InvalidInput("the mapping to (a_eps, rstar_eps) overflows for these parameters")

    def chi(self, k: float) -> float:
        """Form factor chi(k) = exp(-k^2 eps^2/4)."""
        return math.exp(-0.25 * (k * self.eps) ** 2)


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

    def psi(self, k: float) -> float:
        """Open-channel momentum wavefunction sqrt(2) lam beta chi(k)/(E - k^2/m)."""
        return _open_psi(self.params, self.energy, self.beta2, k)


def _open_psi(p: TwoChannelParams, energy: float, beta2: float, k: float) -> float:
    """:meth:`TwoChannelBoundState.psi` of the state with this energy and beta^2."""
    denom = energy - k**2 / p.mass
    return math.sqrt(2.0) * p.lam * math.sqrt(beta2) * p.chi(k) / denom


def loop_integral(p: TwoChannelParams, energy: float) -> complex:
    """Regularized loop integral I(E) over intermediate atom pairs.

    For the Gaussian form factor the integral has a closed form: below
    threshold it involves erfcx(x) = exp(x^2) erfc(x) at
    x = kappa eps/sqrt(2) (:func:`_shapes`), summed as its asymptotic series
    from ``SERIES_X`` on, which keeps the evaluation finite for arbitrarily
    deep energies. Above it the principal value is
    I(0) (1 - 2x D(x)) = I(0) D'(x) with Dawson's integral D at
    x = k0 eps/sqrt(2); :func:`_dawson` gives D' without the cancellation
    of 1 - 2x D at large x. The on-shell imaginary part is exact.
    """
    if energy < 0.0:
        return complex(_below_threshold(p, energy)[1], 0.0)
    m = p.mass
    alpha = 0.5 * p.eps**2
    k0 = math.sqrt(m * energy)
    x = k0 * math.sqrt(alpha)
    real = -_loop_scale(p) * _dawson(x)[1]
    imag = -(m * k0 / (4.0 * math.pi)) * math.exp(-alpha * k0 * k0)
    return complex(real, imag)


def _dawson(x: float) -> tuple[float, float]:
    """Dawson's integral D(x) = exp(-x^2) int_0^x exp(t^2) dt and D'(x) = 1 - 2x D(x), x >= 0.

    Below ``DAWSON_TAYLOR_X`` D is its Taylor series and D' follows. Above
    it D' is summed first and D = (1 - D')/(2x), where 1 - D' >= 0.4 does
    not cancel, while D' from D would cancel by a factor 2x^2. Up to
    ``SERIES_X``, D' is the derivative of Rybicki's sum
    D = (1/sqrt(pi)) sum_{n odd} exp(-u_n^2)/n with u_n = x - n h, that is
    -(2/sqrt(pi)) sum_{n odd} u_n exp(-u_n^2)/n, whose terms cancel only by
    about 2x; from ``SERIES_X`` on it is the asymptotic series
    D' = -sum_{n>=1} |a_n| x^-2n with the a_n of ``_LOOP_SERIES``. Against
    50-digit mpmath D stays within 1e-15 relative and D' within 4e-15, away
    from its zero at x = 0.924 (pinned by tests).
    """
    if x < DAWSON_TAYLOR_X:
        d = x * (1.0 + _series(_DAWSON_TAYLOR, x * x))
        return d, 1.0 - 2.0 * x * d
    if x < SERIES_X:
        # x = n0 h + xp with n0 even, so that n0 + n is odd for odd n.
        n0 = 2 * round(0.5 * x / RYBICKI_STEP)
        xp = x - n0 * RYBICKI_STEP
        total = 0.0
        for n, nh in _RYBICKI_OFFSETS:
            u = xp - nh
            total += u * math.exp(-u * u) / (n0 + n)
        slope = -2.0 / SQRT_PI * total
    else:
        slope = -_series(_LOOP_SERIES, -1.0 / (x * x))
    return (1.0 - slope) / (2.0 * x), slope


def _loop_scale(p: TwoChannelParams) -> float:
    """-I(0) = m sqrt(2 pi)/(4 pi^2 eps), the scale of I below threshold."""
    return _LOOP_SCALE_HI * p.mass / p.eps


def _kappa(p: TwoChannelParams, energy: float) -> float:
    """kappa = sqrt(-m E) below threshold, by two roots: m E can underflow where kappa does not."""
    return math.sqrt(p.mass) * math.sqrt(-energy)


def _below_threshold(p: TwoChannelParams, energy: float) -> tuple[float, float, float]:
    """I(E) - I(0), I(E) and J(E) = -I'(E) for E < 0, from one erfcx value.

    With kappa = sqrt(-m E) and x = kappa eps/sqrt(2),
    I - I(0) = -I(0) sqrt(pi) x erfcx(x) and
    J = (m^2/(8 pi kappa)) [(1 + 2x^2) erfcx(x) - 2x/sqrt(pi)].
    """
    kappa = _kappa(p, energy)
    rise, loop_shape, norm_shape = _shapes(p, kappa)
    scale = _loop_scale(p)
    norm = p.mass * p.mass / (8.0 * math.pi * kappa) * norm_shape
    if norm == math.inf:  # m^2/(8 pi kappa) overflowed; J itself may not
        norm = p.mass / (8.0 * math.pi * kappa) * (p.mass * norm_shape)
    return scale * rise, scale * loop_shape, norm


def _detuning_and_bracket(p: TwoChannelParams, energy: float, loop: complex | float):
    """(E - e_mol)/(2 lam^2) and B = that - I(E), the denominator of f, given I(E) = ``loop``."""
    detuning = (energy - p.e_mol) / (2.0 * p.lam**2)
    return detuning, detuning - loop


def _series(coeffs, y: float) -> float:
    """sum_{n>=1} coeffs[n-1] y^n by Horner's rule; y = +-1/x^2 or Dawson's Taylor x^2."""
    total = 0.0
    for c in reversed(coeffs):
        total = (total + c) * y
    return total


def _erfcx(x: float) -> float:
    """erfcx(x) = exp(x^2) erfc(x) for 0 <= x < ``SERIES_X``.

    exp(x^2) is taken as exp(hi) (1 + lo) with hi + lo = x^2 exactly
    (Dekker's product of Veltkamp halves; math.fma needs Python 3.13), so
    the rounding of x^2, which exp would amplify by x^2, does not reach the
    result. Against 40-digit mpmath this stays within 1e-15 relative.
    """
    c = _SPLITTER * x
    x_hi = c - (c - x)
    x_lo = x - x_hi
    hi = x * x
    lo = ((x_hi * x_hi - hi) + 2.0 * x_hi * x_lo) + x_lo * x_lo
    return math.erfc(x) * math.exp(hi) * (1.0 + lo)


def _shapes(p: TwoChannelParams, kappa: float) -> tuple[float, float, float]:
    """Brackets of I and J at x = kappa eps/sqrt(2), from one erfcx value below ``SERIES_X``.

    They are sqrt(pi) x erfcx(x), that minus 1, and
    (1 + 2x^2) erfcx(x) - 2x/sqrt(pi); from ``SERIES_X`` on, the last two
    are their asymptotic series.
    """
    x = kappa * p.eps / math.sqrt(2.0)
    if x < SERIES_X:
        e = _erfcx(x)
        rise = SQRT_PI * x * e
        return rise, rise - 1.0, (1.0 + 2.0 * x * x) * e - 2.0 * x / SQRT_PI
    y = 1.0 / (x * x)
    loop_shape = _series(_LOOP_SERIES, y)
    return 1.0 + loop_shape, loop_shape, _series(_NORM_SERIES, y) / (x * SQRT_PI)


def norm_integral(p: TwoChannelParams, energy: float) -> float:
    """J(E) = -I'(E) = int d3k/(2 pi)^3 chi^2/(E - k^2/m)^2 below threshold.

    Its closed form is the one of :func:`_below_threshold`.
    """
    if not energy < 0.0:
        raise InvalidInput("the norm integral needs an energy below threshold")
    return _below_threshold(p, energy)[2]


def inverse_amplitude(p: TwoChannelParams, energy: float) -> complex:
    """1/f(E); safe on both sides of threshold.

    Below threshold the form factor is analytically continued, which makes
    1/f the numerically tame direction (the continued chi^2 grows, its
    inverse decays).
    """
    _, bracket = _detuning_and_bracket(p, energy, loop_integral(p, energy))
    return _inverse_from_bracket(p, energy, bracket)


def _inverse_from_bracket(p: TwoChannelParams, energy: float, bracket: complex) -> complex:
    """1/f(E) = -(4 pi/m) B(E)/chi(k0)^2 from the bracket B(E).

    Far above threshold, where 1/chi^2 = exp(m E eps^2/2) overflows, this
    raises :class:`InvalidInput`.
    """
    exponent = p.mass * energy * p.eps**2 / 2.0
    if exponent > _LOG_FLOAT_MAX:
        raise InvalidInput(f"1/chi(k0)^2 overflows at E = {energy!r} above threshold")
    return -(4.0 * math.pi / p.mass) * bracket * math.exp(exponent)


def amplitude(p: TwoChannelParams, energy: float) -> complex:
    """f(E), raising :class:`PoleHit` when the denominator vanishes.

    A vanishing bracket is the bound state, not a scattering point. Far
    above threshold, where 1/chi(k0)^2 overflows, f is taken from
    chi(k0)^2 itself and underflows toward 0.
    """
    loop = loop_integral(p, energy)
    detuning, bracket = _detuning_and_bracket(p, energy, loop)
    if abs(bracket) <= POLE_RTOL * max(abs(detuning), abs(loop)):
        raise PoleHit(f"amplitude pole within tolerance at E = {energy!r}")
    try:
        inv = _inverse_from_bracket(p, energy, bracket)
    except InvalidInput:
        # 1/chi^2 overflows, so f = -(m/4 pi) chi^2/B underflows toward 0.
        return -(p.mass / (4.0 * math.pi)) * p.chi(math.sqrt(p.mass * energy)) ** 2 / bracket
    if inv == 0.0:
        raise InvalidInput("energy too deep below threshold for the continued amplitude")
    return 1.0 / inv


def effective_params(p: TwoChannelParams) -> tuple[float, float]:
    """Closed-form low-energy parameters (a_eps, rstar_eps).

    1/a_eps = sqrt(2/pi)/eps - 2 pi e_mol/(lam^2 m) (a_eps is inf
    where it vanishes) and rstar_eps = R* - sqrt(2/pi) eps + eps^2/(2 a_eps).
    :func:`resokit.verify.fit_effective_params` checks them against a
    low-energy fit of Re(1/f).
    """
    inv_a = SQRT_2_OVER_PI / p.eps - _molecular_term(p)
    a_eps = math.inf if inv_a == 0.0 else 1.0 / inv_a
    rstar = -SQRT_2_OVER_PI * p.eps + rstar_from_lambda(p.lam, p.mass) + p.eps**2 / (2.0 * a_eps)
    return a_eps, rstar


def _molecular_term(p: TwoChannelParams) -> float:
    """2 pi e_mol/(lam^2 m), the molecular term of 1/a_eps."""
    return 2.0 * math.pi * p.e_mol / (p.lam**2 * p.mass)


def lambda_from_rstar(rstar: float, mass: float = 1.0) -> float:
    """Coupling amplitude reproducing a given width radius, lam = sqrt(2 pi/(m^2 R*))."""
    if not rstar > 0.0:
        raise InvalidInput("this mapping covers only rstar > 0")
    return math.sqrt(2.0 * math.pi / (mass**2 * rstar))


def rstar_from_lambda(lam: float, mass: float = 1.0) -> float:
    """Width radius of the zero-range limit, R* = 2 pi/(m^2 lam^2)."""
    if lam == 0.0:
        raise InvalidInput("coupling amplitude must be nonzero")
    return 2.0 * math.pi / (mass**2 * lam**2)


def emol_for_target_a(a_target: float, p: TwoChannelParams) -> float:
    """Molecular energy that sets the scattering length to ``a_target``."""
    if a_target == 0.0:
        raise InvalidInput("target scattering length must be nonzero")
    return (p.lam**2 * p.mass / (2.0 * math.pi)) * (
        SQRT_2_OVER_PI / p.eps - 1.0 / a_target
    )


def params_for_targets(a: float, rstar: float, eps: float, mass: float = 1.0) -> TwoChannelParams:
    """Parameter set holding (a_eps, R*) = (a, rstar) at regulator width eps."""
    probe = TwoChannelParams(lam=lambda_from_rstar(rstar, mass), e_mol=0.0, eps=eps, mass=mass)
    return TwoChannelParams(probe.lam, emol_for_target_a(a, probe), eps, mass)


def bound_state(p: TwoChannelParams) -> TwoChannelBoundState:
    """Locate the dressed molecular state and build its normalized content.

    Below threshold the bracket B(E) = (E - e_mol)/(2 lam^2) - I(E) rises
    strictly (its slope is 1/(2 lam^2) + J(E) > 0) from -inf to
    B(0-) = m/(4 pi a_eps), so there is exactly one pole when the correctly
    rounded B(0-) of :func:`_threshold_bracket` is positive and none
    otherwise (:class:`NoBoundState`).
    :func:`_pole_energy` solves B = 0 between the effective-range pole and
    the zero of B(0-) + E/(2 lam^2) (:func:`_pole_bracket`). The
    closed-channel weight is beta^2 = 1/(1 + 2 lam^2 J(E)) by unit total
    norm (0, with open_norm = 1, only where 2 lam^2 J overflows), and the tail
    amplitude follows from the plateau of k^2 psi(k), sampled at k = c/eps
    and extrapolated against the inverse-square window variable; a
    regulator width so small that k^2 overflows there raises :class:`InvalidInput`.
    """
    b0 = _threshold_bracket(p)
    if not b0 > 0.0:
        raise NoBoundState(f"no pole below threshold for a_eps = {effective_params(p)[0]!r}")
    energy, j = _pole_energy(p, b0, *_pole_bracket(p, b0))
    weight = 2.0 * p.lam**2 * j
    if j == math.inf:  # 2 lam^2 J = (lam m)^2 S/(4 pi kappa) from significands and exponents
        kappa = _kappa(p, energy)
        factors = (p.lam * p.mass, _shapes(p, kappa)[2], 4.0 * math.pi * kappa)
        (f, e), (fs, es), (fk, ek) = (math.frexp(v) for v in factors)
        with contextlib.suppress(OverflowError):  # else 2 lam^2 J overflows too
            weight = math.ldexp(f * f * fs / fk, 2 * e + es - ek)
    beta2 = 1.0 / (1.0 + weight)
    open_norm = weight * beta2 if weight < math.inf else 1.0

    def plateau(c):
        k = c / p.eps
        return -(k * k * _open_psi(p, energy, beta2, k)) / (4.0 * math.pi)

    lo, hi = TAIL_FRACTIONS
    # Error model: plateau approached like 1/k^2 from the shallow side; with
    # samples at k and 2k the extrapolant is (4 P(2k) - P(k))/3.
    try:
        a_tail = (4.0 * plateau(hi) - plateau(lo)) / 3.0
    except OverflowError:
        raise InvalidInput("the tail samples k = c/eps overflow for this eps") from None
    return TwoChannelBoundState(
        params=p, energy=energy, beta2=beta2, a_tail=a_tail, open_norm=open_norm
    )


def _threshold_bracket(p: TwoChannelParams) -> float:
    """B(0-) = -I(0) - e_mol/(2 lam^2), correctly rounded.

    Its terms cancel to m/(4 pi a_eps), by a factor of about a_eps/eps,
    which amplifies every rounding in them. So it is evaluated in exact
    rational arithmetic on the inputs, with sqrt(2 pi)/(4 pi^2) to 106 bits,
    and rounded once. A negative result beyond the float range rounds to
    -inf, a positive one raises :class:`InvalidInput`.
    """
    (kh, khd), (kl, kld) = (c.as_integer_ratio() for c in (_LOOP_SCALE_HI, _LOOP_SCALE_LO))
    mn, md = p.mass.as_integer_ratio()
    en, ed = p.eps.as_integer_ratio()
    un, ud = p.e_mol.as_integer_ratio()
    ln, ld = p.lam.as_integer_ratio()
    # -I(0) = sn/sd and e_mol/(2 lam^2) = dn/dd.
    sn, sd = (kh * kld + kl * khd) * mn * ed, khd * kld * md * en
    dn, dd = un * ld * ld, 2 * ud * ln * ln
    num = sn * dd - dn * sd
    try:
        return num / (sd * dd)
    except OverflowError:
        if num < 0:
            return -math.inf
        raise InvalidInput("the threshold bracket B(0-) overflows for these parameters") from None


def _pole_terms(p: TwoChannelParams, b0: float, energy: float) -> tuple[float, float]:
    """B(E) below threshold and J(E), given B(0-) = ``b0``; B' = 1/(2 lam^2) + J.

    B = B(0-) + E/(2 lam^2) - (I(E) - I(0)) = (E - e_mol)/(2 lam^2) - I(E).
    The form subtracting the smaller of |I - I(0)| and |I| is taken, so no
    term larger than B's own scale is rounded: the first at shallow poles,
    where ``b0`` already holds the e_mol - 1/eps cancellation exactly, the
    second at deep ones.
    """
    rise, loop, j = _below_threshold(p, energy)
    if rise < -loop:
        return b0 + energy / (2.0 * p.lam**2) - rise, j
    return _detuning_and_bracket(p, energy, loop)[1], j


def _pole_bracket(p: TwoChannelParams, b0: float) -> tuple[float, float]:
    """Ends lo <= hi around the pole of B given B(0-) = ``b0`` > 0, clamped to normal floats.

    As erfcx <= 1, B >= 0 at hi = -kappa^2/m, the pole of the effective-range
    bracket (m/4 pi)(1/a_eps - kappa - R* kappa^2), whose root kappa is written
    with the exact B(0-) = m/(4 pi a_eps) and halved terms, so that it neither
    cancels nor overflows. As I(E) >= I(0), B <= 0 at lo = -2 lam^2 B(0-).
    """
    c = p.mass / (8.0 * math.pi)
    s = math.sqrt(0.5 * b0) / (abs(p.lam) * math.sqrt(p.mass))
    root = b0 / (c + math.hypot(c, s)) / math.sqrt(p.mass)
    lo = max(-2.0 * p.lam**2 * b0, -sys.float_info.max)
    hi = min(max(-(root * root), -sys.float_info.max), -sys.float_info.min)
    return lo, hi


def _pole_energy(p: TwoChannelParams, b0: float, lo: float, hi: float) -> tuple[float, float]:
    """Root of B in [lo, hi] and J there, given B(0-) = ``b0`` and B(lo) <= 0 <= B(hi).

    Newton steps safeguarded as in Numerical Recipes' rtsafe start at hi;
    B is increasing and convex, so they come down toward the root. Each
    point replaces the end of [lo, hi] with its sign of B, and a step that
    would leave the bracket, is zero (J overflowed), or after the first two
    is not at most half the step before last is replaced by bisection of
    log|E|. The solve stops after a step of at most ``POLE_RTOL_STEP``
    relative (the next one if rounding gives B(hi) < 0, as the root then
    lies within that rounding), or when such a step from B > 0 fails to
    lower B, which only rounding can cause; after a longer such step, where
    B is flat to its rounding, a bisection follows. A clamped end with the
    wrong sign puts the pole outside the normal float range
    (:class:`InvalidInput`); ``POLE_MAX_STEPS`` steps raise :class:`NoConvergence`.
    """
    x, fmax = hi, sys.float_info.max
    b, j = _pole_terms(p, b0, x)
    if hi == -fmax or (b < 0.0 and hi == -sys.float_info.min) or (
        lo == -fmax and _pole_terms(p, b0, lo)[0] > 0.0
    ):
        raise InvalidInput("the pole lies outside the normal floating-point range")
    step = older = 2.0 * (hi - lo)
    for _ in range(POLE_MAX_STEPS):
        if b == 0.0 or abs(step) <= POLE_RTOL_STEP * abs(x):
            return x, j
        if b < 0.0:
            lo = x
        else:
            hi = x
        dx = b / (0.5 / p.lam**2 + j)
        if dx != 0.0 and lo <= x - dx <= hi and abs(dx) <= 0.5 * abs(older):
            older, step = step, dx
            new = x - dx
        else:
            older, step = step, 0.5 * (hi - lo)
            new = -math.sqrt(-lo) * math.sqrt(-hi)
        b_new, j_new = _pole_terms(p, b0, new)
        if 0.0 < b <= b_new:
            # Only rounding of B keeps a step from B > 0 from lowering it. At
            # the convergence scale x is the better point; a longer step
            # stalled where B is flat to its rounding, so bisection follows.
            if abs(new - x) <= POLE_RTOL_STEP * abs(x):
                return x, j
            older = 0.0
        x, b, j = new, b_new, j_new
    raise NoConvergence(f"pole solve did not converge in {POLE_MAX_STEPS} steps")


def tail_amplitude_from_beta(p: TwoChannelParams, beta: float) -> float:
    """Zero-range-limit relation A = sqrt(2) m lam beta/(4 pi)."""
    return math.sqrt(2.0) * p.mass * p.lam * beta / (4.0 * math.pi)


def open_channel_overlap(s1: TwoChannelBoundState, s2: TwoChannelBoundState) -> float:
    """<1_open|2_open> = 2 lam^2 beta_1 beta_2 K for two states of one model.

    K = int d3k/(2 pi)^3 chi^2/((E_1 - e_k)(E_2 - e_k)) is by partial
    fractions (I(E_1) - I(E_2))/(E_2 - E_1), the mean of J over [E_2, E_1].
    In decay constants that mean is (m^2/(4 pi)) S/(kappa_1 + kappa_2),
    with S the mean of the bracket of J, (1 + 2x^2) erfcx(x) - 2x/sqrt(pi) at
    x = kappa eps/sqrt(2), over [kappa_2, kappa_1]. S is taken by
    Gauss-Legendre when the kappas are within ``OVERLAP_GAUSS_GAP``, which
    gives K = J(E) at E_1 = E_2. Otherwise, as in :func:`_pole_terms`, the
    partial fraction subtracts the smaller pair, I - I(0) (shallow) or I.
    """
    p = s1.params
    m = p.mass
    k1, k2 = (_kappa(p, s.energy) for s in (s1, s2))
    if abs(k1 - k2) <= OVERLAP_GAUSS_GAP * (k1 + k2):
        mid, half = 0.5 * (k1 + k2), 0.5 * (k1 - k2)
        mean = 0.5 * sum(
            w * _shapes(p, mid + half * t)[2] for t, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS)
        )
        integral = m * m * mean / (4.0 * math.pi * (k1 + k2))
    else:
        e1, e2 = s1.energy, s2.energy
        (r1, l1, _), (r2, l2, _) = (_below_threshold(p, e) for e in (e1, e2))
        integral = (r1 - r2 if r1 + r2 < -(l1 + l2) else l1 - l2) / (e2 - e1)
    return 2.0 * p.lam**2 * s1.beta * s2.beta * integral


@dataclass(frozen=True)
class IdentityReport:
    """Numerical content of the closed-channel product identity.

    ``residual_beta`` compares beta_1 beta_2 against 4 pi R* A_1 A_2 with the
    tail-extracted amplitudes (vanishes linearly in eps), and
    ``residual_exact`` uses the algebraic amplitude relation A(beta), under
    which the identity holds to machine precision.
    """

    beta_product: float
    tail_product: float
    residual_beta: float
    residual_exact: float


def product_identity_check(
    p: TwoChannelParams,
    s1: TwoChannelBoundState,
    s2: TwoChannelBoundState,
) -> IdentityReport:
    """Check <1_tot|2_tot> = <1_open|2_open> + 4 pi R* A_1 A_2 numerically.

    <1_tot|2_tot> - <1_open|2_open> is beta_1 beta_2 by construction, so only
    beta_1 beta_2 = 4 pi R* A_1 A_2 is evaluated. The two states must share
    lam, eps and mass (their molecular energies, hence energies, may differ).
    """
    for s in (s1, s2):
        q = s.params
        if (q.lam, q.eps, q.mass) != (p.lam, p.eps, p.mass):
            raise ParameterMismatch("states must share coupling, regulator width and mass")
    rstar = rstar_from_lambda(p.lam, p.mass)
    beta_product = s1.beta * s2.beta
    tail_product = 4.0 * math.pi * rstar * s1.a_tail * s2.a_tail
    a1, a2 = (tail_amplitude_from_beta(p, s.beta) for s in (s1, s2))
    exact_tail = 4.0 * math.pi * rstar * a1 * a2
    return IdentityReport(
        beta_product=beta_product,
        tail_product=tail_product,
        residual_beta=abs(beta_product - tail_product) / abs(beta_product),
        residual_exact=abs(beta_product - exact_tail) / abs(beta_product),
    )
