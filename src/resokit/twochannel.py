"""Two-channel resonance model with a Gaussian interchannel form factor.

Open-channel atom pairs (mass m each) couple with amplitude ``lam`` to a
structureless molecular level of internal energy ``e_mol`` through the
momentum-space form factor chi(k) = exp(-k^2 eps^2/4). Everything here is
the two-body relative motion at zero total momentum, with hbar = 1 and the
atom mass m the only mass, so the formulas carry no hbar.

The scattering amplitude is f(E) = -chi(k0)^2/D(E), evaluated as its
inverse 1/f (:func:`inverse_amplitude`), with the denominator

    D(E) = (4 pi/m) [ (E - e_mol)/(2 lam^2) - I(E) ] = 1/a_eps + R* m E - c r(E),

where I(E) = I(0) (1 - r) is the regularized loop integral over intermediate
atom pairs, c = sqrt(2/pi)/eps = -(4 pi/m) I(0) and R* = 2 pi/(m^2 lam^2):
the effective-range denominator 1/a + R* k^2 + i k, regulated through r. At
low energy the model reproduces a two-term phase function with scattering
length a_eps and range parameter rstar_eps; as eps -> 0 at fixed (a, R*) it
converges to the one-channel effective-range description.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .contact import _quotient
from .errors import InvalidInput, NoBoundState, NoConvergence, ParameterMismatch

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

# exp(x) is finite exactly for x <= _LOG_FLOAT_MAX.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Veltkamp's splitter 2^27 + 1: c - (c - x) with c = _SPLITTER x keeps the
# upper 26 significand bits of x, so both halves square exactly.
_SPLITTER = 134217729.0

# sqrt(2 pi)/(4 pi^2) = -I(0) eps/m is _LOOP_SCALE_NUM/2^_LOOP_SCALE_BITS to
# the nearest integer numerator, within 4e-58 relative, and _LOOP_SCALE correctly
# rounded (mpmath; pinned by a test).
_LOOP_SCALE_BITS = 192
_LOOP_SCALE_NUM = 0x10411E71_D779590F_21D515DB_BC09F97B_6E98E29F_A37B0A47
_LOOP_SCALE = _LOOP_SCALE_NUM / 2**_LOOP_SCALE_BITS
_FOUR_PI_RATIO = (4.0 * math.pi).as_integer_ratio()

# bound_state's pole solve stops once a step is at most this fraction of the
# energy (brentq's rtol = 4 ulp). The cap is a backstop: a solve took at most
# 62 evaluations of the denominator (9.1 on average) over 2e4 seeded draws
# spread over 120 to 320 decades per parameter, and 6 (4.3) over 3000 target draws.
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
        _check_width_and_mass(self.eps, self.mass)
        # R* = 2 pi/(m^2 lam^2), set once; lam = 0 or NaN and m^2 lam^2 or R*
        # outside (0, inf) raise here
        object.__setattr__(self, "_rstar", rstar_from_lambda(self.lam, self.mass))
        if not math.isfinite(self.e_mol):
            raise InvalidInput("molecular energy must be finite")
        # The molecular term 2 pi e_mol/(lam^2 m) of 1/a_eps must stay finite.
        if not math.isfinite(2.0 * math.pi * self.e_mol / (self.lam * self.lam * self.mass)):
            raise InvalidInput("the mapping to (a_eps, rstar_eps) overflows for these parameters")
        # 1/a_eps, a_eps and eps^2/(2 a_eps), set once
        object.__setattr__(self, "_threshold", _threshold_terms(self))

    def chi(self, k: float) -> float:
        """Form factor chi(k) = exp(-k^2 eps^2/4)."""
        keps = k * self.eps
        return math.exp(-0.25 * (keps * keps))


def _check_width_and_mass(eps: float, mass: float) -> None:
    """InvalidInput unless eps > 0 has a finite, nonzero square and 0 < mass < inf."""
    if not eps > 0.0:
        raise InvalidInput("regulator width eps must be positive")
    if not 0.0 < mass < math.inf:
        raise InvalidInput("mass must be positive and finite")
    # The closed forms divide by eps^2; this also rejects a non-finite eps.
    if not 0.0 < eps * eps < math.inf:
        raise InvalidInput("regulator width eps needs a finite, nonzero square")


def _threshold_terms(p: TwoChannelParams) -> tuple[float, float, float]:
    """1/a_eps = D(0-) = (4 pi/m) B(0-), a_eps and eps^2/(2 a_eps).

    The terms of B(0-) = -I(0) - e_mol/(2 lam^2) cancel by about a_eps/eps,
    so it is formed in exact rational arithmetic, with sqrt(2 pi)/(4 pi^2)
    to ``_LOOP_SCALE_BITS`` bits, and all three are rounded once from it,
    with 4 pi as a float.
    """
    (mn, md), (en, ed) = p.mass.as_integer_ratio(), p.eps.as_integer_ratio()
    (un, ud), (ln, ld) = p.e_mol.as_integer_ratio(), p.lam.as_integer_ratio()
    fn, fd = _FOUR_PI_RATIO
    # -I(0) = sn/sd, e_mol/(2 lam^2) = dn/dd, B(0-) = num/den, a_eps = an/ad.
    sn, sd = _LOOP_SCALE_NUM * mn * ed, (md * en) << _LOOP_SCALE_BITS
    dn, dd = un * ld * ld, 2 * ud * ln * ln
    num, den = sn * dd - dn * sd, sd * dd
    an, ad = mn * den * fd, md * num * fn
    return _quotient(ad, an), _quotient(an, ad), _quotient(en * en * ad, 2 * ed * ed * an)


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
    denom = energy - k * k / p.mass
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
    _, loop, im_d = _loop_terms(p, energy)
    imag = -(p.mass / (4.0 * math.pi)) * im_d if energy >= 0.0 else 0.0
    return complex(_LOOP_SCALE * p.mass / p.eps * loop, imag)


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


def _kappa(p: TwoChannelParams, energy: float) -> float:
    """kappa = sqrt(-m E) below threshold, by two roots: m E can underflow where kappa does not."""
    return math.sqrt(p.mass) * math.sqrt(-energy)


def _loop_terms(p: TwoChannelParams, energy: float) -> tuple[float, float, float]:
    """r and r - 1 of I(E) = I(0) (1 - r), and S(x) below threshold or Im D(E) above it.

    One erfcx or Dawson value gives all three. Below threshold, at
    x = kappa eps/sqrt(2), r = sqrt(pi) x erfcx(x) and S is the bracket of
    J = (m^2/(8 pi kappa)) S (:func:`_shapes`). Above it, at x = k0 eps/sqrt(2),
    r = 2x D(x), 1 - r = D'(x) and Im D = -(4 pi/m) Im I = k0 chi(k0)^2.
    """
    if energy < 0.0:
        return _shapes(p, _kappa(p, energy))
    alpha = 0.5 * p.eps**2
    k0 = math.sqrt(p.mass * energy)
    x = k0 * math.sqrt(alpha)
    d, slope = _dawson(x)
    return 2.0 * x * d, -slope, k0 * math.exp(-alpha * k0 * k0)


def _denominator(p: TwoChannelParams, energy: float):
    """D(E) = (4 pi/m) B(E) = -chi(k0)^2/f(E) and S or Im D, for 1/f and the pole solve.

    With c = sqrt(2/pi)/eps, Re D = 1/a_eps + R* m E - c r = R* m (E - e_mol) - c (r - 1)
    (r and S or Im D from :func:`_loop_terms`). The form subtracting the
    smaller of c r and c |r - 1| is summed: the first near threshold, where
    the exact 1/a_eps holds the e_mol - 1/eps cancellation, the second far
    from it. D is real below threshold.
    """
    rise, loop, third = _loop_terms(p, energy)
    c = SQRT_2_OVER_PI / p.eps
    if rise < abs(loop):
        real = p._threshold[0] + p._rstar * p.mass * energy - c * rise
    else:
        real = p._rstar * p.mass * (energy - p.e_mol) - c * loop
    return (real if energy < 0.0 else complex(real, third)), third


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


def inverse_amplitude(p: TwoChannelParams, energy: float) -> complex:
    """1/f(E) = -D(E)/chi(k0)^2; safe on both sides of threshold.

    Below threshold the form factor is analytically continued, which makes
    1/f the numerically tame direction (the continued chi^2 grows, its
    inverse decays). Above it, where 1/chi^2 overflows, :class:`InvalidInput`;
    also far below it, where -D/chi^2 underflows to 0 although D is not 0,
    so that 0 means a pole.
    """
    exponent = p.mass * energy * p.eps**2 / 2.0  # -ln chi(k0)^2
    if exponent > _LOG_FLOAT_MAX:
        raise InvalidInput(f"1/chi(k0)^2 overflows at E = {energy!r} above threshold")
    d = _denominator(p, energy)[0]
    inverse = complex(-d * math.exp(exponent))
    if inverse == 0.0 and d != 0.0:
        raise InvalidInput(f"1/f underflows at E = {energy!r} below threshold")
    return inverse


def effective_params(p: TwoChannelParams) -> tuple[float, float]:
    """Closed-form low-energy parameters (a_eps, rstar_eps).

    a_eps = m/(4 pi B(0-)) (inf where B(0-) = 0) and rstar_eps =
    R* - sqrt(2/pi) eps + eps^2/(2 a_eps), from the exact B(0-) of the
    parameters. :func:`resokit.verify.fit_effective_params` checks rstar_eps
    against a low-energy fit of Re(1/f).
    """
    _, a_eps, tail = p._threshold
    return a_eps, -SQRT_2_OVER_PI * p.eps + p._rstar + tail


def _rstar_map(x: float, mass: float) -> float:
    """2 pi/(m^2 x): R* of x = lam^2 and lam^2 of x = R*, both in (0, inf) or InvalidInput."""
    scale = (mass * mass) * x
    value = 2.0 * math.pi / scale if 0.0 < scale < math.inf else math.inf
    if value == math.inf:
        raise InvalidInput(
            f"lam^2 and R* = 2 pi/(m^2 lam^2) leave (0, inf) at {x!r}, mass {mass!r}"
        )
    return value


def lambda_from_rstar(rstar: float, mass: float = 1.0) -> float:
    """Coupling amplitude reproducing a given width radius, lam = sqrt(2 pi/(m^2 R*))."""
    return math.sqrt(_rstar_map(rstar, mass))


def rstar_from_lambda(lam: float, mass: float = 1.0) -> float:
    """Width radius of the zero-range limit, R* = 2 pi/(m^2 lam^2)."""
    return _rstar_map(lam * lam, mass)


def emol_for_target_a(a_target: float, lam: float, eps: float, mass: float = 1.0) -> float:
    """Molecular energy that sets the scattering length to ``a_target`` at (lam, eps, mass)."""
    _check_width_and_mass(eps, mass)
    if a_target == 0.0:
        raise InvalidInput("target scattering length must be nonzero")
    return (lam * lam * mass / (2.0 * math.pi)) * (SQRT_2_OVER_PI / eps - 1.0 / a_target)


def params_for_targets(a: float, rstar: float, eps: float, mass: float = 1.0) -> TwoChannelParams:
    """Parameter set holding (a_eps, R*) = (a, rstar) at regulator width eps."""
    lam = lambda_from_rstar(rstar, mass)
    return TwoChannelParams(lam, emol_for_target_a(a, lam, eps, mass), eps, mass)


def bound_state(p: TwoChannelParams) -> TwoChannelBoundState:
    """Locate the dressed molecular state and build its normalized content.

    Below threshold D(E) rises strictly, with slope m (R* + S/(2 kappa)) > 0,
    from -inf to D(0-) = 1/a_eps: there is exactly one pole when the correctly
    rounded 1/a_eps is positive and none otherwise (:class:`NoBoundState`).
    :func:`_pole_energy` solves D = 0 between the effective-range pole and
    the zero of 1/a_eps + R* m E (:func:`_pole_bracket`). By unit total norm
    beta^2 = 1/(1 + w) = R*/(R* + S/(2 kappa)) and open_norm = w beta^2, with
    w = 2 lam^2 J = S/(2 R* kappa) (beta^2 = 0, open_norm = 1 only where w
    overflows); as eps -> 0, beta^2 tends to 2 R* kappa/(1 + 2 R* kappa), the
    R* share of the one-channel modified norm. The tail amplitude follows
    from the plateau of k^2 psi(k), sampled at k = c/eps and extrapolated
    against the inverse-square window variable; a regulator width so small
    that k^2 overflows there raises :class:`InvalidInput`.
    """
    inv_a = p._threshold[0]
    if not inv_a > 0.0:
        raise NoBoundState(f"no pole below threshold for a_eps = {effective_params(p)[0]!r}")
    if inv_a == math.inf:
        raise InvalidInput("1/a_eps overflows for these parameters")
    energy, shape = _pole_energy(p, *_pole_bracket(p))
    # w from significands and exponents, as S, R* and kappa may each lie far
    # from 1; S underflows to 0 beyond x ~ 4e107, where w is 0 at any exponent
    (fs, es), (fr, er), (fk, ek) = map(math.frexp, (shape, p._rstar, _kappa(p, energy)))
    f, e = math.frexp(fs / (fr * fk))
    e += es - er - ek - 1
    weight = math.inf if f and e > 1024 else math.ldexp(f, e)
    beta2 = 1.0 / (1.0 + weight)
    open_norm = weight * beta2 if weight < math.inf else 1.0

    def plateau(c):
        k = c / p.eps
        return -(k * k * _open_psi(p, energy, beta2, k)) / (4.0 * math.pi)

    lo, hi = TAIL_FRACTIONS
    if (hi / p.eps) * (hi / p.eps) == math.inf:
        raise InvalidInput("the tail samples k = c/eps overflow for this eps")
    # Error model: plateau approached like 1/k^2 from the shallow side; with
    # samples at k and 2k the extrapolant is (4 P(2k) - P(k))/3.
    a_tail = (4.0 * plateau(hi) - plateau(lo)) / 3.0
    return TwoChannelBoundState(
        params=p, energy=energy, beta2=beta2, a_tail=a_tail, open_norm=open_norm
    )


def _pole_bracket(p: TwoChannelParams) -> tuple[float, float]:
    """Ends lo <= hi around the pole of D where 0 < 1/a_eps < inf, clamped to normal floats.

    As erfcx <= 1, c r <= kappa, so D >= 0 at hi = -kappa^2/m with kappa
    the effective-range pole, the root of 1/a_eps - kappa - R* kappa^2, written
    (1/a_eps)/(1/2 + hypot(1/2, sqrt(R*/a_eps))) so that it neither cancels
    nor overflows. As c r >= 0, D <= 0 at lo = -(1/a_eps)/(R* m).
    """
    inv_a, rstar = p._threshold[0], p._rstar
    kappa = inv_a / (0.5 + math.hypot(0.5, math.sqrt(rstar) * math.sqrt(inv_a)))
    root = kappa / math.sqrt(p.mass)
    lo = max(-(inv_a / (rstar * p.mass)), -sys.float_info.max)
    hi = min(max(-(root * root), -sys.float_info.max), -sys.float_info.min)
    return lo, hi


def _pole_energy(p: TwoChannelParams, lo: float, hi: float) -> tuple[float, float]:
    """Root of D in [lo, hi] and S there, given D(lo) <= 0 <= D(hi).

    Newton steps safeguarded as in Numerical Recipes' rtsafe start at hi;
    D is increasing and convex in E with slope m (R* + S/(2 kappa)), so they
    come down toward the root. Each point replaces the end of [lo, hi] with
    its sign of D, and a step that would leave the bracket, is zero (the
    slope overflowed), or after the first two is not at most half the step
    before last is replaced by bisection of log|E|. The solve stops after a
    step of at most ``POLE_RTOL_STEP`` relative (the next one if rounding
    gives D(hi) < 0, as the root then lies within that rounding), or when
    such a step from D > 0 fails to lower D, which only rounding can cause;
    after a longer such step, where D is flat to its rounding, a bisection
    follows. A clamped end with the wrong sign puts the pole outside the
    normal float range (:class:`InvalidInput`); ``POLE_MAX_STEPS`` steps
    raise :class:`NoConvergence`.
    """
    x, fmax = hi, sys.float_info.max
    d, s = _denominator(p, x)
    if hi == -fmax or (d < 0.0 and hi == -sys.float_info.min) or (
        lo == -fmax and _denominator(p, lo)[0] > 0.0
    ):
        raise InvalidInput("the pole lies outside the normal floating-point range")
    step = older = 2.0 * (hi - lo)
    for _ in range(POLE_MAX_STEPS):
        if d == 0.0 or abs(step) <= POLE_RTOL_STEP * abs(x):
            return x, s
        if d < 0.0:
            lo = x
        else:
            hi = x
        dx = d / (p.mass * (p._rstar + s / (2.0 * _kappa(p, x))))
        if dx != 0.0 and lo <= x - dx <= hi and abs(dx) <= 0.5 * abs(older):
            older, step = step, dx
            new = x - dx
        else:
            older, step = step, 0.5 * (hi - lo)
            new = -math.sqrt(-lo) * math.sqrt(-hi)
        d_new, s_new = _denominator(p, new)
        if 0.0 < d <= d_new:
            # Only rounding of D keeps a step from D > 0 from lowering it. At
            # the convergence scale x is the better point; a longer step
            # stalled where D is flat to its rounding, so bisection follows.
            if abs(new - x) <= POLE_RTOL_STEP * abs(x):
                return x, s
            older = 0.0
        x, d, s = new, d_new, s_new
    raise NoConvergence(f"pole solve did not converge in {POLE_MAX_STEPS} steps")


def tail_amplitude_from_beta(p: TwoChannelParams, beta: float) -> float:
    """Zero-range-limit relation A = sqrt(2) m lam beta/(4 pi)."""
    return math.sqrt(2.0) * p.mass * p.lam * beta / (4.0 * math.pi)


@dataclass(frozen=True)
class IdentityReport:
    """Numerical content of the closed-channel product identity.

    ``residual_beta`` compares beta_1 beta_2 against 4 pi R* A_1 A_2 with the
    tail-extracted amplitudes (it falls with eps onto a floor of 6.232e-3,
    set by the form factor that the tail samples carry), and
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
    rstar = p._rstar
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
