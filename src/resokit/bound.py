"""Bound states of a contact model: pole search, normalization, wavefunction.

A bound state of decay constant q > 0 sits at k = iq, so its energy is
E = -q^2 and the pole condition of the amplitude reads g(E) + q = 0. The
normalization constant |A|^2 follows from requiring unit norm with respect
to the modified scalar product, which reduces to

    |A|^2 = (1/4 pi) * 2 / (1/q - 2 g'(E)).

A non-positive denominator is reported through ``norm_sign`` rather than
raised: such states fall outside the model's validity window but are still
useful diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal

from .contact import PhaseShiftModel, _quotient
from .errors import InvalidInput, RootAtGridBoundary

Q_MIN_DEFAULT = 1e-8
REAL_ROOT_REL = 1e-6
EDGE_REL = 1e-6


@dataclass(frozen=True)
class BoundState:
    """Pole of the amplitude on the positive imaginary k axis."""

    q: float
    energy: float
    a2: float
    norm_sign: Literal["positive", "negative"]

    def __post_init__(self):
        if not (self.q > 0.0 and self.energy < 0.0):
            raise InvalidInput("bound state needs q > 0 and energy < 0")


def _pole_condition(model: PhaseShiftModel, q):
    """h(q) = g(-q^2) + q; roots are the bound states."""
    energy = -q * q
    return model.g(energy) + q


def _normalization_parts(model: PhaseShiftModel, q: float):
    energy = -q * q
    denom = 1.0 / q - 2.0 * model.g_prime(energy)
    if denom == 0.0:
        return math.inf, "negative"
    a2 = 0.5 / (math.pi * denom)
    return a2, ("positive" if denom > 0.0 else "negative")


def _polish(model: PhaseShiftModel, q: float, lo: float, hi: float) -> float:
    # Guarded Newton steps drive |h(q)| to the rounding floor, which the
    # eigenvalues of the companion matrix alone do not guarantee.
    h = _pole_condition(model, q)
    for _ in range(2):
        energy = -q * q
        hp = 1.0 - 2.0 * q * model.g_prime(energy)
        if h == 0.0 or hp == 0.0:
            return q
        q_new = q - h / hp
        if not lo <= q_new <= hi:
            return q
        h_new = _pole_condition(model, q_new)
        if abs(h_new) >= abs(h):
            return q
        q, h = q_new, h_new
    return q


def _quadratic_roots(c0: float, c1: float) -> list:
    """Both roots of h(q) = c0 + q - c1 q^2 (c1 != 0), sorted as numpy sorts them.

    With d = 1 + 4 c0 c1 and t = -(1 + sqrt d)/2 the larger root is t/(-c1)
    and the other c0/t, so neither subtracts. Each is formed in integer
    arithmetic on the exact ratios of c0 and c1, with sqrt d truncated
    2^-64 below its exact value, and rounded once by :func:`_quotient`: a
    root is within half an ulp of the exact one, plus a 2^-64 relative part,
    and +-inf beyond the float range. For d < 0 the roots are the conjugate
    pair (1 +- i sqrt(-d))/(2 c1).
    """
    n0, m0 = c0.as_integer_ratio()
    n1, m1 = c1.as_integer_ratio()
    num, den = m0 * m1 + 4 * n0 * n1, m0 * m1  # d = num/den
    scale = den << 64
    root = math.isqrt(abs(num) * den << 128)  # floor(scale sqrt|d|)
    if num < 0:
        im = _quotient(root * m1, 2 * scale * abs(n1))
        return [complex(0.5 / c1, -im), complex(0.5 / c1, im)]
    s = scale + root  # -2t scale
    return sorted((_quotient(s * m1, 2 * scale * n1), _quotient(-2 * n0 * scale, m0 * s)))


def find_bound_states(model: PhaseShiftModel, q_max: float) -> list[BoundState]:
    """All roots of h(q) = g(-q^2) + q on (Q_MIN_DEFAULT, q_max], by increasing q.

    h is a polynomial of degree 2N in q for a degree-N model. For N = 0 its
    one root is -c0. For the effective-range model, N = 1, it is the
    quadratic c0 + q - c1 q^2, whose roots :func:`_quadratic_roots` gives in
    closed form: the cancellation-free pair t/(-c1), c0/t with
    t = -(1 + sqrt d)/2, from the exact discriminant d = 1 + 4 c0 c1 and
    rounded once. Newton steps on h in plain arithmetic would move them away
    again (by about u/gap for a close pair), so they are not polished. For
    N >= 2 the roots are the eigenvalues of the companion matrix, built in
    place and handed to ``np.linalg.eigvals``, and each kept root is
    polished with guarded Newton steps; only this branch imports numpy.

    A root z counts as real when |Im z| <= ``REAL_ROOT_REL`` |z|. Simple
    real roots come with Im z = 0 exactly; the band admits a tangent
    (double) root, which rounding splits by about sqrt(machine eps) into
    either a conjugate pair or two real roots. Either way the pair is
    reported once, at its mean, so two real roots closer than
    ``REAL_ROOT_REL`` relative count as one tangent pole. An empty list
    means no bound state, not a failure.

    At a tangent pole h'(q) = 0, and the norm denominator
    1/q - 2 g'(E) equals h'(q)/q, so |A|^2 diverges: ``norm_sign``
    then follows the sign of the rounded denominator ("negative" with
    ``a2 = inf`` when it is exactly zero).

    A root within ``EDGE_REL`` of ``q_max`` triggers a
    :class:`RootAtGridBoundary` warning, since rounding may move it, or a
    neighbour, across the window edge. A root in the window whose energy
    -q^2 overflows raises :class:`InvalidInput`, and so, for N >= 2, do
    coefficients whose companion matrix overflows.
    """
    if not q_max > Q_MIN_DEFAULT:
        raise InvalidInput(f"q_max must exceed {Q_MIN_DEFAULT:g}")
    if q_max == math.inf:
        raise InvalidInput("q_max must be finite")
    degree = model.degree
    if degree == 0:
        roots = [-model.coeffs[0]]
    elif degree == 1:
        roots = _quadratic_roots(*model.coeffs)
    else:
        # h(q) = sum_n c_n (-1)^n q^(2n) + q, in increasing powers of q.
        n = 2 * degree
        h = [0.0] * (n + 1)
        h[0::2] = [-c if n % 2 else c for n, c in enumerate(model.coeffs)]
        h[1] += 1.0
        # The companion matrix holds h[n]/h[-1], which overflows when the top
        # coefficient is tiny against the others; the largest such quotient,
        # taken here in the same double arithmetic, shows it.
        if max(map(abs, h)) / abs(h[-1]) == math.inf:
            raise InvalidInput("the companion matrix of h(q) overflows")
        import numpy as np

        # numpy's polycompanion(h), built in place: ones on the subdiagonal
        # and last column 0 - h[n]/h[-1].
        mat = np.zeros((n, n))
        mat.ravel()[n :: n + 1] = 1.0
        mat[:, -1] = [0.0 - c / h[-1] for c in h[:-1]]
        eig = np.linalg.eigvals(mat)
        eig.sort()
        roots = eig.tolist()
    candidates: list[float] = []
    for z in map(complex, roots):  # sorted by real part
        # A root beyond the float range, where abs(z) raises, lies outside
        # every window, and as inf it would pass the tangent test below.
        # Im z >= 0 keeps one member of each conjugate pair.
        if not (math.hypot(z.real, z.imag) < math.inf
                and 0.0 <= z.imag <= REAL_ROOT_REL * abs(z)):
            continue
        if candidates and z.real - candidates[-1] <= REAL_ROOT_REL * abs(z):
            # The other half of a tangent pole that rounding split into two
            # real roots; their mean, like a conjugate pair's real part, is
            # the accurate estimate of the double root.
            candidates[-1] = 0.5 * (candidates[-1] + z.real)
            continue
        candidates.append(z.real)
    roots = sorted(
        _polish(model, q, Q_MIN_DEFAULT, q_max) if degree >= 2 else q
        for q in candidates if Q_MIN_DEFAULT < q <= q_max
    )

    states = []
    for q in roots:
        energy = -q * q
        if energy == -math.inf:
            raise InvalidInput(f"the root q = {q:.6g} has an energy -q^2 that overflows")
        if q >= q_max * (1.0 - EDGE_REL):
            warnings.warn(
                f"root q = {q:.6g} lies at the edge of the scan window q_max = {q_max:.6g}",
                RootAtGridBoundary,
                stacklevel=2,
            )
        a2, sign = _normalization_parts(model, q)
        states.append(BoundState(q=q, energy=energy, a2=a2, norm_sign=sign))
    return states


def wavefunction(state: BoundState, r):
    """phi(r) = -A exp(-q r)/r with A = +sqrt(|A|^2) (real positive phase)."""
    import numpy as np

    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):
        raise InvalidInput("radius must be positive")
    if not (math.isfinite(state.a2) and state.a2 >= 0.0):
        raise InvalidInput("state has no real amplitude (non-positive norm)")
    amp = math.sqrt(state.a2)
    out = -amp * np.exp(-state.q * r) / r
    return float(out) if out.ndim == 0 else out


def modified_norm_check(model: PhaseShiftModel, state: BoundState) -> float:
    """|(phi|phi)_0 - 1| with the closed-form plain norm 4 pi |A|^2/(2q).

    The modified norm subtracts 4 pi |A|^2 g'(E) from the plain
    one; for a state normalized as :func:`find_bound_states` does the result
    is 1 up to rounding, for any polynomial model.
    """
    plain = 4.0 * math.pi * state.a2 / (2.0 * state.q)
    modified = plain - 4.0 * math.pi * state.a2 * model.g_prime(state.energy)
    return abs(modified - 1.0)
