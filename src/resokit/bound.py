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

import numpy as np
from numpy.polynomial.polynomial import polyroots

from .contact import PhaseShiftModel
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


def find_bound_states(model: PhaseShiftModel, q_max: float) -> list[BoundState]:
    """All roots of h(q) = g(-q^2) + q on (Q_MIN_DEFAULT, q_max], by increasing q.

    h is a polynomial of degree 2N in q for a degree-N model, so its roots
    are the eigenvalues of one companion matrix. A root z counts as real
    when |Im z| <= ``REAL_ROOT_REL`` |z|. Simple real roots come back with
    Im z = 0 exactly; the band admits a tangent (double) root, which
    rounding splits by about sqrt(machine eps) into either a conjugate pair
    or two real roots. Either way the pair is reported once, at its mean, so
    two real roots closer than ``REAL_ROOT_REL`` relative count as one
    tangent pole. Each kept root is polished with guarded Newton steps. An
    empty list means no bound state, not a failure.

    At a tangent pole h'(q) = 0, and the norm denominator
    1/q - 2 g'(E) equals h'(q)/q, so |A|^2 diverges: ``norm_sign``
    then follows the sign of the rounded denominator ("negative" with
    ``a2 = inf`` when it is exactly zero).

    A root within ``EDGE_REL`` of ``q_max`` triggers a
    :class:`RootAtGridBoundary` warning, since rounding may move it, or a
    neighbour, across the window edge. Coefficients whose companion matrix
    overflows raise :class:`InvalidInput`.
    """
    if not q_max > Q_MIN_DEFAULT:
        raise InvalidInput(f"q_max must exceed {Q_MIN_DEFAULT:g}")
    if q_max == math.inf:
        raise InvalidInput("q_max must be finite")
    # h(q) = sum_n c_n (-1)^n q^(2n) + q, in increasing powers of q.
    coeffs = model.coeffs
    h = [0.0] * max(2, 2 * len(coeffs) - 1)
    h[0::2] = [-c if n % 2 else c for n, c in enumerate(coeffs)]
    h[1] += 1.0
    # The companion matrix holds h[n]/h[-1], which overflows when the top
    # coefficient is tiny against the others; the largest such quotient,
    # taken here in the same double arithmetic, shows it.
    if max(map(abs, h)) / abs(h[-1]) == math.inf:
        raise InvalidInput("the companion matrix of h(q) overflows")
    candidates: list[float] = []
    for z in map(complex, polyroots(h).tolist()):  # sorted by real part
        # Im z >= 0 keeps one member of each conjugate pair.
        if not 0.0 <= z.imag <= REAL_ROOT_REL * abs(z):
            continue
        if candidates and z.real - candidates[-1] <= REAL_ROOT_REL * abs(z):
            # The other half of a tangent pole that rounding split into two
            # real roots; their mean, like a conjugate pair's real part, is
            # the accurate estimate of the double root.
            candidates[-1] = 0.5 * (candidates[-1] + z.real)
            continue
        candidates.append(z.real)
    roots = sorted(
        _polish(model, q, Q_MIN_DEFAULT, q_max) for q in candidates if Q_MIN_DEFAULT < q <= q_max
    )

    states = []
    for q in roots:
        if q >= q_max * (1.0 - EDGE_REL):
            warnings.warn(
                f"root q = {q:.6g} lies at the edge of the scan window q_max = {q_max:.6g}",
                RootAtGridBoundary,
                stacklevel=2,
            )
        a2, sign = _normalization_parts(model, q)
        energy = -q * q
        states.append(BoundState(q=q, energy=energy, a2=a2, norm_sign=sign))
    return states


def wavefunction(state: BoundState, r):
    """phi(r) = -A exp(-q r)/r with A = +sqrt(|A|^2) (real positive phase)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
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
