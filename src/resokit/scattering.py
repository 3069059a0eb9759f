"""Scattering observables of a one-channel contact model.

The amplitude is parameterized as f(k) = -1/(-g(E) + i k) with E = k^2 in
the working units, which satisfies the optical theorem Im(1/f) = -k
identically for any real polynomial g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contact import ATOM_MASS, HBAR, PhaseShiftModel
from .errors import DivergentAmplitude, InvalidInput


@dataclass(frozen=True)
class ScatteringPoint:
    """One point of a scattering sweep: wavenumber, energy, amplitude, phase."""

    k: float
    energy: float
    f: complex
    delta: float


def amplitude(model: PhaseShiftModel, k: float) -> complex:
    """f(k) = -1/(-g(E) + ik); at k = 0 the real threshold value -a."""
    if not 0.0 <= k < math.inf:
        raise InvalidInput("wavenumber must be finite and nonnegative")
    energy = (HBAR * k) ** 2 / ATOM_MASS
    g = model.g(energy)
    if k == 0.0:
        if g == 0.0:
            raise DivergentAmplitude("zero-energy resonance: g(0) = 0")
        return complex(1.0 / g, 0.0)
    return -1.0 / complex(-g, k)


def phase_shift(model: PhaseShiftModel, k: float) -> float:
    """delta_s(k) = arccot(g(E)/k) on the branch (0, pi].

    Evaluated as atan2(k, g), which keeps the branch open at 0 for any
    finite g; the limits g/k -> +inf and -inf map to 0+ and pi.
    """
    if not 0.0 < k < math.inf:
        raise InvalidInput("wavenumber must be finite and positive")
    energy = (HBAR * k) ** 2 / ATOM_MASS
    return math.atan2(k, model.g(energy))


def cross_section(model: PhaseShiftModel, k: float, identical: bool = False) -> float:
    """4 pi |f|^2, or 8 pi |f|^2 for identical bosons."""
    if not 0.0 < k < math.inf:
        raise InvalidInput("wavenumber must be finite and positive")
    f = amplitude(model, k)
    factor = 8.0 * math.pi if identical else 4.0 * math.pi
    return factor * abs(f) ** 2


def unitarity_residual(model: PhaseShiftModel, k: float) -> float:
    """|Im(1/f) + k| / k, zero up to rounding for real-coefficient models."""
    if k <= 0.0:
        raise InvalidInput("wavenumber must be positive")
    f = amplitude(model, k)
    return abs((1.0 / f).imag + k) / k


def evaluate_point(model: PhaseShiftModel, k: float) -> ScatteringPoint:
    """Amplitude and phase shift bundled for sweep output."""
    energy = (HBAR * k) ** 2 / ATOM_MASS
    return ScatteringPoint(
        k=k,
        energy=energy,
        f=amplitude(model, k),
        delta=phase_shift(model, k) if k > 0.0 else math.nan,
    )
