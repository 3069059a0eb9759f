"""Modified scalar product for energy-dependent contact models.

For two eigenstates with source amplitudes A_1, A_2 and energies E_1, E_2,
the usual scalar product of the zero-range limit equals

    <1|2> = 4 pi conj(A_1) A_2 (g(E_1) - g(E_2))/(E_1 - E_2),

so subtracting that quantity defines a product under which nondegenerate
eigenstates are orthogonal. :func:`modified_product` subtracts it with the
model's :meth:`PhaseShiftModel.difference_quotient`, whose diagonal is g'.
The paper's double series over regularized kinetic-power matrix elements
is the same finite sum for a polynomial g; it lives in :mod:`resokit.verify`
as the oracle of the ``series-quotient`` check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .contact import PhaseShiftModel
from .errors import InvalidInput, KindMismatch, SingularSystem


@dataclass(frozen=True)
class ContactEigenstate:
    """Eigenstate of a contact model reduced to (energy, source amplitude)."""

    energy: float
    amplitude: complex

    @property
    def kind(self) -> Literal["bound", "scattering"]:
        """Bound below threshold, scattering at or above it."""
        return "bound" if self.energy < 0.0 else "scattering"

    @classmethod
    def bound(cls, energy: float, amplitude: complex) -> "ContactEigenstate":
        if not energy < 0.0:
            raise InvalidInput("bound state needs energy < 0")
        return cls(energy=energy, amplitude=complex(amplitude))

    @classmethod
    def scattering(cls, energy: float, amplitude: complex) -> "ContactEigenstate":
        if not energy >= 0.0:
            raise InvalidInput("scattering state needs energy >= 0")
        return cls(energy=energy, amplitude=complex(amplitude))

    @property
    def q(self) -> float:
        """Decay constant sqrt(-E); bound states only."""
        if self.kind != "bound":
            raise KindMismatch("q is defined for bound states only")
        return math.sqrt(-self.energy)


def plain_overlap_bound(s1: ContactEigenstate, s2: ContactEigenstate) -> complex:
    """Closed-form <1|2> for two bound-type wavefunctions -A exp(-qr)/r."""
    if s1.kind != "bound" or s2.kind != "bound":
        raise KindMismatch("plain_overlap_bound needs two bound states")
    return s1.amplitude.conjugate() * s2.amplitude * 4.0 * math.pi / (s1.q + s2.q)


def modified_product(
    model: PhaseShiftModel,
    s1: ContactEigenstate,
    s2: ContactEigenstate,
    plain: complex,
) -> complex:
    """(1|2)_0 = plain - 4 pi conj(A_1) A_2 D.

    D is :meth:`PhaseShiftModel.difference_quotient` between the two
    energies, the same synthetic division that gives g'(E) at E_1 = E_2.
    """
    quotient = model.difference_quotient(s1.energy, s2.energy)
    prefactor = 4.0 * math.pi
    return plain - prefactor * s1.amplitude.conjugate() * s2.amplitude * quotient


def construct_two_pole_model(q1: float, q2: float) -> PhaseShiftModel:
    """Linear-in-energy model whose bound states sit exactly at q1 and q2.

    Solves the 2x2 system g(-q_i^2) = -q_i for (c_0, c_1).
    """
    if not (q1 > 0.0 and q2 > 0.0):
        raise InvalidInput("decay constants must be positive")
    e1 = -q1 * q1
    e2 = -q2 * q2
    det = e2 - e1
    if det == 0.0:
        raise SingularSystem("coincident energies: the two poles must differ")
    c1 = (q1 - q2) / det
    c0 = -q1 - c1 * e1
    return PhaseShiftModel((c0, c1))
