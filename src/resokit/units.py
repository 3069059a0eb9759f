"""Unit systems and magnetic Feshbach resonance parameters.

All analysis modules work in natural units: hbar = 1 and atom mass m = 1,
so the reduced mass is mu = 1/2 and the relative energy is E = k^2. A
:class:`UnitSystem` holds the factors that map values expressed in a source
system (SI or Hartree atomic units) onto those working units. The working
system is anchored by two scales: the atom mass, chosen at construction
time, and the Bohr radius. In natural mode every factor is exactly 1, by
definition.

Magnetic moments are stored as energy per field throughout, so the width
radius hbar^2/(m a_bg dmu dB) is dimensionally closed in every mode.
"""

from __future__ import annotations

import math
from typing import Literal

from .contact import _ReadOnly
from .errors import DegenerateResonance, InvalidInput, PoleAtResonance

# CODATA 2022 values, as scipy.constants 1.17 gives them; HBAR_SI is
# h/(2 pi) with the exact SI value of h.
HBAR_SI = 1.0545718176461565e-34
BOHR_RADIUS_SI = 5.29177210544e-11
HARTREE_SI = 4.359744722206e-18
ATOMIC_MASS_SI = 1.66053906892e-27
BOHR_MAGNETON_SI = 9.2740100657e-24
ELECTRON_MASS_SI = 9.1093837139e-31
FIELD_AU_SI = 235051.757077
GAUSS_SI = 1.0e-4

Mode = Literal["natural", "si", "atomic"]

_BASE_DIMENSIONS = ("length", "energy", "field", "mass")


# Not dataclasses, so that the Feshbach commands import none (see contact._ReadOnly).
class UnitSystem(_ReadOnly):
    """Conversion factors from a source unit system into the working units.

    ``length``, ``energy``, ``field`` and ``mass`` are the number of working
    units per one source unit; ``hbar`` is the value of hbar expressed in the
    source system's own units.
    """

    __slots__ = ("mode", "length", "energy", "field", "mass", "hbar")

    def __init__(self, mode: Mode, length: float = 1.0, energy: float = 1.0,
                 field: float = 1.0, mass: float = 1.0, hbar: float = 1.0):
        super().__init__(mode, length, energy, field, mass, hbar)

    @classmethod
    def natural(cls) -> "UnitSystem":
        """The working system itself; all factors are exactly 1."""
        return cls(mode="natural")

    @classmethod
    def si(cls, atom_mass_kg: float) -> "UnitSystem":
        """SI values anchored so that the given atom mass and the Bohr radius map to 1."""
        if not atom_mass_kg > 0.0:
            raise InvalidInput("atom mass must be positive")
        mass_area = atom_mass_kg * BOHR_RADIUS_SI**2
        energy_j = HBAR_SI**2 / mass_area if mass_area > 0.0 else math.inf
        field_t = energy_j / BOHR_MAGNETON_SI
        # every scale factor 1/scale below must be finite and nonzero
        if not all(0.0 < s < math.inf and 1.0 / s < math.inf
                   for s in (energy_j, field_t, atom_mass_kg)):
            raise InvalidInput(f"the SI scale factors leave the float range at {atom_mass_kg!r} kg")
        return cls(
            mode="si",
            length=1.0 / BOHR_RADIUS_SI,
            energy=1.0 / energy_j,
            field=1.0 / field_t,
            mass=1.0 / atom_mass_kg,
            hbar=HBAR_SI,
        )

    @classmethod
    def atomic(cls, atom_mass_kg: float) -> "UnitSystem":
        """Hartree atomic units (bohr, hartree, m_e) mapped onto the working units."""
        si = cls.si(atom_mass_kg)
        return cls(
            mode="atomic",
            length=BOHR_RADIUS_SI * si.length,
            energy=HARTREE_SI * si.energy,
            field=FIELD_AU_SI * si.field,
            mass=ELECTRON_MASS_SI * si.mass,
            hbar=1.0,
        )

    def factor(self, dimension: str) -> float:
        """Working units per one source unit of the given dimension.

        Composite dimensions: ``dmu`` is energy/field, ``c6`` is
        energy*length^6.
        """
        if dimension in _BASE_DIMENSIONS:
            return getattr(self, dimension)
        if dimension == "dmu":
            return self.energy / self.field
        if dimension == "c6":
            return self.energy * self.length**6
        raise InvalidInput(f"unknown dimension {dimension!r}")

    def convert(self, value: float, dimension: str, other: "UnitSystem") -> float:
        """Re-express ``value`` from this system in ``other``'s units."""
        return value * self.factor(dimension) / other.factor(dimension)


NATURAL = UnitSystem.natural()


class ResonanceData(_ReadOnly):
    """Physical parameterization of one magnetic Feshbach resonance.

    Fields are expressed in ``units``; ``dmu`` is the differential magnetic
    moment as energy per field and ``c6`` the dispersion coefficient as
    energy times length^6.
    """

    __slots__ = ("a_bg", "delta_b", "b0", "dmu", "c6", "mass", "units", "species")

    def __init__(self, a_bg: float, delta_b: float, b0: float, dmu: float, c6: float,
                 mass: float, units: UnitSystem = NATURAL, species: str = ""):
        if delta_b == 0.0:
            raise DegenerateResonance("resonance width delta_b must be nonzero")
        if not mass > 0.0:
            raise InvalidInput("mass must be positive")
        if not c6 > 0.0:
            raise InvalidInput("c6 must be positive")
        super().__init__(a_bg, delta_b, b0, dmu, c6, mass, units, species)


def convert_resonance(res: ResonanceData, to: UnitSystem) -> ResonanceData:
    """Re-express every field of ``res`` in the target unit system."""
    u = res.units
    return ResonanceData(
        a_bg=u.convert(res.a_bg, "length", to),
        delta_b=u.convert(res.delta_b, "field", to),
        b0=u.convert(res.b0, "field", to),
        dmu=u.convert(res.dmu, "dmu", to),
        c6=u.convert(res.c6, "c6", to),
        mass=u.convert(res.mass, "mass", to),
        units=to,
        species=res.species,
    )


_POLE = "scattering length diverges at B = B0"


def _a_of_field(res: ResonanceData, field: float) -> float:
    """a(B) at one field by the arithmetic and errors of :func:`scattering_length_of_field`."""
    if field == res.b0:
        raise PoleAtResonance(_POLE)
    num, den = field - (res.b0 + res.delta_b), field - res.b0
    a = res.a_bg * num / den
    if math.isinf(a):
        a = res.a_bg * (num / den)
        if math.isinf(a):
            raise InvalidInput(f"the scattering length leaves the float range at B = {field!r}")
    return a


def scattering_length_of_field(res: ResonanceData, field):
    """Scattering length a(B) = a_bg (1 - dB/(B - B0)) at magnetic field B.

    Evaluated as a_bg (B - (B0 + dB))/(B - B0) so the zero crossing at
    B = B0 + dB is exact in floating point. Near the float limit the
    product overflows before the division; there the quotient is taken
    first, and an a that still overflows raises :class:`InvalidInput`.
    ``field`` is a float, a list of floats (giving a list) or an array; a
    field exactly at B0 raises :class:`PoleAtResonance`, ahead of any
    overflow elsewhere in the list or array.
    """
    if isinstance(field, (int, float)):
        return _a_of_field(res, float(field))
    if res.b0 in field:  # reported before any point is evaluated
        raise PoleAtResonance(_POLE)
    if isinstance(field, list):
        return [_a_of_field(res, b) for b in field]
    import numpy as np

    field = np.asarray(field, dtype=float)
    num, den = field - (res.b0 + res.delta_b), field - res.b0
    with np.errstate(over="ignore"):
        a = res.a_bg * num / den
    overflowed = np.isinf(a)
    if overflowed.any():
        with np.errstate(over="ignore"):
            a = np.where(overflowed, res.a_bg * (num / den), a)
        infinite = np.isinf(a)
        if infinite.any():  # evaluated alone, the first such field raises
            _a_of_field(res, float(field[infinite][0]))
    return a.item() if a.ndim == 0 else a


def width_radius(res: ResonanceData) -> float:
    """Width radius hbar^2/(m a_bg dmu dB); sign follows the denominator."""
    denom = res.mass * res.a_bg * res.dmu * res.delta_b
    if denom == 0.0 and 0.0 in (res.a_bg, res.dmu):
        raise DegenerateResonance("a_bg * dmu * delta_b must be nonzero")
    # nonzero factors whose product underflows put R* past the float range
    rstar = res.units.hbar**2 / denom if denom != 0.0 else math.inf
    if not 0.0 < abs(rstar) < math.inf:
        raise InvalidInput(f"the width radius leaves the float range: {rstar!r}")
    return rstar


def vdw_length(res: ResonanceData) -> float:
    """Van der Waals length (mu C6 / hbar^2)^(1/4) with mu = mass/2.

    The reduced mass is fixed to half the atom mass (identical particles);
    :class:`ResonanceData` guarantees c6 > 0 and mass > 0.
    """
    length = (0.5 * res.mass * res.c6 / res.units.hbar**2) ** 0.25
    if not 0.0 < length < math.inf:
        raise InvalidInput(f"the van der Waals length leaves the float range: {length!r}")
    return length


def width_ratio(rstar: float, rvdw: float) -> float:
    """|R*| / R_vdW from the width radius and the van der Waals length.

    Raises :class:`InvalidInput` unless the ratio is finite and nonzero.
    """
    ratio = abs(rstar) / rvdw
    if not 0.0 < ratio < math.inf:
        raise InvalidInput(f"the ratio |R*|/R_vdW leaves the float range: {ratio!r}")
    return ratio


def classify_resonance(res: ResonanceData, threshold: float = 1.0) -> str:
    """Classify as "narrow" iff |R*| / R_vdW strictly exceeds ``threshold``.

    The ratio is dimensionless, so the result does not depend on the unit
    mode the data is expressed in.
    """
    if not math.isfinite(threshold):
        raise InvalidInput(f"threshold must be finite, got {threshold!r}")
    ratio = width_ratio(width_radius(res), vdw_length(res))
    return "narrow" if ratio > threshold else "broad"
