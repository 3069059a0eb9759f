"""Unit systems and magnetic Feshbach resonance parameters.

All analysis modules work in natural units: hbar = 1 and atom mass m = 1,
so the reduced mass is mu = 1/2 and the relative energy is E = k^2. A
:class:`UnitSystem` holds the factors that map values expressed in a source
system (SI or Hartree atomic units) onto those working units. The working
system is anchored by two scales chosen at construction time: the atom mass
and a length unit (Bohr radius by default). In natural mode every factor is
exactly 1, by definition.

Magnetic moments are stored as energy per field throughout, so the width
radius hbar^2/(m a_bg dmu dB) is dimensionally closed in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

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


@dataclass(frozen=True)
class UnitSystem:
    """Conversion factors from a source unit system into the working units.

    ``length``, ``energy``, ``field`` and ``mass`` are the number of working
    units per one source unit; ``hbar`` is the value of hbar expressed in the
    source system's own units.
    """

    mode: Mode
    length: float = 1.0
    energy: float = 1.0
    field: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0

    @classmethod
    def natural(cls) -> "UnitSystem":
        """The working system itself; all factors are exactly 1."""
        return cls(mode="natural")

    @classmethod
    def si(cls, atom_mass_kg: float, length_m: float = BOHR_RADIUS_SI) -> "UnitSystem":
        """SI values anchored so that the given atom mass and length map to 1."""
        if atom_mass_kg <= 0.0 or length_m <= 0.0:
            raise InvalidInput("unit anchors must be positive")
        energy_j = HBAR_SI**2 / (atom_mass_kg * length_m**2)
        field_t = energy_j / BOHR_MAGNETON_SI
        return cls(
            mode="si",
            length=1.0 / length_m,
            energy=1.0 / energy_j,
            field=1.0 / field_t,
            mass=1.0 / atom_mass_kg,
            hbar=HBAR_SI,
        )

    @classmethod
    def atomic(cls, atom_mass_kg: float, length_m: float = BOHR_RADIUS_SI) -> "UnitSystem":
        """Hartree atomic units (bohr, hartree, m_e) mapped onto the working units."""
        si = cls.si(atom_mass_kg, length_m)
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
        energy*length^6, ``inverse_length`` is 1/length.
        """
        if dimension in _BASE_DIMENSIONS:
            return getattr(self, dimension)
        if dimension == "dmu":
            return self.energy / self.field
        if dimension == "c6":
            return self.energy * self.length**6
        if dimension == "inverse_length":
            return 1.0 / self.length
        raise InvalidInput(f"unknown dimension {dimension!r}")

    def to_natural(self, value: float, dimension: str) -> float:
        return value * self.factor(dimension)

    def from_natural(self, value: float, dimension: str) -> float:
        return value / self.factor(dimension)

    def convert(self, value: float, dimension: str, other: "UnitSystem") -> float:
        """Re-express ``value`` from this system in ``other``'s units."""
        return value * self.factor(dimension) / other.factor(dimension)


NATURAL = UnitSystem.natural()


@dataclass(frozen=True)
class ResonanceData:
    """Physical parameterization of one magnetic Feshbach resonance.

    Fields are expressed in ``units``; ``dmu`` is the differential magnetic
    moment as energy per field and ``c6`` the dispersion coefficient as
    energy times length^6.
    """

    a_bg: float
    delta_b: float
    b0: float
    dmu: float
    c6: float
    mass: float
    units: UnitSystem = NATURAL
    species: str = ""

    def __post_init__(self):
        if self.delta_b == 0.0:
            raise DegenerateResonance("resonance width delta_b must be nonzero")
        if not self.mass > 0.0:
            raise InvalidInput("mass must be positive")
        if not self.c6 > 0.0:
            raise InvalidInput("c6 must be positive")


def convert_resonance(res: ResonanceData, to: UnitSystem) -> ResonanceData:
    """Re-express every field of ``res`` in the target unit system."""
    u = res.units
    return replace(
        res,
        a_bg=u.convert(res.a_bg, "length", to),
        delta_b=u.convert(res.delta_b, "field", to),
        b0=u.convert(res.b0, "field", to),
        dmu=u.convert(res.dmu, "dmu", to),
        c6=u.convert(res.c6, "c6", to),
        mass=u.convert(res.mass, "mass", to),
        units=to,
    )


def scattering_length_of_field(res: ResonanceData, field: float) -> float:
    """Scattering length a(B) = a_bg (1 - dB/(B - B0)) at magnetic field B.

    Evaluated as a_bg (B - (B0 + dB))/(B - B0) so the zero crossing at
    B = B0 + dB is exact in floating point.
    """
    if field == res.b0:
        raise PoleAtResonance("scattering length diverges at B = B0")
    return res.a_bg * (field - (res.b0 + res.delta_b)) / (field - res.b0)


def width_radius(res: ResonanceData) -> float:
    """Width radius hbar^2/(m a_bg dmu dB); sign follows the denominator."""
    denom = res.mass * res.a_bg * res.dmu * res.delta_b
    if denom == 0.0:
        raise DegenerateResonance("a_bg * dmu * delta_b must be nonzero")
    return res.units.hbar**2 / denom


def vdw_length(res: ResonanceData) -> float:
    """Van der Waals length (mu C6 / hbar^2)^(1/4) with mu = mass/2.

    The reduced mass is fixed to half the atom mass (identical particles).
    """
    if not (res.c6 > 0.0 and res.mass > 0.0):
        raise InvalidInput("c6 and mass must be positive")
    return (0.5 * res.mass * res.c6 / res.units.hbar**2) ** 0.25


def classify_resonance(res: ResonanceData, threshold: float = 1.0) -> str:
    """Classify as "narrow" iff |R*| / R_vdW strictly exceeds ``threshold``.

    The ratio is dimensionless, so the result does not depend on the unit
    mode the data is expressed in.
    """
    ratio = abs(width_radius(res)) / vdw_length(res)
    return "narrow" if ratio > threshold else "broad"
