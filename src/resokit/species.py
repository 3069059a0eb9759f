"""Species data files with magnetic Feshbach resonance parameters.

The CSV contract is one resonance per row under the header

    species,mass_amu,C6_au,B0_G,DeltaB_G,abg_a0,dmu_muB

with masses in unified atomic mass units, C6 in Hartree atomic units,
fields in gauss, background scattering lengths in Bohr radii and magnetic
moments in Bohr magnetons. Lines starting with ``#`` and blank lines are
ignored.
"""

from __future__ import annotations

import csv
import math

from .errors import InvalidInput, ParseError
from .units import (
    ATOMIC_MASS_SI,
    BOHR_MAGNETON_SI,
    BOHR_RADIUS_SI,
    GAUSS_SI,
    HARTREE_SI,
    ResonanceData,
    UnitSystem,
)

SPECIES_COLUMNS = (
    "species",
    "mass_amu",
    "C6_au",
    "B0_G",
    "DeltaB_G",
    "abg_a0",
    "dmu_muB",
)


# Dimension of each numeric column, in the order of SPECIES_COLUMNS[1:].
_DIMENSIONS = ("mass", "c6", "field", "field", "length", "dmu")


def _converted(lineno: int, values, units: str, converted):
    """``converted``, if each value is finite and nonzero where the file's value is."""
    for column, value, result in zip(SPECIES_COLUMNS[1:], values, converted):
        if result == 0.0 and value != 0.0:
            raise InvalidInput(f"line {lineno}: {column} = {value!r} underflows to 0 "
                               f"in {units} units")
        if not math.isfinite(result):
            raise InvalidInput(f"line {lineno}: {column} = {value!r} overflows to {result!r} "
                               f"in {units} units")
    return converted


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, raw


def parse_species(text: str, mode: str = "natural") -> list[ResonanceData]:
    """Parse species CSV text; see :func:`load_species`."""
    if mode not in ("natural", "si", "atomic"):
        raise InvalidInput(f"unknown unit mode {mode!r}")
    lines = list(_data_lines(text))
    if not lines:
        raise ParseError("missing header line", line=1)
    header_line, header_raw = lines[0]
    header = tuple(field.strip() for field in next(csv.reader([header_raw])))
    if header != SPECIES_COLUMNS:
        raise ParseError(
            f"bad header {','.join(header)!r}; expected {','.join(SPECIES_COLUMNS)!r}",
            line=header_line,
        )

    out: list[ResonanceData] = []
    for lineno, raw in lines[1:]:
        row = next(csv.reader([raw]))
        if len(row) != len(SPECIES_COLUMNS):
            raise ParseError(
                f"expected {len(SPECIES_COLUMNS)} fields, got {len(row)}", line=lineno
            )
        name = row[0].strip()
        values = []
        for col, field in enumerate(row[1:], start=2):
            try:
                values.append(float(field))
            except ValueError:
                raise ParseError(
                    f"field {SPECIES_COLUMNS[col - 1]!r} is not a number: {field!r}",
                    line=lineno,
                    column=col,
                ) from None
        mass_amu, c6_au, b0_g, db_g, abg_a0, dmu_mub = values
        if not all(math.isfinite(v) for v in values):
            raise InvalidInput(f"line {lineno}: non-finite field value")
        if mass_amu <= 0.0:
            raise InvalidInput(f"line {lineno}: mass_amu must be positive")
        if c6_au <= 0.0:
            raise InvalidInput(f"line {lineno}: C6_au must be positive")
        if db_g == 0.0:
            raise InvalidInput(f"line {lineno}: DeltaB_G must be nonzero")

        # the file's values in SI units, then in the requested ones
        converted = _converted(lineno, values, "SI", (
            mass_amu * ATOMIC_MASS_SI,
            c6_au * HARTREE_SI * BOHR_RADIUS_SI**6,
            b0_g * GAUSS_SI,
            db_g * GAUSS_SI,
            abg_a0 * BOHR_RADIUS_SI,
            dmu_mub * BOHR_MAGNETON_SI,
        ))
        mass_kg = converted[0]
        units = si = UnitSystem.si(mass_kg)
        if mode != "si":
            units = UnitSystem.natural() if mode == "natural" else UnitSystem.atomic(mass_kg)
            converted = _converted(lineno, values, mode, [
                si.convert(value, dimension, units)
                for value, dimension in zip(converted, _DIMENSIONS)
            ])
        mass, c6, b0, delta_b, a_bg, dmu = converted
        out.append(ResonanceData(a_bg=a_bg, delta_b=delta_b, b0=b0, dmu=dmu, c6=c6,
                                 mass=mass, units=units, species=name))
    return out


def load_species(path, mode: str = "natural") -> list[ResonanceData]:
    """Load a species CSV file into unit-converted resonance records.

    ``mode`` selects the unit system the returned fields are expressed in.
    Natural units are anchored per row: each species' own mass maps to 1.
    Structural problems raise :class:`ParseError` with the line number.
    Unphysical field values, values that leave the float range in the
    conversion (infinite, or 0 from a nonzero value) and a zero resonance
    width raise :class:`InvalidInput` with their line.
    """
    with open(path, encoding="utf-8-sig") as fh:
        return parse_species(fh.read(), mode=mode)
