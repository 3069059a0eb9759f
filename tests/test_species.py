"""Species CSV ingestion and unit conversion."""

import math
import random

import mpmath as mp
import pytest

from resokit.errors import InvalidInput, ParseError
from resokit.species import SPECIES_COLUMNS, load_species, parse_species
from resokit.units import (
    ATOMIC_MASS_SI,
    BOHR_MAGNETON_SI,
    BOHR_RADIUS_SI,
    HBAR_SI,
    width_radius,
)

HEADER = ",".join(SPECIES_COLUMNS)

THREE_ROWS = f"""\
# comment line
{HEADER}
synthA,86.909,4700.0,100.5,2.5,98.98,2.0

synthB,39.964,3926.9,543.25,0.0625,61.65,1.5
synthC,6.0151,1393.4,716.0,10.0,-25.0,0.5
"""


def write(tmp_path, text):
    path = tmp_path / "species.csv"
    path.write_text(text)
    return path


class TestParsing:
    def test_empty_file_with_header(self, tmp_path):
        assert load_species(write(tmp_path, HEADER + "\n")) == []

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        rows = load_species(write(tmp_path, THREE_ROWS))
        assert [r.species for r in rows] == ["synthA", "synthB", "synthC"]

    @pytest.mark.parametrize("mode", ["natural", "si", "atomic"])
    def test_byte_order_mark_ignored(self, tmp_path, mode):
        # an editor's UTF-8 byte-order mark gave "bad header '\\ufeffspecies,...'"
        plain = load_species(write(tmp_path, THREE_ROWS), mode=mode)
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + THREE_ROWS, encoding="utf-8")
        marked = load_species(path, mode=mode)
        fields = ("species", "mass", "c6", "b0", "delta_b", "a_bg", "dmu")
        assert [[getattr(r, f) for f in fields] for r in marked] == \
            [[getattr(r, f) for f in fields] for r in plain]

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_species("")
        assert err.value.line == 1

    def test_wrong_header(self):
        with pytest.raises(ParseError) as err:
            parse_species("species,mass_amu\nfoo,1.0\n")
        assert err.value.line == 1

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_species(HEADER + "\nsynthA,86.909,4700.0\n")
        assert err.value.line == 2

    def test_non_numeric_field_reports_position(self):
        text = HEADER + "\nsynthA,86.909,4700.0,B0,2.5,98.98,2.0\n"
        with pytest.raises(ParseError) as err:
            parse_species(text)
        assert err.value.line == 2
        assert err.value.column == 4

    def test_zero_width_rejected_with_line(self):
        text = HEADER + (
            "\nsynthA,86.909,4700.0,100.5,2.5,98.98,2.0"
            "\nsynthB,39.964,3926.9,543.25,0.0,61.65,1.5\n"
        )
        with pytest.raises(InvalidInput) as err:
            parse_species(text)
        assert str(err.value) == "line 3: DeltaB_G must be nonzero"

    def test_unphysical_values_rejected(self):
        for bad_row, message in (
            ("synthX,-1.0,4700.0,100.5,2.5,98.98,2.0", "mass_amu must be positive"),
            ("synthX,86.909,-4700.0,100.5,2.5,98.98,2.0", "C6_au must be positive"),
            ("synthX,86.909,inf,100.5,2.5,98.98,2.0", "non-finite field value"),
        ):
            with pytest.raises(InvalidInput) as err:
                parse_species(HEADER + "\n" + bad_row + "\n")
            assert str(err.value) == f"line 2: {message}"

    # A value nonzero in the file that rounds to 0 in SI units, named with its
    # line, in every mode (natural and atomic values go through SI).
    @pytest.mark.parametrize("mode", ["natural", "si", "atomic"])
    @pytest.mark.parametrize("column, row", [
        ("mass_amu", "synthX,1e-300,4700.0,100.5,2.5,98.98,2.0"),
        ("C6_au", "synthX,86.909,1e-300,100.5,2.5,98.98,2.0"),
        ("DeltaB_G", "synthX,86.909,4700.0,100.5,1e-320,98.98,2.0"),
        ("abg_a0", "tiny,86.9,4700,100.5,2.5,1e-320,2.0"),
        # m a_bg would overflow, but dmu_muB underflows first
        ("dmu_muB", "x,1e200,1e30,1e30,1e-30,1e308,1e-320"),
    ])
    def test_field_underflowing_to_zero_in_si_rejected_with_line(self, mode, column, row):
        text = HEADER + "\nsynthA,86.909,4700.0,100.5,2.5,98.98,2.0\n# comment\n" + row + "\n"
        with pytest.raises(InvalidInput) as err:
            parse_species(text, mode=mode)
        value = row.split(",")[SPECIES_COLUMNS.index(column)]
        assert str(err.value) == f"line 4: {column} = {value} underflows to 0 in SI units"

    # DeltaB_G = 1e-200 G of a 1e-200 u atom is 1e-204 T, but 3.8e-407 natural
    # (or atomic) field units: the second conversion underflows.
    @pytest.mark.parametrize("mode", ["natural", "atomic"])
    def test_field_underflowing_to_zero_in_the_mode_rejected(self, mode):
        text = HEADER + "\nsynthX,1e-200,4700.0,100.5,1e-200,98.98,2.0\n"
        assert parse_species(text, mode="si")[0].delta_b == 1e-200 * 1e-4
        with pytest.raises(InvalidInput) as err:
            parse_species(text, mode=mode)
        assert str(err.value) == f"line 2: DeltaB_G = 1e-200 underflows to 0 in {mode} units"

    # C6 and DeltaB of a 1e250 u atom are finite in SI units, infinite in
    # natural and atomic ones: the first such column is named.
    @pytest.mark.parametrize("mode", ["natural", "atomic"])
    def test_field_overflowing_in_the_mode_rejected(self, mode):
        text = HEADER + "\nbig,1e250,4700,100.5,1e100,98.98,2.0\n"
        assert parse_species(text, mode="si")[0].delta_b == 1e100 * 1e-4
        with pytest.raises(InvalidInput) as err:
            parse_species(text, mode=mode)
        assert str(err.value) == f"line 2: C6_au = 4700.0 overflows to inf in {mode} units"

    def test_no_record_leaves_the_float_range(self):
        # fields 10^U(-330, 330): each row loads with every value finite and
        # nonzero where the file's is, or raises an input error
        rng = random.Random(12)

        def field(sign=""):
            e = rng.uniform(-330.0, 330.0)
            return f"{sign}{10.0 ** (e % 1.0):.6f}e{math.floor(e)}"

        loaded = 0
        for _ in range(2000):
            fields = [field(), field(), *(field(rng.choice(("", "-"))) for _ in range(4))]
            for mode in ("natural", "si", "atomic"):
                try:
                    (row,) = parse_species(f"{HEADER}\nz,{','.join(fields)}\n", mode=mode)
                except InvalidInput:
                    continue
                loaded += 1
                values = (row.mass, row.c6, row.b0, row.delta_b, row.a_bg, row.dmu)
                for value, text in zip(values, fields):
                    assert math.isfinite(value) and (value != 0.0 or float(text) == 0.0), fields
        assert loaded >= 2000

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInput):
            parse_species(HEADER + "\n", mode="imperial")


class TestConversion:
    def test_natural_mode_direct_columns(self, tmp_path):
        # with bohr as the length anchor and the Bohr magneton as the moment
        # unit, abg_a0 and dmu_muB pass through unchanged
        rows = load_species(write(tmp_path, THREE_ROWS), mode="natural")
        row = rows[1]
        assert row.a_bg == pytest.approx(61.65, rel=1e-13)
        assert row.dmu == pytest.approx(1.5, rel=1e-13)
        assert row.mass == pytest.approx(1.0, rel=1e-14)

    def test_width_radius_against_hand_chain(self, tmp_path):
        rows = load_species(write(tmp_path, THREE_ROWS), mode="natural")
        for row, (mass_amu, abg_a0, dmu_mub, db_g) in zip(
            rows,
            ((86.909, 98.98, 2.0, 2.5), (39.964, 61.65, 1.5, 0.0625), (6.0151, -25.0, 0.5, 10.0)),
        ):
            hbar = mp.mpf(repr(HBAR_SI))
            mass = mp.mpf(repr(mass_amu)) * mp.mpf(repr(ATOMIC_MASS_SI))
            a = mp.mpf(repr(abg_a0)) * mp.mpf(repr(BOHR_RADIUS_SI))
            dmu = mp.mpf(repr(dmu_mub)) * mp.mpf(repr(BOHR_MAGNETON_SI))
            db = mp.mpf(repr(db_g)) * mp.mpf("1e-4")
            rstar_bohr = hbar**2 / (mass * a * dmu * db) / mp.mpf(repr(BOHR_RADIUS_SI))
            assert width_radius(row) == pytest.approx(float(rstar_bohr), rel=1e-11)

    def test_reference_row_frozen_value(self, tmp_path):
        # synthB width radius in bohr, frozen from the high-precision chain
        rows = load_species(write(tmp_path, THREE_ROWS), mode="natural")
        assert width_radius(rows[1]) == pytest.approx(11165.034947, rel=1e-8)

    def test_modes_are_consistent(self, tmp_path):
        path = write(tmp_path, THREE_ROWS)
        nat = load_species(path, mode="natural")
        si = load_species(path, mode="si")
        au = load_species(path, mode="atomic")
        for r_nat, r_si, r_au in zip(nat, si, au):
            # dimensionless ratio is mode independent
            ratio_nat = abs(width_radius(r_nat)) / r_nat.a_bg
            ratio_si = abs(width_radius(r_si)) / r_si.a_bg
            ratio_au = abs(width_radius(r_au)) / r_au.a_bg
            assert ratio_si == pytest.approx(ratio_nat, rel=1e-11)
            assert ratio_au == pytest.approx(ratio_nat, rel=1e-11)

    def test_si_mode_units(self, tmp_path):
        rows = load_species(write(tmp_path, THREE_ROWS), mode="si")
        row = rows[0]
        assert row.mass == pytest.approx(86.909 * ATOMIC_MASS_SI, rel=1e-13)
        assert row.a_bg == pytest.approx(98.98 * BOHR_RADIUS_SI, rel=1e-13)
        assert row.b0 == pytest.approx(100.5e-4, rel=1e-13)
        assert row.units.hbar == HBAR_SI
