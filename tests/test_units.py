"""Unit systems and the magnetic-resonance parameter layer."""

import copy
import math
import pickle

import mpmath as mp
import numpy as np
import pytest
from scipy import constants as const

from resokit.errors import InvalidInput
from resokit.species import SPECIES_COLUMNS, parse_species
from resokit.units import (
    ATOMIC_MASS_SI,
    BOHR_MAGNETON_SI,
    BOHR_RADIUS_SI,
    ELECTRON_MASS_SI,
    FIELD_AU_SI,
    HARTREE_SI,
    HBAR_SI,
    NATURAL,
    ResonanceData,
    UnitSystem,
    classify_resonance,
    scattering_length_of_field,
    vdw_length,
    width_radius,
    width_ratio,
)


SPECIES_HEADER = ",".join(SPECIES_COLUMNS)

# The InvalidInput messages of a field at B0 and of a zero resonance width.
POLE = "^scattering length diverges at B = B0$"
WIDTH = "^resonance width delta_b must be nonzero$"


def natural_res(**overrides):
    fields = dict(a_bg=1.0, delta_b=1.0, b0=0.0, dmu=1.0, c6=2.0, mass=1.0)
    fields.update(overrides)
    return ResonanceData(units=NATURAL, **fields)


class TestScatteringLengthOfField:
    def test_far_field_limit_recovers_background(self):
        res = natural_res(a_bg=-2.5, delta_b=0.25, b0=3.0)
        for sign in (1.0, -1.0):
            field = res.b0 + sign * 1e6 * res.delta_b
            a = scattering_length_of_field(res, field)
            assert abs(a - res.a_bg) / abs(res.a_bg) < 1e-5

    def test_zero_crossing_is_exact(self):
        res = natural_res(a_bg=3.7, delta_b=0.0072, b0=917.6)
        assert scattering_length_of_field(res, res.b0 + res.delta_b) == 0.0

    def test_direct_evaluation(self):
        # a_bg (1 - dB/(B - B0)) at a_bg=1, dB=1, B0=0, B=2; mpmath oracle
        res = natural_res()
        expected = float(mp.mpf(1) * (1 - mp.mpf(1) / (mp.mpf(2) - 0)))
        assert expected == 0.5
        assert scattering_length_of_field(res, 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_fields_near_the_float_limit_stay_finite(self):
        # a_bg (B - B0 - dB) overflows there although a(B) is close to a_bg
        res = natural_res(a_bg=3.7, delta_b=0.0072, b0=917.6)
        fields = np.array([1e308, 1.35e308, 1.7e308])
        np.testing.assert_allclose(
            scattering_length_of_field(res, fields), res.a_bg, rtol=1e-15
        )
        assert scattering_length_of_field(res, 1.7e308) == pytest.approx(res.a_bg, rel=1e-15)

    @pytest.mark.parametrize("b0, delta_b", [(-1e308, 1.0), (0.0, -1e308), (-1e308, 1e308),
                                             (1.7e308, 1e308)],
                             ids=["both-differences", "B-B0-dB", "B-B0", "B0+dB"])
    def test_differences_that_overflow(self, b0, delta_b):
        # B - B0, B - (B0 + dB) or B0 + dB leaves the float range although
        # a(B) is finite: it gave nan or raised
        res = natural_res(a_bg=98.98, delta_b=delta_b, b0=b0)
        fields = [1e308, 1.35e308, 1.75e308]
        with mp.workdps(60):
            b0, delta_b = mp.mpf(b0), mp.mpf(delta_b)
            expected = [float(98.98 * (mp.mpf(b) - b0 - delta_b) / (mp.mpf(b) - b0))
                        for b in fields]
        for got in ([scattering_length_of_field(res, b) for b in fields],
                    scattering_length_of_field(res, fields),
                    scattering_length_of_field(res, np.array(fields)).tolist()):
            for g, e in zip(got, expected):
                assert abs(g - e) <= 4 * math.ulp(e), (got, expected)

    def test_overflowing_scattering_length_raises(self):
        # a_bg (B - B0 - dB) = -1e300 and (B - B0 - dB)/(B - B0) = -1e300: both
        # orders of evaluation overflow at B = 1e-300
        res = natural_res(a_bg=1e300, delta_b=1.0, b0=0.0)
        with pytest.raises(InvalidInput, match=r"float range at B = 1e-300$"):
            scattering_length_of_field(res, 1e-300)
        with pytest.raises(InvalidInput, match=r"float range at B = 3e-300$"):
            scattering_length_of_field(res, np.array([2.0, 3e-300, 1e-300]))
        assert scattering_length_of_field(res, 2.0) == 5e299

    def test_pole_raises(self):
        res = natural_res(b0=1.25)
        with pytest.raises(InvalidInput, match=POLE):
            scattering_length_of_field(res, 1.25)

    @pytest.mark.parametrize("kind", [list, np.array])
    def test_pole_precedes_overflow(self, kind):
        # B = 1e-300 overflows, and a later field is B0
        res = natural_res(a_bg=1e300, delta_b=1.0, b0=0.0)
        with pytest.raises(InvalidInput, match=POLE):
            scattering_length_of_field(res, kind([2.0, 1e-300, 0.0]))
        with pytest.raises(InvalidInput, match=r"float range at B = 3e-300$"):
            scattering_length_of_field(res, kind([2.0, 3e-300, 1e-300]))

    @pytest.mark.parametrize("field", [np.inf, -np.inf, np.nan, 10**400, -(10**400)],
                             ids=["inf", "-inf", "nan", "int-inf", "int--inf"])
    def test_field_that_is_not_finite_raises(self, field):
        # a non-finite float gave nan, an int past the float range OverflowError
        res = natural_res()
        with pytest.raises(InvalidInput, match="field must be finite"):
            scattering_length_of_field(res, field)
        kinds = [list, tuple] + ([np.array] if isinstance(field, float) else [])
        for kind in kinds:
            with pytest.raises(InvalidInput, match="field must be finite"):
                scattering_length_of_field(res, kind([2.0, field]))
            with pytest.raises(InvalidInput, match=POLE):  # a field at B0 still goes first
                scattering_length_of_field(res, kind([2.0, field, res.b0]))

    @pytest.mark.parametrize("kind", [list, tuple, np.array])
    def test_first_offending_field_decides(self, kind):
        # the same error on every route, as if the fields were evaluated in order
        res = natural_res(a_bg=1e300, delta_b=1.0, b0=0.0)
        with pytest.raises(InvalidInput, match="must be finite, got nan"):
            scattering_length_of_field(res, kind([2.0, np.nan, 1e-300]))
        with pytest.raises(InvalidInput, match=r"float range at B = 1e-300$"):
            scattering_length_of_field(res, kind([2.0, 1e-300, np.nan]))

    def test_numpy_scalars_take_the_number_route(self):
        # np.int64 and np.float32 raised TypeError (not iterable)
        res = natural_res()
        for field in (5, np.int64(5), np.float32(5.0), np.float64(5.0), 5.0):
            a = scattering_length_of_field(res, field)
            assert type(a) is float and a == 0.8

    def test_float_list_and_array_carry_the_same_bits(self):
        rng = np.random.default_rng(31)
        res = natural_res(a_bg=-3.7, delta_b=0.0072, b0=917.6)
        fields = (res.b0 + rng.standard_normal(500) * 10.0 ** rng.uniform(-12, 3, 500)).tolist()
        fields += [1e308, 1.7e308, -1.7e308, res.b0 + res.delta_b]
        points = [scattering_length_of_field(res, b) for b in fields]
        assert all(type(a) is float for a in points)
        assert scattering_length_of_field(res, fields) == points
        assert scattering_length_of_field(res, np.array(fields)).tolist() == points

    def test_monotone_on_each_side_and_signs(self):
        res = natural_res(a_bg=1.0, delta_b=1.0, b0=0.0)
        below = [scattering_length_of_field(res, b) for b in np.linspace(-5.0, -0.1, 40)]
        above = [scattering_length_of_field(res, b) for b in np.linspace(0.1, 5.0, 40)]
        assert all(x < y for x, y in zip(below, below[1:]))
        assert all(x < y for x, y in zip(above, above[1:]))
        # crosses zero only at b0 + delta_b
        assert scattering_length_of_field(res, 0.5) < 0.0
        assert scattering_length_of_field(res, 2.0) > 0.0


class TestWidthRadius:
    def test_natural_unity(self):
        assert width_radius(natural_res()) == 1.0

    def test_doubling_width_halves(self):
        r1 = width_radius(natural_res(delta_b=1.0))
        r2 = width_radius(natural_res(delta_b=2.0))
        assert r2 == pytest.approx(0.5 * r1, rel=1e-15)

    def test_si_chain_against_mpmath(self):
        # Same CODATA inputs, independent high-precision arithmetic chain.
        mass_kg = 39.964 * ATOMIC_MASS_SI
        res = ResonanceData(
            a_bg=61.65 * BOHR_RADIUS_SI,
            delta_b=0.0625e-4,
            b0=543.25e-4,
            dmu=1.5 * BOHR_MAGNETON_SI,
            c6=3926.9 * 9.573e-80,  # value only needs to be positive here
            mass=mass_kg,
            units=UnitSystem.si(mass_kg),
        )
        got = width_radius(res)
        hbar = mp.mpf(repr(HBAR_SI))
        expected = hbar**2 / (
            mp.mpf(repr(mass_kg))
            * mp.mpf(repr(61.65 * BOHR_RADIUS_SI))
            * mp.mpf(repr(1.5 * BOHR_MAGNETON_SI))
            * mp.mpf("0.0625e-4")
        )
        assert got == pytest.approx(float(expected), rel=1e-12)

    def test_degenerate_raises(self):
        for field in ("a_bg", "dmu"):
            with pytest.raises(InvalidInput, match=r"a_bg \* dmu \* delta_b must be nonzero"):
                width_radius(natural_res(**{field: 0.0}))

    def test_underflowing_product_is_out_of_range_not_degenerate(self):
        # m a_bg dmu dB = 1e-400 rounds to 0, so R* = 1e400 overflows
        with pytest.raises(InvalidInput, match="leaves the float range: inf"):
            width_radius(natural_res(a_bg=1e-200, dmu=1e-200))

    def test_defining_product_every_mode(self):
        # the same row, loaded in each unit mode as the CLI loads it
        for mode in ("si", "natural", "atomic"):
            (res,) = parse_species(f"{SPECIES_HEADER}\nsynthA,86.909,4700.0,100.5,2.5,98.98,2.0\n",
                                   mode=mode)
            product = width_radius(res) * (
                res.a_bg * res.dmu * res.delta_b * res.mass / res.units.hbar**2
            )
            assert abs(product - 1.0) < 1e-12


class TestVdwLength:
    def test_quarter_power_of_unity(self):
        assert vdw_length(natural_res(c6=2.0)) == 1.0

    def test_homogeneity(self):
        r = vdw_length(natural_res(c6=2.0))
        assert vdw_length(natural_res(c6=32.0)) == pytest.approx(2.0 * r, rel=1e-15)

    def test_atomic_mode_against_mpmath(self):
        mass_kg = 86.909 * ATOMIC_MASS_SI
        atomic = UnitSystem.atomic(mass_kg)
        mass_me = mass_kg / const.m_e
        res = ResonanceData(
            a_bg=1.0, delta_b=1.0, b0=0.0, dmu=1.0,
            c6=3000.0, mass=mass_me, units=atomic,
        )
        expected = (mp.mpf(repr(mass_me)) / 2 * 3000) ** mp.mpf("0.25")
        assert vdw_length(res) == pytest.approx(float(expected), rel=1e-13)

    def test_constructor_rejects_bad_inputs(self):
        with pytest.raises(InvalidInput):
            natural_res(c6=-1.0)
        with pytest.raises(InvalidInput):
            natural_res(mass=0.0)


class TestClassify:
    def test_far_from_threshold(self):
        # R* = 1/(a dmu dB), R_vdW = (c6/2)^(1/4); tune a to move the ratio
        assert classify_resonance(natural_res(a_bg=0.01)) == "narrow"
        assert classify_resonance(natural_res(a_bg=100.0)) == "broad"

    def test_tie_is_broad(self):
        res = natural_res()  # R* = 1 and R_vdW = 1 exactly
        assert abs(width_radius(res)) == vdw_length(res)
        assert classify_resonance(res) == "broad"

    def test_threshold_override(self):
        res = natural_res(a_bg=0.2)  # ratio = 5
        assert classify_resonance(res) == "narrow"
        assert classify_resonance(res, threshold=10.0) == "broad"

    def test_width_ratio(self):
        assert width_ratio(-5.0, 2.0) == 2.5
        with pytest.raises(InvalidInput, match="float range: inf"):
            width_ratio(1e300, 1e-300)
        with pytest.raises(InvalidInput, match="float range: 0.0"):
            width_ratio(-1e-300, 1e300)

    @pytest.mark.parametrize(
        "overrides", [dict(a_bg=1e-300, c6=1e-300), dict(a_bg=1e300, c6=1e300)],
        ids=["ratio-inf", "ratio-0"],
    )
    def test_ratio_past_the_float_range_raises(self, overrides):
        # R* and R_vdW are finite and nonzero; their quotient is not
        res = natural_res(**overrides)
        assert 0.0 < abs(width_radius(res)) < np.inf and 0.0 < vdw_length(res) < np.inf
        with pytest.raises(InvalidInput, match="ratio"):
            classify_resonance(res)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(InvalidInput):
            classify_resonance(natural_res(a_bg=0.2), threshold=threshold)

    def test_invariant_under_unit_mode(self):
        text = f"{SPECIES_HEADER}\nsynthB,39.964,3926.9,543.25,0.0625,61.65,1.5\n"
        labels = [classify_resonance(res) for mode in ("si", "natural", "atomic")
                  for res in parse_species(text, mode=mode)]
        assert labels == ["narrow"] * 3


class TestUnitSystem:
    def test_constructor_takes_the_five_factors(self):
        assert UnitSystem.__slots__ == ("length", "energy", "field", "mass", "hbar")
        units = UnitSystem(2.0, 3.0, 5.0, 7.0, 11.0)
        dimensions = ("length", "energy", "field", "mass")
        assert [units.factor(d) for d in dimensions] + [units.hbar] == [2.0, 3.0, 5.0, 7.0, 11.0]

    def test_natural_factors_exactly_one(self):
        nat = UnitSystem.natural()
        for dim in ("length", "energy", "field", "mass"):
            assert nat.factor(dim) == 1.0
        assert nat.hbar == 1.0

    def test_si_round_trip(self):
        si = UnitSystem.si(atom_mass_kg=1.4431e-25)
        for dim in ("length", "energy", "field", "mass", "dmu", "c6"):
            for value in (1.0, 3.25e-11, 7.9e8):
                back = NATURAL.convert(si.convert(value, dim, NATURAL), dim, si)
                assert abs(back - value) / value < 1e-12

    def test_atomic_round_trip_through_natural(self):
        au = UnitSystem.atomic(atom_mass_kg=9.988e-27)
        value = 42.0
        there = au.convert(value, "length", NATURAL)
        assert NATURAL.convert(there, "length", au) == pytest.approx(value, rel=1e-12)

    def test_convert_between_systems(self):
        mass_kg = 2.2e-25
        si = UnitSystem.si(mass_kg)
        au = UnitSystem.atomic(mass_kg)
        # one bohr in SI maps to one atomic length unit
        assert si.convert(BOHR_RADIUS_SI, "length", au) == pytest.approx(1.0, rel=1e-12)

    def test_composite_factor_consistency(self):
        si = UnitSystem.si(atom_mass_kg=1.0e-25)
        assert si.factor("c6") == pytest.approx(
            si.factor("energy") * si.factor("length") ** 6, rel=1e-15
        )
        assert si.factor("dmu") == pytest.approx(
            si.factor("energy") / si.factor("field"), rel=1e-15
        )

    def test_bad_anchors_raise(self):
        for mass in (-1.0, float("nan")):
            with pytest.raises(InvalidInput):
                UnitSystem.si(atom_mass_kg=mass)

    def test_unknown_dimension_raises(self):
        with pytest.raises(InvalidInput):
            NATURAL.factor("charge")


def test_resonance_requires_nonzero_width():
    with pytest.raises(InvalidInput, match=WIDTH):
        natural_res(delta_b=0.0)


def test_resonance_checks_in_order():
    # the width first, then the mass, then c6
    with pytest.raises(InvalidInput, match=WIDTH):
        natural_res(delta_b=0.0, mass=-1.0, c6=-1.0)
    with pytest.raises(InvalidInput, match="mass"):
        natural_res(mass=float("nan"), c6=-1.0)
    with pytest.raises(InvalidInput, match="c6"):
        natural_res(c6=0.0)


SI_RES_FIELDS = ("a_bg", "delta_b", "b0", "dmu", "c6", "mass", "species")


def si_resonance():
    return ResonanceData(a_bg=5.2e-9, delta_b=2.5e-4, b0=0.0155, dmu=1.9e-23, c6=6.7e-76,
                         mass=1.44e-25, units=UnitSystem.si(1.44e-25), species="Rb87")


@pytest.mark.parametrize("make", [si_resonance, lambda: UnitSystem.atomic(1.44e-25)])
def test_values_are_read_only(make):
    value = make()
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1.0


@pytest.mark.parametrize("copy_of", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy,
                                     copy.copy])
def test_values_copy_and_pickle(copy_of):
    res = si_resonance()
    back = copy_of(res)
    assert type(back) is ResonanceData and type(back.units) is UnitSystem
    assert [getattr(back, name) for name in SI_RES_FIELDS] == \
        [getattr(res, name) for name in SI_RES_FIELDS]
    assert [getattr(back.units, name) for name in UnitSystem.__slots__] == \
        [getattr(res.units, name) for name in UnitSystem.__slots__]


def test_codata_literals_match_scipy():
    pc = const.physical_constants
    assert HBAR_SI == const.hbar
    assert BOHR_RADIUS_SI == pc["Bohr radius"][0]
    assert HARTREE_SI == pc["Hartree energy"][0]
    assert ATOMIC_MASS_SI == pc["atomic mass constant"][0]
    assert BOHR_MAGNETON_SI == pc["Bohr magneton"][0]
    assert ELECTRON_MASS_SI == const.m_e
    assert FIELD_AU_SI == pc["atomic unit of mag. flux density"][0]
