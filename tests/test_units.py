"""Unit systems and the magnetic-resonance parameter layer."""

import mpmath as mp
import numpy as np
import pytest
from scipy import constants as const

from resokit.errors import DegenerateResonance, InvalidInput, PoleAtResonance
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
    convert_resonance,
    scattering_length_of_field,
    vdw_length,
    width_radius,
)


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

    def test_pole_raises(self):
        res = natural_res(b0=1.25)
        with pytest.raises(PoleAtResonance):
            scattering_length_of_field(res, 1.25)

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
        with pytest.raises(DegenerateResonance):
            width_radius(natural_res(a_bg=0.0))

    def test_defining_product_every_mode(self):
        mass_kg = 86.909 * ATOMIC_MASS_SI
        si = UnitSystem.si(mass_kg)
        res_si = ResonanceData(
            a_bg=98.98 * BOHR_RADIUS_SI,
            delta_b=2.5e-4,
            b0=100.5e-4,
            dmu=2.0 * BOHR_MAGNETON_SI,
            c6=4700.0 * 9.573e-80,
            mass=mass_kg,
            units=si,
        )
        for res in (
            res_si,
            convert_resonance(res_si, NATURAL),
            convert_resonance(res_si, UnitSystem.atomic(mass_kg)),
        ):
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

    def test_invariant_under_unit_mode(self):
        mass_kg = 39.964 * ATOMIC_MASS_SI
        si = UnitSystem.si(mass_kg)
        res_si = ResonanceData(
            a_bg=61.65 * BOHR_RADIUS_SI,
            delta_b=0.0625e-4,
            b0=543.25e-4,
            dmu=1.5 * BOHR_MAGNETON_SI,
            c6=3926.9 * const.physical_constants["Hartree energy"][0] * BOHR_RADIUS_SI**6,
            mass=mass_kg,
            units=si,
        )
        cls_si = classify_resonance(res_si)
        cls_nat = classify_resonance(convert_resonance(res_si, NATURAL))
        cls_au = classify_resonance(convert_resonance(res_si, UnitSystem.atomic(mass_kg)))
        assert cls_si == cls_nat == cls_au == "narrow"


class TestUnitSystem:
    def test_natural_factors_exactly_one(self):
        nat = UnitSystem.natural()
        for dim in ("length", "energy", "field", "mass"):
            assert nat.factor(dim) == 1.0
        assert nat.hbar == 1.0

    def test_si_round_trip(self):
        si = UnitSystem.si(atom_mass_kg=1.4431e-25)
        for dim in ("length", "energy", "field", "mass", "dmu", "c6"):
            for value in (1.0, 3.25e-11, 7.9e8):
                back = si.from_natural(si.to_natural(value, dim), dim)
                assert abs(back - value) / value < 1e-12

    def test_atomic_round_trip_through_natural(self):
        au = UnitSystem.atomic(atom_mass_kg=9.988e-27)
        value = 42.0
        there = au.to_natural(value, "length")
        assert au.from_natural(there, "length") == pytest.approx(value, rel=1e-12)

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
        with pytest.raises(InvalidInput):
            UnitSystem.si(atom_mass_kg=-1.0)

    def test_unknown_dimension_raises(self):
        with pytest.raises(InvalidInput):
            NATURAL.factor("charge")


def test_resonance_requires_nonzero_width():
    with pytest.raises(DegenerateResonance):
        natural_res(delta_b=0.0)


def test_codata_literals_match_scipy():
    pc = const.physical_constants
    assert HBAR_SI == const.hbar
    assert BOHR_RADIUS_SI == pc["Bohr radius"][0]
    assert HARTREE_SI == pc["Hartree energy"][0]
    assert ATOMIC_MASS_SI == pc["atomic mass constant"][0]
    assert BOHR_MAGNETON_SI == pc["Bohr magneton"][0]
    assert ELECTRON_MASS_SI == const.m_e
    assert FIELD_AU_SI == pc["atomic unit of mag. flux density"][0]
