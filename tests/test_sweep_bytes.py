"""Byte contract of the sweep tables and of the table writer.

Each expected table is rebuilt row by row with Python scalar arithmetic:
f = -1/complex(-g, k) (CPython's complex division), delta = math.atan2(k, g),
sigma = 4 pi |f|^2 (8 pi for identical bosons) with ``abs(complex)`` squared
by multiplication, E = k * k, and a(B) = a_bg (B - (B0 + dB))/(B - B0),
every value written with ``format(v, ".17g")``, over the grid of
``oracles.sweep_grid``. The CLI evaluates a grid of at most
``cli.BLOCK_ROWS`` points point by point and a longer one as whole columns,
written in blocks of rows either way, so these loops are the reference its
CSV bytes and its whole JSON report (``json.dumps(indent=2,
sort_keys=True)``, timestamp masked) must reproduce exactly.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sweep_grid
from resokit import __version__, cli
from resokit.species import load_species
from resokit.units import scattering_length_of_field
from resokit.verify import SYNTHETIC_SPECIES_CSV

AMPLITUDE_HEADER = ("k", "E", "Re_f", "Im_f", "delta", "sigma")


def _fmt(v):
    return format(v, ".17g")


def _g(coeffs, energy):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * energy + c
    return acc


def amplitude_rows(coeffs, ks, identical):
    factor = 8.0 * math.pi if identical else 4.0 * math.pi
    rows = []
    for k in ks:
        energy = k * k
        g = _g(coeffs, energy)
        if k == 0.0:
            f = complex(1.0 / g, 0.0)
            delta = sigma = math.nan
        else:
            f = -1.0 / complex(-g, k)
            delta = math.atan2(k, g)
            sigma = factor * (abs(f) * abs(f))
        rows.append([_fmt(v) for v in (k, energy, f.real, f.imag, delta, sigma)])
    return rows


def field_rows(res, fields):
    return [
        [_fmt(b), _fmt(res.a_bg * (b - (res.b0 + res.delta_b)) / (b - res.b0))]
        for b in fields
    ]


def csv_text(header, rows):
    return "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"


TIMESTAMP = re.compile(r'^  "timestamp": "[^"]*",$', re.MULTILINE)
MASK = '  "timestamp": "<masked>",'


def report_text(command, inputs, header, rows, residuals=None):
    payload = {
        "command": command,
        "inputs": inputs,
        "outputs": [dict(zip(header, row)) for row in rows],
        "residuals": residuals or {},
        "version": __version__,
        "timestamp": "<masked>",
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def masked(text):
    assert TIMESTAMP.search(text), text[:2000]
    return TIMESTAMP.sub(MASK, text)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def assert_table(capsys, argv, header, rows, command, inputs):
    assert run(capsys, argv) == csv_text(header, rows)
    text = run(capsys, argv + ["--format", "json"])
    assert masked(text) == report_text(command, inputs, header, rows)


def _coeffs(degree, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-2.0, 2.0, degree + 1) * 10.0 ** rng.uniform(-2.0, 1.0, degree + 1)
    return coeffs.tolist()


# (degree, min, max, steps, log, identical): k = 0 rows, linear and log
# grids, both cross-section factors and degrees 1-4.
AMPLITUDE_SWEEPS = [
    (1, 0.0, 5.0, 301, False, False),
    (2, 0.0, 40.0, 400, False, True),
    (3, 1e-3, 100.0, 500, True, False),
    (4, 1e-2, 30.0, 500, True, True),
    (1, 1e-4, 1e3, 400, True, True),
    (4, 0.0, 3.0, 257, False, False),
]


@pytest.mark.parametrize("command", ["amplitude", "phase-shift"])
@pytest.mark.parametrize("degree, lo, hi, steps, log, identical", AMPLITUDE_SWEEPS)
def test_amplitude_sweep_bytes(capsys, command, degree, lo, hi, steps, log, identical):
    coeffs = _coeffs(degree, seed=100 * degree + steps)
    argv = [command, "--coeffs=" + ",".join(repr(c) for c in coeffs),
            "--min", repr(lo), "--max", repr(hi), "--steps", str(steps)]
    argv += ["--log"] * log + ["--identical"] * identical
    rows = amplitude_rows(coeffs, sweep_grid(lo, hi, steps, log), identical)
    inputs = {"coeffs": coeffs, "identical": identical, "min": lo, "max": hi,
              "steps": steps, "log": log}
    assert_table(capsys, argv, AMPLITUDE_HEADER, rows, command, inputs)


@pytest.mark.parametrize("k", [0.0, 0.37, 1.0, 12.5])
def test_amplitude_point_bytes(capsys, k):
    argv = ["amplitude", "--a", "3", "--rstar", "0.7", "--k", repr(k)]
    coeffs = [-1.0 / 3.0, -0.7]
    rows = amplitude_rows(coeffs, [k], identical=False)
    inputs = {"coeffs": coeffs, "identical": False, "k": k}
    assert_table(capsys, argv, AMPLITUDE_HEADER, rows, "amplitude", inputs)


@pytest.mark.parametrize("units", ["natural", "si"])
@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("log", [False, True])
def test_field_sweep_bytes(capsys, tmp_path, units, index, log):
    path = tmp_path / "species.csv"
    path.write_text(SYNTHETIC_SPECIES_CSV)
    res = load_species(str(path), mode=units)[index]
    width = abs(res.delta_b)
    lo, hi, steps = res.b0 - 3.1 * width, res.b0 + 2.9 * width, 401
    argv = ["feshbach", "sweep", "--species", str(path), "--index", str(index),
            "--units", units, "--min", repr(lo), "--max", repr(hi), "--steps", str(steps)]
    argv += ["--log"] * log
    rows = field_rows(res, sweep_grid(lo, hi, steps, log))
    inputs = {"species_file": str(path), "units": units, "species": res.species,
              "min": lo, "max": hi, "steps": steps, "log": log}
    assert_table(capsys, argv, ("B", "a"), rows, "feshbach sweep", inputs)


# Sweeps of exactly one block of rows and of two blocks plus one row.
@pytest.mark.parametrize("steps", [cli.BLOCK_ROWS, 2 * cli.BLOCK_ROWS + 1])
def test_amplitude_sweep_block_edges(capsys, steps):
    coeffs = _coeffs(2, seed=steps)
    argv = ["amplitude", "--coeffs=" + ",".join(repr(c) for c in coeffs),
            "--min", "0.0", "--max", "7.0", "--steps", str(steps)]
    rows = amplitude_rows(coeffs, sweep_grid(0.0, 7.0, steps, False), identical=False)
    inputs = {"coeffs": coeffs, "identical": False, "min": 0.0, "max": 7.0,
              "steps": steps, "log": False}
    assert_table(capsys, argv, AMPLITUDE_HEADER, rows, "amplitude", inputs)


@pytest.mark.parametrize("steps", [cli.BLOCK_ROWS, 2 * cli.BLOCK_ROWS + 1])
def test_field_sweep_block_edges(capsys, tmp_path, steps):
    path = tmp_path / "species.csv"
    path.write_text(SYNTHETIC_SPECIES_CSV)
    res = load_species(str(path))[1]
    lo, hi = res.b0 - 2.1 * abs(res.delta_b), res.b0 + 3.9 * abs(res.delta_b)
    argv = ["feshbach", "sweep", "--species", str(path), "--index", "1",
            "--min", repr(lo), "--max", repr(hi), "--steps", str(steps)]
    rows = field_rows(res, sweep_grid(lo, hi, steps, False))
    inputs = {"species_file": str(path), "units": "natural", "species": res.species,
              "min": lo, "max": hi, "steps": steps, "log": False}
    assert_table(capsys, argv, ("B", "a"), rows, "feshbach sweep", inputs)


# A grid of at most BLOCK_ROWS points is a list, evaluated by the scalar
# expressions; a longer one is an array. Both give the rows of the same grid.
def assert_route(argv, steps, grid):
    got = cli._grid(cli.build_parser().parse_args(argv), "test")
    assert isinstance(got, list) == (steps <= cli.BLOCK_ROWS)
    assert list(got) == grid


@pytest.mark.parametrize("log", [False, True])
@pytest.mark.parametrize("steps", [cli.BLOCK_ROWS, cli.BLOCK_ROWS + 1])
def test_amplitude_sweep_route_boundary(capsys, steps, log):
    coeffs = _coeffs(3, seed=steps + log)
    lo, hi = (1e-3, 40.0) if log else (0.0, 40.0)
    argv = ["amplitude", "--coeffs=" + ",".join(repr(c) for c in coeffs),
            "--min", repr(lo), "--max", repr(hi), "--steps", str(steps)] + ["--log"] * log
    grid = sweep_grid(lo, hi, steps, log)
    assert_route(argv, steps, grid)
    inputs = {"coeffs": coeffs, "identical": False, "min": lo, "max": hi,
              "steps": steps, "log": log}
    assert_table(capsys, argv, AMPLITUDE_HEADER, amplitude_rows(coeffs, grid, False),
                 "amplitude", inputs)


@pytest.mark.parametrize("log", [False, True])
@pytest.mark.parametrize("steps", [cli.BLOCK_ROWS, cli.BLOCK_ROWS + 1])
def test_field_sweep_route_boundary(capsys, tmp_path, steps, log):
    path = tmp_path / "species.csv"
    path.write_text(SYNTHETIC_SPECIES_CSV)
    res = load_species(str(path))[2]
    lo, hi = res.b0 - 3.3 * abs(res.delta_b), res.b0 + 1.7 * abs(res.delta_b)
    argv = ["feshbach", "sweep", "--species", str(path), "--index", "2",
            "--min", repr(lo), "--max", repr(hi), "--steps", str(steps)] + ["--log"] * log
    grid = sweep_grid(lo, hi, steps, log)
    assert_route(argv, steps, grid)
    inputs = {"species_file": str(path), "units": "natural", "species": res.species,
              "min": lo, "max": hi, "steps": steps, "log": log}
    assert_table(capsys, argv, ("B", "a"), field_rows(res, grid), "feshbach sweep", inputs)


@pytest.mark.parametrize("steps", [10, cli.BLOCK_ROWS + 1])
def test_zero_step_grid(capsys, steps):
    # 4 subnormal units over steps - 1 intervals: the step underflows to 0,
    # and numpy.linspace's i / (steps - 1) * (max - min) + min spreads the
    # points over the 5 values in between
    lo, hi = 0.0, 2e-323
    grid = sweep_grid(lo, hi, steps, False)
    assert grid == np.linspace(lo, hi, steps).tolist()
    assert sorted(set(grid)) == [0.0, 5e-324, 1e-323, 1.5e-323, 2e-323]
    argv = ["amplitude", "--coeffs=-0.5,1.5", "--min", repr(lo), "--max", repr(hi),
            "--steps", str(steps)]
    assert_route(argv, steps, grid)
    inputs = {"coeffs": [-0.5, 1.5], "identical": False, "min": lo, "max": hi,
              "steps": steps, "log": False}
    assert_table(capsys, argv, AMPLITUDE_HEADER, amplitude_rows([-0.5, 1.5], grid, False),
                 "amplitude", inputs)


# |a| = a_bg |1 - dB/(B - B0)| is about 1e310 at B = B0 - 1e-10 dB, in either
# order of evaluation. The grids end at B0, or just short of it.
OVERFLOWING_SPECIES = ("species,mass_amu,C6_au,B0_G,DeltaB_G,abg_a0,dmu_muB\n"
                       "over,1.0,1.0,100.0,2.5,1e300,1.0\n")


@pytest.mark.parametrize("steps", [3, cli.BLOCK_ROWS + 1])
@pytest.mark.parametrize("at_pole", [True, False])
def test_field_sweep_pole_precedes_overflow(capsys, tmp_path, steps, at_pole):
    path = tmp_path / "species.csv"
    path.write_text(OVERFLOWING_SPECIES)
    res = load_species(str(path))[0]
    lo = res.b0 - 1e-10 * res.delta_b
    hi = res.b0 if at_pole else res.b0 - 1e-11 * res.delta_b
    code = cli.main(["feshbach", "sweep", "--species", str(path), f"--min={lo!r}",
                     f"--max={hi!r}", "--steps", str(steps)])
    out, err = capsys.readouterr()
    message = ("scattering length diverges at B = B0" if at_pole
               else f"the scattering length leaves the float range at B = {lo!r}")
    assert (code, out, err) == (2, "", f"resokit: input error: {message}\n")


# Both bounds have log10 308.25471555991675, whose 10 ** x overflows: the
# inner points of the log grid leave the float range.
@pytest.mark.parametrize("steps", [4, cli.BLOCK_ROWS + 1])
@pytest.mark.parametrize("command", ["amplitude", "feshbach"])
def test_overflowing_log_grid_point_is_input_error(capsys, tmp_path, steps, command):
    path = tmp_path / "species.csv"
    path.write_text(SYNTHETIC_SPECIES_CSV)
    argv = (["amplitude", "--a", "1"] if command == "amplitude"
            else ["feshbach", "sweep", "--species", str(path)])
    code = cli.main([*argv, "--min", "1.797693134862315e308", "--max",
                     "1.7976931348623157e308", "--steps", str(steps), "--log"])
    out, err = capsys.readouterr()
    message = "log sweep point 10 ** 308.25471555991675 leaves the float range"
    assert (code, out, err) == (2, "", f"resokit: input error: {message}\n")


# 10 ** math.log10(max) overflows at the largest float, but the end points
# of a log grid are min and max themselves, so this grid is valid.
@pytest.mark.parametrize("steps", [4, cli.BLOCK_ROWS + 1])
def test_log_grid_ending_at_the_largest_float(capsys, tmp_path, steps):
    path = tmp_path / "species.csv"
    path.write_text(SYNTHETIC_SPECIES_CSV)
    res = load_species(str(path))[0]
    lo, hi = 1e300, 1.7976931348623157e308
    argv = ["feshbach", "sweep", "--species", str(path), "--min", repr(lo), "--max", repr(hi),
            "--steps", str(steps), "--log"]
    grid = sweep_grid(lo, hi, steps, True)
    assert_route(argv, steps, grid)
    # a_bg (B - (B0 + dB)) overflows near the largest float, so the rows
    # take a(B) from the scalar evaluator, which divides first there
    rows = [[_fmt(b), _fmt(scattering_length_of_field(res, b))] for b in grid]
    assert run(capsys, argv) == csv_text(("B", "a"), rows)


# ---------------------------------------------------------------- the writer

EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-320,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16, 12345.678]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
texts = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t,%é€😀'), st.characters()))


def write_table(fmt, table, residuals=None):
    """What ``_write_output`` writes for ``table`` to stdout."""
    args = argparse.Namespace(format=fmt, out=None)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._write_output(args, "writer test", table, {"n": 1}, residuals)
    return buf.getvalue()


def csv_cell(text):
    """``text`` as csv.writer writes it in a row of more than one field."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(',\r\n')]


def assert_writer(table, residuals=None):
    header = list(table)
    cells = [[v if isinstance(v, str) else _fmt(v) for v in column] for column in table.values()]
    rows = [list(row) for row in zip(*cells)]
    quoted = [[csv_cell(v) if isinstance(v, str) else _fmt(v) for v in row]
              for row in zip(*table.values())]
    assert write_table("csv", table) == csv_text(header, quoted)
    text = masked(write_table("json", table, residuals))
    assert text == report_text("writer test", {"n": 1}, header, rows, residuals)


def test_writer_empty_table():
    table = {"q": [], "E": [], "norm_sign": []}
    assert write_table("csv", table) == "q,E,norm_sign\n"
    assert '\n  "outputs": [],\n' in write_table("json", table)
    assert_writer(table, {"norm": "0"})


@pytest.mark.parametrize("rows", [1, 4, 5, 9])
def test_writer_text_column_across_blocks(rows):
    table = {"species": [f'sp"{i}\\é' for i in range(rows)],
             "ratio": np.arange(rows) / 3.0, "class": ["narrow", "broad\n"] * (rows // 2)
             + ["x"] * (rows % 2)}
    with mock.patch.object(cli, "BLOCK_ROWS", 4):
        assert_writer(table)


@st.composite
def tables(draw):
    names = draw(st.lists(texts, min_size=1, max_size=5, unique=True))
    count = draw(st.integers(0, 9))
    table = {}
    for name in names:
        kind = draw(st.sampled_from(["array", "list", "text"]))
        if kind == "text":
            table[name] = draw(st.lists(texts, min_size=count, max_size=count))
        else:
            values = draw(st.lists(floats, min_size=count, max_size=count))
            table[name] = np.array(values, dtype=float) if kind == "array" else values
    return table


@settings(max_examples=200, deadline=None)
@given(tables(), st.integers(1, 4))
def test_writer_against_reference_encoders(table, block_rows):
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        assert_writer(table)
