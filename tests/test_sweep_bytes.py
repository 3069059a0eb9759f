"""Byte contract of the sweep tables.

Each expected table is rebuilt row by row with Python scalar arithmetic:
f = -1/complex(-g, k) (CPython's complex division), delta = math.atan2(k, g),
sigma = 4 pi |f|^2 (8 pi for identical bosons) with ``abs(complex)`` and
``** 2``, E = k ** 2, and a(B) = a_bg (B - (B0 + dB))/(B - B0), every value
written with ``format(v, ".17g")``. The CLI computes whole columns, so these
loops are the reference its CSV and JSON bytes must reproduce exactly.
"""

import json
import math

import numpy as np
import pytest

from resokit import cli
from resokit.species import load_species
from resokit.verify import SYNTHETIC_SPECIES_CSV

AMPLITUDE_HEADER = ("k", "E", "Re_f", "Im_f", "delta", "sigma")


def _fmt(v):
    return format(v, ".17g")


def _grid(lo, hi, steps, log):
    values = np.geomspace(lo, hi, steps) if log else np.linspace(lo, hi, steps)
    return values.tolist()


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


def json_outputs(header, rows):
    return [dict(zip(header, row)) for row in rows]


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def assert_table(capsys, argv, header, rows):
    assert run(capsys, argv) == csv_text(header, rows)
    report = json.loads(run(capsys, argv + ["--format", "json"]))
    assert report["outputs"] == json_outputs(header, rows)


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
    rows = amplitude_rows(coeffs, _grid(lo, hi, steps, log), identical)
    assert_table(capsys, argv, AMPLITUDE_HEADER, rows)


@pytest.mark.parametrize("k", [0.0, 0.37, 1.0, 12.5])
def test_amplitude_point_bytes(capsys, k):
    argv = ["amplitude", "--a", "3", "--rstar", "0.7", "--k", repr(k)]
    rows = amplitude_rows([-1.0 / 3.0, -0.7], [k], identical=False)
    assert_table(capsys, argv, AMPLITUDE_HEADER, rows)


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
    rows = field_rows(res, _grid(lo, hi, steps, log))
    assert_table(capsys, argv, ("B", "a"), rows)
