"""Byte contract of the row-built tables and their JSON run reports.

``bound-state``, ``modified-norm``, ``two-channel params|bound|sweep`` and
``feshbach classify`` write one row per state, parameter set, grid point or
species. Each expected table here is rebuilt from direct library calls,
every number written with ``format(v, ".17g")``; the JSON report is pinned
as whole text (``indent=2``, sorted keys, trailing newline) with only the
timestamp masked.
"""

import json
import re

import pytest

from oracles import sweep_grid
from resokit import PhaseShiftModel, __version__, bound, cli
from resokit import twochannel as tc
from resokit.species import load_species
from resokit.units import classify_resonance, vdw_length, width_radius
from resokit.verify import SYNTHETIC_SPECIES_CSV

TIMESTAMP = re.compile(r'^  "timestamp": "[^"]*",$', re.MULTILINE)
MASK = '  "timestamp": "<masked>",'


def _fmt(v):
    return format(v, ".17g")


def csv_text(header, rows):
    return "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"


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


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def assert_bytes(capsys, argv, header, rows, command, inputs, residuals=None):
    assert run(capsys, argv) == csv_text(header, rows)
    text = run(capsys, argv + ["--format", "json"])
    assert TIMESTAMP.search(text), text
    assert TIMESTAMP.sub(MASK, text) == report_text(command, inputs, header, rows, residuals)


# (model flags, coefficients): two-term models with one pole, none, and a
# cubic g with two poles of opposite norm sign.
MODELS = [
    (["--a", "1", "--rstar", "1"], None),
    (["--a", "3", "--rstar", "0.7"], None),
    (["--a", "-1", "--rstar", "1"], None),
    (["--a", "0.25"], None),
    (["--coeffs=-1,0.5,0.8"], (-1.0, 0.5, 0.8)),
    (["--coeffs=-1,0.5,0.8,-0.3"], (-1.0, 0.5, 0.8, -0.3)),
]


def _model(flags, coeffs):
    if coeffs is not None:
        return PhaseShiftModel(coeffs)
    a = float(flags[1])
    rstar = float(flags[3]) if len(flags) > 2 else 0.0
    return PhaseShiftModel.from_effective_range(a, rstar)


@pytest.mark.parametrize("qmax", [None, 0.5])
@pytest.mark.parametrize("flags, coeffs", MODELS)
def test_bound_state_bytes(capsys, flags, coeffs, qmax):
    model = _model(flags, coeffs)
    q_max = 100.0 if qmax is None else qmax
    states = bound.find_bound_states(model, q_max=q_max)
    rows = [[_fmt(s.q), _fmt(s.energy), _fmt(s.a2), s.norm_sign] for s in states]
    argv = ["bound-state", *flags] + ([] if qmax is None else ["--qmax", repr(qmax)])
    inputs = {"coeffs": list(model.coeffs), "qmax": q_max}
    assert_bytes(capsys, argv, ["q", "E", "A2", "norm_sign"], rows, "bound-state", inputs)


@pytest.mark.parametrize("flags, coeffs", MODELS)
def test_modified_norm_bytes(capsys, flags, coeffs):
    model = _model(flags, coeffs)
    rows, residuals = [], {}
    for s in bound.find_bound_states(model, q_max=100.0):
        res = bound.modified_norm_check(model, s)
        rows.append([_fmt(s.q), _fmt(s.energy), _fmt(s.a2), s.norm_sign, _fmt(res)])
        residuals[f"q={_fmt(s.q)}"] = _fmt(res)
    inputs = {"coeffs": list(model.coeffs), "qmax": 100.0}
    assert_bytes(capsys, ["modified-norm", *flags],
                 ["q", "E", "A2", "norm_sign", "residual"], rows,
                 "modified-norm", inputs, residuals)


# (flags, params): targets (a, R*) at several eps and masses, and an
# explicit coupling.
TWO_CHANNEL = [
    (["--eps", "0.1", "--a", "1", "--rstar", "1"],
     lambda: tc.params_for_targets(1.0, 1.0, 0.1, 1.0)),
    (["--eps", "0.03", "--a", "-2.5", "--rstar", "0.4", "--mass", "2"],
     lambda: tc.params_for_targets(-2.5, 0.4, 0.03, 2.0)),
    (["--eps", "0.1", "--lambda", "2.5066282746310002", "--emol", "6.978845608028654"],
     lambda: tc.TwoChannelParams(lam=2.5066282746310002, e_mol=6.978845608028654, eps=0.1)),
    (["--lambda", "3", "--emol", "0.5"],
     lambda: tc.TwoChannelParams(lam=3.0, e_mol=0.5, eps=0.1)),
]


def _echo(p):
    return {"lambda": p.lam, "emol": p.e_mol, "eps": p.eps, "mass": p.mass}


@pytest.mark.parametrize("flags, make", TWO_CHANNEL)
def test_two_channel_params_bytes(capsys, flags, make):
    p = make()
    a_eps, rstar_eps = tc.effective_params(p)
    rows = [[_fmt(v) for v in (p.eps, p.lam, p.e_mol, a_eps, rstar_eps)]]
    assert_bytes(capsys, ["two-channel", "params", *flags],
                 ["eps", "lambda", "emol", "a_eps", "rstar_eps"], rows,
                 "two-channel params", _echo(p))


@pytest.mark.parametrize("flags, make", [c for c in TWO_CHANNEL if "-2.5" not in c[0]])
def test_two_channel_bound_bytes(capsys, flags, make):
    p = make()
    s = tc.bound_state(p)
    norm_residual = abs(s.open_norm + s.beta2 - 1.0)
    rows = [[_fmt(v) for v in (s.energy, s.beta2, s.a_tail * s.a_tail, s.open_norm, norm_residual)]]
    assert_bytes(capsys, ["two-channel", "bound", *flags],
                 ["E", "beta2", "A2_tail", "open_norm", "norm_residual"], rows,
                 "two-channel bound", _echo(p), {"norm": _fmt(norm_residual)})


@pytest.mark.parametrize("a, rstar, mass, lo, hi, steps, log", [
    (1.0, 1.0, 1.0, 0.025, 0.2, 4, True),
    (1.0, 1.0, 1.0, 0.1, 0.2, 2, False),
    (4.0, 0.3, 2.0, 0.01, 0.3, 7, False),
])
def test_two_channel_sweep_bytes(capsys, a, rstar, mass, lo, hi, steps, log):
    rows = []
    for eps in sweep_grid(lo, hi, steps, log):
        p = tc.params_for_targets(a, rstar, eps, mass)
        a_eps, rstar_eps = tc.effective_params(p)
        s = tc.bound_state(p)
        res = tc.product_identity_check(p, s, s).residual_beta
        rows.append([_fmt(v) for v in
                     (eps, a_eps, rstar_eps, s.energy, s.beta2, s.a_tail * s.a_tail, res)])
    argv = ["two-channel", "sweep", "--a", repr(a), "--rstar", repr(rstar),
            "--mass", repr(mass), "--min", repr(lo), "--max", repr(hi),
            "--steps", str(steps)] + ["--log"] * log
    header = ["eps", "a_eps", "rstar_eps", "E_bound", "beta2", "A2_tail", "res_identity"]
    assert_bytes(capsys, argv, header, rows, "two-channel sweep",
                 {"a": a, "rstar": rstar, "mass": mass,
                  "min": lo, "max": hi, "steps": steps, "log": log})


@pytest.mark.parametrize("units", ["natural", "si", "atomic"])
@pytest.mark.parametrize("threshold", [None, 0.01, 3.0])
def test_feshbach_classify_bytes(capsys, tmp_path, units, threshold):
    path = tmp_path / "species.csv"
    path.write_text(SYNTHETIC_SPECIES_CSV)
    cut = 1.0 if threshold is None else threshold
    rows = []
    for res in load_species(str(path), mode=units):
        rstar, rvdw = width_radius(res), vdw_length(res)
        rows.append([res.species, _fmt(rstar), _fmt(rvdw), _fmt(abs(rstar) / rvdw),
                     classify_resonance(res, threshold=cut)])
    argv = ["feshbach", "classify", "--species", str(path), "--units", units]
    argv += [] if threshold is None else ["--threshold", repr(threshold)]
    inputs = {"species_file": str(path), "units": units, "threshold": cut}
    assert_bytes(capsys, argv, ["species", "Rstar", "RvdW", "ratio", "class"], rows,
                 "feshbach classify", inputs)
