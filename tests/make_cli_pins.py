"""Regenerate ``tests/cli_pins.json``: the exit code and output hash of seeded CLI calls.

Each case is an argv list for ``resokit.cli.main``, run in process (warnings
as errors) in a directory that holds the files of ``FILES``. Its pin is the
exit code and the sha256 of what it wrote: stdout, or the file of ``--out``,
with the JSON report's timestamp line masked. stderr is left out, because
argparse words its errors differently across Python versions, and so is
the output of ``verify``, whose ``worst`` values follow numpy's CPU
dispatch: only its exit code is pinned.

The cases cover every command in CSV and JSON: sweeps of 4, 4096, 4097 and
6000 points (both sides of ``cli.BLOCK_ROWS``), linear and log grids,
models of degree 0-6, the two-channel commands by targets and by
``--lambda/--emol``, the Feshbach commands in every unit mode (with fields
near the float limit), species and config files with and without a UTF-8
byte-order mark, and input and numerical errors.

After a change that moves a pinned output on purpose, rerun

    PYTHONPATH=src python tests/make_cli_pins.py

and read the diff of the JSON file: it names the cases that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

PINS = Path(__file__).with_name("cli_pins.json")
SEED = 20261022

TIMESTAMP = re.compile(r'^  "timestamp": "[^"]*",$', re.MULTILINE)
MASK = '  "timestamp": "<masked>",'

SPECIES_HEADER = "species,mass_amu,C6_au,B0_G,DeltaB_G,abg_a0,dmu_muB\n"

# Input files, written into the working directory of the cases.
FILES = {
    "species.csv": SPECIES_HEADER
    + "# the battery's synthetic table\n"
    + "synthA,86.909,4700.0,100.5,2.5,98.98,2.0\n"
    + "synthB,39.964,3926.9,543.25,0.0625,61.65,1.5\n"
    + "\n"
    + "synthC,6.0151,1393.4,716.0,10.0,-25.0,0.5\n",
    # a_bg (B - B0 - dB) overflows at |B| >= 1e11, where the quotient is
    # taken first, and a(B) itself overflows within about dB of B0 = 0
    "overflow.csv": SPECIES_HEADER + "huge,86.909,4700.0,0.0,1.0,1e308,2.0\n",
    # every value loads finite in SI units, but a(B) overflows
    "a_inf.csv": SPECIES_HEADER
    + "z,3.739972e-224,2.123391e284,-3.221319e-194,-7.615844e181,-4.967330e270,4.774495e-63\n",
    # |R*|/R_vdW overflows, or underflows to 0
    "ratio_inf.csv": SPECIES_HEADER
    + "z,5.345749e-227,1.449695e-71,-2.195110e-42,-8.511059e111,-2.134138e80,2.406779e-206\n",
    "ratio_0.csv": SPECIES_HEADER
    + "z,1.520704e44,8.510565e233,8.278026e-164,-1.713847e162,4.517208e-74,-1.796615e149\n",
    # values past the float range in some mode
    "heavy.csv": SPECIES_HEADER + "heavy,1e308,100.5,1e200,1e200,1e160,1e160\n",
    "big.csv": SPECIES_HEADER + "big,1e250,4700,100.5,1e100,98.98,2.0\n",
    "tiny.csv": SPECIES_HEADER + "tiny,86.9,4700,100.5,2.5,1e-320,2.0\n",
    # natural B0 = -1e308 (B - B0 overflows near the float limit), and B0 = 0
    # with natural dB = -1e308 (only B - (B0 + dB) overflows there)
    "far.csv": SPECIES_HEADER + "z,1e13,4700,-2.6e301,1,98.98,2.0\n"
    + "w,1e13,4700,0,-2.6e301,98.98,2.0\n",
    # a UTF-8 byte-order mark ahead of the header
    "bom.csv": "\ufeff" + SPECIES_HEADER + "synthA,86.909,4700.0,100.5,2.5,98.98,2.0\n",
    # text cells that CSV quotes
    "quoted.csv": SPECIES_HEADER + '"Rb,87",86.909,4700.0,100.5,2.5,98.98,2.0\n'
    + '"say ""hi""",39.964,3926.9,543.25,0.0625,61.65,1.5\n',
    # structural and physical errors
    "bad_header.csv": "species,mass,C6,B0,DeltaB,abg,dmu\nx,1,1,1,1,1,1\n",
    "short_row.csv": SPECIES_HEADER + "x,86.909,4700.0,100.5\n",
    "not_number.csv": SPECIES_HEADER + "x,86.909,lots,100.5,2.5,98.98,2.0\n",
    "zero_width.csv": SPECIES_HEADER + "x,86.909,4700.0,100.5,0.0,98.98,2.0\n",
    "empty.csv": "# nothing\n\n",
    "header_only.csv": SPECIES_HEADER,
    # config files
    "amp.cfg": "# one-channel sweep\na = 1\nrstar = 0.5\nmin = 0\nmax = 2\nsteps = 5\n",
    "log.cfg": "a = -2.5\nrstar = 0.1\nlog = yes\nmin = 0.01\nmax = 10\nsteps = 9\n"
    "identical = on\n",
    "g.cfg": "g = [-0.7, 1.3, -0.2]\nqmax = 20\n",
    "tc.cfg": "a = 2\nrstar = 0.3\neps = 0.05\nmass = 1.5\n",
    "tc_sweep.cfg": "a = 1\nrstar = 1\nmin = 0.01\nmax = 0.2\nsteps = 4\nlog = true\n",
    "fb.cfg": "species = species.csv\nunits = si\nmin = 0.0099\nmax = 0.0102\nsteps = 6\n",
    "json.cfg": "format = json\n",
    "bom.cfg": "\ufeffa = 1\nrstar = 0.5\n",
    "bad_key.cfg": "nope = 1\n",
    "bad_line.cfg": "a = 1\njust text\n",
    "bad_switch.cfg": "log = maybe\n",
    "bad_choice.cfg": "format = xml\n",
    "bad_g.cfg": "g = -1, 2\n",
    "bad_number.cfg": "a = one\n",
}

# Sweep windows of the Feshbach commands per unit mode: around the
# synthetic species' B0, and far from them.
FIELD_WINDOWS = {
    "natural": [(0.0033, 0.0035), (0.001, 0.01), (0.0084, 0.00843), (1.0, 1e3)],
    "si": [(0.0099, 0.0102), (0.05, 0.06), (0.07, 0.073), (1.0, 1e3)],
    "atomic": [(4.2e-8, 4.4e-8), (1e-8, 4e-7), (2.3e-7, 2.32e-7), (1e-3, 1.0)],
}
# Windows of overflow.csv, the same in every mode: quotient first (both
# signs), a(B) past the float range near B0 = 0, and fields near the float limit.
OVERFLOW_WINDOWS = [(1e11, 1e12), (-1e12, -1e11), (-1e-5, 1e-5), (1e300, 1.7e308),
                    (-1.0, 1.0)]
STEPS = (4, 4096, 4097, 6000)
MODES = ("natural", "si", "atomic")


def _num(rng: random.Random, lo: float, hi: float) -> str:
    return repr(rng.uniform(lo, hi))


def _coeffs(rng: random.Random, degree: int) -> str:
    values = [rng.uniform(-2.0, 2.0) * 10.0 ** rng.uniform(-2.0, 1.0) for _ in range(degree + 1)]
    return "--coeffs=" + ",".join(f"{v:.6g}" for v in values)


def _model(rng: random.Random) -> list:
    kind = rng.randrange(3)
    if kind == 0:
        return [_coeffs(rng, rng.randrange(7))]
    a = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-1.0, 2.0)
    if kind == 1:
        return [f"--a={a!r}"]
    return [f"--a={a!r}", f"--rstar={rng.uniform(-1.0, 3.0)!r}"]


def _sweep(rng: random.Random, steps: int, log: bool) -> list:
    lo = 10.0 ** rng.uniform(-3.0, 0.0) if log or rng.random() < 0.5 else 0.0
    hi = lo + 10.0 ** rng.uniform(-1.0, 1.5)
    return [f"--min={lo!r}", f"--max={hi!r}", "--steps", str(steps), *(["--log"] if log else [])]


def _fmt(rng: random.Random) -> list:
    return ["--format", "json"] if rng.random() < 0.5 else []


def _one_channel(rng: random.Random) -> list:
    cases = []
    for _ in range(40):  # one wavenumber
        command = rng.choice(("amplitude", "phase-shift"))
        k = rng.choice(("0", "0.0", _num(rng, 0.0, 5.0), repr(10.0 ** rng.uniform(-3.0, 3.0))))
        extra = ["--identical"] if rng.random() < 0.3 else []
        cases.append([command, *_model(rng), "--k", k, *extra, *_fmt(rng)])
    for steps in STEPS:  # each size in CSV and JSON, linear and log
        for fmt in ([], ["--format", "json"]):
            for log in (False, True):
                command = rng.choice(("amplitude", "phase-shift"))
                cases.append([command, *_model(rng), *_sweep(rng, steps, log), *fmt])
    for _ in range(24):  # short sweeps
        command = rng.choice(("amplitude", "phase-shift"))
        sweep = _sweep(rng, rng.randrange(2, 60), rng.random() < 0.3)
        extra = ["--identical"] if rng.random() < 0.3 else []
        cases.append([command, *_model(rng), *sweep, *extra, *_fmt(rng)])
    cases.append(["amplitude", "--a", "1", "--rstar", "1"])  # the default 50 steps need --min
    cases.append(["amplitude", "--a", "1", "--min", "0", "--max", "1"])  # 50 steps
    return cases


def _poles(rng: random.Random) -> list:
    cases = []
    for _ in range(60):
        command = rng.choice(("bound-state", "modified-norm"))
        model = _model(rng) if rng.random() < 0.3 else [_coeffs(rng, rng.randrange(7))]
        qmax = ["--qmax", repr(10.0 ** rng.uniform(-1.0, 3.0))] if rng.random() < 0.5 else []
        cases.append([command, *model, *qmax, *_fmt(rng)])
    for fmt in ([], ["--format", "json"]):
        cases += [
            ["bound-state", "--coeffs=-1,0.5,0.8,-0.3", *fmt],
            ["modified-norm", "--a", "2", "--rstar", "-0.1", *fmt],
            ["bound-state", "--coeffs=-5,1e-40,1e-90", "--qmax", "10", *fmt],
            ["bound-state", "--a", "1e-10", "--rstar", "1e-300", "--qmax", "1e11", *fmt],
            ["modified-norm", "--a", "1", "--rstar=1e-310", *fmt],
            ["bound-state", "--coeffs=-1e-300,1e-200", "--qmax", "1e300", *fmt],
            ["modified-norm", "--coeffs=1,1", *fmt],  # no state in the window
        ]
    return cases


def _two_channel(rng: random.Random) -> list:
    cases = []
    for _ in range(40):
        command = rng.choice(("params", "bound"))
        eps = ["--eps", repr(10.0 ** rng.uniform(-3.0, 0.0))] if rng.random() < 0.7 else []
        mass = ["--mass", _num(rng, 0.5, 3.0)] if rng.random() < 0.3 else []
        if rng.random() < 0.5:
            a = rng.choice((1.0, 1.0, -1.0)) * 10.0 ** rng.uniform(-1.0, 2.0)
            model = [f"--a={a!r}", "--rstar", repr(10.0 ** rng.uniform(-2.0, 1.0))]
        else:
            model = ["--lambda", _num(rng, 0.2, 3.0), f"--emol={rng.uniform(-5.0, 80.0)!r}"]
        cases.append(["two-channel", command, *model, *eps, *mass, *_fmt(rng)])
    for _ in range(12):
        a = 10.0 ** rng.uniform(-1.0, 1.0)
        lo = 10.0 ** rng.uniform(-3.0, -1.5)
        sweep = ["--min", repr(lo), "--max", repr(lo * 10.0 ** rng.uniform(0.5, 1.5)),
                 "--steps", str(rng.randrange(2, 12)), *(["--log"] if rng.random() < 0.5 else [])]
        cases.append(["two-channel", "sweep", f"--a={a!r}", "--rstar",
                      repr(10.0 ** rng.uniform(-2.0, 1.0)), *sweep, *_fmt(rng)])
    model = ["--lambda", "1.2188098194285188", "--emol", "74.78813971301692",
             "--eps", "0.002522315167373921"]
    # the exact 1/a_eps rounds past the float range: params work, the bound state does not
    past = ["--lambda", "1.0280303649806484", "--emol=-5.042767913407391e+306", "--eps", "1.0",
            "--mass", "0.16677133450269746"]
    for fmt in ([], ["--format", "json"]):
        cases += [
            ["two-channel", "params", *model, *fmt],
            ["two-channel", "bound", *model, *fmt],
            ["two-channel", "bound", "--a", "1", "--rstar", "1", *fmt],
            ["two-channel", "params", *past, *fmt],
            ["two-channel", "bound", *past, *fmt],
            ["two-channel", "params", "--a", "1", "--rstar", "1e-300", "--eps", "0.1",
             "--mass", "1e160", *fmt],
            ["two-channel", "params", "--a", "1", "--rstar", "1", "--mass", "1e-200", *fmt],
            ["two-channel", "bound", "--a", "-1", "--rstar", "1", *fmt],  # no bound state
            ["two-channel", "sweep", "--a", "1", "--rstar", "1", "--min", "0.01", "--max", "0.2",
             "--steps", "4", "--log", *fmt],
        ]
    return cases


def _feshbach(rng: random.Random) -> list:
    cases = []
    for mode in MODES:
        for fmt in ([], ["--format", "json"]):
            for path in ("species.csv", "overflow.csv", "quoted.csv", "ratio_inf.csv",
                         "ratio_0.csv", "heavy.csv", "big.csv", "tiny.csv"):
                cases.append(["feshbach", "classify", "--species", path, "--units", mode, *fmt])
        for window in FIELD_WINDOWS[mode]:
            for steps in STEPS:
                log = window[0] > 0.0 and rng.random() < 0.5
                cases.append(["feshbach", "sweep", "--species", "species.csv", "--units", mode,
                              "--index", str(rng.randrange(3)), f"--min={window[0]!r}",
                              f"--max={window[1]!r}", "--steps", str(steps),
                              *(["--log"] if log else []), *_fmt(rng)])
        for window in OVERFLOW_WINDOWS:
            for steps in (3, 4, 4097, 6000):
                cases.append(["feshbach", "sweep", "--species", "overflow.csv", "--units", mode,
                              f"--min={window[0]!r}", f"--max={window[1]!r}",
                              "--steps", str(steps), *_fmt(rng)])
        cases.append(["feshbach", "sweep", "--species", "a_inf.csv", "--units", mode,
                      "--min", "1", "--max", "1e3", "--steps", "3"])
        cases.append(["feshbach", "sweep", "--species", "species.csv", "--units", mode,
                      "--index", "3", "--min", "1", "--max", "2"])
    for threshold in ("0.5", "10", "nan", "inf", "-1"):
        cases.append(["feshbach", "classify", "--species", "species.csv",
                      "--threshold", threshold])
    for path in ("bad_header.csv", "short_row.csv", "not_number.csv", "zero_width.csv",
                 "empty.csv", "header_only.csv", "missing.csv"):
        cases.append(["feshbach", "classify", "--species", path])
        cases.append(["feshbach", "sweep", "--species", path, "--min", "1", "--max", "2"])
    for index in ("0", "1"):  # fields near the float limit, on the list and array routes
        for steps in ("3", "5000"):
            cases.append(["feshbach", "sweep", "--species", "far.csv", "--index", index,
                          "--min", "1e308", "--max", "1.7e308", "--steps", steps])
    for fmt in ([], ["--format", "json"]):
        cases.append(["feshbach", "classify", "--species", "bom.csv", *fmt])
        cases.append(["feshbach", "sweep", "--species", "bom.csv", "--min", "0.0033",
                      "--max", "0.0035", "--steps", "4", *fmt])
    return cases


def _configs() -> list:
    return [
        ["--config", "amp.cfg", "amplitude"],
        ["amplitude", "--config", "amp.cfg", "--steps", "7", "--format", "json"],
        ["--config", "amp.cfg", "phase-shift", "--rstar", "-0.25"],
        ["--config", "log.cfg", "amplitude"],
        ["--config", "log.cfg", "phase-shift", "--format", "json"],
        ["--config", "g.cfg", "bound-state"],
        ["--config", "g.cfg", "modified-norm", "--format", "json"],
        ["--config", "g.cfg", "amplitude", "--k", "1.5"],
        ["--config", "g.cfg", "bound-state", "--a", "1"],  # both models
        ["--config", "tc.cfg", "two-channel", "params"],
        ["--config", "tc.cfg", "two-channel", "bound", "--format", "json"],
        ["--config", "tc_sweep.cfg", "two-channel", "sweep"],
        ["--config", "fb.cfg", "feshbach", "sweep"],
        ["--config", "fb.cfg", "feshbach", "classify", "--format", "json"],
        ["--config", "json.cfg", "amplitude", "--a", "1", "--k", "0.5"],
        ["--config", "bom.cfg", "amplitude", "--k", "0.5"],
        ["--config", "bad_key.cfg", "amplitude", "--a", "1", "--k", "0.5"],
        ["--config", "bad_line.cfg", "amplitude", "--k", "0.5"],
        ["--config", "bad_switch.cfg", "amplitude", "--a", "1", "--k", "0.5"],
        ["--config", "bad_choice.cfg", "amplitude", "--a", "1", "--k", "0.5"],
        ["--config", "bad_g.cfg", "bound-state"],
        ["--config", "bad_number.cfg", "amplitude", "--k", "0.5"],
        ["--config", "missing.cfg", "amplitude", "--a", "1", "--k", "0.5"],
    ]


def _errors() -> list:
    return [
        [],
        ["--version"],
        ["frobnicate"],
        ["amplitude"],
        ["amplitude", "--a", "0", "--k", "1"],
        ["amplitude", "--a", "x", "--k", "1"],
        ["amplitude", "--coeffs=1,x", "--k", "1"],
        ["amplitude", "--coeffs=inf", "--k", "1"],
        ["amplitude", "--a", "1", "--coeffs=1", "--k", "1"],
        ["amplitude", "--a", "1", "--k", "1", "--min", "0"],
        ["amplitude", "--a", "1", "--k", "1", "--log"],
        ["amplitude", "--a", "1", "--k", "-1"],
        ["amplitude", "--a", "1", "--k", "inf"],
        ["amplitude", "--a", "1", "--k", "1e200"],  # E = k^2 overflows
        ["amplitude", "--coeffs=0,1", "--k", "0"],  # g(0) = 0
        ["phase-shift", "--coeffs=0,1", "--min", "0", "--max", "1", "--steps", "3"],
        ["amplitude", "--coeffs=0,1", "--min", "0", "--max", "1", "--steps", "4097"],
        ["amplitude", "--coeffs=-1e-312,1", "--k", "0"],  # 1/g(0) = -inf
        ["amplitude", "--coeffs=-1e-312,1", "--min", "0", "--max", "1", "--steps", "3"],
        ["amplitude", "--a", "1", "--min", "1", "--max", "0"],
        ["amplitude", "--a", "1", "--min", "0", "--max", "1", "--steps", "1"],
        ["amplitude", "--a", "1", "--min", "0", "--max", "1", "--log"],
        ["amplitude", "--a", "1", "--min", "nan", "--max", "1"],
        ["amplitude", "--a", "1", "--min=-inf", "--max", "1"],
        ["amplitude", "--a", "1", "--min=-1.7e308", "--max", "1.7e308"],
        ["amplitude", "--a", "1", "--min", "1e-300", "--max", "1e300", "--steps", "5", "--log"],
        ["amplitude", "--a", "1", "--min", "0", "--max", "1", "--format", "xml"],
        ["bound-state"],
        ["bound-state", "--a", "1", "--qmax", "x"],
        ["two-channel"],
        ["two-channel", "params"],
        ["two-channel", "params", "--a", "1"],
        ["two-channel", "params", "--lambda", "1"],
        ["two-channel", "params", "--lambda", "1", "--emol", "1", "--a", "1"],
        ["two-channel", "params", "--a", "1", "--rstar", "1", "--eps", "0"],
        ["two-channel", "bound", "--a", "1", "--rstar", "1", "--mass", "-1"],
        ["two-channel", "sweep", "--a", "1", "--min", "0.01", "--max", "0.1"],
        ["two-channel", "sweep", "--a", "1", "--rstar", "1", "--min", "0", "--max", "0.1",
         "--steps", "3"],
        ["feshbach", "sweep", "--min", "1", "--max", "2"],
        ["feshbach", "classify", "--species", "species.csv", "--units", "imperial"],
        ["feshbach", "sweep", "--species", "species.csv", "--min", "1", "--max", "2",
         "--steps", "3", "--index", "-1"],
        ["verify", "nothing"],
    ]


def _verify() -> list:
    return [["verify", "all"], ["verify", "all", "--format", "json"],
            ["verify", "identity", "--seed", "1"], ["verify", "mapping", "--seed", "2"],
            ["verify", "orthogonality", "--seed", "3"], ["verify", "unitarity", "--seed", "4"],
            ["verify", "all", "--seed", "0", "--format", "json"]]


def _outs() -> list:
    cases = []
    for argv in (["amplitude", "--a", "1", "--rstar", "0.5", "--min", "0", "--max", "10",
                  "--steps", "5000"],
                 ["phase-shift", "--coeffs=-0.7,1.3,-0.2", "--min", "0.1", "--max", "2",
                  "--steps", "40", "--log"],
                 ["bound-state", "--coeffs=-1,0.5,0.8,-0.3"],
                 ["modified-norm", "--a", "2", "--rstar", "0.5"],
                 ["two-channel", "params", "--a", "1", "--rstar", "1"],
                 ["two-channel", "bound", "--a", "3", "--rstar", "0.2", "--eps", "0.01"],
                 ["two-channel", "sweep", "--a", "1", "--rstar", "1", "--min", "0.01",
                  "--max", "0.2", "--steps", "6"],
                 ["feshbach", "sweep", "--species", "species.csv", "--min", "0.0033",
                  "--max", "0.0035", "--steps", "6000"],
                 ["feshbach", "classify", "--species", "quoted.csv", "--units", "atomic"]):
        for fmt in ([], ["--format", "json"]):
            cases.append([*argv, *fmt, "--out", "out.txt"])
    cases.append(["amplitude", "--a", "1", "--k", "1", "--out", "no/such/dir.csv"])
    return cases


def cases() -> list:
    """Every pinned argv list, in order; the same list on every call."""
    rng = random.Random(SEED)
    return [*_one_channel(rng), *_poles(rng), *_two_channel(rng), *_feshbach(rng),
            *_configs(), *_errors(), *_verify(), *_outs()]


def write_files(directory) -> None:
    """Write ``FILES`` into ``directory``."""
    for name, text in FILES.items():
        Path(directory, name).write_text(text, encoding="utf-8")


def pin(argv: list) -> dict:
    """Exit code and output hash of ``cli.main(argv)`` in the current directory."""
    from resokit import cli

    out = Path("out.txt")
    out.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors, --version
            code = exc.code
    if argv[:1] == ["verify"]:
        return {"argv": argv, "exit": code}
    text = out.read_text(encoding="utf-8") if "--out" in argv and out.exists() else stdout.getvalue()
    digest = hashlib.sha256(TIMESTAMP.sub(MASK, text).encode()).hexdigest()
    return {"argv": argv, "exit": code, "sha256": digest}


def main() -> int:
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp)
        os.chdir(tmp)
        os.environ.pop("RESOKIT_CONFIG", None)
        try:
            pins = [pin(argv) for argv in cases()]
        finally:
            os.chdir(old)
    # one case per line, so that a diff names the moved cases
    PINS.write_text("[\n" + ",\n".join(map(json.dumps, pins)) + "\n]\n", encoding="utf-8")
    codes = sorted(Counter(p["exit"] for p in pins).items())
    print(f"{len(pins)} cases written to {PINS}; exit codes {dict(codes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
