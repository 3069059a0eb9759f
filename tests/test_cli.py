"""Command-line interface: grammar, outputs, exit codes, config."""

import csv
import io
import json
import math
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from oracles import mp_quadratic_poles
from resokit import bound, cli
from resokit.errors import InvalidInput, NoBoundState, NumericalFailure, ParseError
from resokit.species import load_species
from resokit.units import classify_resonance
from resokit.verify import SYNTHETIC_SPECIES_CSV, CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture()
def species_file(tmp_path):
    path = tmp_path / "species.csv"
    path.write_text(SYNTHETIC_SPECIES_CSV)
    return str(path)


class TestAmplitudeCommand:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "amplitude", "--a", "1", "--rstar", "0", "--k", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["k", "E", "Re_f", "Im_f", "delta", "sigma"]
        row = dict(zip(header, map(float, rows[0])))
        assert row["Re_f"] == -0.5
        assert row["Im_f"] == 0.5
        assert row["delta"] == pytest.approx(0.75 * math.pi, rel=1e-15)
        assert row["sigma"] == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_sweep_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "amplitude", "--coeffs=-1,-1",
            "--min", "0.1", "--max", "1.0", "--steps", "5", "--log",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5
        assert float(rows[0][0]) == pytest.approx(0.1, rel=1e-15)
        assert float(rows[-1][0]) == pytest.approx(1.0, rel=1e-15)

    def test_phase_shift_alias(self, capsys):
        code, out, _ = run_cli(capsys, "phase-shift", "--a", "1", "--k", "1")
        assert code == 0
        header, _ = parse_csv(out)
        assert "delta" in header

    def test_seventeen_digit_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "amplitude", "--a", "3", "--rstar", "0.7", "--k", "0.37")
        header, rows = parse_csv(out)
        from resokit import PhaseShiftModel, scattering

        f = scattering.amplitude(PhaseShiftModel.from_effective_range(3.0, 0.7), 0.37)
        row = dict(zip(header, rows[0]))
        assert float(row["Re_f"]) == f.real
        assert float(row["Im_f"]) == f.imag

    def test_sweep_defaults_to_50_steps(self, capsys, tmp_path):
        # --steps stays unset until the sweep reads it; a switched-off --log
        # preset does not conflict with --k
        _, out, _ = run_cli(capsys, "amplitude", "--a", "1", "--min", "0.1", "--max", "1",
                            "--format", "json")
        report = json.loads(out)
        assert report["inputs"]["steps"] == 50 and len(report["outputs"]) == 50
        cfg = tmp_path / "off.conf"
        cfg.write_text("log = off\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "amplitude", "--a", "1", "--k", "1")
        assert code == 0 and len(parse_csv(out)[1]) == 1

    def test_deterministic_output(self, capsys):
        args = ("amplitude", "--a", "2", "--min", "0.01", "--max", "2.0", "--steps", "20")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_json_outputs_deterministic(self, capsys):
        args = ("amplitude", "--a", "2", "--k", "0.37", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["outputs"] == r2["outputs"]
        assert r1["inputs"] == r2["inputs"]
        assert r1["version"] == r2["version"]

    def test_missing_model_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "amplitude", "--k", "1")
        assert code == 2
        assert "input error" in err

    def test_bad_sweep_grid_is_input_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "amplitude", "--a", "1", "--min", "1.0", "--max", "0.5", "--steps", "5"
        )
        assert code == 2
        code, _, _ = run_cli(
            capsys, "amplitude", "--a", "1", "--min", "-1.0", "--max", "1.0",
            "--steps", "5", "--log",
        )
        assert code == 2
        code, _, _ = run_cli(
            capsys, "amplitude", "--a", "1", "--min", "0.1", "--max", "1.0", "--steps", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("log", [[], ["--log"]])
    def test_steps_beyond_array_limit_is_input_error(self, capsys, species_file, log):
        # numpy refuses 1e20 points before it allocates any; 1e15 points
        # need 8e15 bytes, more than a 64-bit address space, so their
        # allocation fails at once
        for argv in (["amplitude", "--a", "1"], ["feshbach", "sweep", "--species", species_file],
                     ["two-channel", "sweep", "--a", "1", "--rstar", "1"]):
            for steps in (10**20, 10**15):
                code, out, err = run_cli(capsys, *argv, "--min", "0.1", "--max", "1",
                                         "--steps", str(steps), *log)
                assert code == 2, err
                assert out == ""
                assert "input error" in err and "too many steps" in err


class TestBoundStateCommand:
    def test_effective_range_row(self, capsys):
        code, out, _ = run_cli(capsys, "bound-state", "--a", "1", "--rstar", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["q", "E", "A2", "norm_sign"]
        assert float(rows[0][0]) == pytest.approx(0.6180340, rel=1e-6)
        assert rows[0][3] == "positive"

    def test_modified_norm_rows(self, capsys):
        code, out, _ = run_cli(capsys, "modified-norm", "--a", "1", "--rstar", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "residual"
        assert float(rows[0][-1]) < 1e-12

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound-state", "--a", "1", "--rstar", "1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["version"]
        assert report["outputs"][0]["norm_sign"] == "positive"
        assert float(report["outputs"][0]["q"]) == pytest.approx(0.618034, rel=1e-6)

    @pytest.mark.parametrize("argv, c0, c1, q_max", [
        (["bound-state", "--a", "1e-10", "--rstar", "1e-300", "--qmax", "1e11"],
         -1e10, -1e-300, 1e11),
        (["modified-norm", "--a", "1", "--rstar=1e-310"], -1.0, -1e-310, 100.0),
        (["modified-norm", "--a", "1", "--rstar=-1e-310"], -1.0, 1e-310, 100.0),
    ])
    def test_tiny_width_radius_against_mpmath(self, capsys, argv, c0, c1, q_max):
        # 1/R* overflows: the other root of h is +-inf, and the pole stays exact
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, rows = parse_csv(out)
        poles = mp_quadratic_poles(c0, c1, bound.Q_MIN_DEFAULT, q_max, bound.REAL_ROOT_REL)
        assert len(rows) == len(poles) == 1
        q_mp = poles[0][0]
        assert abs(float(rows[0][0]) - q_mp) <= 2 * math.ulp(float(q_mp))
        assert rows[0][3] == "positive"

    @pytest.mark.parametrize("command", ["bound-state", "modified-norm"])
    @pytest.mark.parametrize("coeffs", ["-1e-300,1e-200", "-1e200"])
    def test_root_with_an_overflowing_energy_exits_2(self, capsys, command, coeffs):
        # q = 1e200 lies in the window, and E = -q^2 overflows
        code, out, err = run_cli(capsys, command, f"--coeffs={coeffs}", "--qmax", "1e300")
        assert (code, out) == (2, "")
        assert "input error" in err and "energy -q^2 that overflows" in err

    def test_unconverged_eigenvalue_solve_exits_3(self, capsys, unconverged_eigvals):
        code, out, err = run_cli(capsys, "bound-state", "--coeffs=-1,0.5,0.8")
        assert (code, out) == (3, "")
        assert "numerical failure" in err and "did not converge" in err


class TestTwoChannelCommand:
    def test_params(self, capsys):
        code, out, _ = run_cli(
            capsys, "two-channel", "params", "--eps", "0.1", "--a", "1", "--rstar", "1"
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, map(float, rows[0])))
        assert row["a_eps"] == pytest.approx(1.0, rel=1e-12)
        assert row["rstar_eps"] == pytest.approx(
            1.0 - math.sqrt(2.0 / math.pi) * 0.1 + 0.005, rel=1e-12
        )

    def test_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "two-channel", "bound", "--eps", "0.1", "--a", "1", "--rstar", "1"
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, map(float, rows[0])))
        assert row["E"] == pytest.approx(-0.39897, rel=1e-4)
        assert row["norm_residual"] < 1e-9

    def test_explicit_coupling(self, capsys):
        code, out, _ = run_cli(
            capsys, "two-channel", "params",
            "--eps", "0.1", "--lambda", str(math.sqrt(2 * math.pi)), "--emol", "0",
        )
        assert code == 0
        _, rows = parse_csv(out)
        row = dict(zip(["eps", "lambda", "emol", "a_eps", "rstar_eps"], map(float, rows[0])))
        assert row["a_eps"] == pytest.approx(0.12533141373155003, rel=1e-12)

    def test_sweep_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "two-channel", "sweep", "--a", "1", "--rstar", "1",
            "--min", "0.1", "--max", "0.2", "--steps", "2",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["eps", "a_eps", "rstar_eps", "E_bound", "beta2", "A2_tail", "res_identity"]
        assert len(rows) == 2

    def test_no_bound_state_is_numerical_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "two-channel", "bound", "--eps", "0.1", "--a", "-1", "--rstar", "1"
        )
        assert code == 3
        assert "numerical failure" in err

    def test_params_past_an_overflowing_threshold_bracket(self, capsys):
        # B(0-) = -I(0) ~ 6e309 exceeds the float range, a_eps = sqrt(pi/2) eps does not
        code, out, err = run_cli(
            capsys, "two-channel", "params",
            "--lambda", "1e-150", "--emol", "0", "--eps", "1e-161", "--mass", "1e150",
        )
        assert code == 0, err
        header, rows = parse_csv(out)
        row = dict(zip(header, map(float, rows[0])))
        assert row["a_eps"] == pytest.approx(math.sqrt(math.pi / 2.0) * 1e-161, rel=1e-15)
        assert row["rstar_eps"] == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_sweep_evaluates_the_threshold_bracket_once_per_row(self, capsys, monkeypatch):
        from resokit import twochannel

        # one TwoChannelParams per row: a second instance built per row
        # would evaluate the bracket twice
        evaluate, evaluated = twochannel._threshold_terms, []

        def counted(p):
            evaluated.append(p)
            return evaluate(p)

        monkeypatch.setattr(twochannel, "_threshold_terms", counted)
        code, out, _ = run_cli(
            capsys, "two-channel", "sweep", "--a", "1", "--rstar", "1",
            "--min", "0.01", "--max", "0.2", "--steps", "7",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [p.eps for p in evaluated] == [float(row[0]) for row in rows]
        assert len(rows) == 7


class TestFeshbachCommand:
    def test_classify(self, capsys, species_file):
        code, out, _ = run_cli(capsys, "feshbach", "classify", "--species", species_file)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["species", "Rstar", "RvdW", "ratio", "class"]
        classes = {row[0]: row[4] for row in rows}
        assert set(classes.values()) <= {"broad", "narrow"}
        assert classes["synthB"] == "narrow"

    def test_sweep(self, capsys, species_file):
        code, out, _ = run_cli(
            capsys, "feshbach", "sweep", "--species", species_file, "--index", "1",
            "--min", "0.1", "--max", "10.0", "--steps", "4",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["B", "a"]
        assert len(rows) == 4

    @pytest.mark.parametrize("units", ["natural", "si", "atomic"])
    def test_class_is_classify_resonance(self, capsys, tmp_path, units):
        rng = random.Random(7)
        lines = SYNTHETIC_SPECIES_CSV.splitlines()[:2]
        for i in range(12):
            sign = rng.choice((-1, 1))
            lines.append(f"s{i},{rng.uniform(1, 200)!r},{10 ** rng.uniform(2, 4)!r},"
                         f"{rng.uniform(10, 1000)!r},{sign * 10 ** rng.uniform(-2, 2)!r},"
                         f"{rng.uniform(-1000, 1000)!r},{rng.uniform(0.1, 3)!r}")
        path = tmp_path / "species.csv"
        path.write_text("\n".join(lines) + "\n")
        records = load_species(str(path), mode=units)
        _, rows = parse_csv(run_cli(capsys, "feshbach", "classify", "--species", str(path),
                                    "--units", units)[1])
        # the threshold is one row's ratio exactly: the rule is strict, so it is broad
        threshold = float(rows[5][3])
        code, out, _ = run_cli(capsys, "feshbach", "classify", "--species", str(path),
                               "--units", units, f"--threshold={threshold!r}")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[5][4] == "broad"
        assert [row[4] for row in rows] == [classify_resonance(res, threshold)
                                            for res in records]
        assert {"broad", "narrow"} <= {row[4] for row in rows}

    def test_text_cells_are_quoted_as_csv_writer_quotes_them(self, capsys, tmp_path):
        path = tmp_path / "species.csv"
        header, row = SYNTHETIC_SPECIES_CSV.splitlines()[1:3]
        values = row.split(",", 1)[1]
        path.write_text(f'{header}\n"Rb,87",{values}\n"Li ""6""",{values}\nplain,{values}\n')
        code, out, _ = run_cli(capsys, "feshbach", "classify", "--species", str(path))
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert [len(r) for r in rows] == [5] * 4
        assert [r[0] for r in rows] == ["species", "Rb,87", 'Li "6"', "plain"]
        assert out.splitlines()[3].startswith("plain,")
        # names the species loader cannot read (CR, LF) follow csv.writer too
        for text in ("a\rb", "a\nb", 'say "x"', "a,b", "", " x ", "plain"):
            with io.StringIO() as buf:
                csv.writer(buf).writerow([text, "1"])
                assert cli._csv_text(text) + ",1\r\n" == buf.getvalue()

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "feshbach", "classify", "--species", "/nope.csv")
        assert code == 2

    @pytest.mark.parametrize("threshold", ["nan", "-inf"])
    def test_non_finite_threshold_rejected_without_rows(self, capsys, tmp_path, threshold):
        header_only = tmp_path / "header.csv"
        header_only.write_text(SYNTHETIC_SPECIES_CSV.splitlines(keepends=True)[1])
        code, out, err = run_cli(
            capsys, "feshbach", "classify", "--species", str(header_only),
            f"--threshold={threshold}", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert "threshold must be finite" in err

    # README, exit codes: a species value that rounds to 0 in the unit
    # conversion is an input error that names its line and column.
    @pytest.mark.parametrize("command", [["classify"], ["sweep", "--min", "1", "--max", "2"]])
    def test_underflowing_species_value_is_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "species.csv"
        path.write_text(SYNTHETIC_SPECIES_CSV + "tiny,86.909,1e-300,100.5,2.5,98.98,2.0\n")
        line = len(SYNTHETIC_SPECIES_CSV.splitlines()) + 1
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(capsys, "feshbach", *command, "--species", str(path),
                                    "--out", str(out))
        assert (code, stdout, out.exists()) == (2, "", False)
        assert err == (f"resokit: input error: line {line}: C6_au = 1e-300 underflows "
                       "to 0 in SI units\n")

    # A malformed species file names the line, and the column where one field is at fault.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("species,mass_amu\nsynthA,86.909\n",
             "line 1: bad header 'species,mass_amu'; expected "
             "'species,mass_amu,C6_au,B0_G,DeltaB_G,abg_a0,dmu_muB'"),
            ("species,mass_amu,C6_au,B0_G,DeltaB_G,abg_a0,dmu_muB\n"
             "synthA,86.909,4700.0,100.5,2.5,98.98\n",
             "line 2: expected 7 fields, got 6"),
            ("species,mass_amu,C6_au,B0_G,DeltaB_G,abg_a0,dmu_muB\n"
             "synthA,86.909,abc,100.5,2.5,98.98,2.0\n",
             "line 2, column 3: field 'C6_au' is not a number: 'abc'"),
        ],
        ids=["bad-header", "short-row", "non-numeric-field"],
    )
    def test_parse_error_names_its_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "species.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "feshbach", "classify", "--species", str(path))
        assert (code, out, err) == (2, "", f"resokit: input error: {message}\n")


class TestConfig:
    def test_config_presets_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("a = 2.0\nrstar = 0.5  # model\nk = 1.0\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "amplitude")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][0]) == 1.0

    def test_byte_order_mark_ignored(self, capsys, tmp_path):
        # an editor's UTF-8 byte-order mark gave "unknown key '\\ufeffa'"
        text = "a = 2.0\nrstar = 0.5\nk = 1.0\n"
        outputs = []
        for name, mark in (("plain.conf", ""), ("bom.conf", "\ufeff")):
            cfg = tmp_path / name
            cfg.write_text(mark + text, encoding="utf-8")
            outputs.append(run_cli(capsys, "--config", str(cfg), "amplitude"))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("a = 2.0\nk = 1.0\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "amplitude", "--a", "1")
        assert code == 0
        _, rows = parse_csv(out)
        # constant model with a = 1 at k = 1: Re f = -0.5
        assert float(rows[0][2]) == -0.5

    def test_model_literal_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("g = [-1, -1]\nk = 1.0\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "amplitude")
        assert code == 0
        from resokit import PhaseShiftModel, scattering

        f = scattering.amplitude(PhaseShiftModel((-1.0, -1.0)), 1.0)
        _, rows = parse_csv(out)
        assert float(rows[0][2]) == f.real

    @pytest.mark.parametrize("seed", range(6))
    def test_g_is_the_coeffs_list_in_brackets(self, capsys, tmp_path, seed):
        rng = random.Random(seed)
        forms = (repr, "{:e}".format, "{:.3g}".format, "{:E}".format)
        coeffs = [rng.choice(forms)(rng.uniform(-2, 2)) for _ in range(rng.randrange(1, 5))]
        coeffs += rng.choice(([], ["0"], ["0.0", "0e0"], ["-0.0E+3"]))
        text = ",".join(" " * rng.randrange(3) + c + " " * rng.randrange(3) for c in coeffs)
        cfg = tmp_path / "g.conf"
        cfg.write_text(f"g = [{text}]\n")
        for argv in (["amplitude", "--k", "0.7"],
                     ["phase-shift", "--min", "0", "--max", "2", "--steps", "5"],
                     ["bound-state"], ["modified-norm", "--qmax", "50"]):
            for fmt in ("csv", "json"):
                runs = []
                for model in (["--config", str(cfg)], [f"--coeffs={text}"]):
                    code, out, err = run_cli(capsys, *argv, *model, "--format", fmt)
                    runs.append((code, re.sub(r'"timestamp": "[^"]*"', "", out)))
                assert runs[0] == runs[1], (text, argv, err)

    @pytest.mark.parametrize("value", ["[]", "[1, two]", "1, 2", "[[1]]", "[inf]"])
    @pytest.mark.parametrize("argv", [
        ["amplitude", "--k", "1"], ["bound-state", "--a", "1"],
        ["two-channel", "params", "--a", "1", "--rstar", "1"],
        ["feshbach", "classify", "--species", "SPECIES"], ["verify", "orthogonality"],
    ])
    def test_malformed_g_is_config_error(self, capsys, tmp_path, species_file, value, argv):
        cfg = tmp_path / "g.conf"
        cfg.write_text(f"g = {value}\n")
        argv = [species_file if token == "SPECIES" else token for token in argv]
        code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
        assert (code, out) == (2, "")
        assert err.startswith("resokit: config error: ")

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "env.conf"
        cfg.write_text("a = 1.0\nk = 1.0\n")
        monkeypatch.setenv("RESOKIT_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "amplitude")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][2]) == -0.5

    def test_config_equals_form_with_a_comment_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("# preset model\na = 1.0\n   # k below\nk = 1.0\n")
        code, out, _ = run_cli(capsys, f"--config={cfg}", "amplitude")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][2]) == -0.5

    def test_bad_config_is_input_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("this is not a key value line\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "amplitude", "--a", "1", "--k", "1")
        assert code == 2
        assert "config error" in err

    def test_config_line_without_equals_names_its_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("# comment\na = 1\nfoo\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "amplitude", "--k", "1")
        assert (code, out) == (2, "")
        assert err == "resokit: config error: line 3: expected 'key = value', got 'foo'\n"

    def test_values_typed_by_their_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("lambda = 3\nemol = 0.5\neps = 0.05\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "two-channel", "params")
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[0][:3] == ["0.050000000000000003", "3", "0.5"]
        cfg.write_text("a = 1\nmin = 0.1\nmax = 1\nsteps = 3\nlog = yes\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "amplitude")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(row[0]) for row in rows] == pytest.approx([0.1, 10**-0.5, 1.0], rel=1e-15)

    def test_unknown_key_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "typo.conf"
        cfg.write_text("a = 1\nk = 1\nstpes = 3\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "amplitude")
        assert code == 2
        assert out == ""
        assert "config error" in err and "stpes" in err

    @pytest.mark.parametrize("line, argv", [
        ("format = xml", ["amplitude", "--a", "1", "--k", "1"]),
        ("units = bogus", ["feshbach", "classify"]),
    ])
    def test_value_outside_choices_is_config_error(self, capsys, tmp_path, species_file,
                                                   line, argv):
        cfg = tmp_path / "choice.conf"
        cfg.write_text(line + "\n")
        if argv[0] == "feshbach":
            argv = argv + ["--species", species_file]
        code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert "config error" in err and "choose from" in err

    @pytest.mark.parametrize("line, argv", [
        ("k = 1", ["amplitude", "--a", "1", "--min", "0.1", "--max", "1"]),
        ("min = 0.1", ["phase-shift", "--a", "1", "--k", "1"]),
        ("lambda = 3\nemol = 0.5", ["two-channel", "params", "--a", "1", "--rstar", "1"]),
        ("a = 1\nrstar = 1", ["two-channel", "bound", "--lambda", "3", "--emol", "0.5"]),
        ("g = [-2, -1]", ["bound-state", "--a", "1"]),
        ("a = 1", ["bound-state", "--coeffs=-2,-1"]),
        ("rstar = 0.5", ["amplitude", "--coeffs=-1,-1", "--k", "1"]),
        ("steps = 7", ["amplitude", "--a", "1", "--k", "1"]),
        ("log = on", ["phase-shift", "--a", "1", "--k", "1"]),
    ])
    def test_config_conflicting_with_flags_is_input_error(self, capsys, tmp_path, line, argv):
        cfg = tmp_path / "conflict.conf"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert "input error" in err and "not both" in err

    @pytest.mark.parametrize("value, expected", [
        ("on", [0.1, 10**-0.5, 1.0]), ("TRUE", [0.1, 10**-0.5, 1.0]),
        ("off", [0.1, 0.55, 1.0]), ("0", [0.1, 0.55, 1.0]),
    ])
    def test_switch_values(self, capsys, tmp_path, value, expected):
        cfg = tmp_path / "switch.conf"
        cfg.write_text(f"a = 1\nmin = 0.1\nmax = 1\nsteps = 3\nlog = {value}\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "amplitude")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(row[0]) for row in rows] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("line", ["log = maybe", "identical = ture", "log ="])
    def test_unknown_switch_value_is_config_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "switch.conf"
        cfg.write_text(f"a = 1\nk = 1\n{line}\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "amplitude")
        assert code == 2
        assert out == ""
        assert "config error" in err and "choose from" in err

    def test_species_from_config(self, capsys, tmp_path, species_file):
        expected = run_cli(capsys, "feshbach", "classify", "--species", species_file)
        cfg = tmp_path / "species.conf"
        cfg.write_text(f"species = {species_file}\n")
        assert run_cli(capsys, "--config", str(cfg), "feshbach", "classify") == expected
        assert expected[0] == 0
        # without the file the flag stays required
        with pytest.raises(SystemExit) as err:
            cli.main(["feshbach", "classify"])
        assert err.value.code == 2


class TestVerifyCommand:
    def test_fast_group_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "orthogonality")
        assert code == 0
        assert out.count("[PASS]") == 2

    def test_failure_exit_code(self, capsys, monkeypatch):
        from resokit import verify as verify_mod

        def fake_battery(group="all", seed=0):
            return [CheckResult("fake", False, 1.0, 1e-12, "synthetic failure", 0.0)]

        monkeypatch.setattr(verify_mod, "run_battery", fake_battery)
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 4
        assert "[FAIL]" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "orthogonality", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert all(entry["passed"] for entry in report["outputs"])
        by_name = {entry["name"]: entry for entry in report["outputs"]}
        cases = by_name["orthogonality"]["cases"]
        assert len(cases) == 150
        assert set(cases[0]) == {"model", "states", "plain", "modified", "residual"}
        assert all(case["residual"] < 1e-12 for case in cases)

    def test_json_report_unitarity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "unitarity", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert [entry["passed"] for entry in report["outputs"]] == [True, True]
        assert all(r["passed"] is True for r in report["residuals"].values())

    def test_json_report_seconds(self, capsys, monkeypatch):
        from resokit import verify as verify_mod

        def fake_battery(group="all", seed=0):
            return [CheckResult("fake", True, 1e-14, 1e-12, "synthetic", 0.25)]

        monkeypatch.setattr(verify_mod, "run_battery", fake_battery)
        code, out, _ = run_cli(capsys, "verify", "all", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["outputs"] == [
            {"name": "fake", "passed": True, "worst": "1e-14", "seconds": "0.25"}
        ]
        assert report["residuals"]["fake"]["seconds"] == "0.25"

    @pytest.mark.parametrize("argv", [("unitarity", "--seed", "-1"),
                                      ("orthogonality", "--seed", "-3")])
    def test_negative_seed_is_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert "input error" in err

    def test_missing_state_is_a_failed_check(self, capsys, monkeypatch):
        # a check whose pole search returns too few states reports a failure
        from resokit import verify as verify_mod

        find = verify_mod.bound.find_bound_states
        monkeypatch.setattr(verify_mod.bound, "find_bound_states",
                            lambda *args, **kwargs: find(*args, **kwargs)[:-1])
        assert not verify_mod.check_orthogonality().passed
        assert not verify_mod.check_normalization().passed
        code, out, _ = run_cli(capsys, "verify", "orthogonality")
        assert code == 4
        assert "[FAIL] orthogonality" in out

    def test_text_report_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "verify.txt"
        code, out, _ = run_cli(capsys, "verify", "unitarity", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().count("[PASS]") == 2

    def test_verify_all_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert out.count("[PASS]") == 10

    def test_unknown_group_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "verify", "everything")
        assert err.value.code == 2


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "amplitude", "--a", "1", "--k", "1", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        header, rows = parse_csv(out_path.read_text())
        assert header[0] == "k"
        assert len(rows) == 1


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-command"])
    assert err.value.code == 2


@pytest.mark.parametrize("error, code, prefix", [
    (InvalidInput("bad"), 2, "input error"),
    (ParseError("bad", line=3), 2, "input error"),
    (NumericalFailure("bad"), 3, "numerical failure"),
    (NoBoundState("bad"), 3, "numerical failure"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_error_class_maps_to_its_exit_code(capsys, monkeypatch, error, code, prefix):
    def handler(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_amplitude", handler)
    assert run_cli(capsys, "amplitude", "--a", "1", "--k", "1") == \
        (code, "", f"resokit: {prefix}: {error}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["amplitude", "--a", "1", "--k", "1"],
        ["bound-state", "--a", "1", "--rstar", "1"],
        ["two-channel", "params", "--a", "1", "--rstar", "1"],
        ["verify", "unitarity"],
    ],
)
def test_units_only_on_feshbach(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--units", "si"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["two-channel", "sweep", "--a", "1", "--rstar", "1", "--min", "0.1", "--max", "0.2",
         "--steps", "2", "--lambda", "3"],
        ["two-channel", "sweep", "--a", "1", "--rstar", "1", "--min", "0.1", "--max", "0.2",
         "--steps", "2", "--eps", "0.3"],
        ["two-channel", "params", "--a", "1", "--rstar", "1", "--min", "3", "--max", "1",
         "--steps", "1", "--log"],
        ["two-channel", "bound", "--a", "1", "--rstar", "1", "--steps", "3"],
    ],
)
def test_two_channel_flag_sets(capsys, argv):
    # params/bound take the coupling flags, sweep the grid flags; nothing else
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--conf", "c.cfg", "amplitude", "--a", "1", "--k", "1"],
    ["--vers"],
    ["amplitude", "--a", "1", "--k", "1", "--config"],
])
def test_root_flags_are_not_abbreviated(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().out == ""

@pytest.mark.parametrize(
    "argv",
    [
        ["two-channel", "params", "--eps", "1e160", "--lambda", "1", "--emol", "0"],
        ["two-channel", "params", "--eps", "inf", "--lambda", "1", "--emol", "0"],
        ["two-channel", "bound", "--eps", "1e160", "--lambda", "1", "--emol", "0"],
        ["amplitude", "--a", "1", "--k", "nan"],
        ["amplitude", "--a", "1", "--k", "inf"],
        ["amplitude", "--a", "1", "--k", "1e200"],
        ["amplitude", "--a", "1", "--k", "1e160", "--format", "json"],
        ["amplitude", "--a", "1", "--min", "0", "--max", "1e200", "--steps", "3"],
        ["two-channel", "params", "--lambda", "1", "--emol", "1e308"],
        ["two-channel", "bound", "--lambda", "1", "--emol", "1e308"],
        ["two-channel", "params", "--lambda", "1e150", "--emol", "1e-300", "--mass", "1e-300"],
        ["two-channel", "params", "--lambda", "1", "--emol", "0", "--mass", "1e200"],
        ["feshbach", "sweep", "--species", "SPECIES", "--min", "540", "--max", "inf",
         "--steps", "3"],
        ["feshbach", "sweep", "--species", "SPECIES", "--min", "540", "--max", "inf",
         "--steps", "3", "--format", "json"],
        ["feshbach", "sweep", "--species", "SPECIES", "--min=-1e308", "--max", "1e308",
         "--steps", "3"],
        ["amplitude", "--a", "1", "--min=-inf", "--max", "1", "--steps", "3"],
        ["feshbach", "classify", "--species", "SPECIES", "--threshold", "nan"],
        ["two-channel", "bound", "--lambda", "1", "--emol", "-1", "--eps", "1e-157"],
        ["two-channel", "bound", "--lambda", "1", "--emol", "0", "--eps", "1e-160",
         "--mass", "1e150"],
        ["bound-state", "--coeffs", "1e-300,0,5e-324", "--qmax", "1e300"],
        ["bound-state", "--a", "1", "--rstar", "1", "--qmax", "inf", "--format", "json"],
        ["modified-norm", "--a", "1", "--rstar", "1", "--qmax", "inf"],
        # two-channel poles above -float_info.min and below -float_info.max
        ["two-channel", "bound", "--lambda", "3.134949096248444e-58",
         "--emol", "3.7428694277135415e-100", "--eps", "6.208915557726983e+98",
         "--mass", "5.745028699624415e+124"],
        ["two-channel", "bound", "--lambda", "5.8690101901473526e+128",
         "--emol=-1.766495962707357e+221", "--eps", "2.2142039495934917e-124",
         "--mass", "135501145.64314356"],
        # the effective-range pole, the upper end of the bracket, overflows
        ["two-channel", "bound", "--lambda", "1e100", "--emol", "0", "--eps", "1e-145",
         "--mass", "1e-20"],
        # m^2 overflows in the mapping from R* to lam, which then rounds to 0
        ["two-channel", "params", "--a", "1", "--rstar", "1e-300", "--eps", "0.1",
         "--mass", "1e160"],
        ["two-channel", "bound", "--a", "1", "--rstar", "1e-300", "--eps", "0.1",
         "--mass", "1e160"],
        ["two-channel", "sweep", "--a", "1", "--rstar", "1e-300", "--mass", "1e160",
         "--min", "0.1", "--max", "0.2", "--steps", "2"],
        # missing, malformed or out-of-range inputs
        ["amplitude", "--a", "1"],
        ["amplitude", "--coeffs=1,x", "--k", "1"],
        ["two-channel", "params", "--lambda", "1"],
        ["two-channel", "params"],
        ["two-channel", "sweep", "--min", "0.1", "--max", "0.2"],
        ["feshbach", "sweep", "--species", "SPECIES", "--index", "5"],
        ["two-channel", "params", "--a", "0", "--rstar", "1"],
        # m^2 R* underflows to 0 in the mapping from R* to lam
        ["two-channel", "params", "--a", "1", "--rstar", "1", "--mass", "1e-200"],
        ["two-channel", "params", "--a", "1", "--rstar", "1e-320", "--mass", "1e-5"],
        ["two-channel", "bound", "--a", "1", "--rstar", "1", "--mass", "1e-200"],
        ["two-channel", "bound", "--a", "1", "--rstar", "1e-320", "--mass", "1e-5"],
        ["two-channel", "sweep", "--a", "1", "--rstar", "1", "--mass", "1e-200",
         "--min", "0.1", "--max", "0.2", "--steps", "2"],
        ["two-channel", "sweep", "--a", "1", "--rstar", "1e-320", "--mass", "1e-5",
         "--min", "0.1", "--max", "0.2", "--steps", "2"],
        # eps = 0 is rejected before the targets' e_mol divides by it
        ["two-channel", "params", "--a", "1", "--rstar", "1", "--eps", "0"],
    ],
)
def test_non_finite_or_overflowing_input_exits_2(capsys, species_file, argv):
    argv = [species_file if token == "SPECIES" else token for token in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_two_channel_bound_where_inverse_a_eps_overflows(capsys):
    # a_eps is a subnormal float, so params print it; its 1/a_eps rounds to inf
    model = ["--lambda", "1.0280303649806484", "--emol=-5.042767913407391e+306", "--eps", "1.0",
             "--mass", "0.16677133450269746"]
    code, out, _ = run_cli(capsys, "two-channel", "params", *model)
    header, rows = parse_csv(out)
    assert code == 0 and 0.0 < float(rows[0][header.index("a_eps")]) < 2.0**-1022
    assert run_cli(capsys, "two-channel", "bound", *model) == (
        2, "", "resokit: input error: 1/a_eps overflows for these parameters\n")


@pytest.mark.parametrize(
    "row, argv",
    [
        # the SI energy scale hbar^2/(m a0^2) underflows to 0
        ("heavy,1e308,100.5,1e200,1e200,1e160,1e160", ["classify", "--units", "natural"]),
        ("heavy,1e308,100.5,1e200,1e200,1e160,1e160", ["sweep"]),
        # every factor is nonzero, and their product m a_bg dmu dB underflows
        ("y,1,4700,100.5,1,1e-300,1e-300", ["classify", "--units", "si"]),
        # m C6/hbar^2 underflows, so the van der Waals length is 0
        ("light,1e-160,1e-160,1,1e-30,0.5,0.5", ["classify", "--units", "si"]),
    ],
    ids=["heavy-classify", "heavy-sweep", "y-width-radius", "light-vdw-length"],
)
def test_species_row_leaving_the_float_range_exits_2(capsys, tmp_path, row, argv):
    path = tmp_path / "species.csv"
    path.write_text(f"species,mass_amu,C6_au,B0_G,DeltaB_G,abg_a0,dmu_muB\n{row}\n")
    code, out, err = run_cli(capsys, "feshbach", *argv, "--species", str(path))
    assert code == 2
    assert out == ""
    assert "input error" in err and "float range" in err


@pytest.mark.parametrize(
    "row, message",
    [
        # C6 and DeltaB overflow in natural units: a = inf on every row before
        ("big,1e250,4700,100.5,1e100,98.98,2.0",
         "line 2: C6_au = 4700.0 overflows to inf in natural units"),
        # abg_a0 underflows in SI units: a = 0 on every row before
        ("tiny,86.9,4700,100.5,2.5,1e-320,2.0",
         "line 2: abg_a0 = 1e-320 underflows to 0 in SI units"),
    ],
    ids=["big", "tiny"],
)
def test_species_value_leaving_the_float_range_exits_2(capsys, tmp_path, row, message):
    path = tmp_path / "species.csv"
    path.write_text(f"species,mass_amu,C6_au,B0_G,DeltaB_G,abg_a0,dmu_muB\n{row}\n")
    code, out, err = run_cli(capsys, "feshbach", "sweep", "--species", str(path),
                             "--min", "90", "--max", "110", "--steps", "3")
    assert code == 2
    assert out == ""
    assert err == f"resokit: input error: {message}\n"


@pytest.mark.parametrize(
    "row, argv, message",
    [
        # every value loads finite; a(B) overflows in both orders of evaluation
        ("z,3.739972e-224,2.123391e284,-3.221319e-194,-7.615844e181,-4.967330e270,4.774495e-63",
         ["sweep", "--units", "si", "--min", "1", "--max", "1e3", "--steps", "3"],
         "the scattering length leaves the float range at B = 1.0"),
        # R* and R_vdW are finite, |R*|/R_vdW overflows
        ("z,5.345749e-227,1.449695e-71,-2.195110e-42,-8.511059e111,-2.134138e80,2.406779e-206",
         ["classify"], "the ratio |R*|/R_vdW leaves the float range: inf"),
        # R* and R_vdW are finite, |R*|/R_vdW underflows
        ("z,1.520704e44,8.510565e233,8.278026e-164,-1.713847e162,4.517208e-74,-1.796615e149",
         ["classify", "--units", "atomic"], "the ratio |R*|/R_vdW leaves the float range: 0.0"),
    ],
    ids=["sweep-a-inf", "classify-ratio-inf", "classify-ratio-0"],
)
def test_result_leaving_the_float_range_exits_2_without_warning(capsys, tmp_path, row, argv,
                                                                 message):
    path = tmp_path / "species.csv"
    path.write_text(f"species,mass_amu,C6_au,B0_G,DeltaB_G,abg_a0,dmu_muB\n{row}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "feshbach", *argv, "--species", str(path))
    assert (code, out, err) == (2, "", f"resokit: input error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["amplitude", "--a", "1", "--k", "1", "--min", "0.1", "--max", "1"],
        ["amplitude", "--a", "1", "--k", "1", "--min", "0.1"],
        ["phase-shift", "--a", "1", "--k", "1", "--max", "2", "--steps", "3"],
        ["two-channel", "params", "--lambda", "1", "--emol", "0", "--a", "1", "--rstar", "1"],
        ["two-channel", "params", "--emol", "0", "--a", "1", "--rstar", "1"],
        ["two-channel", "bound", "--lambda", "1", "--emol", "0", "--a", "1"],
        ["two-channel", "bound", "--lambda", "1", "--emol", "0", "--rstar", "1"],
        ["bound-state", "--a", "1", "--coeffs=-2,-1"],
        ["modified-norm", "--rstar", "0", "--coeffs=-1,-1"],
        ["amplitude", "--a", "1", "--rstar", "1", "--coeffs=-1,-1", "--k", "1"],
        ["amplitude", "--a", "1", "--k", "0.5", "--log", "--steps", "7"],
        ["phase-shift", "--a", "1", "--k", "0.5", "--steps", "50"],
        ["amplitude", "--a", "1", "--k", "0.5", "--log"],
    ],
)
def test_conflicting_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "input error" in err and "not both" in err


@pytest.mark.parametrize("argv", [
    ["amplitude", "--a=-1e-5", "--k", "1"],
    ["two-channel", "params", "--lambda", "1", "--emol=-1e-3"],
    ["feshbach", "sweep", "--min=-1e3", "--max", "1e3", "--steps", "3"],
])
def test_negative_exponent_values_in_flag_equals_form(capsys, species_file, argv):
    # README: a negative value in exponent form is given as --flag=value
    if argv[0] == "feshbach":
        argv = argv + ["--species", species_file]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


def test_verify_choices_match_battery():
    from resokit import verify

    assert cli.VERIFY_GROUPS == tuple(sorted(verify.GROUPS))
    assert cli.VERIFY_DEFAULT_SEED == verify.DEFAULT_SEED
    assert cli.build_parser().parse_args(["verify", "all"]).seed == verify.DEFAULT_SEED


def test_every_command_runs_without_scipy_or_numpy_polynomial(tmp_path):
    # scipy is not a runtime dependency, and numpy.polynomial is not used:
    # with both imports blocked, every command exits 0, the verify groups
    # included, and so does a two-channel amplitude above threshold.
    species = tmp_path / "species.csv"
    species.write_text(SYNTHETIC_SPECIES_CSV)
    script = f"""
import contextlib, io, sys
sys.modules["scipy"] = None
sys.modules["numpy.polynomial"] = None
import resokit.cli as cli
from resokit import twochannel

for argv in (
    ["amplitude", "--a", "1", "--rstar", "1", "--min", "0.1", "--max", "2", "--steps", "5"],
    ["phase-shift", "--a", "1", "--rstar", "1", "--k", "0.5"],
    ["bound-state", "--a", "1", "--rstar", "1"],
    ["modified-norm", "--coeffs=-1,0.5,0.8,-0.3"],
    ["feshbach", "classify", "--species", {str(species)!r}],
    ["feshbach", "sweep", "--species", {str(species)!r}, "--min", "90", "--max", "110"],
    ["two-channel", "params", "--a", "1", "--rstar", "1", "--eps", "0.1"],
    ["two-channel", "bound", "--a", "1", "--rstar", "1", "--eps", "0.1"],
    ["two-channel", "sweep", "--a", "1", "--rstar", "1", "--min", "0.01", "--max", "0.2"],
    ["verify", "unitarity"],
    ["verify", "orthogonality"],
    ["verify", "identity"],
    ["verify", "mapping"],
    ["verify", "all"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
p = twochannel.params_for_targets(1.0, 1.0, 0.1)
print(repr(twochannel.inverse_amplitude(p, 0.5)))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "(-1.4638271932297735-0.7071067811865476j)",
        "['scipy']",
    ]


def test_closed_form_commands_run_without_numpy(tmp_path):
    # With numpy blocked, these commands print what an unblocked process
    # prints, and the unblocked process loads no numpy, neither with
    # `import resokit.cli` nor running them. bound-state and modified-norm
    # take degree-1 models, whose poles come in closed form; amplitude and
    # phase-shift take one wavenumber, a float, and the sweeps a grid of at
    # most cli.BLOCK_ROWS points, a list of floats.
    species = tmp_path / "species.csv"
    species.write_text(SYNTHETIC_SPECIES_CSV)
    commands = [
        ["two-channel", "params", "--a", "1", "--rstar", "1", "--eps", "0.05"],
        ["two-channel", "params", "--lambda", "2.5", "--emol", "7", "--mass", "2"],
        ["two-channel", "bound", "--a", "1", "--rstar", "1"],
        ["two-channel", "bound", "--lambda", "2.5066282746310002", "--emol", "6.978845608028654"],
        ["feshbach", "classify", "--species", str(species), "--units", "si"],
        ["bound-state", "--a", "1", "--rstar", "1"],
        ["bound-state", "--a", "2", "--rstar", "-0.1", "--qmax", "5"],
        ["bound-state", "--coeffs=-0.3333333333333333,0.6666666666666666"],
        ["bound-state", "--a", "1e-10", "--rstar", "1e-300", "--qmax", "1e11"],
        ["modified-norm", "--a", "1", "--rstar", "1"],
        ["modified-norm", "--a", "2", "--rstar", "-0.1"],
        ["modified-norm", "--a", "1", "--rstar=1e-310"],
        ["amplitude", "--a", "3", "--rstar", "0.7", "--k", "0.37"],
        ["phase-shift", "--coeffs=-0.7,1.3,-0.2,0.05", "--k", "1.5"],
        ["amplitude", "--a", "1", "--k", "0", "--identical"],
        ["amplitude", "--a", "1", "--rstar", "1", "--min", "0.1", "--max", "2", "--steps", "4",
         "--log"],
        ["phase-shift", "--coeffs=-0.7,1.3,-0.2", "--min", "0", "--max", "2", "--steps", "4"],
        ["two-channel", "sweep", "--a", "1", "--rstar", "1", "--min", "0.01", "--max", "0.2",
         "--steps", "4", "--log"],
        ["feshbach", "sweep", "--species", str(species), "--min", "0.0033", "--max", "0.0035",
         "--steps", "4"],
        # a negative wavenumber is an input error on the scalar route too
        ["amplitude", "--a", "1", "--k", "-1"],
    ]
    codes = [0] * 2 * (len(commands) - 1) + [2] * 2
    script = """
import contextlib, io, json, re, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import resokit
import resokit.cli as cli

runs = []
for argv in json.loads(sys.argv[2]):
    for fmt in ("csv", "json"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([*argv, "--format", fmt])
        runs.append([code, re.sub(r'"timestamp": "[^"]*"', "", buf.getvalue())])
numpy = [m for m in sys.modules if m.split(".")[0] == "numpy" and sys.modules[m]]
print(json.dumps([runs, numpy]))
"""
    results = []
    for mode in ("block", "plain"):
        proc = subprocess.run([sys.executable, "-c", script, mode, json.dumps(commands)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    (blocked, _), (plain, numpy) = results
    assert blocked == plain
    assert [code for code, _ in plain] == codes
    assert all(bool(text) == (code == 0) for code, text in plain)
    assert numpy == []


def test_one_channel_and_feshbach_commands_load_no_dataclasses_or_datetime(tmp_path):
    # With dataclasses and datetime blocked, these commands print what an
    # unblocked process prints (timestamp masked), and the unblocked process
    # loads neither, nor the inspect modules that dataclasses imports.
    species = tmp_path / "species.csv"
    species.write_text(SYNTHETIC_SPECIES_CSV)
    commands = [
        ["amplitude", "--a", "3", "--rstar", "0.7", "--k", "0.37"],
        ["phase-shift", "--coeffs=-0.7,1.3,-0.2", "--min", "0.1", "--max", "2", "--steps", "4",
         "--log"],
        ["feshbach", "classify", "--species", str(species), "--units", "si"],
        ["feshbach", "sweep", "--species", str(species), "--min", "0.0033", "--max", "0.0035",
         "--steps", "4"],
    ]
    script = """
import contextlib, io, json, re, sys
if sys.argv[1] == "block":
    sys.modules["dataclasses"] = None
    sys.modules["datetime"] = None
import resokit.cli as cli

runs = []
for argv in json.loads(sys.argv[2]):
    for fmt in ("csv", "json"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([*argv, "--format", fmt])
        runs.append([code, re.sub(r'"timestamp": "[^"]*"', "", buf.getvalue())])
framework = ["dataclasses", "datetime", "inspect", "ast", "dis", "tokenize"]
print(json.dumps([runs, [m for m in framework if sys.modules.get(m)]]))
"""
    results = []
    for mode in ("block", "plain"):
        proc = subprocess.run([sys.executable, "-c", script, mode, json.dumps(commands)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    (blocked, _), (plain, loaded) = results
    assert blocked == plain
    assert [code for code, _ in plain] == [0] * 2 * len(commands)
    assert all(text for _, text in plain)
    assert loaded == []


def test_pole_far_above_an_overflowing_start(capsys):
    # The line -2 lam^2 B(0-) overflows and the pole lies 50 decades above
    # -float_info.max.
    code, out, err = run_cli(
        capsys, "two-channel", "bound", "--lambda", "4.015714583431735e+25",
        "--emol", "2.9493435390456395e-107", "--eps", "8.029334432772652e-156",
        "--mass", "2.9464939187426935e+108",
    )
    assert code == 0, err
    header, rows = parse_csv(out)
    assert float(rows[0][header.index("E")]) == pytest.approx(-6.28960850114286e257, rel=1e-14)


@pytest.mark.parametrize(
    "argv, beta2",
    [
        # m^2/(8 pi kappa) overflows, J = 6.5e224 does not
        (["--lambda", "6.391712545612873e-48", "--emol", "3.553014767997292e-83",
          "--eps", "6.035555872700008e+66", "--mass", "1.621860810576458e+139"],
         1.8691700531e-131),
        # 2 lam^2 J ~ 4e314 overflows: the open channel holds all the norm
        (["--lambda", "3.726451249627612e+50", "--emol", "1.125294904109281e+78",
          "--eps", "1.8053957803634334e+86", "--mass", "4.3113782818265566e+102"], 0.0),
    ],
)
def test_overflowing_norm_integral_columns_finite(capsys, argv, beta2):
    code, out, err = run_cli(capsys, "two-channel", "bound", *argv)
    assert code == 0, err
    header, rows = parse_csv(out)
    row = dict(zip(header, map(float, rows[0])))
    assert all(math.isfinite(v) for v in row.values()), row
    assert row["beta2"] == pytest.approx(beta2, rel=1e-10, abs=0.0)
    assert row["open_norm"] == 1.0 and row["norm_residual"] == 0.0


def test_pole_solve_step_cap_exits_3(capsys, monkeypatch):
    from resokit import twochannel

    monkeypatch.setattr(twochannel, "POLE_MAX_STEPS", 1)
    code, out, err = run_cli(capsys, "two-channel", "bound", "--a", "1", "--rstar", "1")
    assert code == 3
    assert out == ""
    assert "numerical failure" in err and "did not converge" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "resokit.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "resokit" in proc.stdout


# Every parser's --help page, in the order of the command tree.
HELP_COMMANDS = [
    [], ["amplitude"], ["phase-shift"], ["bound-state"], ["modified-norm"],
    ["two-channel"], ["two-channel", "params"], ["two-channel", "bound"],
    ["two-channel", "sweep"], ["feshbach"], ["feshbach", "sweep"],
    ["feshbach", "classify"], ["verify"],
]


def test_help_pages_are_pinned(capsys, monkeypatch):
    # At 80 columns. Each usage paragraph is compared with its whitespace
    # collapsed: Python 3.13 wraps usage lines differently from 3.10-3.12.
    monkeypatch.setenv("COLUMNS", "80")
    pages = []
    for command in HELP_COMMANDS:
        with pytest.raises(SystemExit) as stop:
            cli.main([*command, "--help"])
        assert stop.value.code == 0
        usage, _, body = capsys.readouterr().out.partition("\n\n")
        pages.append(f"$ resokit {' '.join(command + ['--help'])}\n"
                     f"{' '.join(usage.split())}\n\n{body}")
    assert "".join(pages) == (Path(__file__).parent / "cli_help.txt").read_text()


# Usage errors, each message with its whitespace collapsed as the help pages.
ROOT_USAGE = ("usage: resokit [-h] [--version] [--config CONFIG] {amplitude,phase-shift,"
              "bound-state,modified-norm,two-channel,feshbach,verify} ...")
USAGE_ERRORS = [
    ([], ROOT_USAGE + " resokit: error: the following arguments are required: command"),
    (["bogus"], ROOT_USAGE + " resokit: error: argument command: invalid choice: 'bogus' "
     "(choose from 'amplitude', 'phase-shift', 'bound-state', 'modified-norm', "
     "'two-channel', 'feshbach', 'verify')"),
    (["two-channel", "bogus"], "usage: resokit two-channel [-h] {params,bound,sweep} ... "
     "resokit two-channel: error: argument tc_command: invalid choice: 'bogus' "
     "(choose from 'params', 'bound', 'sweep')"),
    (["amplitude", "--a", "1", "--k", "1", "--bogus", "2"],
     ROOT_USAGE + " resokit: error: unrecognized arguments: --bogus 2"),
    (["feshbach", "sweep", "--min", "1", "--max", "2"],
     "usage: resokit feshbach sweep [-h] [--index INDEX] [--min MIN] [--max MAX] "
     "[--steps STEPS] [--log] --species SPECIES [--units {natural,si,atomic}] [--out OUT] "
     "[--format {csv,json}] resokit feshbach sweep: error: the following arguments are "
     "required: --species"),
    (["amplitude", "--a", "1", "--k", "1", "--format", "xml"],
     "usage: resokit amplitude [-h] [--a A] [--rstar RSTAR] [--coeffs COEFFS] [--k K] "
     "[--identical] [--min MIN] [--max MAX] [--steps STEPS] [--log] [--out OUT] "
     "[--format {csv,json}] resokit amplitude: error: argument --format: invalid choice: "
     "'xml' (choose from 'csv', 'json')"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_errors_are_pinned(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (stop.value.code, out, " ".join(err.split())) == (2, "", message)


# Every leaf command, with a flag of its own.
LEAF_COMMANDS = [
    ["amplitude", "--a", "1", "--k", "0.5", "--identical"],
    ["phase-shift", "--coeffs=-1,2", "--min", "0", "--max", "1", "--log"],
    ["bound-state", "--a", "1", "--rstar", "1", "--qmax", "5"],
    ["modified-norm", "--a", "1", "--format", "json"],
    ["two-channel", "params", "--lambda", "2", "--emol", "1"],
    ["two-channel", "bound", "--a", "1", "--rstar", "1", "--mass", "2"],
    ["two-channel", "sweep", "--a", "1", "--rstar", "1", "--steps", "3"],
    ["feshbach", "sweep", "--species", "s.csv", "--index", "1"],
    ["feshbach", "classify", "--species", "s.csv", "--threshold", "2"],
    ["verify", "unitarity", "--seed", "3"],
]


@pytest.mark.parametrize("argv", LEAF_COMMANDS)
def test_parser_of_one_subcommand_parses_as_the_full_parser(argv):
    assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)


def test_config_may_preset_flags_of_other_subcommands(capsys, tmp_path):
    # A config builds every subcommand's flags: threshold belongs to
    # feshbach classify, a and k to amplitude.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threshold = 2\na = 1\nk = 0.5\n")
    assert run_cli(capsys, "--config", str(cfg), "amplitude") == \
        run_cli(capsys, "amplitude", "--a", "1", "--k", "0.5")


@pytest.mark.parametrize("ns", [
    0, 1_000, 999, -1, 951_782_400_000_000_000, 1_709_164_799_999_999_999,
    1_760_000_000_123_456_789, 1_760_000_000_000_001_000, 4_102_444_800_000_000_000,
])
def test_report_timestamp_is_datetime_isoformat(ns):
    from datetime import datetime, timedelta, timezone

    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    expected = (epoch + timedelta(microseconds=ns // 1000)).isoformat()
    assert cli._utc_timestamp(ns) == expected


def test_report_timestamp_is_now():
    from datetime import datetime, timezone

    before = datetime.now(timezone.utc)
    stamp = json.loads(cli._report("c", {}, [], {}))["timestamp"]
    assert before <= datetime.fromisoformat(stamp) <= datetime.now(timezone.utc)
