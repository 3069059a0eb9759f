"""The four benchmark workloads: seeded inputs and one operation at a time.

Every workload is a closed loop with one client: the worker asks for the
next :class:`Op`, times ``op.run()`` and then checks its result with
``op.check`` against the independent references in :mod:`oracles`. Input
generation and checking happen outside the timed call.

- ``cli-oneshot``: a fresh ``python -m resokit.cli`` process per operation,
  so interpreter start and imports are paid on every call, as users do.
- ``sweep-table``: in-process ``cli.main`` sweeps written to a file; per-row
  compute and 17-digit formatting dominate, with no pole search and no import.
- ``resonance-scan``: in-process library calls alternating one-channel pole
  searches (with norms and modified products) and two-channel bound states.
- ``verify-battery``: in-process ``verify.run_battery("all", seed)``; the same
  layers used as narrow-window searches plus quadrature oracles.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

# Sweep lengths of one sweep-table operation. They keep an operation near
# 0.4 s at the commit that introduced the benchmark, so that a run collects
# enough operations for a tail percentile with ten samples beyond it, and
# amplitude and field sweeps take about as long as each other.
SWEEP_STEPS = 20_000
FIELD_SWEEP_STEPS = 60_000
CLI_SWEEP_STEPS = 4
CLI_TIMEOUT_S = 120.0
N_SPECIES = 5
CLOSE_PAIR_SHARE = 0.1

SPECIES_HEADER = "species,mass_amu,C6_au,B0_G,DeltaB_G,abg_a0,dmu_muB"
VERIFY_GROUP_NAMES = {
    "orthogonality": ("orthogonality", "series-quotient"),
    "unitarity": ("unitarity-one-channel", "unitarity-two-channel"),
}
BATTERY_NAMES = (
    "unitarity-one-channel", "unitarity-two-channel", "orthogonality",
    "series-quotient", "normalization", "loop-integral-oracle",
    "effective-params", "zero-range-limit", "molecular-identity", "feshbach-layer",
)

# Approximate CODATA values, used only to centre field grids on B0; the
# checks use scipy.constants.
_APPROX_FIELD_UNIT_PER_GAUSS = 1.0e-4 * 9.2740100657e-24 * 1.66053906892e-27 * (
    5.29177210544e-11 ** 2) / 1.0545718176461565e-34 ** 2


@dataclass
class Op:
    """One operation: the timed call and how its result is judged.

    ``check(result, error)`` returns failure messages; ``rows(result)``
    counts output rows; ``defect(fails, result, error)`` names the known
    program defect the failures reproduce, or returns None.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], list]
    rows: Callable[[object], int]
    defect: Callable[[list, object, BaseException | None], str | None] = (
        lambda fails, result, error: None
    )


def _loguniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _unexpected(error):
    return [f"uncaught {type(error).__name__}: {error}"]


# ---------------------------------------------------------------- shared inputs


def make_species(rng):
    """Seeded species rows (raw file units) for the feshbach subcommands."""
    rows = []
    for i in range(N_SPECIES):
        rows.append({
            "species": f"bench{i}",
            "mass_amu": float(rng.uniform(6.0, 133.0)),
            "C6_au": float(rng.uniform(1000.0, 6000.0)),
            "B0_G": float(rng.uniform(100.0, 1000.0)),
            "DeltaB_G": float(rng.choice([-1.0, 1.0]) * _loguniform(rng, 0.05, 10.0)),
            "abg_a0": float(rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 200.0)),
            "dmu_muB": float(rng.uniform(0.5, 3.0)),
        })
    return rows


def write_species(rows, path):
    lines = ["# generated species table", SPECIES_HEADER]
    for r in rows:
        lines.append(",".join([r["species"]] + [repr(r[k]) for k in SPECIES_HEADER.split(",")[1:]]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def field_grid(row, mode, steps):
    """(min, max) of a positive linear field grid keeping B0 midway between points."""
    per_gauss = 1.0e-4 if mode == "si" else _APPROX_FIELD_UNIT_PER_GAUSS * row["mass_amu"]
    b0 = row["B0_G"] * per_gauss
    width = abs(row["DeltaB_G"]) * per_gauss
    h = 20.0 * width / (steps - 1)
    lo = b0 - (round(0.4 * (steps - 1)) + 0.5) * h
    return lo, lo + (steps - 1) * h


def random_coeffs(rng, max_degree, min_degree=1):
    degree = int(rng.integers(min_degree, max_degree + 1))
    return [float(c) for c in rng.uniform(-2.0, 2.0, degree + 1)]


def _coeff_arg(coeffs):
    return "--coeffs=" + ",".join(repr(c) for c in coeffs)


# ---------------------------------------------------------------- cli-oneshot


# Command kinds of cli-oneshot, ordered so that slow and fast commands and
# row-rich and row-poor ones alternate.
CLI_KINDS = ("amplitude-k", "verify-unitarity", "bound-state", "amplitude-sweep", "tc-params",
             "fb-classify", "phase-shift-k", "verify-orthogonality", "modified-norm",
             "phase-shift-sweep", "tc-bound", "fb-sweep", "tc-sweep")


class CliOneshot:
    """Each operation is one fresh CLI process; the mix covers every subcommand.

    Operations follow a fixed rotation over the 26 variants (13 command
    kinds, csv and json): the first 13 operations run every kind once, with
    formats alternating, and the next 13 run each kind in the other format.
    A run lasts about 20 operations, so a fixed rotation gives every run the
    same mix whatever its seed; the seed draws every command's parameters.
    """

    name = "cli-oneshot"
    # Fixed per workload so every run reports the same quantity. Each is the
    # highest percentile with about ten samples beyond it at the operation
    # count of a 20 s run at the commit that introduced the benchmark. Here
    # a run holds 15 to 22 operations, too few for ten beyond anything above
    # the median; p55 keeps the tail distinct from latency_p50_ms.
    TAIL_PERCENTILE = 55.0

    def __init__(self, seed, root, workdir):
        self.rng = np.random.default_rng(seed)
        self.root = root
        self.trace_dir = None
        self.env = dict(os.environ)
        self.env.pop("RESOKIT_CONFIG", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.species = make_species(self.rng)
        self.species_path = os.path.join(workdir, "species.csv")
        write_species(self.species, self.species_path)
        self.count = 0

    def warmup(self):
        self._make("amplitude-k", "csv", np.random.default_rng(0)).run()

    def rewind(self):
        """Restart the kind rotation (the traced phase starts here)."""
        self.count = 0

    def next_op(self) -> Op:
        pos = self.count % (2 * len(CLI_KINDS))
        self.count += 1
        i, cycle = pos % len(CLI_KINDS), pos // len(CLI_KINDS)
        return self._make(CLI_KINDS[i], ("csv", "json")[(i + cycle) % 2], self.rng)

    def _command(self, args):
        if self.trace_dir is None:
            return [sys.executable, "-m", "resokit.cli", *args]
        spans = os.path.join(self.trace_dir, f"op{self.count}.npz")
        child = os.path.join(self.root, "perfbench", "cli_child.py")
        return [sys.executable, child, spans, str(self.count), *args]

    def _make(self, kind, fmt, rng) -> Op:
        args, judge, expect_rc, cross_check = self._draw(kind, rng)
        if fmt == "json":
            args = args + ["--format", "json"]
        cmd = self._command(args)

        def run():
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            return proc.returncode, proc.stdout, proc.stderr

        def check(result, error):
            if error is not None:
                return _unexpected(error)
            rc, out, err = result
            if rc != expect_rc:
                tail = err.strip().splitlines()[-1:] if err.strip() else []
                return [f"exit code {rc}, expected {expect_rc}: {' '.join(tail)}"]
            if expect_rc != oracles.EXIT_OK:
                return []
            try:
                return judge(out, fmt)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return [f"unparseable {fmt} output: {type(exc).__name__}: {exc}"]

        def rows(result):
            rc, out, _ = result
            if rc != oracles.EXIT_OK:
                return 0
            if kind.startswith("verify"):
                return len(out.splitlines()) if fmt == "csv" else len(json.loads(out)["outputs"])
            return len(oracles.parse_table(out, fmt)[1])

        def defect(fails, result, error):
            if result is None:
                return None
            rc, _, err = result
            if kind.startswith("verify") and fmt == "json" and rc == 1 \
                    and "is not JSON serializable" in err:
                return "verify-json-numpy-bool"
            if kind.startswith("tc-") and rc == oracles.EXIT_NUMERICAL and \
                    oracles.cross_check_false_alarm(err, *cross_check):
                return "effective-params-false-alarm"
            if kind.startswith("tc-") and rc == oracles.EXIT_OK and \
                    oracles.norm_quadrature_drift(fails):
                return "norm-quadrature-drift"
            return None

        return Op(f"{kind}:{fmt}", run, check, rows, defect)

    def _draw(self, kind, rng):
        """(argv, judge(stdout, fmt) -> fails, expected exit code, cross-check
        targets (a, R*, eps values) for two-channel commands) for one command."""
        if kind in ("amplitude-k", "phase-shift-k"):
            a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 30.0))
            rstar = float(rng.uniform(0.0, 3.0))
            k = float(rng.uniform(0.05, 5.0))
            cmd = kind.split("-k")[0]
            args = [cmd, "--a", repr(a), "--rstar", repr(rstar), "--k", repr(k)]
            coeffs = [-1.0 / a, -rstar]
            return args, _amplitude_judge(coeffs, np.array([k]), False), 0, None
        if kind in ("amplitude-sweep", "phase-shift-sweep"):
            coeffs = random_coeffs(rng, 3)
            lo, hi = _loguniform(rng, 1e-3, 0.1), _loguniform(rng, 1.0, 100.0)
            log = bool(rng.integers(2))
            identical = bool(rng.integers(2))
            args = [kind.split("-sweep")[0], _coeff_arg(coeffs), "--min", repr(lo), "--max", repr(hi),
                    "--steps", str(CLI_SWEEP_STEPS)] + (["--log"] if log else []) + (
                        ["--identical"] if identical else [])
            grid = oracles.sweep_grid(lo, hi, CLI_SWEEP_STEPS, log)
            return args, _amplitude_judge(coeffs, grid, identical), 0, None
        if kind in ("bound-state", "modified-norm"):
            a = float(rng.uniform(0.3, 30.0))
            rstar = float(rng.uniform(0.1, 10.0))
            args = [kind, "--a", repr(a), "--rstar", repr(rstar)]
            coeffs = [-1.0 / a, -rstar]
            pole = oracles.two_term_pole(a, rstar)

            def judge(out, fmt):
                cols, rows = oracles.parse_table(out, fmt)
                states = [(float(r[cols.index("q")]), float(r[cols.index("E")]),
                           float(r[cols.index("A2")]), r[cols.index("norm_sign")]) for r in rows]
                residuals = ([float(r[cols.index("residual")]) for r in rows]
                             if kind == "modified-norm" else None)
                return oracles.check_one_channel(coeffs, 1e-8, 100.0, states, residuals, None,
                                                 expected_poles=[pole])
            return args, judge, 0, None
        if kind.startswith("tc-"):
            sub = kind[3:]
            a = float(rng.uniform(0.3, 30.0))
            if sub != "sweep" and rng.random() < 0.25:
                a = -a
            rstar = float(rng.uniform(0.1, 10.0))
            eps = _loguniform(rng, 1e-3, 0.5)
            if sub == "sweep":
                lo = _loguniform(rng, 1e-3, 0.05)
                hi = _loguniform(rng, 0.1, 0.5)
                log = bool(rng.integers(2))
                args = ["two-channel", "sweep", "--a", repr(a), "--rstar", repr(rstar),
                        "--min", repr(lo), "--max", repr(hi), "--steps", "4"] + (["--log"] if log else [])
                grid = oracles.sweep_grid(lo, hi, 4, log)
                return args, _tc_sweep_judge(a, rstar, grid), 0, (a, rstar, grid)
            args = ["two-channel", sub, "--eps", repr(eps), "--a", repr(a), "--rstar", repr(rstar)]
            expect = oracles.EXIT_NUMERICAL if sub == "bound" and a < 0.0 else oracles.EXIT_OK
            return args, _tc_judge(sub, a, rstar, eps), expect, (a, rstar, [eps])
        if kind == "fb-classify":
            mode = ("natural", "si")[int(rng.integers(2))]
            threshold = float(rng.uniform(0.5, 2.0))
            args = ["feshbach", "classify", "--species", self.species_path,
                    "--threshold", repr(threshold), "--units", mode]

            def judge(out, fmt):
                cols, rows = oracles.parse_table(out, fmt)
                order = [cols.index(c) for c in ("species", "Rstar", "RvdW", "ratio", "class")]
                return oracles.check_classify_rows(self.species, mode, threshold,
                                                   [[r[i] for i in order] for r in rows])
            return args, judge, 0, None
        if kind == "fb-sweep":
            mode = ("natural", "si")[int(rng.integers(2))]
            index = int(rng.integers(N_SPECIES))
            lo, hi = field_grid(self.species[index], mode, CLI_SWEEP_STEPS)
            args = ["feshbach", "sweep", "--species", self.species_path, "--index", str(index),
                    "--min", repr(lo), "--max", repr(hi), "--steps", str(CLI_SWEEP_STEPS),
                    "--units", mode]
            grid = oracles.sweep_grid(lo, hi, CLI_SWEEP_STEPS, False)

            def judge(out, fmt):
                cols, rows = oracles.parse_table(out, fmt)
                return oracles.check_field_rows(self.species[index], mode, grid,
                                                oracles.number_columns(cols, rows, ("B", "a")))
            return args, judge, 0, None
        group = kind.split("-", 1)[1]
        seed = int(rng.integers(0, 2**31))
        args = ["verify", group, "--seed", str(seed)]
        return args, (lambda out, fmt: oracles.check_verify_output(
            out, fmt, VERIFY_GROUP_NAMES[group])), 0, None


def _amplitude_judge(coeffs, grid, identical):
    def judge(out, fmt):
        cols, rows = oracles.parse_table(out, fmt)
        return oracles.check_amplitude_rows(
            coeffs, grid,
            oracles.number_columns(cols, rows, ("k", "E", "Re_f", "Im_f", "delta", "sigma")),
            identical)
    return judge


def _tc_judge(sub, a, rstar, eps):
    lam = math.sqrt(2.0 * math.pi / rstar)
    e_mol = lam**2 / (2.0 * math.pi) * (oracles.SQRT_2_OVER_PI / eps - 1.0 / a)

    def judge(out, fmt):
        cols, rows = oracles.parse_table(out, fmt)
        if len(rows) != 1:
            return [f"{len(rows)} rows, expected 1"]
        r = {c: float(v) for c, v in zip(cols, rows[0])}
        if sub == "params":
            return oracles.check_two_channel_params(a, rstar, eps, r["lambda"], r["emol"],
                                                    r["a_eps"], r["rstar_eps"])
        fails = oracles.check_two_channel_state(a, lam, e_mol, eps, r["E"], r["beta2"],
                                                r["open_norm"], math.sqrt(r["A2_tail"]))
        if abs(r["norm_residual"] - abs(r["open_norm"] + r["beta2"] - 1.0)) > 1e-15:
            fails.append(f"norm_residual {r['norm_residual']!r}")
        return fails
    return judge


def _tc_sweep_judge(a, rstar, grid):
    lam = math.sqrt(2.0 * math.pi / rstar)

    def judge(out, fmt):
        cols, rows = oracles.parse_table(out, fmt)
        if len(rows) != len(grid):
            return [f"{len(rows)} rows, expected {len(grid)}"]
        fails = []
        for row, eps_ref in zip(rows, grid):
            r = {c: float(v) for c, v in zip(cols, row)}
            eps = r["eps"]
            if abs(eps - eps_ref) > 1e-13 * eps_ref:
                fails.append(f"eps {eps!r} vs grid {eps_ref!r}")
            e_mol = lam**2 / (2.0 * math.pi) * (oracles.SQRT_2_OVER_PI / eps - 1.0 / a)
            fails += oracles.check_two_channel_params(a, rstar, eps, lam, e_mol,
                                                      r["a_eps"], r["rstar_eps"])
            # The sweep prints no open_norm, so its sum rule goes unchecked.
            fails += oracles.check_two_channel_state(a, lam, e_mol, eps, r["E_bound"], r["beta2"],
                                                     None, math.sqrt(r["A2_tail"]),
                                                     residual_beta=r["res_identity"])
        return fails
    return judge


# ---------------------------------------------------------------- sweep-table


class SweepTable:
    """Large in-process sweeps written with ``--out``.

    Six kinds in rotation, the polynomial degree of the amplitude sweeps
    cycling through 1-4, so every run has the same mix whatever its seed.
    """

    name = "sweep-table"
    # p75 of 38 to 45 operations; ten samples beyond from 40 operations on.
    TAIL_PERCENTILE = 75.0
    kinds = ("amplitude-linear", "amplitude-log", "phase-shift-linear", "phase-shift-log",
             "feshbach-natural", "feshbach-si")

    def __init__(self, seed, root, workdir):
        from resokit import cli

        self.cli = cli
        self.rng = np.random.default_rng(seed)
        self.species = make_species(self.rng)
        self.species_path = os.path.join(workdir, "species.csv")
        write_species(self.species, self.species_path)
        self.out_path = os.path.join(workdir, "sweep.csv")
        self.count = 0

    def warmup(self):
        rng = np.random.default_rng(1)
        for kind in self.kinds:
            op = self._make(kind, rng, 200, 4)
            op.check(op.run(), None)

    def rewind(self):
        """Restart the kind rotation (the traced phase starts here)."""
        self.count = 0

    def next_op(self) -> Op:
        n = len(self.kinds)
        kind = self.kinds[self.count % n]
        degree = 1 + (self.count // n) % 4
        self.count += 1
        steps = FIELD_SWEEP_STEPS if kind.startswith("feshbach") else SWEEP_STEPS
        return self._make(kind, self.rng, steps, degree)

    def _make(self, kind, rng, steps, degree) -> Op:
        out = self.out_path
        if kind.startswith("feshbach"):
            mode = kind.split("-")[1]
            index = int(rng.integers(N_SPECIES))
            lo, hi = field_grid(self.species[index], mode, steps)
            args = ["feshbach", "sweep", "--species", self.species_path, "--index", str(index),
                    "--min", repr(lo), "--max", repr(hi), "--steps", str(steps),
                    "--units", mode, "--out", out]
            grid = oracles.sweep_grid(lo, hi, steps, False)
            header = "B,a"

            def judge(table):
                return oracles.check_field_rows(self.species[index], mode, grid, list(table.T))
        else:
            coeffs = random_coeffs(rng, degree, min_degree=degree)
            log = kind.endswith("log")
            lo, hi = _loguniform(rng, 1e-3, 0.1), _loguniform(rng, 1.0, 100.0)
            identical = bool(rng.integers(2))
            args = [kind.rsplit("-", 1)[0], _coeff_arg(coeffs), "--min", repr(lo), "--max", repr(hi),
                    "--steps", str(steps), "--out", out] + (["--log"] if log else []) + (
                        ["--identical"] if identical else [])
            grid = oracles.sweep_grid(lo, hi, steps, log)
            header = "k,E,Re_f,Im_f,delta,sigma"

            def judge(table):
                return oracles.check_amplitude_rows(coeffs, grid, list(table.T), identical)

        def run():
            return self.cli.main(args)

        def check(rc, error):
            if error is not None:
                return _unexpected(error)
            if rc != oracles.EXIT_OK:
                return [f"exit code {rc}"]
            return check_table_file(out, header, judge)

        return Op(kind, run, check, lambda rc: steps)


def check_table_file(path, header, judge):
    """Header line and numeric rows of a sweep file, judged row by row."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        try:
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return [f"unparseable row: {exc}"]
    if first != header:
        return [f"header {first!r}, expected {header!r}"]
    return judge(table)


# ---------------------------------------------------------------- resonance-scan


class ResonanceScan:
    """Alternating one-channel and two-channel library operations."""

    name = "resonance-scan"
    # p99.5 of 4300 to 6000 operations; ten samples beyond from 2000 on.
    TAIL_PERCENTILE = 99.5

    def __init__(self, seed, root, workdir):
        from resokit import bound, product, twochannel
        from resokit.contact import PhaseShiftModel
        from resokit.errors import NoBoundState, ResokitError, RootAtGridBoundary

        self.bound, self.product, self.twochannel = bound, product, twochannel
        self.model_cls = PhaseShiftModel
        self.no_bound_state = NoBoundState
        self.resokit_error = ResokitError
        # Edge-of-window warnings are diagnostics; the oracle treats roots
        # near the window edges as optional either way.
        warnings.simplefilter("ignore", RootAtGridBoundary)
        self.rng = np.random.default_rng(seed)
        self.count = 0

    def warmup(self):
        rng = np.random.default_rng(2)
        for i in range(20):
            op = self._one_channel(rng) if i % 2 == 0 else self._two_channel(rng)
            try:
                op.run()
            except self.resokit_error:  # warm-up only fills caches; failures are counted later
                pass

    def rewind(self):
        """Restart the kind rotation (the traced phase starts here)."""
        self.count = 0

    def next_op(self) -> Op:
        self.count += 1
        return self._one_channel(self.rng) if self.count % 2 else self._two_channel(self.rng)

    def _one_channel(self, rng) -> Op:
        bound, product = self.bound, self.product
        q_max = _loguniform(rng, 10.0, 1e4)
        expected = None
        if rng.random() < CLOSE_PAIR_SHARE:
            q1 = _loguniform(rng, 0.1, 10.0)
            q2 = q1 * (1.0 + _loguniform(rng, 1e-4, 1e-2))
            model = product.construct_two_pole_model(q1, q2)
            expected = [q1, q2]
            kind = "close-pair"
        else:
            model = self.model_cls(tuple(random_coeffs(rng, 6)))
            kind = "polynomial"
        coeffs = list(model.coeffs)

        def run():
            states = bound.find_bound_states(model, q_max=q_max)
            residuals = [bound.modified_norm_check(model, s) for s in states]
            eig = [product.ContactEigenstate.bound(s.energy, 1.0) for s in states]
            products = []
            for i in range(len(eig)):
                for j in range(i + 1, len(eig)):
                    plain = product.plain_overlap_bound(eig[i], eig[j])
                    products.append((plain.real, product.modified_product(model, eig[i], eig[j], plain)))
            return states, residuals, products

        def check(result, error):
            if error is not None:
                return _unexpected(error)
            states, residuals, products = result
            return oracles.check_one_channel(
                coeffs, bound.Q_MIN_DEFAULT, q_max,
                [(s.q, s.energy, s.a2, s.norm_sign) for s in states],
                residuals, products, expected_poles=expected)

        def defect(fails, result, error):
            return "grid-scan-drops-close-pair" if oracles.close_pair_only(fails) else None

        return Op(kind, run, check, lambda r: len(r[0]), defect)

    def _two_channel(self, rng) -> Op:
        tc, no_bound_state = self.twochannel, self.no_bound_state
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 30.0))
        rstar = float(rng.uniform(0.1, 10.0))
        eps = _loguniform(rng, 1e-3, 0.5)

        def run():
            p = tc.params_for_targets(a, rstar, eps)
            a_eps, r_eps = tc.effective_params(p)
            try:
                state = tc.bound_state(p)
            except no_bound_state as exc:
                return p, a_eps, r_eps, exc, None
            return p, a_eps, r_eps, state, tc.product_identity_check(p, state, state)

        def check(result, error):
            if error is not None:
                return _unexpected(error)
            p, a_eps, r_eps, state, report = result
            fails = oracles.check_two_channel_params(a, rstar, eps, p.lam, p.e_mol, a_eps, r_eps)
            if a < 0.0:
                if not isinstance(state, no_bound_state):
                    fails.append(f"a={a!r} < 0 returned a bound state, expected NoBoundState")
                return fails
            if isinstance(state, BaseException):
                return fails + [f"a={a!r} > 0 raised {type(state).__name__}: {state}"]
            return fails + oracles.check_two_channel_state(
                a, p.lam, p.e_mol, eps, state.energy, state.beta2, state.open_norm,
                state.a_tail, report.residual_exact, report.residual_beta)

        def defect(fails, result, error):
            if type(error).__name__ == "InconsistentExpansion" and \
                    oracles.cross_check_false_alarm(str(error), a, rstar, [eps]):
                return "effective-params-false-alarm"
            if oracles.norm_quadrature_drift(fails):
                return "norm-quadrature-drift"
            return None

        return Op("two-channel", run, check, lambda r: 1, defect)


# ---------------------------------------------------------------- verify-battery


class VerifyBattery:
    """One operation is one full verification battery with a seeded seed."""

    name = "verify-battery"
    # p60 of 23 to 35 operations; ten samples beyond from 25 operations on.
    TAIL_PERCENTILE = 60.0

    def __init__(self, seed, root, workdir):
        from resokit import verify

        self.verify = verify
        self.rng = np.random.default_rng(seed)

    def warmup(self):
        self.verify.run_battery("all", 1)

    def rewind(self):
        """Every operation is the same kind; nothing to restart."""

    def next_op(self) -> Op:
        battery_seed = int(self.rng.integers(0, 2**31))

        def run():
            return self.verify.run_battery("all", battery_seed)

        def check(results, error):
            if error is not None:
                return _unexpected(error)
            names = [r.name for r in results]
            fails = []
            if names != list(BATTERY_NAMES):
                fails.append(f"checks {names}, expected {list(BATTERY_NAMES)}")
            fails += [f"FAIL {r.name} (seed {battery_seed}): worst {r.worst!r} vs tol "
                      f"{r.tolerance!r}; {r.detail}" for r in results if not r.passed]
            return fails

        def defect(fails, results, error):
            if error is None and all(f.startswith("FAIL series-quotient ") for f in fails):
                return "series-quotient-breach"
            return None

        return Op("battery", run, check, len, defect)


WORKLOADS = {w.name: w for w in (CliOneshot, SweepTable, ResonanceScan, VerifyBattery)}
