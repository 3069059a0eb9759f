"""Command-line interface: observables, sweeps, species files, verification.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 verification
residual breach. Output is CSV (17 significant digits) or a JSON run report,
to stdout or ``--out``. A plain ``key = value`` config file can preset any
flag; explicit flags win. The config path comes from ``--config`` or the
``RESOKIT_CONFIG`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, bound, scattering
from .contact import PhaseShiftModel, parse_model_literal
from .errors import (
    DegenerateResonance,
    DivergentAmplitude,
    InvalidInput,
    KindMismatch,
    NoBoundState,
    ParameterMismatch,
    ParseError,
    PoleAtResonance,
    PoleHit,
    ResokitError,
    SingularSystem,
    UnitError,
)
from .species import load_species
from .units import classify_resonance, scattering_length_of_field, vdw_length, width_radius

INPUT_ERRORS = (
    InvalidInput,
    PoleAtResonance,
    DegenerateResonance,
    KindMismatch,
    SingularSystem,
    ParameterMismatch,
    ParseError,
    UnitError,
)
NUMERICAL_ERRORS = (DivergentAmplitude, NoBoundState, PoleHit)

# The verify subcommand's groups and default seed, kept here so that parsing
# a command line does not import the battery (and with it scipy); a test
# pins them to resokit.verify.
VERIFY_GROUPS = ("all", "identity", "mapping", "orthogonality", "unitarity")
VERIFY_DEFAULT_SEED = 20260810

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def fmt(value) -> str:
    """Locale-independent decimal with 17 significant digits."""
    return format(float(value), ".17g")


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for one sweep variable."""

    variable: str
    minimum: float
    maximum: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        if not self.minimum < self.maximum:
            raise InvalidInput("sweep needs min < max")
        if self.steps < 2:
            raise InvalidInput("sweep needs at least 2 steps")
        if self.scale not in ("linear", "log"):
            raise InvalidInput(f"unknown sweep scale {self.scale!r}")
        if self.scale == "log" and self.minimum <= 0.0:
            raise InvalidInput("log sweep needs min > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.minimum, self.maximum, self.steps)
        return np.linspace(self.minimum, self.maximum, self.steps)


@dataclass
class RunReport:
    """Reproducible record of one CLI invocation."""

    command: str
    inputs: dict
    outputs: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    version: str = __version__
    timestamp: str = ""

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "residuals": self.residuals,
            "version": self.version,
            "timestamp": self.timestamp or datetime.now(timezone.utc).isoformat(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _write_output(args, columns, rows, report: RunReport) -> None:
    if args.format == "json":
        report.outputs = [dict(zip(columns, [fmt(v) if _is_number(v) else v for v in row])) for row in rows]
        text = report.to_json() + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(fmt(v) if _is_number(v) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    _emit(args, text)


def _emit(args, text: str) -> None:
    """Write a command's whole output to ``--out`` or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _is_number(v) -> bool:
    return isinstance(v, (int, float, np.floating)) and not isinstance(v, bool)


def _model_from_args(args) -> PhaseShiftModel:
    if args.coeffs:
        try:
            coeffs = tuple(float(c) for c in args.coeffs.split(","))
        except ValueError as exc:
            raise InvalidInput(f"bad --coeffs: {exc}") from None
        return PhaseShiftModel(coeffs)
    if args.a is None:
        raise InvalidInput("need --a (with optional --rstar) or --coeffs")
    return PhaseShiftModel.from_effective_range(args.a, args.rstar or 0.0)


def _sweep_or_single(args, variable: str, single_value) -> np.ndarray:
    if single_value is not None:
        return np.array([single_value], dtype=float)
    if args.min is None or args.max is None:
        raise InvalidInput(f"need --{variable} or a sweep (--min --max --steps)")
    spec = SweepSpec(
        variable=variable,
        minimum=args.min,
        maximum=args.max,
        steps=args.steps,
        scale="log" if args.log else "linear",
    )
    return spec.values()


def _cmd_amplitude(args) -> int:
    model = _model_from_args(args)
    ks = _sweep_or_single(args, "k", args.k)
    columns = ["k", "E", "Re_f", "Im_f", "delta", "sigma"]
    rows = []
    for k in ks:
        point = scattering.evaluate_point(model, float(k))
        sigma = (
            scattering.cross_section(model, float(k), identical=args.identical)
            if k > 0.0
            else math.nan
        )
        rows.append([point.k, point.energy, point.f.real, point.f.imag, point.delta, sigma])
    inputs = {"coeffs": list(model.coeffs), "identical": args.identical}
    if args.k is not None:
        inputs["k"] = args.k
    else:
        inputs.update(
            {"min": args.min, "max": args.max, "steps": args.steps, "log": args.log}
        )
    report = RunReport(command=args.command, inputs=inputs)
    _write_output(args, columns, rows, report)
    return EXIT_OK


def _cmd_bound_state(args) -> int:
    model = _model_from_args(args)
    states = bound.find_bound_states(model, q_max=args.qmax)
    columns = ["q", "E", "A2", "norm_sign"]
    rows = [[s.q, s.energy, s.a2, s.norm_sign] for s in states]
    report = RunReport(
        command=args.command,
        inputs={"coeffs": list(model.coeffs), "qmax": args.qmax},
    )
    _write_output(args, columns, rows, report)
    return EXIT_OK


def _cmd_modified_norm(args) -> int:
    model = _model_from_args(args)
    states = bound.find_bound_states(model, q_max=args.qmax)
    columns = ["q", "E", "A2", "norm_sign", "residual"]
    rows = []
    residuals = {}
    for s in states:
        res = bound.modified_norm_check(model, s)
        rows.append([s.q, s.energy, s.a2, s.norm_sign, res])
        residuals[f"q={fmt(s.q)}"] = fmt(res)
    report = RunReport(
        command=args.command,
        inputs={"coeffs": list(model.coeffs), "qmax": args.qmax},
        residuals=residuals,
    )
    _write_output(args, columns, rows, report)
    return EXIT_OK


def _params_from_args(args):
    from . import twochannel

    if args.lam is not None:
        if args.emol is None:
            raise InvalidInput("need --emol together with --lambda")
        return twochannel.TwoChannelParams(
            lam=args.lam, e_mol=args.emol, eps=args.eps, mass=args.mass
        )
    if args.a is None or args.rstar is None:
        raise InvalidInput("need either --lambda/--emol or --a/--rstar targets")
    return twochannel.params_for_targets(args.a, args.rstar, args.eps, args.mass)


def _cmd_two_channel(args) -> int:
    from . import twochannel

    if args.tc_command == "params":
        p = _params_from_args(args)
        a_eps, rstar_eps = twochannel.effective_params(p)
        columns = ["eps", "lambda", "emol", "a_eps", "rstar_eps"]
        rows = [[p.eps, p.lam, p.e_mol, a_eps, rstar_eps]]
        report = RunReport(command="two-channel params", inputs=_echo_params(p))
        _write_output(args, columns, rows, report)
        return EXIT_OK
    if args.tc_command == "bound":
        p = _params_from_args(args)
        state = twochannel.bound_state(p)
        norm_residual = abs(state.open_norm + state.beta2 - 1.0)
        columns = ["E", "beta2", "A2_tail", "open_norm", "norm_residual"]
        rows = [[state.energy, state.beta2, state.a_tail**2, state.open_norm, norm_residual]]
        report = RunReport(
            command="two-channel bound",
            inputs=_echo_params(p),
            residuals={"norm": fmt(norm_residual)},
        )
        _write_output(args, columns, rows, report)
        return EXIT_OK
    # eps sweep holding (a, rstar) fixed
    if args.a is None or args.rstar is None:
        raise InvalidInput("two-channel sweep needs --a and --rstar targets")
    if args.min is None or args.max is None:
        raise InvalidInput("two-channel sweep needs --min --max --steps")
    spec = SweepSpec(
        variable="eps",
        minimum=args.min,
        maximum=args.max,
        steps=args.steps,
        scale="log" if args.log else "linear",
    )
    columns = ["eps", "a_eps", "rstar_eps", "E_bound", "beta2", "A2_tail", "res_identity"]
    rows = []
    for eps in spec.values():
        p = twochannel.params_for_targets(args.a, args.rstar, float(eps), args.mass)
        a_eps, rstar_eps = twochannel.effective_params(p)
        state = twochannel.bound_state(p)
        report_id = twochannel.product_identity_check(p, state, state)
        rows.append([
            eps, a_eps, rstar_eps, state.energy, state.beta2,
            state.a_tail**2, report_id.residual_beta,
        ])
    report = RunReport(
        command="two-channel sweep",
        inputs={"a": args.a, "rstar": args.rstar, "mass": args.mass},
    )
    _write_output(args, columns, rows, report)
    return EXIT_OK


def _echo_params(p) -> dict:
    return {"lambda": p.lam, "emol": p.e_mol, "eps": p.eps, "mass": p.mass}


def _cmd_feshbach(args) -> int:
    rows_in = load_species(args.species, mode=args.units)
    if args.fb_command == "classify":
        columns = ["species", "Rstar", "RvdW", "ratio", "class"]
        rows = []
        for res in rows_in:
            rstar = width_radius(res)
            rvdw = vdw_length(res)
            rows.append([
                res.species, rstar, rvdw, abs(rstar) / rvdw,
                classify_resonance(res, threshold=args.threshold),
            ])
        report = RunReport(
            command="feshbach classify",
            inputs={"species_file": args.species, "units": args.units,
                    "threshold": args.threshold},
        )
        _write_output(args, columns, rows, report)
        return EXIT_OK
    # field sweep for one species
    index = args.index
    if not 0 <= index < len(rows_in):
        raise InvalidInput(f"species index {index} out of range (file has {len(rows_in)})")
    res = rows_in[index]
    if args.min is None or args.max is None:
        raise InvalidInput("feshbach sweep needs --min --max --steps")
    spec = SweepSpec(
        variable="B",
        minimum=args.min,
        maximum=args.max,
        steps=args.steps,
        scale="log" if args.log else "linear",
    )
    columns = ["B", "a"]
    rows = []
    for b in spec.values():
        rows.append([b, scattering_length_of_field(res, float(b))])
    report = RunReport(
        command="feshbach sweep",
        inputs={"species_file": args.species, "units": args.units,
                "species": res.species, "min": args.min, "max": args.max,
                "steps": args.steps, "log": args.log},
    )
    _write_output(args, columns, rows, report)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_battery(group=args.group, seed=args.seed)
    if args.format == "json":
        report = RunReport(
            command=f"verify {args.group}",
            inputs={"seed": args.seed},
            residuals={
                r.name: {"worst": fmt(r.worst), "tolerance": fmt(r.tolerance),
                         "passed": r.passed}
                for r in results
            },
        )
        report.outputs = [
            {"name": r.name, "passed": r.passed, "worst": fmt(r.worst)}
            | ({"cases": r.cases} if r.cases else {})
            for r in results
        ]
        text = report.to_json() + "\n"
    else:
        text = "".join(r.line() + "\n" for r in results)
    _emit(args, text)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def _add_model_flags(parser) -> None:
    parser.add_argument("--a", type=float, help="scattering length")
    parser.add_argument("--rstar", type=float, help="width radius R*")
    parser.add_argument("--coeffs", help="comma-separated c0,c1,... of g(E)")


def _add_output_flags(parser) -> None:
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_sweep_flags(parser) -> None:
    parser.add_argument("--min", type=float, help="sweep lower bound")
    parser.add_argument("--max", type=float, help="sweep upper bound")
    parser.add_argument("--steps", type=int, default=50, help="sweep point count")
    parser.add_argument("--log", action="store_true", help="log-spaced sweep grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resokit",
        description="Zero-range scattering models: one-channel phase functions "
        "and the Gaussian-regularized two-channel resonance model.",
    )
    parser.add_argument("--version", action="version", version=f"resokit {__version__}")
    parser.add_argument("--config", help="key = value config file presetting flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p_amp = sub.add_parser("amplitude", help="scattering amplitude sweep")
    _add_model_flags(p_amp)
    p_amp.add_argument("--k", type=float, help="single wavenumber")
    p_amp.add_argument("--identical", action="store_true",
                       help="identical-boson cross section (8 pi |f|^2)")
    _add_sweep_flags(p_amp)
    _add_output_flags(p_amp)
    p_amp.set_defaults(handler=_cmd_amplitude)

    p_ph = sub.add_parser("phase-shift", help="phase shift sweep (same table)")
    _add_model_flags(p_ph)
    p_ph.add_argument("--k", type=float, help="single wavenumber")
    p_ph.add_argument("--identical", action="store_true")
    _add_sweep_flags(p_ph)
    _add_output_flags(p_ph)
    p_ph.set_defaults(handler=_cmd_amplitude)

    p_bs = sub.add_parser("bound-state", help="bound-state poles of a model")
    _add_model_flags(p_bs)
    p_bs.add_argument("--qmax", type=float, default=100.0,
                      help="upper edge of the decay-constant window")
    _add_output_flags(p_bs)
    p_bs.set_defaults(handler=_cmd_bound_state)

    p_mn = sub.add_parser("modified-norm", help="modified-norm residual per state")
    _add_model_flags(p_mn)
    p_mn.add_argument("--qmax", type=float, default=100.0)
    _add_output_flags(p_mn)
    p_mn.set_defaults(handler=_cmd_modified_norm)

    p_tc = sub.add_parser("two-channel", help="two-channel resonance model")
    tc_sub = p_tc.add_subparsers(dest="tc_command", required=True)
    for name, help_text in (
        ("params", "effective low-energy parameters"),
        ("bound", "dressed molecular state"),
        ("sweep", "regulator-width sweep at fixed (a, R*)"),
    ):
        q = tc_sub.add_parser(name, help=help_text)
        q.add_argument("--eps", type=float, default=0.1, help="regulator width")
        q.add_argument("--lambda", dest="lam", type=float, help="coupling amplitude")
        q.add_argument("--emol", type=float, help="molecular energy")
        q.add_argument("--mass", type=float, default=1.0, help="atom mass")
        q.add_argument("--a", type=float, help="target scattering length")
        q.add_argument("--rstar", type=float, help="target width radius")
        _add_sweep_flags(q)
        _add_output_flags(q)
        q.set_defaults(handler=_cmd_two_channel)

    p_fb = sub.add_parser("feshbach", help="magnetic resonance data")
    fb_sub = p_fb.add_subparsers(dest="fb_command", required=True)
    q = fb_sub.add_parser("sweep", help="a(B) sweep for one species")
    q.add_argument("--species", required=True, help="species CSV file")
    q.add_argument("--index", type=int, default=0, help="row index in the file")
    _add_sweep_flags(q)
    q = fb_sub.add_parser("classify", help="broad/narrow classification")
    q.add_argument("--species", required=True, help="species CSV file")
    q.add_argument("--threshold", type=float, default=1.0,
                   help="|R*|/R_vdW boundary between broad and narrow")
    for q in fb_sub.choices.values():
        q.add_argument("--units", choices=("natural", "si", "atomic"),
                       default="natural", help="unit system of the loaded values")
        _add_output_flags(q)
        q.set_defaults(handler=_cmd_feshbach)

    p_v = sub.add_parser("verify", help="run the verification battery")
    p_v.add_argument("group", choices=VERIFY_GROUPS,
                     help="which battery group to run")
    p_v.add_argument("--seed", type=int, default=VERIFY_DEFAULT_SEED)
    _add_output_flags(p_v)
    p_v.set_defaults(handler=_cmd_verify)

    return parser


def _load_config(path: str) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {raw.strip()!r}",
                                 line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            mapping[key] = value
    return mapping


_CONFIG_FLOAT_KEYS = {
    "a", "rstar", "eps", "emol", "mass", "min", "max", "k", "qmax", "threshold",
}
_CONFIG_INT_KEYS = {"steps", "seed", "index"}
_CONFIG_BOOL_KEYS = {"log", "identical"}
_CONFIG_KEY_DESTS = {"lambda": "lam"}


def _iter_parsers(parser: argparse.ArgumentParser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _iter_parsers(sub)


def _apply_config(parser: argparse.ArgumentParser, mapping: dict) -> None:
    defaults = {}
    for key, value in mapping.items():
        dest = _CONFIG_KEY_DESTS.get(key, key)
        if key == "g":
            defaults["coeffs"] = ",".join(
                str(c) for c in parse_model_literal(f"g = {value}").coeffs
            )
        elif key in _CONFIG_FLOAT_KEYS or dest == "lam":
            defaults[dest] = float(value)
        elif key in _CONFIG_INT_KEYS:
            defaults[dest] = int(value)
        elif key in _CONFIG_BOOL_KEYS:
            defaults[dest] = value.lower() in ("1", "true", "yes", "on")
        else:
            defaults[dest] = value
    # Subcommands parse into a fresh namespace, so every subparser needs the
    # defaults, not just the root parser.
    for p in _iter_parsers(parser):
        p.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()

    # --config may appear anywhere on the line; strip it before parsing so
    # subcommands do not have to declare it themselves.
    config_path = os.environ.get("RESOKIT_CONFIG")
    cleaned = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--config":
            if i + 1 >= len(argv):
                parser.error("--config needs a path")
            config_path = argv[i + 1]
            i += 2
            continue
        if token.startswith("--config="):
            config_path = token.split("=", 1)[1]
            i += 1
            continue
        cleaned.append(token)
        i += 1
    argv = cleaned
    if config_path:
        try:
            _apply_config(parser, _load_config(config_path))
        except (OSError, ResokitError, ValueError) as exc:
            print(f"resokit: config error: {exc}", file=sys.stderr)
            return EXIT_INPUT

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except INPUT_ERRORS as exc:
        print(f"resokit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NUMERICAL_ERRORS as exc:
        print(f"resokit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"resokit: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
