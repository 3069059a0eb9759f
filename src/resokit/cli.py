"""Command-line interface: observables, sweeps, species files, verification.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 verification
residual breach. Output is CSV (17 significant digits) or a JSON run report,
to stdout or ``--out``. A plain ``key = value`` config file can preset any
subcommand flag (key = the flag without its dashes), typed and checked by
that flag's own argparse action; explicit flags win. The config path comes
from ``--config`` or the ``RESOKIT_CONFIG`` environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from itertools import chain

from . import __version__
from .contact import PhaseShiftModel
from .errors import (
    DivergentAmplitude,
    InvalidInput,
    NoBoundState,
    NoConvergence,
    ParseError,
    ResokitError,
)

# Every other ResokitError is an input error.
NUMERICAL_ERRORS = (DivergentAmplitude, NoBoundState, NoConvergence)

# The verify subcommand's groups and default seed, kept here so that parsing
# a command line does not import the battery; a test pins them to
# resokit.verify.
VERIFY_GROUPS = ("all", "identity", "mapping", "orthogonality", "unitarity")
VERIFY_DEFAULT_SEED = 20260810

# Config values of a switch flag (--log, --identical); any other is an error.
SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

# Rows per written block of an output table: only one block at a time is
# held as Python floats and text.
BLOCK_ROWS = 4096

# Points of a sweep grid without --steps.
SWEEP_STEPS = 50


def fmt(value) -> str:
    """Locale-independent decimal with 17 significant digits."""
    return format(float(value), ".17g")


def _utc_timestamp(ns: int) -> str:
    """``datetime.isoformat`` of ``ns`` nanoseconds past the epoch in UTC, with no datetime import.

    YYYY-MM-DDTHH:MM:SS.ffffff+00:00, the microseconds rounded down and
    left out where they are 0.
    """
    seconds, micro = divmod(ns // 1000, 1_000_000)
    fraction = f".{micro:06d}" if micro else ""
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + fraction + "+00:00"


def _report(command: str, inputs: dict, outputs: list, residuals: dict) -> str:
    """Reproducible JSON record of one CLI invocation, newline-terminated."""
    import json

    payload = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "residuals": residuals,
        "version": __version__,
        "timestamp": _utc_timestamp(time.time_ns()),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_output(args, command: str, table: dict, inputs: dict, residuals=None) -> None:
    """Write ``table`` (column name -> values) as CSV or as the JSON report.

    A column is a list or a numeric array. Rows go through one ``%`` template
    and are written in blocks of ``BLOCK_ROWS``: numbers with 17 significant
    digits, text (str) as csv.writer quotes it in CSV and as a JSON string
    in the report.
    The report is the text ``json.dumps(indent=2, sort_keys=True)`` writes
    for rows of strings, its rows spliced into the envelope ``_report``
    writes with no rows.
    """
    names = list(table)
    columns = list(table.values())
    texts = [len(column) > 0 and isinstance(column[0], str) for column in columns]
    count = len(columns[0]) if columns else 0
    if args.format == "json":
        from json.encoder import encode_basestring_ascii as quote

        order = sorted(range(len(names)), key=names.__getitem__)
        fields = ["\n      %s: %s" % (quote(names[i]).replace("%", "%%"),
                                       "%s" if texts[i] else '"%.17g"') for i in order]
        head, _, tail = _report(command, inputs, [], residuals or {}).partition(
            '\n  "outputs": []')
        template = "\n    {" + ",".join(fields) + "\n    }"
        rows = _rows([columns[i] for i in order], count, template, ",",
                     [quote if texts[i] else None for i in order])
        chunks = chain([head, '\n  "outputs": ['], rows, ["\n  ]" if count else "]", tail])
    else:
        template = ",".join("%s" if text else "%.17g" for text in texts) + "\n"
        chunks = chain([",".join(names) + "\n"], _rows(
            columns, count, template, "", [_csv_text if text else None for text in texts]))
    _emit(args, chunks)


def _csv_text(text: str) -> str:
    """``text`` as csv.writer writes it: quoted, '"' doubled, if it holds ',', '"', CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _rows(columns, count: int, template: str, sep: str, escapes):
    """Text of the ``count`` rows of ``columns`` through ``template``, joined by ``sep``.

    Yields one string per block of ``BLOCK_ROWS`` rows; a block's cells become
    Python objects only when its turn comes, passed through its column's
    ``escapes`` entry where that is not None.
    """
    for start in range(0, count, BLOCK_ROWS):
        cells = []
        for column, escape in zip(columns, escapes):
            block = column[start:start + BLOCK_ROWS]
            block = block.tolist() if hasattr(block, "tolist") else block
            cells.append(block if escape is None else map(escape, block))
        yield (sep if start else "") + sep.join(map(template.__mod__, zip(*cells)))


def _table(columns, rows) -> dict:
    """Column name -> values of a table built row by row."""
    return {name: [row[i] for row in rows] for i, name in enumerate(columns)}


def _emit(args, chunks) -> None:
    """Write a command's output, an iterable of strings, to ``--out`` or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _linspace(lo: float, hi: float, n: int) -> list:
    """numpy.linspace(lo, hi, n) for n >= 2 as a list, by its arithmetic.

    Point i is i * step + lo and the last point is hi; a step that underflows
    to 0 (a subnormal span) takes numpy's i / (n - 1) * (hi - lo) + lo.
    """
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    points[-1] = hi
    return points


def _exp10(x: float) -> float:
    """10.0 ** x by the C library's pow; a point past the float range is an input error."""
    try:
        return 10.0 ** x
    except OverflowError:
        raise InvalidInput(f"log sweep point 10 ** {x!r} leaves the float range") from None


def _grid(args, what: str):
    """The --min/--max/--steps/--log sweep grid; ``what`` names the sweep in errors.

    A log grid is min, then 10.0 ** x (the C library's pow) over the inner
    points of the linear grid of math.log10(min) .. math.log10(max), then
    max, so its bits depend on the C library, not on the CPU. A grid of at
    most ``BLOCK_ROWS`` points is a list of floats, for the scalar
    expressions; a longer one is a float array with the same points.
    """
    if args.min is None or args.max is None:
        raise InvalidInput(f"{what} needs --min --max --steps")
    # written so that a NaN bound fails too
    if not args.min < args.max:
        raise InvalidInput("sweep needs min < max")
    # an infinite bound, or finite ones whose distance overflows, yields
    # non-finite grid points
    if not math.isfinite(args.max - args.min):
        raise InvalidInput("sweep needs finite bounds with a finite max - min")
    if args.steps is None:  # left unset so that --k can tell a given --steps
        args.steps = SWEEP_STEPS
    if args.steps < 2:
        raise InvalidInput("sweep needs at least 2 steps")
    if args.log and args.min <= 0.0:
        raise InvalidInput("log sweep needs min > 0")
    lo, hi, n = args.min, args.max, args.steps
    if args.log:
        lo, hi = math.log10(lo), math.log10(hi)
    if n <= BLOCK_ROWS:
        grid = _linspace(lo, hi, n)
        if args.log:
            grid = [args.min, *map(_exp10, grid[1:-1]), args.max]
        return grid
    import numpy as np

    try:
        grid = np.linspace(lo, hi, n)  # the bits of _linspace
    except (ValueError, MemoryError) as exc:
        # numpy refuses a point count beyond its array size limit, or one
        # whose array cannot be allocated
        raise InvalidInput(f"sweep has too many steps: {exc}") from None
    if args.log:
        inner = map(_exp10, grid[1:-1].tolist())
        grid = np.fromiter(chain((args.min,), inner, (args.max,)), float, n)
    return grid


def _coeffs_model(text: str, what: str) -> PhaseShiftModel:
    """The model of comma-separated coefficients c0,c1,...; ``what`` names ``text`` in errors."""
    try:
        coeffs = tuple(map(float, text.split(",")))
    except ValueError as exc:
        raise InvalidInput(f"bad {what}: {exc}") from None
    return PhaseShiftModel(coeffs)


def _model_from_args(args) -> PhaseShiftModel:
    if args.coeffs:
        if args.a is not None or args.rstar is not None:
            raise InvalidInput("give either --coeffs or --a/--rstar, not both")
        return _coeffs_model(args.coeffs, "--coeffs")
    if args.a is None:
        raise InvalidInput("need --a (with optional --rstar) or --coeffs")
    return PhaseShiftModel.from_effective_range(args.a, args.rstar or 0.0)


def _cmd_amplitude(args) -> int:
    from . import scattering

    model = _model_from_args(args)
    inputs = {"coeffs": list(model.coeffs), "identical": args.identical}
    if args.k is None:
        ks = _grid(args, "a table without --k")
        inputs.update(min=args.min, max=args.max, steps=args.steps, log=args.log)
    elif args.min is not None or args.max is not None or args.steps is not None or args.log:
        raise InvalidInput("give either --k or a sweep (--min --max --steps --log), not both")
    else:
        ks = [args.k]
        inputs["k"] = args.k
    names = ("k", "E", "Re_f", "Im_f", "delta", "sigma")
    # delta and sigma are defined for k > 0 only; threshold rows read nan
    if isinstance(ks, list):
        rows = []
        for k in ks:
            f = scattering.amplitude(model, k)
            delta = sigma = math.nan
            if k > 0.0:
                delta = scattering.phase_shift(model, k)
                sigma = scattering.cross_section(model, k, identical=args.identical)
            rows.append((k, scattering.energy(k), f.real, f.imag, delta, sigma))
        table = _table(names, rows)
    else:
        import numpy as np

        f = scattering.amplitude(model, ks)
        above = ks > 0.0
        delta = np.full_like(ks, math.nan)
        delta[above] = scattering.phase_shift(model, ks[above])
        sigma = np.full_like(ks, math.nan)
        sigma[above] = scattering.cross_section(model, ks[above], identical=args.identical)
        table = dict(zip(names, (ks, scattering.energy(ks), f.real, f.imag, delta, sigma)))
    _write_output(args, args.command, table, inputs)
    return EXIT_OK


def _cmd_bound_state(args) -> int:
    from . import bound

    model = _model_from_args(args)
    states = bound.find_bound_states(model, q_max=args.qmax)
    columns = ["q", "E", "A2", "norm_sign"]
    rows = [[s.q, s.energy, s.a2, s.norm_sign] for s in states]
    inputs = {"coeffs": list(model.coeffs), "qmax": args.qmax}
    _write_output(args, args.command, _table(columns, rows), inputs)
    return EXIT_OK


def _cmd_modified_norm(args) -> int:
    from . import bound

    model = _model_from_args(args)
    states = bound.find_bound_states(model, q_max=args.qmax)
    columns = ["q", "E", "A2", "norm_sign", "residual"]
    rows = []
    residuals = {}
    for s in states:
        res = bound.modified_norm_check(model, s)
        rows.append([s.q, s.energy, s.a2, s.norm_sign, res])
        residuals[f"q={fmt(s.q)}"] = fmt(res)
    inputs = {"coeffs": list(model.coeffs), "qmax": args.qmax}
    _write_output(args, args.command, _table(columns, rows), inputs, residuals)
    return EXIT_OK


def _params_from_args(args):
    from . import twochannel

    if args.lam is not None or args.emol is not None:
        if args.a is not None or args.rstar is not None:
            raise InvalidInput("give either --lambda/--emol or --a/--rstar targets, not both")
        if args.lam is None or args.emol is None:
            raise InvalidInput("need --lambda and --emol together")
        return twochannel.TwoChannelParams(
            lam=args.lam, e_mol=args.emol, eps=args.eps, mass=args.mass
        )
    if args.a is None or args.rstar is None:
        raise InvalidInput("need either --lambda/--emol or --a/--rstar targets")
    return twochannel.params_for_targets(args.a, args.rstar, args.eps, args.mass)


def _echo_params(p) -> dict:
    return {"lambda": p.lam, "emol": p.e_mol, "eps": p.eps, "mass": p.mass}


def _cmd_tc_params(args) -> int:
    from . import twochannel

    p = _params_from_args(args)
    a_eps, rstar_eps = twochannel.effective_params(p)
    columns = ["eps", "lambda", "emol", "a_eps", "rstar_eps"]
    rows = [[p.eps, p.lam, p.e_mol, a_eps, rstar_eps]]
    _write_output(args, "two-channel params", _table(columns, rows), _echo_params(p))
    return EXIT_OK


def _cmd_tc_bound(args) -> int:
    from . import twochannel

    p = _params_from_args(args)
    state = twochannel.bound_state(p)
    norm_residual = abs(state.open_norm + state.beta2 - 1.0)
    columns = ["E", "beta2", "A2_tail", "open_norm", "norm_residual"]
    a2_tail = state.a_tail * state.a_tail
    rows = [[state.energy, state.beta2, a2_tail, state.open_norm, norm_residual]]
    _write_output(args, "two-channel bound", _table(columns, rows), _echo_params(p),
                 {"norm": fmt(norm_residual)})
    return EXIT_OK


def _cmd_tc_sweep(args) -> int:
    """Regulator-width sweep holding the targets (a, rstar) fixed."""
    from . import twochannel

    if args.a is None or args.rstar is None:
        raise InvalidInput("two-channel sweep needs --a and --rstar targets")
    columns = ["eps", "a_eps", "rstar_eps", "E_bound", "beta2", "A2_tail", "res_identity"]
    rows = []
    for eps in _grid(args, "two-channel sweep"):
        p = twochannel.params_for_targets(args.a, args.rstar, float(eps), args.mass)
        a_eps, rstar_eps = twochannel.effective_params(p)
        state = twochannel.bound_state(p)
        report_id = twochannel.product_identity_check(p, state, state)
        rows.append([
            eps, a_eps, rstar_eps, state.energy, state.beta2,
            state.a_tail * state.a_tail, report_id.residual_beta,
        ])
    inputs = {"a": args.a, "rstar": args.rstar, "mass": args.mass}
    _write_output(args, "two-channel sweep", _table(columns, rows), inputs)
    return EXIT_OK


def _cmd_fb_classify(args) -> int:
    from .species import load_species
    from .units import classify_resonance, vdw_length, width_radius, width_ratio

    # checked before the file is read, so that a table without rows fails too
    if not math.isfinite(args.threshold):
        raise InvalidInput(f"threshold must be finite, got {args.threshold!r}")
    columns = ["species", "Rstar", "RvdW", "ratio", "class"]
    rows = []
    for res in load_species(args.species, mode=args.units):
        rstar, rvdw = width_radius(res), vdw_length(res)
        rows.append([res.species, rstar, rvdw, width_ratio(rstar, rvdw),
                     classify_resonance(res, args.threshold)])
    inputs = {"species_file": args.species, "units": args.units, "threshold": args.threshold}
    _write_output(args, "feshbach classify", _table(columns, rows), inputs)
    return EXIT_OK


def _cmd_fb_sweep(args) -> int:
    """Field sweep of a(B) for one species of the file."""
    from .species import load_species
    from .units import scattering_length_of_field

    rows_in = load_species(args.species, mode=args.units)
    if not 0 <= args.index < len(rows_in):
        raise InvalidInput(f"species index {args.index} out of range (file has {len(rows_in)})")
    res = rows_in[args.index]
    fields = _grid(args, "feshbach sweep")
    table = {"B": fields, "a": scattering_length_of_field(res, fields)}
    inputs = {"species_file": args.species, "units": args.units, "species": res.species,
              "min": args.min, "max": args.max, "steps": args.steps, "log": args.log}
    _write_output(args, "feshbach sweep", table, inputs)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_battery(group=args.group, seed=args.seed)
    if args.format == "json":
        text = _report(
            f"verify {args.group}",
            {"seed": args.seed},
            [
                {"name": r.name, "passed": r.passed, "worst": fmt(r.worst),
                 "seconds": fmt(r.seconds)}
                | ({"cases": r.cases} if r.cases else {})
                for r in results
            ],
            {
                r.name: {"worst": fmt(r.worst), "tolerance": fmt(r.tolerance),
                         "passed": r.passed, "seconds": fmt(r.seconds)}
                for r in results
            },
        )
    else:
        text = "".join(r.line() + "\n" for r in results)
    _emit(args, [text])
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
    parser.add_argument("--steps", type=int, help=f"sweep point count (default {SWEEP_STEPS})")
    parser.add_argument("--log", action="store_true", help="log-spaced sweep grid")


def _amplitude_flags(q) -> None:
    _add_model_flags(q)
    q.add_argument("--k", type=float, help="single wavenumber")
    q.add_argument("--identical", action="store_true",
                   help="identical-boson cross section (8 pi |f|^2)")
    _add_sweep_flags(q)
    _add_output_flags(q)
    q.set_defaults(handler=_cmd_amplitude)


def _pole_flags(q, handler) -> None:
    _add_model_flags(q)
    q.add_argument("--qmax", type=float, default=100.0,
                   help="upper edge of the decay-constant window")
    _add_output_flags(q)
    q.set_defaults(handler=handler)


def _two_channel_flags(parser) -> None:
    tc_sub = parser.add_subparsers(dest="tc_command", required=True)
    for name, help_text, handler in (
        ("params", "effective low-energy parameters", _cmd_tc_params),
        ("bound", "dressed molecular state", _cmd_tc_bound),
    ):
        q = tc_sub.add_parser(name, help=help_text)
        q.add_argument("--eps", type=float, default=0.1, help="regulator width")
        q.add_argument("--lambda", dest="lam", type=float, help="coupling amplitude")
        q.add_argument("--emol", type=float, help="molecular energy")
        q.set_defaults(handler=handler)
    q = tc_sub.add_parser("sweep", help="regulator-width sweep at fixed (a, R*)")
    _add_sweep_flags(q)
    q.set_defaults(handler=_cmd_tc_sweep)
    for q in tc_sub.choices.values():
        q.add_argument("--mass", type=float, default=1.0, help="atom mass")
        q.add_argument("--a", type=float, help="target scattering length")
        q.add_argument("--rstar", type=float, help="target width radius")
        _add_output_flags(q)


def _feshbach_flags(parser) -> None:
    fb_sub = parser.add_subparsers(dest="fb_command", required=True)
    q = fb_sub.add_parser("sweep", help="a(B) sweep for one species")
    q.add_argument("--index", type=int, default=0, help="row index in the file")
    _add_sweep_flags(q)
    q.set_defaults(handler=_cmd_fb_sweep)
    q = fb_sub.add_parser("classify", help="broad/narrow classification")
    q.add_argument("--threshold", type=float, default=1.0,
                   help="|R*|/R_vdW boundary between broad and narrow")
    q.set_defaults(handler=_cmd_fb_classify)
    for q in fb_sub.choices.values():
        q.add_argument("--species", required=True, help="species CSV file")
        q.add_argument("--units", choices=("natural", "si", "atomic"),
                       default="natural", help="unit system of the loaded values")
        _add_output_flags(q)


def _verify_flags(q) -> None:
    q.add_argument("group", choices=VERIFY_GROUPS, help="which battery group to run")
    q.add_argument("--seed", type=int, default=VERIFY_DEFAULT_SEED)
    _add_output_flags(q)
    q.set_defaults(handler=_cmd_verify)


# Subcommand -> (help text, builder of its flags and nested subcommands).
COMMANDS = {
    "amplitude": ("scattering amplitude sweep", _amplitude_flags),
    "phase-shift": ("phase shift sweep (same table)", _amplitude_flags),
    "bound-state": ("bound-state poles of a model",
                    lambda q: _pole_flags(q, _cmd_bound_state)),
    "modified-norm": ("modified-norm residual per state",
                      lambda q: _pole_flags(q, _cmd_modified_norm)),
    "two-channel": ("two-channel resonance model", _two_channel_flags),
    "feshbach": ("magnetic resonance data", _feshbach_flags),
    "verify": ("run the verification battery", _verify_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; given a subcommand name, only that subcommand gets flags.

    The root lists every subcommand either way, so its help, its usage and
    the invalid-choice message are the same. With no name, or one that is
    no subcommand, every subcommand is built.
    """
    # main() pre-parses only the exact --config, so an abbreviation must not parse.
    parser = argparse.ArgumentParser(
        prog="resokit",
        allow_abbrev=False,
        description="Zero-range scattering models: one-channel phase functions "
        "and the Gaussian-regularized two-channel resonance model.",
    )
    parser.add_argument("--version", action="version", version=f"resokit {__version__}")
    parser.add_argument("--config", help="key = value config file presetting flags")
    sub = parser.add_subparsers(dest="command", required=True)
    every = command not in COMMANDS
    for name, (help_text, add_flags) in COMMANDS.items():
        q = sub.add_parser(name, help=help_text)
        if every or name == command:
            add_flags(q)
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


def _iter_parsers(parser: argparse.ArgumentParser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _iter_parsers(sub)


def _config_actions(parser: argparse.ArgumentParser) -> dict:
    """Config key (a subcommand's flag without its dashes) -> that flag's action."""
    return {
        option.lstrip("-"): action
        for sub in _iter_parsers(parser) if sub is not parser
        for action in sub._actions
        if isinstance(action, (argparse._StoreAction, argparse._StoreTrueAction))
        for option in action.option_strings
    }


def _apply_config(parser: argparse.ArgumentParser, mapping: dict) -> None:
    """Preset flags from config values, typed and checked by each flag's action."""
    actions = _config_actions(parser)
    defaults = {}
    for key, value in mapping.items():
        if key == "g":  # the --coeffs list in brackets, checked here
            if not (value.startswith("[") and value.endswith("]")):
                raise InvalidInput(f"g = {value!r}: expected [c0, c1, ...]")
            _coeffs_model(value[1:-1], "g")
            defaults["coeffs"] = value[1:-1]
            continue
        action = actions.get(key)
        if action is None:
            raise InvalidInput(f"unknown key {key!r}: it names no flag")
        if isinstance(action, argparse._StoreTrueAction):
            typed = SWITCH_VALUES.get(value.lower())
            if typed is None:
                raise InvalidInput(f"{key} = {value!r}: choose from {', '.join(SWITCH_VALUES)}")
        else:
            typed = action.type(value) if action.type else value
            if action.choices is not None and typed not in action.choices:
                choices = ", ".join(map(repr, action.choices))
                raise InvalidInput(f"{key} = {value!r}: choose from {choices}")
        defaults[action.dest] = typed
    # Subcommands parse into a fresh namespace, so every subparser needs the
    # defaults, not just the root parser. A preset flag counts as given.
    for p in _iter_parsers(parser):
        p.set_defaults(**defaults)
        for action in p._actions:
            action.required = action.required and action.dest not in defaults


def main(argv=None) -> int:
    # --config may appear anywhere on the line; a one-flag pre-parser takes
    # it out, so subcommands do not have to declare it themselves.
    pre = argparse.ArgumentParser(prog="resokit", add_help=False, allow_abbrev=False)
    pre.add_argument("--config", default=os.environ.get("RESOKIT_CONFIG"))
    known, argv = pre.parse_known_args(sys.argv[1:] if argv is None else argv)
    # The root takes no value after a flag, so the first token that is no
    # flag names the subcommand. A config key may name any subcommand's
    # flag, so a config builds them all.
    command = next((token for token in argv if not token.startswith("-")), None)
    parser = build_parser(None if known.config else command)
    if known.config:
        try:
            _apply_config(parser, _load_config(known.config))
        except (OSError, ResokitError, ValueError) as exc:
            print(f"resokit: config error: {exc}", file=sys.stderr)
            return EXIT_INPUT

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NUMERICAL_ERRORS as exc:
        print(f"resokit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ResokitError as exc:
        print(f"resokit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"resokit: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
