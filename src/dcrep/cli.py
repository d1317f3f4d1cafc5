"""Command-line surface: analyze / solve / scan / simulate / asymptotics.

Each subcommand takes only the flags it reads, plus ``--config`` and
``--out``, and each kind of ``scan`` or ``simulate`` only the flags that kind
reads; any other flag exits 2, and so does a config key that names no flag.
Every output embeds the schema tag and each flag value the command read,
from the command line, the config file or the default (the seed among them
wherever the command draws samples), so rerunning a command with the echoed
config is byte-identical.  Exit codes: 0 success, 1 stdout closed early, 2
usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import asymptotics as asym
from . import conditions as cond
from . import embeddings as emb
from . import stable as stb
from .csvtext import csv_lines
# threshold_law_mc, square_threshold_law_exact and square_circle_solver (a stub
# that calls lp_feasibility) are on no path of the CLI: they stay importable
# from here only because bench/tracing.py times them under these names
from .gaussian import (CovarianceSpec, square_threshold_laws_exact,
                       square_threshold_law_exact, threshold_law_mc)  # noqa: F401
from .laws import threshold_law
from .partitions import BinaryLaw, _column_keys, _is_number, push_forward, simulate_color_process
from .reports import _plain
from .solver import (FEAS_TOL, lp_feasibility, signed_rep_3, square_circle_intervals,
                     symmetric_rep_family_3, square_circle_solver)  # noqa: F401

SCHEMA = "dcrep/1"
SCAN_MAX_ROWS = 1_000_000  # rows one scan may write; a finer --a-step is refused up front


class UsageError(Exception):
    pass


def _is_matrix(x) -> bool:
    return isinstance(x, list) and all(
        isinstance(row, list) and all(map(_is_number, row)) for row in x)


# The JSON fields each model kind needs, checked before they are read; a law's
# fields are checked by BinaryLaw.from_json_dict
_MODEL_FIELDS = {
    "gaussian": {"a": (_is_matrix, "a list of lists of finite numbers")},
    "stable": {"alpha": (_is_number, "a finite number"),
               "loadings": (_is_matrix, "a list of lists of finite numbers")},
}


def load_model(spec: str | None) -> CovarianceSpec | stb.StableLinearModel | BinaryLaw:
    """The typed model of inline JSON or a JSON file's path; None is no --model."""
    if spec is None:
        raise UsageError("this command needs --model, on the command line or in --config")
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            with open(spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read model file {spec!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"model is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"model must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind is None:
        if "loadings" in obj:
            kind = "stable"
        elif "a" in obj:
            kind = "gaussian"
        elif "entries" in obj:
            kind = "law"
        else:
            raise UsageError("cannot infer model kind: give 'kind' or one of "
                             "'a' / 'loadings' / 'entries'")
    if kind not in ("gaussian", "stable", "law"):
        raise UsageError(f"unknown model kind {kind!r}")
    for field, (check, what) in _MODEL_FIELDS.get(kind, {}).items():
        if field not in obj:
            raise UsageError(f"a {kind} model needs the field {field!r}")
        if not check(obj[field]):
            raise UsageError(f"model field {field!r} must be {what}, got {obj[field]!r}")
    if kind == "gaussian":
        return CovarianceSpec(obj["a"])
    if kind == "stable":
        return stb.StableLinearModel(float(obj["alpha"]), obj["loadings"])
    return BinaryLaw.from_json_dict(obj)


def _config_echo(args) -> dict:
    """The schema tag, the command and every flag value it holds: its parser
    has only the flags the command reads.  ``--config`` and ``--out`` name
    where the values came from and where the output goes, so they are left
    out."""
    cfg = {"schema": SCHEMA}
    cfg.update((key, val) for key, val in vars(args).items()
               if val is not None and key not in ("config", "out"))
    return cfg


def _open_out(args):
    """The file that ``--out`` names, opened for writing, or stdout; a path
    that cannot be opened is a usage error."""
    if not args.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w")
    except OSError as exc:
        raise UsageError(f"cannot write output file {args.out!r}: {exc}") from exc


def _emit(args, payload: dict) -> None:
    with _open_out(args) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


CSV_BLOCK_ROWS = 1024


def _emit_csv(args, header: list[str], columns: list) -> None:
    """Write equal-length columns as CSV rows, a block of rows at a time, so
    that only one block of text is held at once; ``csv_lines`` spells each
    float cell as ``format(x, ".17g")`` does."""
    rows = len(columns[0])
    with _open_out(args) as fh:
        fh.write("# " + json.dumps(_config_echo(args), sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            fh.write(csv_lines([col[start:start + CSV_BLOCK_ROWS] for col in columns]))


# -- subcommands --------------------------------------------------------------

def cmd_analyze(args) -> dict:
    model = load_model(args.model)
    results: dict = {}
    if isinstance(model, CovarianceSpec):
        if model.is_pd:
            results["conditions"] = cond.savage_report(model)
        results["degenerate"] = cond.classify_degenerate(model)
        if model.n == 3 and model.is_standard and model.is_pd:
            off = model.offdiag()
            if np.min(off) >= 0.0:
                results["large_h"] = cond.classify_large_h_3(model)
            lims = asym.small_h_limits_3(model)
            results["small_h"] = {"limits": lims.weights, "kappa": lims.kappa,
                                  "verdict": lims.verdict()}
    elif isinstance(model, stb.StableLinearModel):
        measure = stb.spectral_from_matrix(model)
        integral, support = stb.stablegood_integral(measure)
        results["spectral_measure"] = measure.to_json_dict()
        results["second_coordinate_integral"] = {"value": integral,
                                                 "below_one": integral < 1.0,
                                                 "full_orthant_support": support}
        if model.d == 3:
            results["order1_limits"] = asym.stable_limit_report(measure).to_json_dict()
    if args.h is not None or isinstance(model, BinaryLaw):
        law = threshold_law(model, args.h, args.samples, args.seed)
        results["lp"] = lp_feasibility(law, p=args.p, tol=args.tol)
    return results


def cmd_solve(args) -> dict:
    law = threshold_law(load_model(args.model), args.h, args.samples, args.seed)
    out: dict = {"law": law}
    # the closed-form n = 3 routes raise ValueError on a law they do not fit;
    # only that refusal is caught, not an error past the fit
    try:
        rep = signed_rep_3(law)
    except ValueError:
        pass
    else:
        out["signed_rep_3"] = {"weights": rep.weights, "feasible": rep.feasible}
    try:
        fam = symmetric_rep_family_3(law)
    except ValueError:
        pass
    else:
        out["symmetric_family"] = {"t_interval": fam.t_interval,
                                   "canonical": None if fam.is_empty else fam.canonical()}
    out["lp"] = lp_feasibility(law, p=args.p, tol=args.tol)
    return out


def _scan_ab_columns(values: np.ndarray) -> list:
    """Columns of ``scan ab`` over the grid values x values, classified in one
    array pass.  Only these 1-D columns outlive the call, not the stacked
    matrices, so the CSV text is built without them."""
    grid = cond.ab_region_grid(np.repeat(values, len(values)), np.tile(values, len(values)))
    usable = grid.numerically_pd
    small = np.full(len(usable), "", dtype="U1")
    q, _ = asym.small_h_limits_stack(grid.classified.mats[usable],
                                     grid.classified.eigvals[usable])
    small[usable] = np.where(q.min(axis=1) > 1e-10, "1", "0")
    return [grid.a, grid.b, grid.pd.astype(int), grid.dgff.astype(int),
            grid.large_h_color.astype(int), (np.abs(grid.markov_gap) <= 1e-12).astype(int),
            small, grid.savage_min, grid.pd_margin, grid.markov_gap,
            np.where(usable, grid.classified.case_tag, "")]


SCAN_BLOCK_ROWS = 1024  # scan theta's rows per array pass: bounds its temporaries


def _scan_theta_columns(values: np.ndarray) -> list:
    """Columns of ``scan theta`` after theta: the exact square law at h = 0
    and its t-interval, in one array pass per block of rows.  Every such law
    has p = 1/2, so its row is feasible iff the interval is not empty."""
    feasible = np.empty(len(values), dtype=bool)
    t_lo, t_hi, gap = np.empty(len(values)), np.empty(len(values)), np.empty(len(values))
    for start in range(0, len(values), SCAN_BLOCK_ROWS):
        rows = slice(start, start + SCAN_BLOCK_ROWS)
        laws = square_threshold_laws_exact(values[rows])
        iv = square_circle_intervals(laws.probs)
        feasible[rows], t_lo[rows], t_hi[rows] = ~iv.infeasible, iv.t_lo, iv.t_hi
        gap[rows] = math.pi / 8 - (laws.th_adj - laws.theta)
    return [feasible, t_lo, t_hi, gap]


def _scan_values(args, stop: float, square: bool = False) -> np.ndarray:
    """The scan axis ``arange(step, stop, step)``; the ab scan writes the
    square of the axis.  A step that gives more than ``SCAN_MAX_ROWS`` rows is
    refused before the axis is built."""
    step = args.a_step
    if not 0.0 < step < math.inf:
        raise UsageError(f"--a-step must be a finite number > 0, got {step!r}")
    length = (stop - step) / step   # np.arange holds ceil(length) values
    if (length > SCAN_MAX_ROWS
            or max(math.ceil(length), 0) ** (2 if square else 1) > SCAN_MAX_ROWS):
        raise UsageError(f"--a-step {step!r} gives a scan of more than "
                         f"{SCAN_MAX_ROWS} rows, the limit; use a larger step")
    return np.arange(step, stop, step)


def cmd_scan(args) -> None:
    if args.scan == "ab":
        values = _scan_values(args, 1.0, square=True)
        header = ["a", "b", "pd", "dgff", "large_h_color", "markov_boundary",
                  "small_h_feasible", "savage_min", "pd_margin", "markov_gap", "case_tag"]
        _emit_csv(args, header, _scan_ab_columns(values))
    elif args.scan == "theta":
        values = _scan_values(args, math.pi / 2)
        header = ["theta", "feasible", "t_lo", "t_hi", "adjacency_gap"]
        _emit_csv(args, header, [values] + _scan_theta_columns(values))
    else:   # alpha: argparse admits no other --scan
        values = _scan_values(args, 2.0)
        header = ["alpha", "gamma_factor", "order2_101", "coupling_threshold",
                  "large_h_color"]
        # q_{12,3}(h) >= 0 for large h iff lim nu_110/nu_1^2 exceeds
        # (1-t)^2 + t(1-t) = 1 - t, t = a^alpha
        t, gamma, order2 = asym.stable_order2_limits_101_symmetric(args.a, values)
        threshold = 1.0 - t
        _emit_csv(args, header, [values, gamma, order2, threshold, order2 > threshold])


def _emit_sample_csv(args, batch) -> None:
    header = (["sign_" + str(i + 1) for i in range(batch.n)]
              + ["partition"]
              + ["crossing_p_" + str(i + 1) for i in range(batch.crossing_probs.shape[1])])
    cols, inverse, _ = batch.partition_groups()
    keys = np.array(_column_keys(batch.n))[cols]
    _emit_csv(args, header, list(batch.signs.T) + [keys[inverse]] + list(batch.crossing_probs.T))


def cmd_simulate(args) -> dict | None:
    sim, seed, m = args.simulator, args.seed, args.samples
    if sim == "color":
        if args.format == "csv":
            raise UsageError("simulator 'color' writes a JSON report; --format csv "
                             "is for the samples of 'ou' and 'stable-chain'")
        law = load_model(args.model) if args.model else None
        if not isinstance(law, BinaryLaw):
            raise UsageError("simulator 'color' needs --model with an explicit law; "
                             "solve it first to get a partition distribution")
        res = lp_feasibility(law)
        # an MC law is at best Borderline: the q of its box LP is a point
        # within its half-widths, and the draws are checked against the law
        # of that q, which can miss the input law by a half-width
        if res.q is None or not (res.feasible or law.stderr is not None):
            raise UsageError("law has no representation; nothing to simulate")
        _, emp = simulate_color_process(res.q, law.marginal_p, m, seed)
        drawn = push_forward(res.q, law.marginal_p).probs
        bound = 4.0 * np.sqrt(np.maximum(drawn * (1 - drawn), 1.0 / m) / m)
        return {"simulator": sim,
                "empirical": emp,
                "max_abs_dev": float(np.max(np.abs(emp.probs - law.probs))),
                "within_4se": bool(np.all(np.abs(emp.probs - drawn) <= bound))}
    if sim == "ou":
        batch = emb.ou_partition_batch(args.a, args.n, m, seed)
    else:   # stable-chain: argparse admits no other --simulator
        batch = emb.stable_chain_partition_batch(args.alpha, args.a, args.n, m, seed)
    if args.format == "csv":
        _emit_sample_csv(args, batch)
        return None
    report = emb.verify_color_property(batch)
    return {"simulator": sim,
            "sign_law": batch.empirical_sign_law(),
            "verification": {"passed": report.passed,
                             "aggregate_max_dev_se": report.aggregate_max_dev_se,
                             "bins": report.bins,
                             "excluded_bins": report.excluded_bins}}


def cmd_asymptotics(args) -> dict:
    model = load_model(args.model)
    out: dict = {}
    if isinstance(model, CovarianceSpec):
        if model.n != 3 or not model.is_standard or not model.is_pd:
            raise UsageError("small-h limits need a standard PD 3x3 covariance")
        lims = asym.small_h_limits_3(model)
        out["small_h"] = {"formula": "q-limits(h->0)", "kappa": lims.kappa,
                          "limits": lims.weights, "verdict": lims.verdict()}
    elif isinstance(model, stb.StableLinearModel):
        measure = stb.spectral_from_matrix(model)
        if model.d == 3:
            out["large_h"] = asym.stable_limit_report(measure).to_json_dict()
        out["phase_transition_alpha"] = asym.phase_transition_alpha()
    else:
        raise UsageError("asymptotics needs a gaussian or stable model")
    return out


# Every flag of the CLI and its argparse settings; an absent flag is None
# until _fill_defaults
_FLAGS = {
    "config": {"help": "JSON config file; flags override its fields"},
    "out": {},
    "model": {"help": "model JSON (inline or path)"},
    "h": {"type": float},
    "p": {"type": float},
    "samples": {"type": int},
    "seed": {"type": int},
    "tol": {"type": float},
    "format": {"choices": ["json", "csv"]},
    "scan": {"required": True},
    "a-step": {"type": float},
    "a": {"type": float},
    "simulator": {"required": True},
    "alpha": {"type": float},
    "n": {"type": int},
}


class _Command(NamedTuple):
    help: str
    run: Callable
    kind_flag: str | None           # the flag that names the kind; None: one kind
    kinds: dict                     # kind -> {flag the kind reads: its default}


# Each subcommand, its kinds, and the flags each kind reads in parser order,
# with their defaults.  A default of None leaves the flag absent: analyze
# reads an absent --h as no LP, and analyze and solve an absent --samples as
# no Monte Carlo law
_COMMANDS = {
    "analyze": _Command("condition checkers + regime classifiers", cmd_analyze, None, {None: {
        "model": None, "h": None, "p": None, "samples": None, "seed": 0, "tol": FEAS_TOL}}),
    "solve": _Command("representations of a law", cmd_solve, None, {None: {
        "model": None, "h": 0.0, "p": None, "samples": None, "seed": 0, "tol": FEAS_TOL}}),
    "scan": _Command("parameter-region scans (CSV)", cmd_scan, "scan", {
        "ab": {"a-step": 0.005},
        "theta": {"a-step": math.pi / 80},
        "alpha": {"a-step": 0.01, "a": 0.5}}),
    "simulate": _Command("samplers + verification", cmd_simulate, "simulator", {
        "color": {"model": None, "samples": 100_000, "seed": 0, "format": "json"},
        "ou": {"samples": 100_000, "seed": 0, "format": "json", "a": 0.5, "n": 3},
        "stable-chain": {"samples": 100_000, "seed": 0, "format": "json", "a": 0.5,
                         "alpha": 1.0, "n": 3}}),
    "asymptotics": _Command("closed-form limit reports", cmd_asymptotics, None,
                            {None: {"model": None}}),
}


def _parser_flags(command: str) -> dict:
    """Every flag of a subcommand's parser, in its order, with its argparse
    settings: ``--config`` and ``--out``, the kind flag, whose choices are the
    kinds, then the flags of every kind."""
    spec = _COMMANDS[command]
    flags = {"config": _FLAGS["config"], "out": _FLAGS["out"]}
    if spec.kind_flag is not None:
        flags[spec.kind_flag] = {**_FLAGS[spec.kind_flag], "choices": list(spec.kinds)}
    for read in spec.kinds.values():
        flags.update((f, _FLAGS[f]) for f in read)
    return flags


def _kind_reads(args) -> dict:
    """The flags the command's chosen kind reads, with their defaults."""
    spec = _COMMANDS[args.command]
    return spec.kinds[getattr(args, spec.kind_flag) if spec.kind_flag else None]


def _read_flags(args) -> set[str]:
    """Every flag the command reads: ``--config``, ``--out``, the kind flag
    and the flags of its chosen kind."""
    return {"config", "out", _COMMANDS[args.command].kind_flag, *_kind_reads(args)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing keeps
    no state in it, since each ``parse_args`` fills a new namespace."""
    ap = argparse.ArgumentParser(prog="dcrep",
                                 description="divide-and-color representability toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        # no prefix matching: a command without --h must refuse --h, not
        # read it as --help
        p = sub.add_parser(command, help=spec.help, allow_abbrev=False)
        for flag, settings in _parser_flags(command).items():
            p.add_argument("--" + flag, **settings)
    return ap


def _refuse_unread_flags(args) -> None:
    """A flag that the chosen kind of scan or simulator does not read is a
    usage error, as argparse makes one of a flag of another subcommand."""
    read = _read_flags(args)
    for flag in _parser_flags(args.command):
        if flag not in read and getattr(args, flag.replace("-", "_")) is not None:
            kind_flag = _COMMANDS[args.command].kind_flag
            raise UsageError(f"{args.command} --{kind_flag} {getattr(args, kind_flag)} "
                             f"does not read --{flag}")


# JSON types a config value may have, by the argparse type of its flag
_CONFIG_TYPES = {int: (int,), float: (int, float), None: (str,)}


def _config_value(settings: dict, key: str, val):
    """A config value checked as its flag would check it on the command line."""
    kind = settings.get("type")
    if isinstance(val, bool) or not isinstance(val, _CONFIG_TYPES[kind]):
        raise UsageError(f"config {key!r} must be of type {(kind or str).__name__}, got {val!r}")
    if kind is not None:
        val = kind(val)
    choices = settings.get("choices")
    if choices is not None and val not in choices:
        raise UsageError(f"config {key!r} must be one of {sorted(choices)}, got {val!r}")
    return val


def _apply_config_file(args) -> None:
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad config file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"bad config file: expected a JSON object, got {type(cfg).__name__}")
    if cfg.get("schema", SCHEMA) != SCHEMA:
        raise UsageError(f"config schema {cfg.get('schema')!r} != {SCHEMA!r}")
    settings, read = _parser_flags(args.command), _read_flags(args)
    for key, val in cfg.items():
        if key in ("schema", "command"):
            continue
        flag, attr = key.replace("_", "-"), key.replace("-", "_")
        if flag not in _FLAGS:
            raise UsageError(f"config key {key!r} names no flag of any subcommand")
        if flag not in read:    # a key of another subcommand or kind
            continue
        val = _config_value(settings[flag], key, val)
        if getattr(args, attr) is None:
            setattr(args, attr, val)


def _fill_defaults(args) -> None:
    """Defaults of the flags the command reads, applied after the config file:
    a config value stands in for an absent flag but never overrides an
    explicit one."""
    for flag, default in _kind_reads(args).items():
        attr = flag.replace("-", "_")
        if getattr(args, attr) is None:
            setattr(args, attr, default)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        _refuse_unread_flags(args)
        _apply_config_file(args)
        _fill_defaults(args)
        results = _COMMANDS[args.command].run(args)
        if results is not None:
            payload = {"config": _config_echo(args), "results": _plain(results)}
            _emit(args, payload)
        sys.stdout.flush()      # so that a closed pipe shows here, not at exit
        return 0
    except BrokenPipeError:
        # stdout was closed (``| head -1``): point it at devnull, as Python's docs do
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
