"""Command-line front end.

Subcommands: ``generate`` (synthetic spike trains plus ground truth),
``infer`` (the full pipeline), ``check`` (evaluate one formula against traces
or an exported chain), ``fdr`` (re-run the control stages over a saved
hypothesis table), ``report`` (re-render tables from a saved run).

Exit codes: 0 success, 1 usage error, 2 data error, 3 fit error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import dtmc as dtmcmod
from . import pipeline as pl
from .checker import (eval_on_trace, leads_to_meets, leads_to_prob, sat_set,
                      trace_leads_to)
from .errors import DataError, FitError, TlcausalError, UsageError
from .pctl import INFINITY, LeadsTo, ProbBound, parse
from .synthgen import GenConfig, generate, preset
from .traces import _check_writable, _open_lines, _write_text, write_events

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_bool(raw):
    if raw in ("true", "on", "1", "yes"):
        return True
    if raw in ("false", "off", "0", "no"):
        return False
    raise ValueError(raw)


# The settings of generate, infer and fdr: each key with the parser its
# value goes through.  Every key is a flag of the same name (dashes for
# underscores; a _parse_bool key is a switch), and a config file may set
# any key of generate or infer.  The library checks the values.
_PRESET = {"preset": str, "size": int, "trigger_prob": float}
_SIMULATOR = {"spontaneous_rate": float, "refractory": int, "delay_min": int,
              "delay_max": int, "target_firings": int, "seed": int}
_CONTROL = {"bins": int, "degree": int, "threshold": float,
            "p0": _parse_bool}
_OUTDIR = {"outdir": str}
_SETTINGS = {
    "generate": {**_PRESET, **_SIMULATOR, **_OUTDIR},
    "infer": {"format": str, "horizon": int, "tmin": int, "tmax": int,
              "negations": _parse_bool, "divisor": str, "min_support": int,
              **_CONTROL, **_OUTDIR},
    "fdr": {**_CONTROL, **_OUTDIR},
}
_CONFIG_KEYS = {"path", *_SETTINGS["generate"], *_SETTINGS["infer"]}


def _build_parser():
    parser = _Parser(prog="tlcausal", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="simulate spike trains with an "
                         "embedded causal structure")
    gen.add_argument("--config", help="key=value config file")
    gen.set_defaults(func=_cmd_generate)

    inf = sub.add_parser("infer", help="run the inference pipeline")
    inf.add_argument("--config", help="key=value config file")
    inf.add_argument("--path", action="append", help="input file (repeatable)")
    inf.set_defaults(func=_cmd_infer)

    chk = sub.add_parser("check", help="evaluate one formula")
    chk.add_argument("--formula", required=True)
    chk.add_argument("--path", action="append", help="trace input (repeatable)")
    chk.add_argument("--format")
    chk.add_argument("--horizon", type=int)
    chk.add_argument("--model", help="exported chain listing")
    chk.set_defaults(func=_cmd_check)

    fdr = sub.add_parser("fdr", help="re-run control stages on a saved table")
    fdr.add_argument("--hypotheses", required=True)
    fdr.set_defaults(func=_cmd_fdr)

    rep = sub.add_parser("report", help="re-render outputs from a saved table")
    rep.add_argument("--hypotheses", required=True)
    rep.add_argument("--outdir", required=True)
    rep.set_defaults(func=_cmd_report)

    for command, settings in ((gen, _SETTINGS["generate"]),
                              (inf, _SETTINGS["infer"]),
                              (fdr, _SETTINGS["fdr"])):
        for key, parse_fn in settings.items():
            flag = "--" + key.replace("_", "-")
            if parse_fn is _parse_bool:
                command.add_argument(flag, dest=key, action="store_true",
                                     default=None)
            else:
                command.add_argument(flag, dest=key, type=parse_fn)
    return parser


def _given(args, cfg, parsers):
    """The settings the user gave, as flags or config keys (flags win).
    Settings left out fall to the library's own defaults."""
    out = {}
    for key, parse_fn in parsers.items():
        value = getattr(args, key)
        if value is None and key in cfg:
            try:
                value = parse_fn(cfg[key])
            except ValueError as exc:
                raise UsageError(
                    f"bad config value for {key}: {cfg[key]!r}") from exc
        if value is not None:
            out[key] = value
    return out


_COMMENT = re.compile(r"(?:^|\s)#")


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines; bracketed section headers group keys for
    readability but key names are global and must be unique.  A ``#`` at
    the start of a line or after whitespace starts a comment; elsewhere it
    is part of the value."""
    out: dict = {}
    try:
        lines = _open_lines(path)
    except DataError as exc:  # caused by an OSError or a decode error
        raise UsageError(
            f"cannot read config {path}: {exc.__cause__}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _load_cfg(args):
    return load_config_file(args.config) if args.config else {}


def _need_outdir(given, command):
    if "outdir" not in given:
        raise UsageError(f"{command} needs --outdir")
    return given["outdir"]


def _cmd_generate(args):
    cfg = _load_cfg(args)
    out = Path(_need_outdir(_given(args, cfg, _OUTDIR), "generate"))
    shape = _given(args, cfg, _PRESET)
    structure = preset(shape.pop("preset", "tree"), **shape)
    # GenConfig declares no default rate
    config = GenConfig(structure, **{"spontaneous_rate": 0.02,
                                     **_given(args, cfg, _SIMULATOR)})
    _check_writable(out)
    events, truth = generate(config)
    write_events(events, out / "events.csv")
    _write_text(out / "truth.csv", "".join(
        [f"{cause},{effect}\n" for cause, effect in truth.edges]))
    print(f"generated {len(events)} firings over {events.horizon} "
          f"ticks ({len(structure.neurons)} neurons, "
          f"{len(truth.edges)} true edges) -> {out}")
    return 0


def _cmd_infer(args):
    cfg = _load_cfg(args)
    paths = args.path if args.path else (
        cfg["path"].split(",") if "path" in cfg else [])
    config = pl.PipelineConfig(paths=tuple(p.strip() for p in paths),
                               **_given(args, cfg, _SETTINGS["infer"]))
    report = pl.run_pipeline(config)
    for key in ("enumerated", "prima_facie", "scored", "significant"):
        print(f"{key}: {report.counts[key]}")
    if report.null_model is not None:
        nm = report.null_model
        print(f"null: delta0={nm.delta0:.4f} sigma0={nm.sigma0:.4f}")
    print(f"wall time: {report.wall_time:.2f}s")
    if config.outdir:
        print(f"outputs -> {config.outdir}")
    return 0


def _cmd_check(args):
    fmt = "event-csv" if args.format is None else args.format
    pl.check_format(fmt)
    if args.model and (args.path or args.horizon is not None
                       or args.format is not None):
        raise UsageError("check takes --model or --path, not both "
                         "(--horizon and --format go with --path)")
    formula = parse(args.formula)
    lead = formula.path if isinstance(formula, ProbBound) \
        and isinstance(formula.path, LeadsTo) else None
    if args.model:
        model = dtmcmod.load_text(args.model)
        if lead is None:
            states = sorted(sat_set(model, formula))
            print(f"satisfying states ({len(states)}): "
                  + " ".join(map(str, states)))
            return 0
        est = leads_to_prob(model, lead.left, lead.right,
                            lead.tmin, lead.tmax)
        counts = f"weighted {est.numerator:.6g}/{est.denominator:.6g}"
        verdict = leads_to_meets(model, formula, est)
    else:
        if not args.path:
            raise UsageError("check needs --path or --model")
        data = pl.load_data(args.path, fmt, args.horizon)
        if lead is None:
            total = hits = 0
            for tr in data:
                sat = eval_on_trace(tr, formula)
                total += sat.size
                hits += int(sat.sum())
            print(f"holds at {hits}/{total} ticks")
            return 0
        if lead.tmax == INFINITY:
            raise UsageError("trace checking needs a finite window")
        est = trace_leads_to(data, lead.left, lead.right,
                             lead.tmin, int(lead.tmax))
        num, den = int(est.numerator), int(est.denominator)
        counts = f"{num}/{den}"
        # num/den against the bound's exact value, in integers
        r, q = formula.p.as_integer_ratio()
        verdict = num * q > r * den or (formula.comparison == ">="
                                        and num * q == r * den)
    print(f"probability: {est.probability:.6g} ({counts})")
    print(f"bound {formula.comparison} {formula.p}: "
          f"{'holds' if verdict else 'fails'}")
    return 0


def _cmd_fdr(args):
    given = _given(args, {}, _SETTINGS["fdr"])
    outdir = _need_outdir(given, "fdr")
    # refuse bad settings and the outdir before reading the table
    pl._check_control(**{key: value for key, value in given.items()
                         if key in ("bins", "degree", "threshold")})
    _check_writable(outdir)
    report = pl.rerun_fdr(pl.read_hypotheses_tsv(args.hypotheses), **given)
    for key in ("scored", "significant"):
        print(f"{key}: {report.counts[key]}")
    print(f"outputs -> {outdir}")
    return 0


def _cmd_report(args):
    _check_writable(args.outdir)
    table = pl.read_hypotheses_tsv(args.hypotheses)
    report = pl.Report(table, None, [], {"inputs": "(saved hypothesis table)"})
    pl.render_outputs(report, args.outdir)
    print(f"re-rendered {len(table)} rows -> {args.outdir}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 3
    except TlcausalError as exc:  # anything uncategorized
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
