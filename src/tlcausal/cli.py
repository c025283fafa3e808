"""Command-line front end.

Subcommands: ``generate`` (synthetic spike trains plus ground truth),
``infer`` (the full pipeline), ``check`` (evaluate one formula against traces
or an exported chain), ``fdr`` (re-run the control stages over a saved
hypothesis table), ``report`` (re-render tables from a saved run).

Exit codes: 0 success, 1 usage error, 2 data error, 3 fit error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dtmc as dtmcmod
from . import pipeline as pl
from .checker import eval_on_trace, leads_to_prob, sat_set, trace_leads_to
from .errors import (ConvergenceError, DataError, FitError, TlcausalError,
                     UsageError)
from .pctl import INFINITY, LeadsTo, ProbBound, parse, validate
from .synthgen import GenConfig, generate, preset
from .traces import write_events

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="tlcausal", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="simulate spike trains with an "
                         "embedded causal structure")
    gen.add_argument("--config", help="key=value config file")
    gen.add_argument("--preset", choices=("chain", "fork", "collider", "tree"))
    gen.add_argument("--size", type=int, help="chain length / tree depth")
    gen.add_argument("--trigger-prob", type=float, dest="trigger_prob")
    gen.add_argument("--spontaneous-rate", type=float, dest="spontaneous_rate")
    gen.add_argument("--refractory", type=int)
    gen.add_argument("--delay-min", type=int, dest="delay_min")
    gen.add_argument("--delay-max", type=int, dest="delay_max")
    gen.add_argument("--target-firings", type=int, dest="target_firings")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--outdir", required=False)
    gen.set_defaults(func=_cmd_generate)

    inf = sub.add_parser("infer", help="run the inference pipeline")
    inf.add_argument("--config", help="key=value config file")
    inf.add_argument("--path", action="append", help="input file (repeatable)")
    inf.add_argument("--format", choices=("event-csv", "wide-csv"))
    inf.add_argument("--horizon", type=int)
    inf.add_argument("--tmin", type=int)
    inf.add_argument("--tmax", type=int)
    inf.add_argument("--negations", action="store_true", default=None)
    inf.add_argument("--divisor", choices=("defined", "strict"))
    inf.add_argument("--min-support", type=int, dest="min_support")
    inf.add_argument("--bins", type=int)
    inf.add_argument("--degree", type=int)
    inf.add_argument("--threshold", type=float)
    inf.add_argument("--p0", action="store_true", default=None)
    inf.add_argument("--outdir")
    inf.set_defaults(func=_cmd_infer)

    chk = sub.add_parser("check", help="evaluate one formula")
    chk.add_argument("--formula", required=True)
    chk.add_argument("--path", action="append", help="trace input (repeatable)")
    chk.add_argument("--format", choices=("event-csv", "wide-csv"),
                     default="event-csv")
    chk.add_argument("--horizon", type=int)
    chk.add_argument("--model", help="exported chain listing")
    chk.set_defaults(func=_cmd_check)

    fdr = sub.add_parser("fdr", help="re-run control stages on a saved table")
    fdr.add_argument("--hypotheses", required=True)
    fdr.add_argument("--bins", type=int, default=None)
    fdr.add_argument("--degree", type=int, default=None)
    fdr.add_argument("--threshold", type=float, default=None)
    fdr.add_argument("--p0", action="store_true", default=None)
    fdr.add_argument("--outdir", required=True)
    fdr.set_defaults(func=_cmd_fdr)

    rep = sub.add_parser("report", help="re-render outputs from a saved table")
    rep.add_argument("--hypotheses", required=True)
    rep.add_argument("--outdir", required=True)
    rep.set_defaults(func=_cmd_report)
    return parser


def _given(args, cfg, parsers):
    """The settings the user gave, as flags or config keys (flags win).
    Settings left out fall to the library's own defaults."""
    out = {}
    for key, parse_fn in parsers.items():
        value = getattr(args, key, None)
        if value is None and key in cfg:
            try:
                value = parse_fn(cfg[key])
            except ValueError as exc:
                raise UsageError(
                    f"bad config value for {key}: {cfg[key]!r}") from exc
        if value is not None:
            out[key] = value
    return out


def _parse_bool(raw):
    if raw in ("true", "on", "1", "yes"):
        return True
    if raw in ("false", "off", "0", "no"):
        return False
    raise ValueError(raw)


def _load_cfg(args):
    if getattr(args, "config", None):
        return pl.load_config_file(args.config)
    return {}


_PRESET_KEYS = {"size": int, "trigger_prob": float}

_GENERATE_KEYS = {
    "spontaneous_rate": float, "refractory": int, "delay_min": int,
    "delay_max": int, "target_firings": int, "seed": int,
}

_CONTROL_KEYS = {"bins": int, "degree": int, "threshold": float,
                 "p0": _parse_bool}

_INFER_KEYS = {
    "format": str, "horizon": int, "tmin": int, "tmax": int,
    "negations": _parse_bool, "divisor": str, "min_support": int,
    "outdir": str, **_CONTROL_KEYS,
}


def _cmd_generate(args):
    cfg = _load_cfg(args)
    given = _given(args, cfg, {"preset": str, "outdir": str})
    if "outdir" not in given:
        raise UsageError("generate needs --outdir")
    structure = preset(given.get("preset", "tree"),
                       **_given(args, cfg, _PRESET_KEYS))
    # GenConfig declares no default rate
    config = GenConfig(structure, **{"spontaneous_rate": 0.02,
                                     **_given(args, cfg, _GENERATE_KEYS)})
    events, truth = generate(config)
    out = Path(given["outdir"])
    out.mkdir(parents=True, exist_ok=True)
    write_events(events, out / "events.csv")
    with open(out / "truth.csv", "w", encoding="utf-8", newline="\n") as fh:
        for parent, child in truth.edges:
            fh.write(f"{parent},{child}\n")
    print(f"generated {len(events.records)} firings over {events.horizon} "
          f"ticks ({len(structure.neurons)} neurons, "
          f"{len(truth.edges)} true edges) -> {out}")
    return 0


def _cmd_infer(args):
    cfg = _load_cfg(args)
    paths = args.path if args.path else (
        cfg["path"].split(",") if "path" in cfg else [])
    config = pl.PipelineConfig(paths=tuple(p.strip() for p in paths),
                               **_given(args, cfg, _INFER_KEYS))
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


def _formula_window(f):
    if isinstance(f, ProbBound) and isinstance(f.path, LeadsTo):
        lead = f.path
        return lead, f.comparison, f.p
    return None, None, None


def _cmd_check(args):
    formula = parse(args.formula)
    problems = validate(formula)
    if problems:
        raise DataError("; ".join(str(v) for v in problems))
    lead, cmp, bound = _formula_window(formula)
    if args.model:
        model = dtmcmod.load_text(args.model)
        if lead is not None:
            est = leads_to_prob(model, lead.left, lead.right,
                                lead.tmin, lead.tmax)
            verdict = est.probability >= bound if cmp == ">=" \
                else est.probability > bound
            print(f"probability: {est.probability:.6g} "
                  f"(weighted {est.numerator:.6g}/{est.denominator:.6g})")
            print(f"bound {cmp} {bound}: {'holds' if verdict else 'fails'}")
        else:
            states = sorted(sat_set(model, formula))
            print(f"satisfying states ({len(states)}): "
                  + " ".join(map(str, states)))
        return 0
    if not args.path:
        raise UsageError("check needs --path or --model")
    data = pl.load_data(args.path, args.format, args.horizon)
    if lead is not None:
        if lead.tmax == INFINITY:
            raise UsageError("trace checking needs a finite window")
        est = trace_leads_to(data, lead.left, lead.right,
                             lead.tmin, int(lead.tmax))
        verdict = est.probability >= bound if cmp == ">=" \
            else est.probability > bound
        print(f"probability: {est.probability:.6g} "
              f"({int(est.numerator)}/{int(est.denominator)})")
        print(f"bound {cmp} {bound}: {'holds' if verdict else 'fails'}")
    else:
        total = hits = 0
        for tr in data:
            sat = eval_on_trace(tr, formula)
            total += sat.size
            hits += int(sat.sum())
        print(f"holds at {hits}/{total} ticks")
    return 0


def _cmd_fdr(args):
    table = pl.read_hypotheses_tsv(args.hypotheses)
    report = pl.rerun_fdr(table, args.outdir,
                          **_given(args, {}, _CONTROL_KEYS))
    for key in ("scored", "significant"):
        print(f"{key}: {report.counts[key]}")
    print(f"outputs -> {args.outdir}")
    return 0


def _cmd_report(args):
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
    except (FitError, ConvergenceError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 3
    except TlcausalError as exc:  # anything uncategorized
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
