"""Batch orchestration: enumerate, filter, score, control, classify, report.

The five stages run serially and deterministically; re-running an identical
configuration over identical inputs produces byte-identical output files
(wall time lives only in the in-memory report).  Each stage's errors are
re-raised with the stage name prefixed so the command line can report where
a run died.
"""

from __future__ import annotations

import re
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import fdr as fdrmod
from .causal import enumerate_pairwise, score_hypotheses
from .errors import DataError, FitError, TlcausalError, UsageError
from .pctl import print_formula
from .traces import TraceSet, load_events, load_traces

__all__ = ["PipelineConfig", "HypothesisRow", "HypothesisTable", "Report",
           "run_pipeline", "load_data", "counts", "load_config_file",
           "read_hypotheses_tsv", "render_outputs", "rerun_fdr"]

HYPOTHESES_FILE = "hypotheses.tsv"
EDGES_FILE = "edges.tsv"
PLOT_FILE = "plot.tsv"
SUMMARY_FILE = "summary.txt"

TSV_COLUMNS = ("cause", "effect", "tmin", "tmax", "p_cond", "p_marginal",
               "prima_facie", "eps_avg", "z", "fdr", "label")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one inference run needs.

    ``paths`` may list several replicate files of the same format over the
    same variables.  ``divisor`` selects the impact-average denominator
    ("defined" or "strict"); ``p0`` switches the null-proportion estimate
    into the fdr ratio.
    """

    paths: Tuple[str, ...]
    format: str = "event-csv"
    horizon: Optional[int] = None
    tmin: int = 1
    tmax: int = 1
    negations: bool = False
    divisor: str = "defined"
    min_support: int = 1
    bins: int = fdrmod.DEFAULT_BINS
    degree: int = fdrmod.DEFAULT_DEGREE
    threshold: float = fdrmod.DEFAULT_THRESHOLD
    p0: bool = False
    outdir: Optional[str] = None

    def check(self):
        if not self.paths:
            raise UsageError("no input path given")
        if len(set(self.paths)) != len(self.paths):
            raise UsageError("input paths must be distinct")
        if self.tmin < 1 or self.tmax < self.tmin:
            raise UsageError("window requires 1 <= tmin <= tmax")
        if self.divisor not in ("defined", "strict"):
            raise UsageError("divisor must be 'defined' or 'strict'")
        if self.min_support < 1:
            raise UsageError("min_support must be >= 1")
        _check_control(self.bins, self.degree, self.threshold)


def _check_control(bins, degree, threshold):
    """Reject, before any work, settings the fit or classify refuses."""
    if bins < fdrmod.MIN_BINS:
        raise UsageError(f"bins must be >= {fdrmod.MIN_BINS}")
    if degree < fdrmod.MIN_DEGREE:
        raise UsageError(f"degree must be >= {fdrmod.MIN_DEGREE}")
    if not 0.0 < threshold <= 1.0:
        raise UsageError("threshold must lie in (0, 1]")


# One row of a hypothesis table as ``hypotheses.tsv`` lists it; ``None``
# stands for an empty cell.
HypothesisRow = namedtuple("HypothesisRow", TSV_COLUMNS)


@dataclass(eq=False)
class HypothesisTable:
    """The hypothesis table as one array per ``hypotheses.tsv`` column:
    names as objects, the window as int64, NaN for an empty float cell.
    The control stages fill ``z``, ``fdr`` and ``label``.  Iterating
    yields :class:`HypothesisRow` views."""

    cause: np.ndarray
    effect: np.ndarray
    tmin: np.ndarray
    tmax: np.ndarray
    p_cond: np.ndarray
    p_marginal: np.ndarray
    prima_facie: np.ndarray
    eps_avg: np.ndarray
    z: Optional[np.ndarray] = None
    fdr: Optional[np.ndarray] = None
    label: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.cause)

    def __iter__(self):
        columns = [getattr(self, name).tolist() for name in TSV_COLUMNS]
        for values in zip(*columns):
            yield HypothesisRow(*(None if v != v else v for v in values))


@dataclass
class Report:
    """Run outcome: the hypothesis table plus stage bookkeeping.
    ``fit_skipped`` holds the reason when the density or null fit could not
    run, for the ``fit: skipped`` summary line; the table then has no z/fdr
    values and nothing is significant."""

    rows: HypothesisTable
    null_model: Optional[fdrmod.NullModel]
    plot: List[tuple]
    settings: dict
    wall_time: float = 0.0
    fit_skipped: Optional[str] = None

    @property
    def counts(self) -> dict:
        return counts(self.rows)

    @property
    def significant(self) -> List[Tuple[str, str]]:
        """The significant (cause, effect) pairs in table order."""
        sig = self.rows.label == "significant"
        return list(zip(self.rows.cause[sig].tolist(),
                        self.rows.effect[sig].tolist()))


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except TlcausalError as exc:
        exc.args = (f"[stage {name}] {exc.args[0] if exc.args else ''}",)
        raise


def load_data(paths, format: str, horizon: Optional[int]) -> TraceSet:
    """Load replicate files into one trace set.  Event-csv replicates share
    one variable universe, in first-appearance order across the files."""
    if format != "event-csv":
        return TraceSet(tuple(tr for path in paths
                              for tr in load_traces(path, format,
                                                    horizon=horizon)))
    event_lists = [load_events(path, horizon) for path in paths]
    variables = tuple(dict.fromkeys(v for events in event_lists
                                    for v in events.variables()))
    return TraceSet(tuple(ev.to_trace(variables) for ev in event_lists))


def counts(table: HypothesisTable) -> dict:
    """Stage counts of a hypothesis table."""
    scored = ~np.isnan(table.eps_avg)
    return {
        "enumerated": len(table),
        "prima_facie": int(table.prima_facie.sum()),
        "scored": int(scored.sum()),
        "significant": int((table.label == "significant").sum()),
        "unscored_undefined": int((table.prima_facie & ~scored).sum()),
    }


def _control(table: HypothesisTable, bins: int, degree: int,
             threshold: float, p0: bool):
    """Stages 4-5 over the rows with an impact average: standardize, fit
    the mixture and the empirical null, and label by local fdr.  The
    table's z/fdr/label columns are cleared first.  Returns (null model,
    plot rows, why the fit was skipped or None); a fit that cannot run
    leaves every row unscored by fdr and insignificant."""
    n = len(table)
    table.z, table.fdr = np.full(n, np.nan), np.full(n, np.nan)
    table.label = np.full(n, "insignificant", dtype=object)
    scored = np.flatnonzero(~np.isnan(table.eps_avg))
    if not scored.size:
        return None, [], None
    try:
        zs = _stage("fdr", fdrmod.z_scores, table.eps_avg[scored])
        density = _stage("fdr", fdrmod.fit_mixture, zs, bins=bins,
                         degree=degree)
        null_model = _stage("fdr", fdrmod.fit_null, density, estimate_p0=p0)
        fdrs = _stage("fdr", fdrmod.local_fdr, density, null_model,
                      np.asarray(zs.values))
    except FitError as exc:
        return None, [], str(exc)
    chosen = _stage("classify", fdrmod.classify, fdrs.tolist(), threshold)
    table.z[scored] = zs.values
    table.fdr[scored] = fdrs
    table.label[scored[sorted(chosen)]] = "significant"
    return null_model, fdrmod.plot_rows(density, null_model), None


def _control_settings(bins, degree, threshold, p0) -> dict:
    return {"bins": str(bins), "degree": str(degree),
            "threshold": _fmt_float(threshold), "p0": "on" if p0 else "off"}


def run_pipeline(config: PipelineConfig) -> Report:
    """Execute the full inference pipeline; write outputs when ``outdir``
    is set.  A run with zero prima facie causes is a valid empty report.
    A fit that cannot run raises ``FitError`` after the outputs are
    written."""
    config.check()
    started = time.perf_counter()

    data = _stage("load", load_data, config.paths, config.format,
                  config.horizon)
    family = _stage("enumerate", enumerate_pairwise,
                    data.variables, config.tmin, config.tmax,
                    config.negations)
    scores = _stage("score", score_hypotheses, data, family,
                    divisor=config.divisor, min_support=config.min_support)
    n = len(family)
    causes = np.array([print_formula(c) for c in family.causes], dtype=object)
    effects = np.array([print_formula(e) for e in family.effects],
                       dtype=object)
    table = HypothesisTable(
        causes[family.cause_ix], effects[family.effect_ix],
        np.full(n, family.tmin), np.full(n, family.tmax),
        np.divide(scores.num, scores.den, out=np.full(n, np.nan),
                  where=scores.den > 0),
        scores.marg / scores.qual_total if scores.qual_total
        else np.full(n, np.nan), scores.passed, scores.eps)

    null_model, plot, fit_skipped = _control(
        table, config.bins, config.degree, config.threshold, config.p0)
    settings = {
        "inputs": ",".join(config.paths),
        "format": config.format,
        "window": f"[{config.tmin},{config.tmax}]",
        "negations": "on" if config.negations else "off",
        "divisor": config.divisor,
        "min_support": str(config.min_support),
        **_control_settings(config.bins, config.degree, config.threshold,
                            config.p0),
        "traces": str(len(data)),
        "variables": str(len(data.variables)),
        "ticks": str(data.total_ticks),
        "aggregation": "frequency-weighted over antecedent ticks",
    }
    report = Report(table, null_model, plot, settings,
                    wall_time=time.perf_counter() - started,
                    fit_skipped=fit_skipped)
    return _finish(report, config.outdir)


def _finish(report: Report, outdir) -> Report:
    """Write the outputs when ``outdir`` is set, then raise the fit error
    if the fit was skipped, so the finished tables are kept either way."""
    if outdir is not None:
        render_outputs(report, outdir)
    if report.fit_skipped is not None:
        raise FitError(report.fit_skipped)
    return report


# ---------------------------------------------------------------------------
# Output rendering

def _fmt_float(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".10g")


def _cells(column: np.ndarray) -> list:
    """One column of ``hypotheses.tsv``.  Floats are written as
    ``_fmt_float`` writes them, NaN as the empty cell, each distinct bit
    pattern once: on wide families most ``p_cond``, ``p_marginal`` and
    ``fdr`` cells repeat a value, and formatting dominates the write."""
    if column.dtype == bool:
        return np.where(column, "1", "0").tolist()
    if column.dtype != float:
        return [str(v) for v in column.tolist()]
    _, first, inverse = np.unique(column.view(np.int64), return_index=True,
                                  return_inverse=True)
    cells = ["" if v != v else format(v, ".10g")
             for v in column[first].tolist()]
    return [cells[i] for i in inverse.tolist()]


def render_outputs(report: Report, outdir) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / HYPOTHESES_FILE, "w", encoding="utf-8", newline="\n") as fh:
        columns = [_cells(getattr(report.rows, name)) for name in TSV_COLUMNS]
        fh.write("\n".join(map("\t".join, [TSV_COLUMNS, *zip(*columns)]))
                 + "\n")
    with open(out / EDGES_FILE, "w", encoding="utf-8", newline="\n") as fh:
        for cause, effect in report.significant:
            fh.write(f"{cause}\t{effect}\n")
    with open(out / PLOT_FILE, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("center\tcount\tf\tf0\n")
        for center, count, fv, f0 in report.plot:
            fh.write(f"{_fmt_float(center)}\t{count}\t"
                     f"{_fmt_float(fv)}\t{_fmt_float(f0)}\n")
    with open(out / SUMMARY_FILE, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in report.settings.items():
            fh.write(f"{key}: {value}\n")
        for key in ("enumerated", "prima_facie", "scored",
                    "unscored_undefined", "significant"):
            fh.write(f"{key}: {report.counts[key]}\n")
        if report.null_model is not None:
            nm = report.null_model
            fh.write(f"null: delta0={_fmt_float(nm.delta0)} "
                     f"sigma0={_fmt_float(nm.sigma0)}"
                     + (f" p0={_fmt_float(nm.p0)}" if nm.p0 is not None else "")
                     + "\n")
        elif report.fit_skipped is not None:
            fh.write(f"fit: skipped ({report.fit_skipped})\n")


def read_hypotheses_tsv(path) -> HypothesisTable:
    """Parse a previously written hypothesis table."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines or tuple(lines[0].split("\t")) != TSV_COLUMNS:
        raise DataError(f"{path}: not a hypothesis table")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(TSV_COLUMNS):
            raise DataError(f"{path}:{lineno}: expected "
                            f"{len(TSV_COLUMNS)} columns")
        values = []
        for column, cell, (read, _) in zip(TSV_COLUMNS, cells, _READERS):
            try:
                values.append(read(cell))
            except (KeyError, ValueError):
                raise DataError(f"{path}:{lineno}: bad {column} "
                                f"{cell!r}") from None
        rows.append(values)
    columns = list(zip(*rows)) or [()] * len(TSV_COLUMNS)
    return HypothesisTable(*(np.array(column, dtype=dtype) for column,
                             (_, dtype) in zip(columns, _READERS)))


def _opt_float(cell):
    if cell == "":
        return None
    value = float(cell)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {cell!r}")
    return value


# per column: the cell reader, which refuses what render_outputs never
# writes, and the table's dtype (an empty float cell reads as NaN)
_READERS = ((str, object), (str, object), (int, np.int64), (int, np.int64),
            (_opt_float, float), (_opt_float, float),
            ({"1": True, "0": False}.__getitem__, bool),
            (_opt_float, float), (_opt_float, float), (_opt_float, float),
            ({"significant": "significant",
              "insignificant": "insignificant"}.__getitem__, object))


def rerun_fdr(table: HypothesisTable, outdir,
              bins: int = fdrmod.DEFAULT_BINS,
              degree: int = fdrmod.DEFAULT_DEGREE,
              threshold: float = fdrmod.DEFAULT_THRESHOLD,
              p0: bool = False) -> Report:
    """Stages 4-5 over a saved table: re-standardize the stored impact
    averages, refit, relabel, and write the outputs to ``outdir``.  A fit
    that cannot run raises ``FitError`` after writing them."""
    _check_control(bins, degree, threshold)
    null_model, plot, fit_skipped = _control(table, bins, degree, threshold,
                                             p0)
    settings = {"inputs": "(saved hypothesis table)",
                **_control_settings(bins, degree, threshold, p0)}
    return _finish(Report(table, null_model, plot, settings,
                          fit_skipped=fit_skipped), outdir)


# ---------------------------------------------------------------------------
# Flat key=value configuration files with bracketed section headers

CONFIG_KEYS = {
    "path", "format", "horizon",
    "tmin", "tmax", "negations",
    "divisor", "min_support",
    "bins", "degree", "threshold", "p0",
    "outdir", "seed",
    "preset", "size", "trigger_prob", "spontaneous_rate", "refractory",
    "delay_min", "delay_max", "target_firings",
}


_COMMENT = re.compile(r"(?:^|\s)#")


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines; bracketed section headers group keys for
    readability but key names are global and must be unique.  A ``#`` at
    the start of a line or after whitespace starts a comment; elsewhere it
    is part of the value."""
    out: dict = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
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
            if key not in CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            if key in out:
                raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out
