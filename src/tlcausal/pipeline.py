"""Batch orchestration: enumerate, filter, score, control, classify, report.

The five stages run serially and deterministically; re-running an identical
configuration over identical inputs produces byte-identical output files
(wall time lives only in the in-memory report).  Each stage's errors are
re-raised with the stage name prefixed so the command line can report where
a run died.
"""

from __future__ import annotations

import math
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
from .traces import (TraceSet, _check_writable, _load_wide, _open_lines,
                     _uint, _write_text, load_events)

__all__ = ["PipelineConfig", "HypothesisRow", "HypothesisTable", "Report",
           "run_pipeline", "check_format", "load_data",
           "read_hypotheses_tsv", "render_outputs", "rerun_fdr"]

HYPOTHESES_FILE = "hypotheses.tsv"
EDGES_FILE = "edges.tsv"
PLOT_FILE = "plot.tsv"
SUMMARY_FILE = "summary.txt"

TSV_COLUMNS = ("cause", "effect", "tmin", "tmax", "p_cond", "p_marginal",
               "prima_facie", "eps_avg", "z", "fdr", "label")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one inference run needs, checked when built (a bad
    setting is a ``UsageError``).

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

    def __post_init__(self):
        if not self.paths:
            raise UsageError("no input path given")
        if len(set(self.paths)) != len(self.paths):
            raise UsageError("input paths must be distinct")
        if not 1 <= self.tmin <= self.tmax < 2 ** 63:
            raise UsageError("window requires 1 <= tmin <= tmax < 2^63")
        if self.divisor not in ("defined", "strict"):
            raise UsageError("divisor must be 'defined' or 'strict'")
        if self.min_support < 1:
            raise UsageError("min_support must be >= 1")
        check_format(self.format)
        _check_control(self.bins, self.degree, self.threshold)


def _check_control(bins=fdrmod.DEFAULT_BINS, degree=fdrmod.DEFAULT_DEGREE,
                   threshold=fdrmod.DEFAULT_THRESHOLD):
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
        """Stage counts of the table, in the order ``summary.txt`` lists
        them."""
        table = self.rows
        scored = ~np.isnan(table.eps_avg)
        return {
            "enumerated": len(table),
            "prima_facie": int(table.prima_facie.sum()),
            "scored": int(scored.sum()),
            "unscored_undefined": int((table.prima_facie & ~scored).sum()),
            "significant": int((table.label == "significant").sum()),
        }

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


def check_format(format: str) -> None:
    """Refuse a trace format other than ``event-csv`` and ``wide-csv``."""
    if format not in ("event-csv", "wide-csv"):
        raise UsageError(f"unknown trace format {format!r}; expected "
                         f"'event-csv' or 'wide-csv'")


def load_data(paths, format: str, horizon: Optional[int]) -> TraceSet:
    """Load replicate files (paths or text streams) into one trace set.
    Event-csv replicates share one variable universe, in first-appearance
    order across the files; wide-csv files ignore ``horizon``."""
    check_format(format)
    if format == "wide-csv":
        return TraceSet(tuple(_load_wide(_open_lines(p)) for p in paths))
    event_lists = [load_events(path, horizon) for path in paths]
    variables = tuple(dict.fromkeys(v for events in event_lists
                                    for v in events.variables()))
    return TraceSet(tuple(ev.to_trace(variables) for ev in event_lists))


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
    chosen = _stage("classify", fdrmod.classify, fdrs, threshold)
    table.z[scored] = zs.values
    table.fdr[scored] = fdrs
    table.label[scored[chosen]] = "significant"
    return null_model, fdrmod.plot_rows(density, null_model), None


def _control_settings(bins, degree, threshold, p0) -> dict:
    return {"bins": str(bins), "degree": str(degree),
            "threshold": _fmt_float(threshold), "p0": "on" if p0 else "off"}


def run_pipeline(config: PipelineConfig) -> Report:
    """Execute the full inference pipeline; write outputs when ``outdir``
    is set.  A run with zero prima facie causes is a valid empty report.
    A fit that cannot run raises ``FitError`` after the outputs are
    written."""
    if config.outdir is not None:
        _check_writable(config.outdir)
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

def _fmt_float(x: float) -> str:
    return format(float(x), ".10g")


def _cells(column: np.ndarray) -> tuple:
    """One column of ``hypotheses.tsv`` as its distinct cells and each
    row's code into them (``None``: a cell per row).  Numbers come from
    one ``%`` call over the distinct values, told apart by their bits
    (``-0.0`` prints ``-0``, NaN is the empty cell), as most cells repeat
    a value.  Names go as they are; sorting objects would cost more."""
    if column.dtype == bool:
        return np.array(["0", "1"], object), column.view(np.uint8)
    if column.dtype == object:
        return list(map(str, column.tolist())), None
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    fmt = "%.10g\n" if column.dtype == float else "%d\n"
    cells = fmt * len(keys) % tuple(keys.view(column.dtype).tolist())
    return (np.array(cells.replace("nan", "").split("\n"), object),
            inverse.astype(np.min_scalar_type(len(keys))))


_ROWS = 1 << 12  # rows of hypotheses.tsv joined into one chunk


def _table_text(columns, n: int):
    """An ``n``-row ``hypotheses.tsv`` from its columns' :func:`_cells`,
    ``_ROWS`` rows at a time: each column's cells slice-assigned into a
    tab-filled parts list, each row's last tab made a LF, one join."""
    yield "\t".join(TSV_COLUMNS) + "\n"
    step = 2 * len(TSV_COLUMNS)  # each cell, then a tab or the row's LF
    for lo in range(0, n, _ROWS):
        rows = slice(lo, min(lo + _ROWS, n))
        size = rows.stop - lo
        parts = ["\t"] * (step * size)
        for j, (cells, codes) in enumerate(columns):
            parts[2 * j::step] = (cells[rows] if codes is None
                                  else cells[codes[rows]].tolist())
        parts[step - 1::step] = ["\n"] * size
        yield "".join(parts)


def render_outputs(report: Report, outdir) -> None:
    """Write the four output files.  Every table cell is formatted before
    ``hypotheses.tsv`` is opened; its text is then made a block of rows
    at a time, so neither the whole text nor a part per cell is held."""
    out = Path(outdir)
    columns = [_cells(getattr(report.rows, name)) for name in TSV_COLUMNS]
    _write_text(out / HYPOTHESES_FILE, _table_text(columns, len(report.rows)))
    _write_text(out / EDGES_FILE, "".join(
        [f"{cause}\t{effect}\n" for cause, effect in report.significant]))
    _write_text(out / PLOT_FILE, "".join(
        ["center\tcount\tf\tf0\n",
         *(f"{_fmt_float(center)}\t{count}\t{_fmt_float(fv)}\t"
           f"{_fmt_float(f0)}\n" for center, count, fv, f0 in report.plot)]))
    fields = [*report.settings.items(), *report.counts.items()]
    if report.null_model is not None:
        nm = report.null_model
        p0 = "" if nm.p0 is None else f" p0={_fmt_float(nm.p0)}"
        lo, hi = map(_fmt_float, nm.window)
        fields.append(("null", f"delta0={_fmt_float(nm.delta0)} sigma0="
                       f"{_fmt_float(nm.sigma0)}{p0} window=[{lo},{hi}]"))
    elif report.fit_skipped is not None:
        fields.append(("fit", f"skipped ({report.fit_skipped})"))
    _write_text(out / SUMMARY_FILE,
                "".join([f"{key}: {value}\n" for key, value in fields]))


def read_hypotheses_tsv(path) -> HypothesisTable:
    """Parse a previously written hypothesis table by column, reading each
    distinct cell of a column once.  An error names the first bad line
    and in it the leftmost bad cell, as a line-by-line read would."""
    lines = _open_lines(path)
    if not lines or tuple(lines[0].split("\t")) != TSV_COLUMNS:
        raise DataError(f"{path}: not a hypothesis table")
    body, width = lines[1:], len(TSV_COLUMNS)
    good = next((k for k, line in enumerate(body)
                 if line.count("\t") != width - 1), len(body))
    cells = "\t".join(body[:good]).split("\t") if good else []
    first, columns = (good, None, None), []  # line, column, cell
    for j, (read, _) in enumerate(_READERS):
        column, values = cells[j::width], {}
        for cell in dict.fromkeys(column):  # in order of first appearance
            try:
                values[cell] = read(cell)
            except (KeyError, ValueError):
                first = min(first, (column.index(cell), j, cell))
                break
        columns.append(map(values.get, column))
    line, j, cell = first
    if line < len(body):
        raise DataError(f"{path}:{line + 2}: " + (
            f"expected {width} columns" if j is None
            else f"bad {TSV_COLUMNS[j]} {cell!r}"))
    return HypothesisTable(*(np.array(list(column), dtype) for column,
                             (_, dtype) in zip(columns, _READERS)))


def _opt_float(cell):
    if cell == "":
        return None
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {cell!r}")
    return value


def _window(cell):
    if not 0 < (value := _uint(cell)) < 2 ** 63:
        raise ValueError(f"bad window {cell!r}")
    return value


# per column: the cell reader, which refuses what render_outputs never
# writes, and the table's dtype (an empty float cell reads as NaN)
_READERS = ((str, object), (str, object), (_window, np.int64),
            (_window, np.int64),
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
    if outdir is not None:
        _check_writable(outdir)
    null_model, plot, fit_skipped = _control(table, bins, degree, threshold,
                                             p0)
    settings = {"inputs": "(saved hypothesis table)",
                **_control_settings(bins, degree, threshold, p0)}
    return _finish(Report(table, null_model, plot, settings,
                          fit_skipped=fit_skipped), outdir)
