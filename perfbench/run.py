#!/usr/bin/env python3
"""tlcausal benchmark: generate inputs, infer causes, check the true edges.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spike-paper --seed 1 --seconds 33 --trace 0

Each run repeats rounds of three operations on inputs made from ``--seed``
until ``--seconds`` are used (at least two rounds, so repeats can be
compared): ``generate`` writes the event files, ``infer`` runs
``run_pipeline`` from those files to the four output files, and ``check``
answers every ground-truth edge as a parsed leads-to formula.  The program
is imported from ``src/`` of the checkout and sees only the generated files.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics (medians over all samples); with ``--trace 1`` the per-layer metrics
from spans recorded around the program's public functions (see
``tracer.py``).
The line before it holds the environment, the output hashes and the raw
samples.  ``README.md`` explains the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 2       # repeats of the same seed whose output hashes must agree
MIN_SAMPLE_S = 0.25  # a shorter operation is timed in back-to-back batches
MAX_SAMPLES = 8      # samples of one operation within a round
IMPORT_REPEATS = 3   # fresh interpreters timed for setup_s
PREPARE_REPEATS = 3
REFERENCE_FILE = HERE / "reference_events.json"

# All load comes from this one process; cap BLAS threads at the cores we
# may use before numpy loads.
for _var in BLAS_VARS:
    _have = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_have), NPROC) if _have.isdigit()
                           and int(_have) > 0 else NPROC)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def _import_program():
    if not (SRC / "tlcausal" / "__init__.py").is_file():
        raise BenchError(f"no tlcausal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tlcausal
    if Path(tlcausal.__file__).resolve().parent != SRC / "tlcausal":
        raise BenchError(f"imported tlcausal from {tlcausal.__file__}, "
                         f"not from {SRC}")
    return tlcausal


# ---------------------------------------------------------------------------
# Workloads

@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "spike" (simulator) or "expr" (profiles)
    tmin: int
    tmax: int
    tree_depth: int = 0        # spike: binary tree of 2**depth - 1 neurons
    firings: int = 0           # spike: simulator target
    pairs: int = 0             # expr: planted regulator/target pairs
    replicates: int = 0        # expr: event files with independent noise
    ticks: int = 0             # expr: ticks per replicate


WORKLOADS = {
    # The paper's shape: 15 neurons over a long trace.  Simulator, event
    # parsing and chain building dominate; scoring is per-tick arithmetic.
    "spike-paper": Workload("spike-paper", "spike", 20, 40,
                            tree_depth=4, firings=100_000),
    # 127 neurons over a short trace: 16k hypotheses and ~0.5M rival terms
    # make scoring and the large-chain check dominate.
    "spike-wide": Workload("spike-wide", "spike", 20, 40,
                           tree_depth=7, firings=100_000),
    # Short, very wide expression data in three replicate files: 48k
    # hypotheses stress per-hypothesis Python in scoring, row building, fdr
    # and rendering, and the multi-replicate loader.  No simulator, no chain.
    "expr-replicates": Workload("expr-replicates", "expr", 1, 1, pairs=55,
                                replicates=3, ticks=48),
}

# Shrunk shapes for the self-test (selftest.py): seconds, not minutes.
TOY = {
    "spike-paper": dict(firings=5_000),
    "spike-wide": dict(tree_depth=5, firings=5_000),
    "expr-replicates": dict(pairs=5),
}

SPONTANEOUS_RATE = 1 / 30
TRIGGER_PROB = 0.9
EXPR_AR = 0.7          # regulator autocorrelation, as in the expression demo
EXPR_GAIN = 0.9        # target follows the regulator's previous tick
EXPR_NOISE = 0.35
EXPR_THETA = 0.5       # up at >= +theta, down at <= -theta
CHECK_BOUND = 0.5


@dataclass
class Inputs:
    """What set-up prepares: everything the operations need but the files."""

    truth: list            # ordered (cause, effect) atom pairs
    gen_config: object = None
    series: list = None    # expr: one (variables x ticks) matrix per replicate
    names: list = None


def prepare(tl, w: Workload, seed: int) -> Inputs:
    if w.kind == "spike":
        structure = tl.synthgen.preset("tree", w.tree_depth,
                                       trigger_prob=TRIGGER_PROB)
        config = tl.synthgen.GenConfig(structure,
                                       spontaneous_rate=SPONTANEOUS_RATE,
                                       target_firings=w.firings, seed=seed)
        truth = [(p, c) for p, c, _ in structure.edges]
        return Inputs(truth, gen_config=config)
    import numpy as np
    rng = np.random.default_rng(seed)
    names, truth = [], []
    for i in range(w.pairs):
        names += [f"d{i:02d}", f"t{i:02d}"]
        truth += [(f"d{i:02d}_up", f"t{i:02d}_up"),
                  (f"d{i:02d}_down", f"t{i:02d}_down")]
    series = []
    for _ in range(w.replicates):
        rows = []
        for _ in range(w.pairs):
            reg = np.empty(w.ticks)
            reg[0] = rng.normal()
            for t in range(1, w.ticks):
                reg[t] = EXPR_AR * reg[t - 1] + rng.normal(0, 0.7)
            lagged = np.roll(reg, 1)
            lagged[0] = 0.0
            rows += [reg, EXPR_GAIN * lagged
                     + rng.normal(0, EXPR_NOISE, w.ticks)]
        series.append(np.vstack(rows))
    return Inputs(truth, series=series, names=names)


def event_paths(w: Workload, workdir: Path) -> list:
    if w.kind == "spike":
        return [workdir / "events.csv"]
    return [workdir / f"replicate{r}.csv" for r in range(w.replicates)]


# ---------------------------------------------------------------------------
# Operations.  Each returns (hashes, facts): output digests that repeats of
# one seed must reproduce, and values the metrics are computed from.

def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def op_generate(tl, w, inputs, workdir):
    paths = event_paths(w, workdir)
    for p in paths:
        p.unlink(missing_ok=True)
    facts = {}
    if w.kind == "spike":
        events, _truth = tl.synthgen.generate(inputs.gen_config)
        tl.traces.write_events(events, paths[0])
        facts = {"firings": len(events.records), "ticks": events.horizon}
    else:
        for series, path in zip(inputs.series, paths):
            trace = tl.traces.discretize(series, EXPR_THETA, -EXPR_THETA,
                                         inputs.names)
            tl.traces.write_events(tl.traces.events_of(trace), path)
    return {p.name: _sha(p) for p in paths}, facts


OUTPUT_FILES = ("hypotheses.tsv", "edges.tsv", "plot.tsv", "summary.txt")


def op_infer(tl, w, inputs, workdir):
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    paths = event_paths(w, workdir)
    report = tl.pipeline.run_pipeline(tl.pipeline.PipelineConfig(
        paths=tuple(str(p) for p in paths), format="event-csv",
        horizon=w.ticks or None, tmin=w.tmin, tmax=w.tmax,
        outdir=str(outdir)))
    hashes = {name: _sha(outdir / name) for name in OUTPUT_FILES}
    return hashes, {"report": report, "outdir": outdir}


def _formula(cause, effect, w):
    return f"{cause} ~>{{>={w.tmin},<={w.tmax}}}{{>={CHECK_BOUND}}} {effect}"


def op_check(tl, w, inputs, workdir):
    """Answer each true edge on the traces, and for spike workloads on the
    chain inferred from them too.  Traces load as the pipeline loads them:
    one variable universe in first-appearance order across replicates."""
    event_lists = [tl.traces.load_events(str(p), w.ticks or None)
                   for p in event_paths(w, workdir)]
    variables = []
    for events in event_lists:
        for v in events.variables():
            if v not in variables:
                variables.append(v)
    data = tl.traces.TraceSet(tuple(ev.to_trace(tuple(variables))
                                    for ev in event_lists))
    model = tl.dtmc.build_dtmc(data) if w.kind == "spike" else None
    lines, on_trace = [], {}
    for cause, effect in inputs.truth:
        lead = tl.pctl.parse(_formula(cause, effect, w)).path
        line = f"{cause}\t{effect}"
        if model is not None:
            est = tl.checker.leads_to_prob(model, lead.left, lead.right,
                                           lead.tmin, lead.tmax)
            if not 0.0 <= est.probability <= 1.0:
                raise ValueError(f"chain probability {est.probability} "
                                 f"for {cause}->{effect}")
            line += f"\t{est.numerator!r}/{est.denominator!r}"
        est = tl.checker.trace_leads_to(data, lead.left, lead.right,
                                        lead.tmin, lead.tmax)
        on_trace[(cause, effect)] = est.probability
        lines.append(f"{line}\t{est.numerator}/{est.denominator}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    facts = {"on_trace": on_trace}
    if model is not None:
        facts.update(states=model.n_states,
                     transitions=int(model.transitions.nnz))
    return {"check": digest}, facts


OPS = (("generate", op_generate), ("infer", op_infer), ("check", op_check))


# ---------------------------------------------------------------------------
# Correctness of one round's outputs

def verify(w, inputs, infer_facts, check_facts, toy):
    """Return (problems, precision, recall) for one round."""
    problems = []
    outdir = infer_facts["outdir"]
    rows = {}
    with open(outdir / "hypotheses.tsv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            rows[(cells[0], cells[1])] = cells
    n_vars = int(infer_facts["report"].settings["variables"])
    if len(rows) != n_vars * (n_vars - 1):
        problems.append(f"{len(rows)} hypothesis rows for {n_vars} "
                        f"variables")
    found = set()
    for line in (outdir / "edges.tsv").read_text().splitlines():
        edge = tuple(line.split("\t"))
        found.add(edge)
        if rows.get(edge, [""])[-1] != "significant":
            problems.append(f"edge {edge} not significant in the table")
    # two program paths must agree: trace_leads_to and the table's p_cond
    for edge, p in check_facts["on_trace"].items():
        cell = rows.get(edge, [None] * 5)[4]
        if cell != format(p, ".10g"):
            problems.append(f"check says {p!r} for {edge}, table {cell!r}")
    truth = set(inputs.truth)
    tp = len(found & truth)
    precision = tp / len(found) if found else 0.0
    recall = tp / len(truth)
    # recovery gate, looser than the acceptance test's 0.95/0.90 so that
    # seed-to-seed variation passes; short expression series leave chance
    # structure, so only recall is gated there
    if not toy and recall < 0.9:
        problems.append(f"recall {recall:.3f} < 0.9")
    if not toy and w.kind == "spike" and precision < 0.9:
        problems.append(f"precision {precision:.3f} < 0.9")
    return problems, precision, recall


# ---------------------------------------------------------------------------
# Timing.  Neighbours on a shared host shift this machine's speed by up to
# 20% over tens of seconds, which would swamp the median of a 30 s run.
# So a short fixed kernel runs after every timed call, and each call's
# time is scaled by CAL_REFERENCE_S over the mean kernel time on either
# side of it: seconds at a fixed machine speed.  The raw times are printed
# on the info line.

CAL_REFERENCE_S = 0.006  # the kernel's time on a 2-vCPU Xeon VM, Python 3.11
CAL_PASSES = 10


class Clock:
    def __init__(self):
        import numpy as np
        self._np = np
        self._block = np.random.default_rng(0).random(1_000_000)
        self._out = np.empty_like(self._block)
        self._last = self._kernel()
        self.raw = {}      # label -> seconds as measured
        self.scaled = {}   # label -> seconds at the reference speed

    def _kernel(self):
        """Fixed work in two parts, each timed as its fastest of
        CAL_PASSES passes: dict and tuple churn plus a numpy pass over
        8 MB, and integer arithmetic.  The collector is off meanwhile."""
        churn, arith = [], []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(CAL_PASSES):
                t0 = time.perf_counter()
                table = {}
                for i in range(6000):
                    table[(i, i & 7)] = str(i)
                self._np.cumsum(self._block, out=self._out)
                t1 = time.perf_counter()
                total = 0
                for i in range(20000):
                    total += i * i % 7
                churn.append(t1 - t0)
                arith.append(time.perf_counter() - t1)
        finally:
            if enabled:
                gc.enable()
        return min(churn) + min(arith)

    def time(self, label, fn, *args, calls=1):
        """Call ``fn(*args)`` and record its duration under ``label``, per
        call when ``fn`` makes ``calls`` calls."""
        before = self._last
        t0 = time.perf_counter()
        result = fn(*args)
        raw = (time.perf_counter() - t0) / calls
        self._last = self._kernel()
        self.raw.setdefault(label, []).append(raw)
        self.scaled.setdefault(label, []).append(
            raw * 2 * CAL_REFERENCE_S / (before + self._last))
        return result

    def median(self, label):
        return statistics.median(self.scaled[label])


# Set-up time: a fresh interpreter importing the program, plus preparing
# the inputs that are not a measured operation.

def _import_once():
    subprocess.run([sys.executable, "-c", "import tlcausal"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                   cwd=str(ROOT))


def measure_setup(clock, tl, w, seed):
    for _ in range(IMPORT_REPEATS):
        clock.time("import", _import_once)
    for _ in range(PREPARE_REPEATS):
        inputs = clock.time("prepare", prepare, tl, w, seed)
    return clock.median("import") + clock.median("prepare"), inputs


# ---------------------------------------------------------------------------
# Tracing: which names to wrap and what each per-layer metric reads.

def install_tracer(tracer, tl):
    """Wrap each public function at the name the program (or, for the
    operations' entry points, this benchmark) calls it by."""
    t = tracer.wrap
    t(tl.synthgen, "generate", "synthgen.generate")
    t(tl.traces, "write_events", "traces.write_events")
    t(tl.pipeline, "run_pipeline", "pipeline.run")
    t(tl.pipeline, "load_events", "traces.load_events")
    t(tl.traces.EventList, "to_trace", "traces.to_trace")
    t(tl.pipeline, "enumerate_pairwise", "causal.enumerate")
    t(tl.pipeline, "score_hypotheses", "causal.score")
    t(tl.causal, "eval_on_trace", "checker.eval_on_trace")
    t(tl.causal, "window_hits", "checker.window_hits")
    for name in ("z_scores", "fit_mixture", "fit_null", "local_fdr",
                 "classify"):
        t(tl.fdr, name, f"fdr.{name}")
    t(tl.pipeline, "render_outputs", "pipeline.render")
    t(tl.pipeline, "print_formula", "pctl.print_formula", timed=False)
    t(tl.causal, "print_formula", "pctl.print_formula", timed=False)
    t(tl.dtmc, "build_dtmc", "dtmc.build")
    t(tl.checker, "leads_to_prob", "checker.leads_to_prob")
    t(tl.checker, "trace_leads_to", "checker.trace_leads_to")
    t(tl.pctl, "parse", "pctl.parse")


# (metric, span, operation) for span totals
SPAN_TOTALS = (
    ("synthgen.generate_s", "synthgen.generate", "generate"),
    ("traces.write_events_s", "traces.write_events", "generate"),
    ("traces.load_events_s", "traces.load_events", "infer"),
    ("traces.to_trace_s", "traces.to_trace", "infer"),
    ("causal.enumerate_s", "causal.enumerate", "infer"),
    ("causal.score_s", "causal.score", "infer"),
    ("checker.eval_on_trace_s", "checker.eval_on_trace", "infer"),
    ("checker.window_hits_s", "checker.window_hits", "infer"),
    ("fdr.z_scores_s", "fdr.z_scores", "infer"),
    ("fdr.fit_mixture_s", "fdr.fit_mixture", "infer"),
    ("fdr.fit_null_s", "fdr.fit_null", "infer"),
    ("fdr.local_fdr_s", "fdr.local_fdr", "infer"),
    ("fdr.classify_s", "fdr.classify", "infer"),
    ("pipeline.render_s", "pipeline.render", "infer"),
    ("dtmc.build_s", "dtmc.build", "check"),
    ("checker.leads_to_prob_s", "checker.leads_to_prob", "check"),
    ("checker.trace_leads_to_s", "checker.trace_leads_to", "check"),
    ("pctl.parse_s", "pctl.parse", "check"),
)
# (metric, span, operation) for call counts
SPAN_CALLS = (
    ("checker.eval_on_trace.calls", "checker.eval_on_trace", "infer"),
    ("checker.window_hits.calls", "checker.window_hits", "infer"),
    ("pctl.print_formula.calls", "pctl.print_formula", "infer"),
)
SPIKE_ONLY_SPANS = {"synthgen.generate", "dtmc.build", "checker.leads_to_prob"}


def expected_spans(w):
    """Every traced name must fire on the workloads that reach it."""
    pairs = {(span, op) for _, span, op in SPAN_TOTALS + SPAN_CALLS}
    pairs.add(("pipeline.run", "infer"))
    if w.kind == "expr":
        pairs = {(s, op) for s, op in pairs if s not in SPIKE_ONLY_SPANS}
    return pairs


def layer_metrics(tracer, w, facts):
    """Per-layer metrics of one traced round."""
    m = {name: tracer.total(span, op) for name, span, op in SPAN_TOTALS}
    m.update({name: tracer.count(span, op) for name, span, op in SPAN_CALLS})
    m["causal.score_self_s"] = tracer.self_time("causal.score", "infer")
    m["pipeline.self_s"] = tracer.self_time("pipeline.run", "infer")
    m["checker.queries"] = (tracer.count("checker.leads_to_prob", "check")
                            + tracer.count("checker.trace_leads_to", "check"))
    report = facts["infer"]["report"]
    rows = report.rows
    n_vars = int(report.settings["variables"])
    ticks = int(report.settings["ticks"])
    n_traces = int(report.settings["traces"])
    passers = {}
    for r in rows:
        if r.prima_facie:
            passers[r.effect] = passers.get(r.effect, 0) + 1
    event_files = event_paths(w, facts["workdir"])
    m.update({
        "synthgen.firings": facts["generate"].get("firings", 0),
        "synthgen.ticks": facts["generate"].get("ticks", 0),
        "traces.events": sum(len(p.read_bytes().splitlines())
                             for p in event_files),
        "traces.csv_bytes": sum(p.stat().st_size for p in event_files),
        "traces.dense_bytes": n_vars * ticks,
        # causes (one per variable, no negations) x qualifying ticks x 8 B
        "causal.cause_matrix_bytes":
            n_vars * (ticks - n_traces * w.tmax) * 8,
        "causal.rival_pairs": sum(k * (k - 1) for k in passers.values()),
        "causal.hypotheses": report.counts["enumerated"],
        "causal.prima_facie": report.counts["prima_facie"],
        "causal.scored": report.counts["scored"],
        "causal.prima_facie_ratio":
            report.counts["prima_facie"] / report.counts["enumerated"],
        "fdr.n_scores": report.counts["scored"],
        "fdr.significant": report.counts["significant"],
        "fdr.zero_fdr": sum(1 for r in rows if r.fdr == 0.0),
        "dtmc.states": facts["check"].get("states", 0),
        "dtmc.transitions": facts["check"].get("transitions", 0),
        "pipeline.output_bytes": sum((facts["infer"]["outdir"] / n)
                                     .stat().st_size for n in OUTPUT_FILES),
    })
    run_total = tracer.total("pipeline.run", "infer")
    accounted = (tracer.children_total("pipeline.run", "infer")
                 + m["pipeline.self_s"])
    if abs(accounted - run_total) > 1e-6 * max(run_total, 1.0):
        raise RuntimeError(f"spans account for {accounted} of {run_total} s")
    return m


# ---------------------------------------------------------------------------
# Environment

def blas_threads():
    """Threads of the BLAS library numpy loaded, asked of the library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh
                if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(tl):
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_VARS},
        "tlcausal": tl.__version__,
    }


# ---------------------------------------------------------------------------
# The run

def _repeat(n, fn, *args):
    return [fn(*args) for _ in range(n)]


def sampling_plan(clock):
    """(batch, samples per round) for each operation, from the first round:
    each operation gets about as much time per round as the longest one,
    in samples of at least MIN_SAMPLE_S, at most MAX_SAMPLES of them."""
    first = {name: clock.raw[name][0] for name, _ in OPS}
    longest = max(first.values())
    plan = {}
    for name, t in first.items():
        batch = max(1, math.ceil(MIN_SAMPLE_S / t))
        plan[name] = (batch, min(MAX_SAMPLES,
                                 max(1, round(longest / (batch * t)))))
    return plan


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool):
    started = time.perf_counter()
    tl = _import_program()
    w = WORKLOADS[workload]
    if toy:
        w = replace(w, **TOY[workload])
    clock = Clock()
    setup_s, inputs = measure_setup(clock, tl, w, seed)
    reference = {}
    if workload == "spike-paper" and not toy:
        reference = json.loads(REFERENCE_FILE.read_text())["events_sha256"]

    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer()
    layer_rounds, quality, problems = [], [], []
    first_hashes, plan = {}, {}
    attempted = failed = 0
    try:
        deadline = time.perf_counter() + seconds
        stop = False
        while not stop:
            # after the mandatory rounds, take no sample that would end
            # past the deadline; a round cut short is not verified
            mandatory = len(quality) < MIN_ROUNDS

            def fits(name, calls):
                return (mandatory or time.perf_counter()
                        + calls * clock.raw[name][-1] <= deadline)

            if trace:
                # an untraced infer on the same files, for the overhead
                if not quality:
                    op_generate(tl, w, inputs, workdir)
                if not fits("infer", 2):
                    break
                clock.time("untraced_infer", op_infer, tl, w, inputs, workdir)
                install_tracer(tracer, tl)
            facts = {"workdir": workdir}
            try:
                for name, fn in OPS:
                    batch, samples = plan.get(name, (1, 1))
                    for _ in range(samples):
                        if not fits(name, batch):
                            stop = True
                            break
                        tracer.op = name
                        attempted += batch
                        try:
                            results = clock.time(
                                name, _repeat, batch, tracer.run,
                                f"op.{name}", fn, tl, w, inputs, workdir,
                                calls=batch)
                        except Exception:
                            # the program failed: count it, stop measuring
                            failed += 1
                            traceback.print_exc()
                            facts.pop(name, None)
                            stop = True
                            break
                        for hashes, facts[name] in results:
                            if first_hashes.setdefault(name, hashes) != hashes:
                                failed += 1
                                problems.append(f"{name}: outputs differ "
                                                f"from the first round: "
                                                f"{hashes}")
                    if stop:
                        break
            finally:
                tracer.restore()
            if stop:
                break
            if not trace and not quality:
                plan = sampling_plan(clock)
            expected = reference.get(str(seed))
            got = first_hashes["generate"].get("events.csv")
            if expected is not None and got != expected:
                problems.append(f"events.csv sha256 {got} differs from the "
                                f"reference for seed {seed}")
            round_problems, precision, recall = verify(
                w, inputs, facts["infer"], facts["check"], toy)
            problems += round_problems
            quality.append((precision, recall))
            if trace:
                tracer.require(expected_spans(w), workload)
                layer_rounds.append(layer_metrics(tracer, w, facts))
                tracer.clear()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    if len(quality) < MIN_ROUNDS:
        raise RuntimeError("an operation failed in a mandatory round")

    if trace:
        metrics = {}
        for name in layer_rounds[0]:
            values = [r[name] for r in layer_rounds]
            if name.endswith("_s"):
                metrics[name] = (statistics.median(values), "s")
                continue
            if len(set(values)) != 1:
                problems.append(f"{name} differs between rounds: {values}")
            metrics[name] = (values[0], _count_unit(name))
        metrics["pipeline.trace_overhead_s"] = (
            clock.median("infer") - clock.median("untraced_infer"), "s")
    else:
        metrics = {
            "infer_s": (clock.median("infer"), "s"),
            "generate_s": (clock.median("generate"), "s"),
            "check_s": (clock.median("check"), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "recall": (statistics.median(r for _, r in quality), "frac"),
        }
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": workload, "seed": seed, "trace": int(trace), "toy": toy,
        "environment": environment(tl),
        "hashes": first_hashes,
        "ops_failed_frac": failed / attempted,
        "precision": statistics.median(p for p, _ in quality),
        "rounds": len(quality),
        "raw_s": clock.raw,
        "scaled_s": clock.scaled,
        "wall_s": time.perf_counter() - started,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))


def _count_unit(name):
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "frac"
    if name.endswith(".calls"):
        return "calls"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrunk inputs for the self-test")
    args = parser.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace),
            args.toy)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
