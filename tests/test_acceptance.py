"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The spike-train recovery runs drive the real command-line entry
points over real files.
"""

import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import epsilon_avg, epsilon_x, marginal_window_prob
from conftest import random_dtmc, random_traceset
from formula_gen import random_formula
from tlcausal import cli
from tlcausal.checker import trace_leads_to, until_prob
from tlcausal.dtmc import build_dtmc
from tlcausal.errors import EmptyWindowError
from tlcausal.fdr import classify, fit_mixture, fit_null, local_fdr, z_scores
from tlcausal.pctl import (INFINITY, And, Atom, LeadsTo, ProbBound, Until,
                           parse, print_formula)
from tlcausal.pipeline import read_hypotheses_tsv
from tlcausal.traces import discretize, events_of, write_events

MEA_SEEDS = tuple(range(1, 11))
SPONTANEOUS = 1 / 30  # refractory 20 + mean wait 30: root fires ~1/50 ticks


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}  {detail}")
    return ok


@pytest.fixture(scope="module")
def mea_runs(tmp_path_factory):
    """generate + infer through the CLI for each seed."""
    root = tmp_path_factory.mktemp("mea")
    runs = {}
    for seed in MEA_SEEDS:
        gen_dir = root / f"gen{seed}"
        t0 = time.perf_counter()
        rc = cli.main(["generate", "--preset", "tree", "--size", "4",
                       "--trigger-prob", "0.9",
                       "--spontaneous-rate", str(SPONTANEOUS),
                       "--refractory", "20", "--delay-min", "20",
                       "--delay-max", "40",
                       "--target-firings", "100000",
                       "--seed", str(seed), "--outdir", str(gen_dir)])
        assert rc == 0
        inf_dir = root / f"inf{seed}"
        rc = cli.main(["infer", "--path", str(gen_dir / "events.csv"),
                       "--format", "event-csv", "--tmin", "20",
                       "--tmax", "40", "--threshold", "0.01",
                       "--outdir", str(inf_dir)])
        assert rc == 0
        wall = time.perf_counter() - t0
        truth = {tuple(line.split(",")) for line in
                 (gen_dir / "truth.csv").read_text().splitlines()}
        found = {tuple(line.split("\t")) for line in
                 (inf_dir / "edges.tsv").read_text().splitlines() if line}
        runs[seed] = {"truth": truth, "found": found, "wall": wall,
                      "outdir": inf_dir}
    return runs


class TestCriterion1StructureRecovery:
    def test_precision_recall(self, mea_runs):
        run = mea_runs[MEA_SEEDS[0]]
        tp = len(run["found"] & run["truth"])
        precision = tp / max(len(run["found"]), 1)
        recall = tp / len(run["truth"])
        ok = precision >= 0.95 and recall >= 0.90
        assert _report("1a structure recovery",
                       ok, f"precision={precision:.3f} recall={recall:.3f}")

    def test_false_discovery_proportion_over_seeds(self, mea_runs):
        false = sum(len(r["found"] - r["truth"]) for r in mea_runs.values())
        total = sum(len(r["found"]) for r in mea_runs.values())
        fdp = false / max(total, 1)
        ok = fdp <= 0.05
        assert _report("1b empirical FDP over 10 seeds", ok,
                       f"fdp={fdp:.4f} ({false}/{total})")

    def test_runtime(self, mea_runs):
        worst = max(r["wall"] for r in mea_runs.values())
        ok = worst <= 120.0
        assert _report("1c runtime per run", ok, f"worst={worst:.1f}s")


class TestCriterion2Robustness:
    def test_jaccard_between_seeds(self, mea_runs):
        a = mea_runs[MEA_SEEDS[0]]["found"]
        b = mea_runs[MEA_SEEDS[1]]["found"]
        jac = len(a & b) / max(len(a | b), 1)
        ok = jac >= 0.90
        assert _report("2 robustness across seeds", ok, f"jaccard={jac:.3f}")


class TestCriterion3ModelCheckingOracle:
    def test_against_path_enumeration(self):
        rng = np.random.default_rng(2025)
        worst_u = worst_w = worst_l = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            model = random_dtmc(rng, n)
            T = model.transitions.toarray()
            f1 = {int(i) for i in np.flatnonzero(rng.random(n) < 0.6)}
            f2 = {int(i) for i in np.flatnonzero(rng.random(n) < 0.4)}
            tmax = int(rng.integers(0, 7))
            f1m = np.zeros(n, bool)
            f2m = np.zeros(n, bool)
            for i in f1:
                f1m[i] = True
            for i in f2:
                f2m[i] = True
            got_u = until_prob(model, f1m, f2m, tmax)
            got_w = until_prob(model, f1m, f2m, tmax, weak=True)
            for s in range(n):
                worst_u = max(worst_u, abs(
                    got_u[s] - oracles.enum_until(T, f1, f2, tmax, s)))
                worst_w = max(worst_w, abs(
                    got_w[s] - oracles.enum_unless(T, f1, f2, tmax, s)))
            # windowed leads-to against the step-then-reach decomposition
            tmin = int(rng.integers(1, 4))
            wmax = tmin + int(rng.integers(0, 7 - tmin))
            cset = {int(i) for i in np.flatnonzero(model.states_with("a"))}
            eset = {int(i) for i in np.flatnonzero(model.states_with("b"))}
            if not cset:
                continue
            from tlcausal.checker import leads_to_prob
            got = leads_to_prob(model, Atom("a"), Atom("b"), tmin, wmax)
            want = oracles.enum_leads_to(T, model.frequency, cset, eset,
                                         tmin, wmax)
            worst_l = max(worst_l, abs(got.probability - want))
        ok = worst_u <= 1e-10 and worst_w <= 1e-10 and worst_l <= 1e-10
        assert _report("3 model-checking oracle", ok,
                       f"max deviations: until={worst_u:.2e} "
                       f"unless={worst_w:.2e} leads-to={worst_l:.2e}")


class TestCriterion4TraceSemanticsOracle:
    def test_exact_rational_agreement(self):
        rng = np.random.default_rng(777)
        checked = 0
        for _ in range(100):
            n_atoms = int(rng.integers(2, 6))
            data = random_traceset(rng, n_atoms, max_len=50,
                                   n_traces=int(rng.integers(1, 3)))
            tmin = int(rng.integers(1, 4))
            tmax = tmin + int(rng.integers(0, 5))
            names = data.variables
            cols = {v: [tr.column(v) for tr in data] for v in names}
            c, e = (names[i] for i in
                    rng.choice(n_atoms, size=2, replace=False))
            want = oracles.count_leads_to(cols[c], cols[e], tmin, tmax)
            try:
                got = trace_leads_to(data, Atom(c), Atom(e), tmin, tmax)
                assert (got.numerator, got.denominator) == want
                assert got.probability == want[0] / want[1]
            except EmptyWindowError:
                assert want[1] == 0
            want_m = oracles.count_marginal(cols[e], tmax - tmin + 1, tmin)
            try:
                got_m = marginal_window_prob(data, Atom(e),
                                             tmax - tmin + 1, tmin)
                assert (got_m.numerator, got_m.denominator) == want_m
            except EmptyWindowError:
                assert want_m[1] == 0
            # impact terms against the rational oracle
            others = [v for v in names if v not in (c, e)]
            if others:
                x = others[int(rng.integers(len(others)))]
                value, defined = epsilon_x(data, Atom(c), Atom(x), Atom(e),
                                           tmin, tmax)
                want_eps = oracles.rational_epsilon(cols[c], cols[x],
                                                    cols[e], tmin, tmax)
                if want_eps is None:
                    assert not defined
                else:
                    n1, d1 = oracles.count_leads_to(
                        [a & b for a, b in zip(cols[c], cols[x])],
                        cols[e], tmin, tmax)
                    n2, d2 = oracles.count_leads_to(
                        [~a & b for a, b in zip(cols[c], cols[x])],
                        cols[e], tmin, tmax)
                    assert value == n1 / d1 - n2 / d2
                    assert Fraction(n1, d1) - Fraction(n2, d2) == want_eps
                # full average over a rival family
                rivals = [Atom(c)] + [Atom(v) for v in others]
                rec = epsilon_avg(data, Atom(c), Atom(e), rivals, tmin, tmax)
                values = []
                for v in others:
                    w = oracles.rational_epsilon(cols[c], cols[v], cols[e],
                                                 tmin, tmax)
                    n1, d1 = oracles.count_leads_to(
                        [a & b for a, b in zip(cols[c], cols[v])],
                        cols[e], tmin, tmax)
                    n2, d2 = oracles.count_leads_to(
                        [~a & b for a, b in zip(cols[c], cols[v])],
                        cols[e], tmin, tmax)
                    if w is not None:
                        values.append(n1 / d1 - n2 / d2)
                if values:
                    assert rec.eps_avg == sum(values) / len(values)
                else:
                    assert rec.eps_avg is None
            checked += 1
        assert _report("4 trace-semantics oracle", checked == 100,
                       f"{checked} trace sets, exact counts and values")


class TestCriterion5FdrStatistics:
    def test_pure_null(self):
        rng = np.random.default_rng(1234)
        zs = z_scores(rng.standard_normal(5000))
        density = fit_mixture(zs)
        null = fit_null(density)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fdrs = local_fdr(density, null, np.asarray(zs.values))
        flagged = np.flatnonzero(classify(fdrs, 0.01))
        ok = (-0.1 <= null.delta0 <= 0.1 and 0.9 <= null.sigma0 <= 1.1
              and len(flagged) <= 0.02 * 5000)
        assert _report("5a pure-null simulation", ok,
                       f"delta0={null.delta0:.4f} sigma0={null.sigma0:.4f} "
                       f"significant={len(flagged)}/5000")

    def test_spiked(self):
        rng = np.random.default_rng(99)
        n, k = 5000, 250
        raw = np.concatenate([rng.standard_normal(n - k),
                              rng.standard_normal(k) + 4.0])
        zs = z_scores(raw)
        density = fit_mixture(zs)
        null = fit_null(density)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fdrs = local_fdr(density, null, np.asarray(zs.values))
        # at the conventional local-fdr reporting cutoff of 0.2; the 0.01
        # cutoff cannot reach 80% recall even with the true densities
        flagged = np.flatnonzero(classify(fdrs, 0.2))
        recall = sum(1 for i in flagged if i >= n - k) / k
        leakage = sum(1 for i in flagged if i < n - k) / (n - k)
        strict = np.flatnonzero(classify(fdrs, 0.01))
        strict_recall = sum(1 for i in strict if i >= n - k) / k
        ok = recall >= 0.80 and leakage <= 0.05
        assert _report("5b spiked simulation", ok,
                       f"recall={recall:.3f} leakage={leakage:.4f} "
                       f"(at 0.2; recall at 0.01 is {strict_recall:.3f})")


class TestCriterion6Parser:
    def test_thousand_roundtrips(self):
        rng = random.Random(31415926)
        failures = 0
        for _ in range(1000):
            f = random_formula(rng)
            if parse(print_formula(f)) != f:
                failures += 1
        assert _report("6a parser round-trip", failures == 0,
                       f"{1000 - failures}/1000 formulæ")

    def test_gene_regulation_ast(self):
        f = parse("(a_up & b_down) U{<=inf} c_up ~>{>=1,<=4}{>=0.9} d_up")
        want = ProbBound(
            LeadsTo(Until(And(Atom("a_up"), Atom("b_down")), Atom("c_up"),
                          INFINITY),
                    Atom("d_up"), 1, 4),
            ">=", 0.9)
        assert _report("6b windowed regulation formula AST", f == want,
                       print_formula(f))


class TestCriterion7Dtmc:
    def test_row_stochasticity_and_worked_example(self):
        rng = np.random.default_rng(555)
        worst = 0.0
        for _ in range(30):
            data = random_traceset(rng, int(rng.integers(1, 5)),
                                   max_len=60,
                                   n_traces=int(rng.integers(1, 4)))
            worst = max(worst, build_dtmc(data).row_sum_deviation())
        from conftest import traceset_from_marks
        data = traceset_from_marks(("a", "b"), 3,
                                   {"a": [0, 1], "b": [0, 1, 2]})
        model = build_dtmc(data)
        labels = {lab: i for i, lab in enumerate(model.labels)}
        ab = labels[frozenset({"a", "b"})]
        b = labels[frozenset({"b"})]
        T = model.transitions.toarray()
        exact = (T[ab, ab] == 0.5 and T[ab, b] == 0.5 and T[b, b] == 1.0)
        ok = worst <= 1e-9 and exact
        assert _report("7 chain construction", ok,
                       f"worst row deviation={worst:.2e}, "
                       f"worked example exact={exact}")


class TestExpressionShapedCoverage:
    def test_discretized_expression_end_to_end(self, tmp_path):
        rng = np.random.default_rng(404)
        n_genes, ticks = 110, 48
        phase = rng.uniform(0, 2 * np.pi, n_genes)
        t = np.arange(ticks)
        series = np.sin(2 * np.pi * t / 48 + phase[:, None])
        series += rng.normal(0, 0.35, size=series.shape)
        trace = discretize(series, 0.5, -0.5,
                           [f"g{i:03d}" for i in range(n_genes)])
        path = tmp_path / "expr.csv"
        write_events(events_of(trace), path)
        out = tmp_path / "out"
        rc = cli.main(["infer", "--path", str(path), "--format", "event-csv",
                       "--horizon", str(ticks), "--tmin", "1", "--tmax", "1",
                       "--outdir", str(out)])
        rows = read_hypotheses_tsv(out / "hypotheses.tsv") if rc == 0 else []
        ok = rc == 0 and len(rows) == 220 * 219
        assert _report("8 expression-shaped coverage", ok,
                       f"exit={rc} rows={len(rows)} "
                       f"(>=100 variables, 48 ticks)")
