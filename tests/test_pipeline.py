import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tlcausal import cli
from tlcausal.errors import FitError, UsageError
from tlcausal.pipeline import (TSV_COLUMNS, PipelineConfig, load_config_file,
                               load_data, read_hypotheses_tsv, rerun_fdr,
                               run_pipeline)
from tlcausal.synthgen import GenConfig, generate, preset
from tlcausal.traces import discretize, events_of, write_events


def _generate_inputs(tmp_path, seed=1, target=20_000, spont=1 / 30):
    structure = preset("tree", 4, 0.9)
    events, truth = generate(GenConfig(structure, spont, target_firings=target,
                                       seed=seed))
    path = tmp_path / f"events_{seed}.csv"
    write_events(events, path)
    truth_path = tmp_path / f"truth_{seed}.csv"
    with open(truth_path, "w") as fh:
        for p, c in truth.edges:
            fh.write(f"{p},{c}\n")
    return path, truth, events.horizon


def _config(path, outdir, **kw):
    defaults = dict(paths=(str(path),), format="event-csv", tmin=20, tmax=40,
                    outdir=str(outdir) if outdir is not None else None)
    defaults.update(kw)
    return PipelineConfig(**defaults)


def _tiny_events(tmp_path):
    """An event file (horizon 242, window [1,1]) on which a few hypotheses
    score, far too few for a density fit."""
    tiny = tmp_path / "tiny.csv"
    lines = []
    for t in range(0, 240, 4):
        lines.append(f"{t},a")
    for t in range(0, 240, 6):
        lines.append(f"{t},b")
    for t in range(0, 240, 4):
        lines.append(f"{t + 1},e")
    for t in range(0, 240, 6):
        if (t + 1) % 4 != 1:
            lines.append(f"{t + 1},e")
    tiny.write_text("\n".join(lines) + "\n")
    return tiny


def _tiny_infer_args(tmp_path, outdir):
    return ["infer", "--path", str(_tiny_events(tmp_path)),
            "--format", "event-csv",
            "--horizon", "242", "--tmin", "1", "--tmax", "1",
            "--outdir", str(outdir)]


@st.composite
def _event_file(draw):
    """Events over up to four variables.  A file's trace ends at its last
    event, and some end before tick 6, the widest window's tmax."""
    last = draw(st.integers(0, 20))
    return draw(st.sets(st.tuples(st.integers(0, last),
                                  st.sampled_from("abcd")),
                        min_size=1, max_size=30))


class TestRunPipeline:
    def test_skipped_fit_raises_after_writing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(FitError, match=r"^\[stage fdr\] "):
            run_pipeline(_config(_tiny_events(tmp_path), out, horizon=242,
                                 tmin=1, tmax=1))
        rows = read_hypotheses_tsv(out / "hypotheses.tsv")
        assert any(r.eps_avg is not None for r in rows)
        assert all(r.label == "insignificant" for r in rows)
        redo = tmp_path / "redo"
        with pytest.raises(FitError, match=r"^\[stage fdr\] "):
            rerun_fdr(rows, redo)
        assert (redo / "edges.tsv").read_text() == ""

    def test_recovers_small_tree(self, tmp_path):
        path, truth, horizon = _generate_inputs(tmp_path)
        report = run_pipeline(_config(path, tmp_path / "out",
                                      horizon=horizon))
        found = set(report.significant)
        assert found == set(truth.edges)
        assert report.counts["enumerated"] == 210
        assert report.counts["prima_facie"] >= report.counts["scored"]
        assert report.counts["scored"] >= report.counts["significant"]

    def test_outputs_byte_identical_across_reruns(self, tmp_path):
        path, _, horizon = _generate_inputs(tmp_path)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        run_pipeline(_config(path, out1, horizon=horizon))
        run_pipeline(_config(path, out2, horizon=horizon))
        for name in ("hypotheses.tsv", "edges.tsv", "plot.tsv",
                     "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_table_roundtrip(self, tmp_path):
        path, _, horizon = _generate_inputs(tmp_path)
        out = tmp_path / "out"
        report = run_pipeline(_config(path, out, horizon=horizon))
        rows = read_hypotheses_tsv(out / "hypotheses.tsv")
        assert len(rows) == len(report.rows)
        for name in TSV_COLUMNS:
            assert (getattr(rows, name).dtype
                    == getattr(report.rows, name).dtype), name
        for got, want in zip(rows, report.rows):
            assert got.cause == want.cause and got.effect == want.effect
            assert got.prima_facie == want.prima_facie
            assert got.label == want.label

    def test_empty_prima_facie_is_valid(self, tmp_path):
        # one lonely firing per variable: nothing passes
        path = tmp_path / "quiet.csv"
        path.write_text("0,a\n1,b\n")
        report = run_pipeline(PipelineConfig(
            paths=(str(path),), format="event-csv", horizon=50,
            tmin=20, tmax=40, outdir=str(tmp_path / "out")))
        assert report.counts["significant"] == 0
        assert (tmp_path / "out" / "hypotheses.tsv").exists()

    def test_expression_style_end_to_end(self, tmp_path):
        # discretized expression-like input: >= 100 variables, 48 ticks
        rng = np.random.default_rng(2)
        n_genes, ticks = 110, 48
        phase = rng.uniform(0, 2 * np.pi, n_genes)
        t = np.arange(ticks)
        series = np.sin(2 * np.pi * t / 48 + phase[:, None] * 1.0)
        series += rng.normal(0, 0.35, size=series.shape)
        trace = discretize(series, 0.5, -0.5,
                           [f"g{i:03d}" for i in range(n_genes)])
        events = events_of(trace)
        path = tmp_path / "expr.csv"
        write_events(events, path)
        report = run_pipeline(PipelineConfig(
            paths=(str(path),), format="event-csv", horizon=ticks,
            tmin=1, tmax=1, outdir=str(tmp_path / "out")))
        assert report.counts["enumerated"] == 220 * 219
        assert report.counts["scored"] >= 50
        assert (tmp_path / "out" / "plot.tsv").read_text().count("\n") > 10

    @settings(max_examples=80, deadline=None)
    @given(files=st.lists(_event_file(), min_size=1, max_size=3),
           tmin=st.integers(1, 3), width=st.integers(0, 3),
           negations=st.booleans(),
           divisor=st.sampled_from(["defined", "strict"]),
           min_support=st.integers(1, 3))
    def test_table_matches_oracle_rows(self, files, tmin, width, negations,
                                       divisor, min_support):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, events in enumerate(files):
                paths.append(str(Path(tmp) / f"r{i}.csv"))
                Path(paths[-1]).write_text(
                    "".join(f"{t},{v}\n" for t, v in sorted(events)))
            out = Path(tmp) / "out"
            try:
                run_pipeline(PipelineConfig(
                    paths=tuple(paths), tmin=tmin, tmax=tmin + width,
                    negations=negations, divisor=divisor,
                    min_support=min_support, outdir=str(out)))
            except FitError:
                pass  # the tables are written before the fit error
            got = [tuple(line.split("\t")[:8]) for line in
                   (out / "hypotheses.tsv").read_text().splitlines()[1:]]
            data = load_data(paths, "event-csv", None)
        assert got == oracles.hypothesis_rows(data, tmin, tmin + width,
                                              negations, divisor,
                                              min_support)

    def test_stage_labels_on_errors(self, tmp_path):
        cfg = PipelineConfig(paths=(str(tmp_path / "missing.csv"),),
                             tmin=1, tmax=1)
        with pytest.raises(Exception, match="stage load"):
            run_pipeline(cfg)


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("""
[input]
path = events.csv
format = event-csv
[window]
tmin = 20
tmax = 40
negations = false
[fdr]
bins = 90
threshold = 0.01
[output]
outdir = out
""")
        got = load_config_file(cfg)
        assert got["tmin"] == "20"
        assert got["outdir"] == "out"

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wat = 1\n")
        with pytest.raises(Exception, match="unknown key"):
            load_config_file(cfg)

    def test_duplicate_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tmin = 1\ntmin = 2\n")
        with pytest.raises(Exception, match="duplicate"):
            load_config_file(cfg)

    def test_hash_starts_comment_only_after_whitespace(self, tmp_path):
        data = tmp_path / "d#1"
        data.mkdir()
        (data / "r1.csv").write_text("0,a\n1,b\n3,a\n4,b\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment line\n"
                       f"path = {data / 'r1.csv'}\n"
                       f"tmin = 1  # note\n"
                       f"tmax = 1\t# tab before the hash\n"
                       f"outdir = {tmp_path / 'out'}\n")
        got = load_config_file(cfg)
        assert got["path"] == str(data / "r1.csv")
        assert got["tmin"] == "1" and got["tmax"] == "1"
        assert cli.main(["infer", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "hypotheses.tsv").exists()


class TestCli:
    def test_generate_then_infer(self, tmp_path, capsys):
        gen_out = tmp_path / "gen"
        rc = cli.main(["generate", "--preset", "tree", "--size", "4",
                       "--trigger-prob", "0.9",
                       "--spontaneous-rate", "0.0333",
                       "--target-firings", "20000", "--seed", "4",
                       "--outdir", str(gen_out)])
        assert rc == 0
        assert (gen_out / "events.csv").exists()
        truth = {tuple(line.split(","))
                 for line in (gen_out / "truth.csv").read_text().splitlines()}
        inf_out = tmp_path / "inf"
        rc = cli.main(["infer", "--path", str(gen_out / "events.csv"),
                       "--format", "event-csv", "--tmin", "20",
                       "--tmax", "40", "--outdir", str(inf_out)])
        assert rc == 0
        edges = {tuple(line.split("\t")) for line in
                 (inf_out / "edges.tsv").read_text().splitlines()}
        assert edges == truth

    def test_check_on_traces(self, tmp_path, capsys):
        path = tmp_path / "ev.csv"
        path.write_text("0,a\n2,b\n5,a\n7,b\n9,a\n")
        rc = cli.main(["check", "--formula", "a ~>{>=1,<=2}{>=0.5} b",
                       "--path", str(path), "--format", "event-csv",
                       "--horizon", "12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "probability:" in out and "holds" in out

    def test_check_accepts_replicates_infer_accepts(self, tmp_path, capsys):
        # variables first appear in different orders across the replicates
        r1 = tmp_path / "r1.csv"
        r1.write_text("0,a\n1,b\n3,a\n4,b\n")
        r2 = tmp_path / "r2.csv"
        r2.write_text("0,b\n1,a\n2,b\n5,a\n6,b\n")
        paths = ["--path", str(r1), "--path", str(r2)]
        rc = cli.main(["infer", *paths, "--tmin", "1", "--tmax", "1",
                       "--outdir", str(tmp_path / "out")])
        assert rc == 0
        rows = read_hypotheses_tsv(tmp_path / "out" / "hypotheses.tsv")
        (p_cond,) = [r.p_cond for r in rows
                     if (r.cause, r.effect) == ("a", "b")]
        capsys.readouterr()
        rc = cli.main(["check", "--formula", "a ~>{>=1,<=1}{>=0.5} b",
                       *paths])
        assert rc == 0
        out = capsys.readouterr().out
        assert p_cond == 1.0
        assert "probability: 1 (4/4)" in out and "holds" in out

    def test_check_state_formula(self, tmp_path, capsys):
        path = tmp_path / "ev.csv"
        path.write_text("0,a\n1,a\n3,b\n")
        rc = cli.main(["check", "--formula", "a | b",
                       "--path", str(path), "--horizon", "5"])
        assert rc == 0
        assert "holds at 3/5 ticks" in capsys.readouterr().out

    def test_check_on_exported_model(self, tmp_path, capsys):
        from tlcausal.dtmc import build_dtmc, export_text
        from tlcausal.traces import load_traces
        ev = tmp_path / "ev.csv"
        ev.write_text("0,a\n1,b\n2,a\n3,b\n")
        model = build_dtmc(load_traces(ev, "event-csv", horizon=4))
        listing = tmp_path / "model.txt"
        export_text(model, listing)
        rc = cli.main(["check", "--formula", "[true U{<=2} b]{>0}",
                       "--model", str(listing)])
        assert rc == 0
        assert "satisfying states" in capsys.readouterr().out

    def test_check_model_naming_undeclared_state(self, tmp_path, capsys):
        listing = tmp_path / "model.txt"
        listing.write_text("atoms a\ninitial 0\nstate 0: {a}\n"
                           "trans 0 5 1.0\n")
        assert cli.main(["check", "--formula", "a",
                         "--model", str(listing)]) == 2
        assert "names a state outside" in capsys.readouterr().err

    def test_fdr_rerun_from_table(self, tmp_path, capsys):
        path, _, horizon = _generate_inputs(tmp_path)
        out = tmp_path / "out"
        run_pipeline(_config(path, out, horizon=horizon))
        redo = tmp_path / "redo"
        rc = cli.main(["fdr", "--hypotheses", str(out / "hypotheses.tsv"),
                       "--threshold", "0.05", "--outdir", str(redo)])
        assert rc == 0
        assert (redo / "hypotheses.tsv").exists()
        assert (redo / "plot.tsv").exists()
        # default settings reproduce the run's own decisions (z and fdr
        # move in the last digits: the table stores eps_avg to 10 digits)
        same = tmp_path / "same"
        rc = cli.main(["fdr", "--hypotheses", str(out / "hypotheses.tsv"),
                       "--outdir", str(same)])
        assert rc == 0
        assert (same / "edges.tsv").read_bytes() == \
            (out / "edges.tsv").read_bytes()

    def test_report_rerender(self, tmp_path, capsys):
        path, _, horizon = _generate_inputs(tmp_path)
        out = tmp_path / "out"
        run_pipeline(_config(path, out, horizon=horizon))
        rr = tmp_path / "rr"
        rc = cli.main(["report", "--hypotheses", str(out / "hypotheses.tsv"),
                       "--outdir", str(rr)])
        assert rc == 0
        assert (rr / "edges.tsv").read_bytes() == \
            (out / "edges.tsv").read_bytes()
        assert (rr / "hypotheses.tsv").read_bytes() == \
            (out / "hypotheses.tsv").read_bytes()

    def test_exit_codes(self, tmp_path, capsys):
        assert cli.main(["infer"]) == 1  # no inputs: usage
        missing = str(tmp_path / "nope.csv")
        assert cli.main(["infer", "--path", missing, "--tmin", "1",
                         "--tmax", "1"]) == 2  # unreadable input: data
        bad = tmp_path / "bad.csv"
        bad.write_text("zzz\n")
        assert cli.main(["infer", "--path", str(bad), "--tmin", "1",
                         "--tmax", "1"]) == 2
        assert cli.main(["check", "--formula", "a &"]) == 2  # parse error
        # a few hypotheses score, far too few for a density fit: fit error
        rc = cli.main(_tiny_infer_args(tmp_path, tmp_path / "t"))
        assert rc == 3
        assert "stage fdr" in capsys.readouterr().err

    def test_skipped_fit_keeps_tables(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert cli.main(_tiny_infer_args(tmp_path, out)) == 3
        assert "stage fdr" in capsys.readouterr().err
        rows = read_hypotheses_tsv(out / "hypotheses.tsv")
        assert len(rows) == 6
        assert any(r.eps_avg is not None for r in rows)
        assert all(r.z is None and r.fdr is None for r in rows)
        assert all(r.label == "insignificant" for r in rows)
        assert (out / "edges.tsv").read_text() == ""
        assert (out / "plot.tsv").read_text() == "center\tcount\tf\tf0\n"
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[-1].startswith("fit: skipped ([stage fdr] ")
        assert "significant: 0" in summary
        assert not any(line.startswith("null:") for line in summary)
        # fdr on that table keeps its outputs the same way
        redo = tmp_path / "redo"
        assert cli.main(["fdr", "--hypotheses", str(out / "hypotheses.tsv"),
                         "--outdir", str(redo)]) == 3
        assert "stage fdr" in capsys.readouterr().err
        assert (redo / "hypotheses.tsv").read_bytes() == \
            (out / "hypotheses.tsv").read_bytes()
        assert (redo / "edges.tsv").read_text() == ""
        assert (redo / "plot.tsv").read_text() == "center\tcount\tf\tf0\n"
        summary = (redo / "summary.txt").read_text().splitlines()
        assert summary[-1].startswith("fit: skipped ([stage fdr] ")

    @pytest.mark.parametrize("format, text, name", [
        ("event-csv", "0,true\n1,b\n5,true\n6,b\n9,c\n", "true"),
        ("wide-csv", "time,b,false\n0,1,0\n1,0,1\n", "false")])
    def test_reserved_variable_name_is_a_data_error(self, tmp_path, capsys,
                                                    format, text, name):
        # read as the constant atom, `true` would score as always holding
        path = tmp_path / "in.csv"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["infer", "--path", str(path), "--format", format,
                         "--tmin", "1", "--tmax", "1",
                         "--outdir", str(out)]) == 2
        assert f"variable {name!r} is a reserved name" in \
            capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["check", "--formula", f"{name} ~>{{>=1,<=1}}"
                         "{>=0.5} b", "--path", str(path),
                         "--format", format]) == 2
        assert f"variable {name!r} is a reserved name" in \
            capsys.readouterr().err

    def test_undecimal_event_time_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("²,a\n", encoding="utf-8")
        assert cli.main(["infer", "--path", str(bad), "--tmin", "1",
                         "--tmax", "1"]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("column, cell", [
        ("p_cond", "abc"), ("tmin", "2.5"), ("prima_facie", "x"),
        ("label", "maybe"), ("eps_avg", "nan"), ("p_cond", "inf")])
    def test_bad_table_cell_is_a_data_error(self, tmp_path, capsys, column,
                                            cell):
        row = dict(zip(TSV_COLUMNS, ("a", "b", "1", "1", "0.5", "0.25", "1",
                                     "0.1", "", "", "insignificant")))
        row[column] = cell
        table = tmp_path / "h.tsv"
        table.write_text("\t".join(TSV_COLUMNS) + "\n"
                         + "\t".join(row.values()) + "\n")
        for command in ("fdr", "report"):
            out = tmp_path / command
            assert cli.main([command, "--hypotheses", str(table),
                             "--outdir", str(out)]) == 2
            assert f"h.tsv:2: bad {column} {cell!r}" in \
                capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--bins", "5"), ("--degree", "1"), ("--min-support", "0")])
    def test_bad_infer_setting_stops_before_work(self, tmp_path, capsys,
                                                 flag, value):
        out = tmp_path / "out"
        assert cli.main(_tiny_infer_args(tmp_path, out) + [flag, value]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_fdr_setting_stops_before_work(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert cli.main(_tiny_infer_args(tmp_path, out)) == 3
        table = str(out / "hypotheses.tsv")
        redo = tmp_path / "redo"
        assert cli.main(["fdr", "--hypotheses", table, "--degree", "1",
                         "--outdir", str(redo)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not redo.exists()
        with pytest.raises(UsageError):
            rerun_fdr(read_hypotheses_tsv(table), redo, bins=5)
        assert not redo.exists()


class TestPipelineVariants:
    def test_config_file_matches_flags(self, tmp_path):
        path, _, horizon = _generate_inputs(tmp_path, seed=3)
        run_pipeline(_config(path, tmp_path / "flags", horizon=horizon))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"""
[input]
path = {path}
format = event-csv
horizon = {horizon}
[window]
tmin = 20
tmax = 40
[fdr]
threshold = 0.01
[output]
outdir = {tmp_path / 'cfgout'}
""")
        rc = cli.main(["infer", "--config", str(cfg)])
        assert rc == 0
        for name in ("hypotheses.tsv", "edges.tsv", "plot.tsv",
                     "summary.txt"):
            assert (tmp_path / "cfgout" / name).read_bytes() == \
                (tmp_path / "flags" / name).read_bytes()

    def test_cli_flag_overrides_config(self, tmp_path):
        path, _, horizon = _generate_inputs(tmp_path, seed=3)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"path = {path}\nformat = event-csv\n"
                       f"horizon = {horizon}\ntmin = 20\ntmax = 40\n"
                       f"outdir = {tmp_path / 'a'}\n")
        rc = cli.main(["infer", "--config", str(cfg),
                       "--outdir", str(tmp_path / "b")])
        assert rc == 0
        assert (tmp_path / "b" / "edges.tsv").exists()
        assert not (tmp_path / "a").exists()

    def test_p0_mode(self, tmp_path):
        path, truth, horizon = _generate_inputs(tmp_path, seed=5)
        report = run_pipeline(_config(path, tmp_path / "out",
                                      horizon=horizon, p0=True))
        assert report.null_model.p0 is not None
        assert 0.0 < report.null_model.p0 <= 1.0
        assert set(report.significant) == set(truth.edges)

    def test_negations_flag(self, tmp_path):
        path, _, horizon = _generate_inputs(tmp_path, seed=3, target=5000)
        report = run_pipeline(_config(path, None, horizon=horizon,
                                      negations=True))
        assert report.counts["enumerated"] == 15 * 14 * 2
        assert any(r.cause.startswith("!") for r in report.rows)

    def test_check_leads_to_against_model(self, tmp_path, capsys):
        from tlcausal.dtmc import build_dtmc, export_text
        from tlcausal.traces import load_traces
        ev = tmp_path / "ev.csv"
        ev.write_text("0,a\n1,b\n2,a\n3,b\n4,a\n5,b\n")
        model = build_dtmc(load_traces(ev, "event-csv", horizon=6))
        listing = tmp_path / "model.txt"
        export_text(model, listing)
        rc = cli.main(["check", "--formula", "a ~>{>=1,<=2}{>=0.9} b",
                       "--model", str(listing)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "probability: 1" in out and "holds" in out


def test_multiple_replicate_inputs(tmp_path):
    from tlcausal.synthgen import GenConfig, generate, preset
    structure = preset("tree", 4, 0.9)
    paths = []
    for seed in (21, 22):
        events, truth = generate(GenConfig(structure, 1 / 30,
                                           target_firings=10_000, seed=seed))
        p = tmp_path / f"rep{seed}.csv"
        write_events(events, p)
        paths.append(str(p))
    report = run_pipeline(PipelineConfig(
        paths=tuple(paths), format="event-csv", horizon=None,
        tmin=20, tmax=40, outdir=None))
    assert report.counts["enumerated"] == 210
    assert set(report.significant) == set(truth.edges)


def test_boolean_config_keys(tmp_path):
    path, _, horizon = _generate_inputs(tmp_path, seed=3, target=5000)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"path = {path}\nformat = event-csv\n"
                   f"horizon = {horizon}\ntmin = 20\ntmax = 40\n"
                   f"negations = true\noutdir = {tmp_path / 'o'}\n")
    rc = cli.main(["infer", "--config", str(cfg)])
    assert rc == 0
    rows = read_hypotheses_tsv(tmp_path / "o" / "hypotheses.tsv")
    assert len(rows) == 15 * 14 * 2
