import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from tlcausal import cli, pipeline
from tlcausal.checker import sat_set
from tlcausal.dtmc import load_text
from tlcausal.errors import DataError, FitError, UsageError
from tlcausal.pctl import parse
from tlcausal.cli import load_config_file
from tlcausal.pipeline import (TSV_COLUMNS, HypothesisTable, PipelineConfig,
                               Report, load_data, read_hypotheses_tsv,
                               render_outputs, rerun_fdr, run_pipeline)
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
        for p, c in truth:
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
        assert found == set(truth)
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

    def test_summary_reports_null_window(self, tmp_path):
        path, _, horizon = _generate_inputs(tmp_path)
        out = tmp_path / "out"
        for p0 in (False, True):
            nm = run_pipeline(_config(path, out, horizon=horizon,
                                      p0=p0)).null_model
            lo, hi = nm.window
            assert lo < hi
            fields = [f"delta0={nm.delta0:.10g}", f"sigma0={nm.sigma0:.10g}"]
            fields += [f"p0={nm.p0:.10g}"] if p0 else []
            fields += [f"window=[{lo:.10g},{hi:.10g}]"]
            summary = (out / "summary.txt").read_text().splitlines()
            assert [line for line in summary if line.startswith("null:")] \
                == ["null: " + " ".join(fields)]

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
        text = (out / "hypotheses.tsv").read_text()
        assert text == oracles.hypotheses_text(report.rows)
        _assert_same_table(
            rows, oracles.read_hypotheses_tsv(out / "hypotheses.tsv"))

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


def _assert_same_table(got, want):
    """Equal dtypes and shapes, and bit-equal arrays column by column."""
    for name in TSV_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        if a.dtype == float:
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
        else:
            assert a.tolist() == b.tolist(), name


def _float_bits(value):
    return int(np.float64(value).view(np.uint64))


# numbers whose cells are easy to get wrong: signed zeros, subnormals,
# exponent forms on either side of ten digits, the int64 edges as floats,
# and infinities, which the writer prints and the reader refuses
_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-05, 0.0001,
    1e+16, 9999999999.0, 12345678901.0, 1 / 3, -2.5, 9.2233720368547758e18,
    float("inf"), float("-inf")]).map(_float_bits)
# NaN of either sign with any payload: every one is the empty cell
_NAN_BITS = st.builds(lambda sign, payload: sign << 63 | 0x7FF << 52 | payload,
                      st.integers(0, 1), st.integers(1, 2 ** 52 - 1))
_FLOAT_BITS = st.one_of(_EDGE_FLOATS, _NAN_BITS,
                        st.floats(allow_nan=False).map(_float_bits))
# names hold no tab and nothing str.splitlines breaks at (Cc, Zl, Zp)
_NAMES = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                 max_size=5)


@st.composite
def _hypothesis_tables(draw):
    """A table of 0-8 rows whose columns draw each cell from a small pool
    of values, as the real columns repeat theirs, or anew."""
    n = draw(st.integers(0, 8))

    def column(values):
        pool = draw(st.lists(values, min_size=1, max_size=3))
        return draw(st.lists(st.sampled_from(pool) | values, min_size=n,
                             max_size=n))

    def floats():
        return np.array(column(_FLOAT_BITS), np.uint64).view(np.float64)

    windows = st.integers(1, 2 ** 63 - 1)
    return HypothesisTable(
        np.array(column(_NAMES), object), np.array(column(_NAMES), object),
        np.array(column(windows), np.int64),
        np.array(column(windows), np.int64),
        floats(), floats(), np.array(column(st.booleans()), bool), floats(),
        floats(), floats(),
        np.array(column(st.sampled_from(["significant", "insignificant"])),
                 object))


def _read_outcome(read, path):
    """The table a reader makes of ``path``, or the message of its data
    error."""
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def _assert_reads_like_oracle(path):
    got = _read_outcome(read_hypotheses_tsv, path)
    want = _read_outcome(oracles.read_hypotheses_tsv, path)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_table(got, want)


class TestTableText:
    """The column writer and reader of ``hypotheses.tsv`` against the
    row-by-row writer and the line-by-line reader in ``oracles``."""

    @settings(max_examples=150, deadline=None)
    @given(table=_hypothesis_tables())
    @example(table=HypothesisTable(  # zero rows: the header alone
        *(np.array([], dtype) for _, dtype in pipeline._READERS)))
    def test_writer_and_reader_match_oracles(self, table):
        # blocks of 1 and 7 rows split the 0-8 rows of a drawn table
        for rows in (1, 7, pipeline._ROWS):
            with mock.patch.object(pipeline, "_ROWS", rows), \
                    tempfile.TemporaryDirectory() as tmp:
                render_outputs(Report(table, None, [], {}), tmp)
                path = Path(tmp) / "hypotheses.tsv"
                assert path.read_bytes() == \
                    oracles.hypotheses_text(table).encode("utf-8")
                _assert_reads_like_oracle(path)

    @settings(max_examples=150, deadline=None)
    @given(table=_hypothesis_tables(), data=st.data())
    def test_damaged_table_reads_like_oracle(self, table, data):
        lines = oracles.hypotheses_text(table).splitlines()
        damage = st.sampled_from(["x", "", "nan", "inf", "2.5", "-", "1e999",
                                  "\t", "\tx", "0", "-3", "1_0",
                                  "99999999999999999999"])
        for _ in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(1, len(lines)))
            cells = (lines[k].split("\t") if k < len(lines)
                     else ["x"] * 11)
            j = data.draw(st.integers(0, len(cells)))
            cells[j:j + data.draw(st.integers(0, 1))] = [data.draw(damage)]
            lines[k:k + 1] = ["\t".join(cells)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.tsv"
            path.write_text("\n".join(lines) + "\n")
            _assert_reads_like_oracle(path)

    ROW = ("a", "b", "1", "1", "0.5", "0.25", "1", "0.1", "", "",
           "insignificant")

    def _table(self, tmp_path, *damaged):
        """A table of five good rows, then ``damaged`` as (line, column,
        cell) or (line, None, None) for a line one cell short; returns the
        reader's message, which must be the oracle's."""
        rows = [list(self.ROW) for _ in range(5)]
        for line, column, cell in damaged:
            row = rows[line - 2]
            if column is None:
                del row[-1]
            else:
                row[TSV_COLUMNS.index(column)] = cell
        path = tmp_path / "h.tsv"
        path.write_text("".join("\t".join(row) + "\n"
                                for row in [TSV_COLUMNS, *rows]))
        with pytest.raises(DataError) as got:
            read_hypotheses_tsv(path)
        with pytest.raises(DataError) as want:
            oracles.read_hypotheses_tsv(path)
        assert str(got.value) == str(want.value)
        return str(got.value)

    def test_bad_cell_before_a_short_line(self, tmp_path):
        assert self._table(tmp_path, (3, "eps_avg", "x"),
                           (5, None, None)).endswith("h.tsv:3: bad eps_avg "
                                                     "'x'")

    def test_short_line_before_a_bad_cell(self, tmp_path):
        assert self._table(tmp_path, (2, None, None),
                           (4, "tmin", "x")).endswith(
            "h.tsv:2: expected 11 columns")

    def test_leftmost_of_two_bad_cells(self, tmp_path):
        assert self._table(tmp_path, (4, "label", "maybe"),
                           (4, "p_cond", "nan")).endswith(
            "h.tsv:4: bad p_cond 'nan'")

    def test_earliest_bad_line_across_columns(self, tmp_path):
        # the label's bad cell comes first in its column, but on a later
        # line than the one in fdr
        assert self._table(tmp_path, (6, "tmin", "?"), (3, "fdr", "?"),
                           (4, "label", "?")).endswith("h.tsv:3: bad fdr "
                                                       "'?'")

    @pytest.mark.parametrize("column", ["tmin", "tmax"])
    @pytest.mark.parametrize("cell", [
        "99999999999999999999", "9223372036854775808", "0", "-3", "+3",
        " 3", "3 ", "1_0", "\u0663", "3.0", ""])
    def test_window_cells_are_digits_in_int64(self, tmp_path, column, cell):
        assert self._table(tmp_path, (3, column, cell)).endswith(
            f"h.tsv:3: bad {column} {cell!r}")

    def test_header_only_is_an_empty_table(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("\t".join(TSV_COLUMNS) + "\n")
        table = read_hypotheses_tsv(path)
        assert len(table) == 0
        _assert_same_table(table, oracles.read_hypotheses_tsv(path))


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

    @pytest.mark.parametrize("content", [b"path = caf\xe9.csv\n", None],
                             ids=["latin-1", "directory"])
    def test_unreadable_config_is_a_usage_error(self, tmp_path, capsys,
                                                content):
        cfg = tmp_path / "run.cfg"
        if content is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(content)
        assert cli.main(["infer", "--config", str(cfg)]) == 1
        assert f"cannot read config {cfg}: " in capsys.readouterr().err

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

    @pytest.mark.parametrize("formula, counts, verdict", [
        ("a ~>{>=1,<=1}{>0.6666666666666666} b", "2/3", "holds"),
        ("a ~>{>=1,<=1}{>=0.6666666666666666} b", "2/3", "holds"),
        ("a ~>{>=1,<=1}{>0.6666666666666667} b", "2/3", "fails"),
        ("a ~>{>=1,<=1}{>0.66666666666666666667} b", "2/3", "holds"),
        ("a ~>{>=1,<=4}{>=1} b", "2/2", "holds"),
        ("a ~>{>=1,<=4}{>=1.0} b", "2/2", "holds")])
    def test_trace_verdict_compares_counts_exactly(self, tmp_path, capsys,
                                                   formula, counts, verdict):
        # 2/3 lies strictly between the floats 0.6666666666666666 and
        # 0.6666666666666667.  The bound is the float that ``parse`` read:
        # 0.66666666666666666667 reads as the lower one, so 2/3 exceeds it
        path = tmp_path / "ev.csv"
        path.write_text("0,a\n1,b\n3,a\n6,a\n7,b\n")
        rc = cli.main(["check", "--formula", formula, "--path", str(path),
                       "--horizon", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"({counts})\n" in out and out.endswith(f": {verdict}\n")

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
        ev = tmp_path / "ev.csv"
        ev.write_text("0,a\n1,b\n2,a\n3,b\n")
        model = build_dtmc(load_data([ev], "event-csv", 4))
        listing = tmp_path / "model.txt"
        export_text(model, listing)
        rc = cli.main(["check", "--formula", "[true U{<=2} b]{>0}",
                       "--model", str(listing)])
        assert rc == 0
        assert "satisfying states" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [["--path", "missing.csv"],
                                       ["--horizon", "10"],
                                       ["--format", "wide-csv"]])
    def test_check_model_refuses_trace_settings(self, tmp_path, capsys,
                                                extra):
        # before, the chain was checked and the trace settings ignored, so
        # a --path that does not exist was never opened
        listing = tmp_path / "model.txt"
        listing.write_text("atoms a\ninitial 0\nstate 0: {a}\n"
                           "trans 0 0 1.0\n")
        assert cli.main(["check", "--formula", "a", "--model", str(listing),
                         *extra]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "check takes --model or --path" in err

    def test_check_model_naming_undeclared_state(self, tmp_path, capsys):
        listing = tmp_path / "model.txt"
        listing.write_text("atoms a\ninitial 0\nstate 0: {a}\n"
                           "trans 0 5 1.0\n")
        assert cli.main(["check", "--formula", "a",
                         "--model", str(listing)]) == 2
        assert "names a state outside" in capsys.readouterr().err

    def test_check_model_without_fixed_point(self, tmp_path, capsys):
        # the rows leak 5e-10 around the {a} cycle, within the row-sum
        # tolerance, so value iteration would never settle; read as
        # normalized, the cycle keeps a forever
        listing = tmp_path / "model.txt"
        listing.write_text("atoms a b\ninitial 0\nstate 0: {a}\n"
                           "state 1: {a}\nstate 2: {b}\n"
                           "trans 0 1 0.9999999995\ntrans 1 0 1.0\n"
                           "trans 2 2 1.0\n")
        assert cli.main(["check", "--formula", "[a W{<=inf} b]{>=0.5}",
                         "--model", str(listing)]) == 0
        assert capsys.readouterr().out == "satisfying states (3): 0 1 2\n"

    @pytest.mark.parametrize("formula, states", [
        ("G a", ""), ("[a W{<=inf} false]{>=0.5}", ""),
        ("F !a", "0 1"), ("[true U{<=inf} !a]{>=0.5}", "0 1"),
        ("[a U{<=2} a]{>=1e-05}", "0")])
    def test_check_model_with_a_slow_exit(self, tmp_path, capsys, formula,
                                          states):
        # state 0 leaves {a} by 1e-13 a step: for sure, but so slowly that
        # one step of value iteration changes almost nothing
        listing = tmp_path / "model.txt"
        listing.write_text("atoms a\ninitial 0\nstate 0: {a}\nstate 1: {}\n"
                           "freq 0 1\nfreq 1 1\ntrans 0 0 0.9999999999999\n"
                           "trans 0 1 1e-13\ntrans 1 1 1.0\n")
        assert cli.main(["check", "--formula", formula,
                         "--model", str(listing)]) == 0
        count = len(states.split())
        assert capsys.readouterr().out == \
            f"satisfying states ({count}): {states}\n"

    @pytest.mark.parametrize("listing, formula, message", [
        ("atoms c e\ninitial 0\nstate 0: {c}\nstate 0: {e}\n"
         "trans 0 0 1.0\n", "c ~>{>=1,<=1}{>=0.5} e",
         "model line 4 repeats state 0 (first at line 3)"),
        ("atoms c e\ninitial 0\nstate 0: {c}\nstate 1: {e}\n"
         "trans 0 1 1.0\ntrans 1 1 1.0\ninitial 1\n",
         "c ~>{>=1,<=1}{>=0.5} e",
         "model line 7 repeats initial (first at line 2)"),
        # int() would read 1_0 as state 10
        ("atoms a\ninitial 0\nstate 0: {a}\nstate 1_0: {}\n"
         "trans 0 0 1.0\n", "a", "malformed model line 4"),
        # a formula's numbers are ASCII digits, as an event time is
        ("atoms a\ninitial 0\nstate 0: {a}\nstate 1: {}\n"
         "trans 0 0 0.9999999999999\ntrans 0 1 1e-13\ntrans 1 1 1.0\n",
         "[a U{<=\u0663} a]{>=0.5}", "unexpected character '\u0663'"),
        # a trace with these names is refused too
        ("atoms a a\nstate 0: {a}\ntrans 0 0 1.0\n", "a",
         "duplicate variable name 'a'")],
        ids=["repeated-state", "repeated-initial", "underscore-id",
             "arabic-indic-bound", "repeated-atom"])
    def test_check_model_refuses_a_bad_listing_or_formula(
            self, tmp_path, capsys, listing, formula, message):
        path = tmp_path / "model.txt"
        path.write_text(listing)
        assert cli.main(["check", "--model", str(path),
                         "--formula", formula]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["{>=0,<=4}", "{>=5,<=2}"])
    def test_check_refuses_a_bad_window(self, tmp_path, capsys, window):
        path = tmp_path / "ev.csv"
        path.write_text("0,a\n1,b\n")
        assert cli.main(["check", "--formula", f"a ~>{window}{{>=0.5}} b",
                         "--path", str(path)]) == 2
        assert "1 <= tmin <= tmax" in capsys.readouterr().err

    @pytest.mark.parametrize("records, reason", [
        ("trans 0 1 1.5\ntrans 0 2 -0.5", "transition probabilities"),
        ("trans 0 1 nan", "transition probabilities"),
        ("trans 0 1 inf", "transition probabilities"),
        ("trans 0 1 1.0\nfreq 0 nan", "state frequencies"),
        ("trans 0 1 1.0\nfreq 1 -1", "state frequencies"),
        ("trans 0 1 1.0\nfreq 2 inf", "state frequencies"),
        ("trans 0 1 0.5", "rows must sum to 1")])
    def test_check_model_with_bad_numbers(self, tmp_path, capsys, records,
                                          reason):
        listing = tmp_path / "model.txt"
        listing.write_text("atoms c e\ninitial 0\nstate 0: {c}\n"
                           "state 1: {e}\nstate 2: {}\ntrans 1 1 1.0\n"
                           f"trans 2 2 1.0\n{records}\n")
        assert cli.main(["check", "--formula", "c ~>{>=1,<=1}{>=0.5} e",
                         "--model", str(listing)]) == 2
        assert reason in capsys.readouterr().err
        # a frequency of 0 is a state never observed, not an error
        listing.write_text(listing.read_text().replace(records,
                                                       "trans 0 1 1.0\n"
                                                       "freq 2 0"))
        assert cli.main(["check", "--formula", "c ~>{>=1,<=1}{>=0.5} e",
                         "--model", str(listing)]) == 0
        assert "probability: 1" in capsys.readouterr().out

    def test_check_model_verdict_at_a_bound_of_one(self, tmp_path, capsys):
        # state 0 goes to ten {b} states with probability 0.1 each: the
        # chain estimate sums to 1 only up to rounding, but every edge
        # leads to b, so the verdict holds, as in sat_set
        listing = tmp_path / "model.txt"
        listing.write_text("\n".join(
            ["atoms a b", "initial 0", "state 0: {a}"]
            + [f"state {i}: {{b}}\ntrans 0 {i} 0.1\ntrans {i} 0 1.0"
               for i in range(1, 11)]) + "\n")
        formula = "a ~>{>=1,<=1}{>=1} b"
        assert sat_set(load_text(listing), parse(formula)) == \
            frozenset(range(11))
        assert cli.main(["check", "--formula", formula,
                         "--model", str(listing)]) == 0
        out = capsys.readouterr().out
        assert "probability: 1 (weighted 1/1)" in out
        assert "bound >= 1.0: holds" in out

    @pytest.mark.parametrize("body, formula, printed", [
        # a path of 1e-400 underflows to 0.0, yet it is a path
        ("state 1: {}\nstate 2: {b}\ntrans 0 1 1e-200\ntrans 0 0 1.0\n"
         "trans 1 2 1e-200\ntrans 1 1 1.0\ntrans 2 2 1.0\n",
         "a ~>{>=1,<=2}{>0} b",
         "probability: 0 (weighted 0/1)\nbound > 0.0: holds\n"),
        # 0.9999999999 prints as 1 in six digits, and is not 1
        ("state 1: {b}\nstate 2: {}\ntrans 0 1 0.9999999999\n"
         "trans 0 2 1e-10\ntrans 1 1 1.0\ntrans 2 2 1.0\n",
         "a ~>{>=1,<=1}{>=1} b",
         "probability: 1 (weighted 1/1)\nbound >= 1.0: fails\n"),
        # a row that sums to 1 + 5e-10 reads 1.0000000005, and {>1} never
        # holds
        ("state 1: {b}\nstate 2: {b}\ntrans 0 1 0.50000000025\n"
         "trans 0 2 0.50000000025\ntrans 1 1 1.0\ntrans 2 2 1.0\n",
         "a ~>{>=1,<=1}{>1} b",
         "probability: 1 (weighted 1/1)\nbound > 1.0: fails\n"),
    ], ids=["underflow", "near-one", "above-one"])
    def test_check_model_qualitative_verdict_reads_the_graph(
            self, tmp_path, capsys, body, formula, printed):
        listing = tmp_path / "model.txt"
        listing.write_text("atoms a b\ninitial 0\nstate 0: {a}\n" + body)
        assert cli.main(["check", "--formula", formula,
                         "--model", str(listing)]) == 0
        assert capsys.readouterr().out == printed

    def test_check_model_with_reserved_atom_name(self, tmp_path, capsys):
        # read as the constant atom, `true` would hold in every state
        listing = tmp_path / "model.txt"
        listing.write_text("atoms true b\ninitial 0\nstate 0: {b}\n"
                           "state 1: {}\ntrans 0 1 1.0\ntrans 1 0 1.0\n")
        assert cli.main(["check", "--formula", "true",
                         "--model", str(listing)]) == 2
        assert "variable 'true' is a reserved name" in \
            capsys.readouterr().err

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

    @pytest.mark.parametrize("format, text, line", [
        ("event-csv", "0,a\n1,b\n2,a\tb\n", 3),
        ("event-csv", "0,a\n1,b\x01\n", 2),
        ("wide-csv", "time,a,b\tc\n0,1,0\n", 1)])
    def test_control_character_in_a_name_is_a_data_error(
            self, tmp_path, capsys, format, text, line):
        # such a name used to reach hypotheses.tsv, whose row then had 12
        # cells and which fdr and report refused
        path = tmp_path / "in.csv"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["infer", "--path", str(path), "--format", format,
                         "--tmin", "1", "--tmax", "1",
                         "--outdir", str(out)]) == 2
        assert f"at line {line}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("time", ["1000000000000000",
                                      "99999999999999999999"])
    def test_huge_event_time_is_a_data_error(self, tmp_path, capsys, time):
        # numpy refuses a trace this long outright: it exceeds the address
        # space, so nothing is allocated; int64 holds no time of 2^63 or
        # more, so the loader refuses that row
        message = f"cannot hold a trace of 2 x {int(time) + 1}" \
            if int(time) < 2 ** 63 else "event time above 2^63 - 1 at line 1"
        path = tmp_path / "ev.csv"
        path.write_text(f"{time},A\n0,B\n")
        out = tmp_path / "out"
        assert cli.main(["infer", "--path", str(path),
                         "--outdir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["check", "--formula", "A ~>{>=1,<=1}{>=0.5} B",
                         "--path", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_latin1_input_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"0,\xe9\n")
        message = f"cannot read {path}: not valid UTF-8 (byte 2)"
        out = tmp_path / "out"
        assert cli.main(["infer", "--path", str(path), "--tmin", "1",
                         "--tmax", "1", "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert not out.exists()
        assert cli.main(["check", "--formula", "a", "--model",
                         str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    @pytest.mark.parametrize("command", ["generate", "infer", "fdr",
                                         "report"])
    def test_unwritable_outdir_is_a_data_error(self, tmp_path, capsys,
                                               monkeypatch, command):
        table = tmp_path / "t" / "hypotheses.tsv"
        assert cli.main(_tiny_infer_args(tmp_path, table.parent)) == 3
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = {
            "generate": ["generate", "--preset", "chain", "--size", "3",
                         "--target-firings", "300", "--outdir", str(blocker)],
            "infer": _tiny_infer_args(tmp_path, blocker),
            "fdr": ["fdr", "--hypotheses", str(table),
                    "--outdir", str(blocker)],
            "report": ["report", "--hypotheses", str(table),
                       "--outdir", str(blocker)],
        }[command]

        def unreachable(*args, **kwargs):
            raise AssertionError("work began before the outdir was checked")

        # the first piece of work each command would do
        monkeypatch.setattr(*{"generate": (cli, "generate"),
                              "infer": (pipeline, "load_data"),
                              "fdr": (pipeline, "read_hypotheses_tsv"),
                              "report": (pipeline, "read_hypotheses_tsv"),
                              }[command], unreachable)
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot write {blocker}")
        assert "Traceback" not in err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command", ["generate", "infer", "format",
                                         "fdr"])
    def test_settings_error_wins_over_unwritable_outdir(self, tmp_path,
                                                        capsys, command):
        table = tmp_path / "t" / "hypotheses.tsv"
        assert cli.main(_tiny_infer_args(tmp_path, table.parent)) == 3
        blocker = tmp_path / "file"
        blocker.write_text("")
        for outdir in (blocker, tmp_path / "new" / "out"):
            argv = {
                "generate": ["generate", "--preset", "chain", "--size", "1",
                             "--outdir", str(outdir)],
                "infer": _tiny_infer_args(tmp_path, outdir) + ["--bins", "1"],
                "format": _tiny_infer_args(tmp_path, outdir)
                + ["--format", "bogus"],
                "fdr": ["fdr", "--hypotheses", str(table), "--bins", "1",
                        "--outdir", str(outdir)],
            }[command]
            capsys.readouterr()
            assert cli.main(argv) == 1
            assert capsys.readouterr().err.startswith("usage error:")
        assert blocker.read_text() == ""
        assert not (tmp_path / "new").exists()

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
        ("--bins", "5"), ("--degree", "1"), ("--min-support", "0"),
        ("--threshold", "0"), ("--tmin", "0")])
    def test_bad_infer_setting_stops_before_work(self, tmp_path, capsys,
                                                 flag, value):
        out = tmp_path / "out"
        assert cli.main(_tiny_infer_args(tmp_path, out) + [flag, value]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, allowed", [
        ("infer", "format", "'event-csv' or 'wide-csv'"),
        ("infer", "divisor", "'defined' or 'strict'"),
        ("generate", "preset", "'chain', 'fork', 'collider', 'tree'")])
    def test_bad_choice_is_a_usage_error(self, tmp_path, capsys, command,
                                         key, allowed):
        # a flag and a config key reach the same library check
        ev = tmp_path / "ev.csv"
        ev.write_text("0,a\n1,b\n")
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        for flags in ([f"--{key}", "bogus"], []):
            cfg.write_text(f"path = {ev}\n"
                           + ("" if flags else f"{key} = bogus\n"))
            assert cli.main([command, "--config", str(cfg), *flags,
                             "--outdir", str(out)]) == 1
            assert allowed in capsys.readouterr().err
            assert not out.exists()

    def test_check_bad_format_is_a_usage_error(self, tmp_path, capsys):
        ev = tmp_path / "ev.csv"
        ev.write_text("0,a\n1,b\n")
        for source in (["--path", str(ev)], ["--model", str(ev)]):
            assert cli.main(["check", "--formula", "a", *source,
                             "--format", "bogus"]) == 1
            assert "unknown trace format 'bogus'" in capsys.readouterr().err

    def test_check_infinite_trace_window_is_a_usage_error(self, tmp_path,
                                                         capsys):
        ev = tmp_path / "ev.csv"
        ev.write_text("0,a\n1,b\n")
        assert cli.main(["check", "--formula", "a ~>{>=1,<=inf}{>=0.5} b",
                         "--path", str(ev)]) == 1
        assert "trace checking needs a finite window" in \
            capsys.readouterr().err

    def test_bad_fdr_setting_stops_before_work(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert cli.main(_tiny_infer_args(tmp_path, out)) == 3
        table = str(out / "hypotheses.tsv")
        redo = tmp_path / "redo"
        for flag, value in (("--degree", "1"), ("--bins", "5"),
                            ("--threshold", "0"), ("--threshold", "1.5")):
            assert cli.main(["fdr", "--hypotheses", table, flag, value,
                             "--outdir", str(redo)]) == 1
            assert "usage error" in capsys.readouterr().err
            assert not redo.exists()
        with pytest.raises(UsageError):
            rerun_fdr(read_hypotheses_tsv(table), redo, bins=5)
        assert not redo.exists()

    @pytest.mark.parametrize("kw, message", [
        (dict(paths=()), "no input path"),
        (dict(paths=("a.csv", "a.csv")), "distinct"),
        (dict(tmin=0), "window"), (dict(tmin=3, tmax=2), "window"),
        (dict(divisor="mean"), "divisor"), (dict(min_support=0), "support"),
        (dict(format="tsv"), "trace format"), (dict(bins=5), "bins"),
        (dict(degree=1), "degree"), (dict(threshold=0.0), "threshold")])
    def test_config_is_refused_when_built(self, kw, message):
        with pytest.raises(UsageError, match=message):
            PipelineConfig(**{"paths": ("a.csv",), **kw})


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
        # generate, with every one of its settings
        settings = {"preset": "chain", "size": "3", "trigger_prob": "0.9",
                    "spontaneous_rate": "0.05", "refractory": "5",
                    "delay_min": "2", "delay_max": "6",
                    "target_firings": "2000", "seed": "7"}
        flags = [arg for key, value in settings.items()
                 for arg in ("--" + key.replace("_", "-"), value)]
        assert cli.main(["generate", *flags,
                         "--outdir", str(tmp_path / "gflags")]) == 0
        cfg.write_text("".join(f"{key} = {value}\n"
                               for key, value in settings.items())
                       + f"outdir = {tmp_path / 'gcfg'}\n")
        assert cli.main(["generate", "--config", str(cfg)]) == 0
        for name in ("events.csv", "truth.csv"):
            assert (tmp_path / "gcfg" / name).read_bytes() == \
                (tmp_path / "gflags" / name).read_bytes()

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
        assert set(report.significant) == set(truth)

    def test_negations_flag(self, tmp_path):
        path, _, horizon = _generate_inputs(tmp_path, seed=3, target=5000)
        report = run_pipeline(_config(path, None, horizon=horizon,
                                      negations=True))
        assert report.counts["enumerated"] == 15 * 14 * 2
        assert any(c.startswith("!") for c in report.rows.cause)

    def test_check_leads_to_against_model(self, tmp_path, capsys):
        from tlcausal.dtmc import build_dtmc, export_text
        ev = tmp_path / "ev.csv"
        ev.write_text("0,a\n1,b\n2,a\n3,b\n4,a\n5,b\n")
        model = build_dtmc(load_data([ev], "event-csv", 6))
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
    assert set(report.significant) == set(truth)


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
