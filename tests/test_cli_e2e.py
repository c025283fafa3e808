"""The command line end to end, in-process: files that ``cli.main`` writes,
read back by the package and held to the reference implementations in
``oracles``.  Each test runs in its own working directory, so a config
file's relative paths resolve there."""

import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from tlcausal import cli
from tlcausal.checker import leads_to_prob
from tlcausal.dtmc import build_dtmc, export_text, load_text
from tlcausal.pctl import Atom
from tlcausal.pipeline import load_data
from tlcausal.traces import _parse_clean, load_events


def test_chain_build_and_event_loading_match_oracles(tmp_path):
    run = tmp_path / "run"
    assert cli.main(["generate", "--preset", "tree", "--size", "4",
                     "--target-firings", "20000", "--seed", "1",
                     "--outdir", str(run)]) == 0
    path = run / "events.csv"
    data = load_data([str(path)], "event-csv", None)
    model, oracle = tmp_path / "model.txt", tmp_path / "oracle.txt"
    export_text(build_dtmc(data), model)
    export_text(oracles.build_dtmc(data), oracle)
    assert model.read_bytes() == oracle.read_bytes()
    # the written file is clean, so it is parsed from its bytes
    assert _parse_clean(path.read_bytes()) is not None
    events = load_events(path)
    assert (events.records, events.horizon) == oracles.load_events(path)


# One config file drives generate and infer: infer reads the events
# generate writes, and both write into run/.
_RUN_CFG = """\
[generate]
preset = chain
size = 3
target_firings = 3000
seed = 1
[infer]
path = run/events.csv
format = event-csv
[output]
outdir = run
"""
_OUTPUTS = ("events.csv", "truth.csv", "hypotheses.tsv", "edges.tsv",
            "plot.tsv", "summary.txt")


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """A working directory in which ``run.cfg`` drove generate, then
    infer.  Three neurons give 2 scores, too few for the density fit, so
    infer exits 3 after writing its tables."""
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(_RUN_CFG)
    assert cli.main(["generate", "--config", "run.cfg"]) == 0
    assert cli.main(["infer", "--config", "run.cfg"]) == 3
    assert "stage fdr" in capsys.readouterr().err
    return Path("run")


def test_one_config_drives_generate_and_infer(run):
    for name in _OUTPUTS:
        assert (run / name).is_file(), name


def _padded(text):
    """Each ``time,name`` line as `` time , name `` with a CRLF ending."""
    return "".join(f" {t} , {v} \r\n" for t, v in
                   (line.split(",") for line in text.splitlines()))


def _infer_copy(name, text):
    """infer's table for a copy of the events, under the same config."""
    Path(f"{name}.csv").write_text(text, newline="")
    assert cli.main(["infer", "--config", "run.cfg", "--path",
                     f"{name}.csv", "--outdir", name]) == 3
    return Path(name, "hypotheses.tsv").read_bytes()


def test_padded_and_long_name_copies_give_the_same_table(run):
    # a CRLF, space-padded copy is read line by line, not as a whole
    # text; names of 9-20 bytes take up to three key words
    text = (run / "events.csv").read_text()
    table = (run / "hypotheses.tsv").read_bytes()
    assert _parse_clean(text.encode()) is not None
    assert _parse_clean(_padded(text).encode()) is None
    assert _infer_copy("padded", _padded(text)) == table
    long = {"A": "neuron_A1", "B": "neuron_B_12345678",
            "C": "neuron_C_abcdefghijk"}
    long_text = re.sub(r",(\w)$", lambda m: f",{long[m[1]]}", text,
                       flags=re.M)
    assert ",neuron_C_abcdefghijk\n" in long_text
    long_table = _infer_copy("long", long_text)
    assert _infer_copy("long-padded", _padded(long_text)) == long_table
    assert long_table == re.sub(rb"^(\w)\t(\w)\t", lambda m: b"%s\t%s\t" % (
        long[m[1].decode()].encode(), long[m[2].decode()].encode()),
        table, flags=re.M)


@pytest.mark.parametrize("name, data, flags, message", [
    ("tabbed", b"0,A\n1,B\tC\n2,A\n", ["--config", "run.cfg"],
     "malformed row at line 2: '1,B\\tC'"),
    ("signed", b"0,A\n+3,A\n5,B\n", ["--config", "run.cfg"],
     "malformed row at line 2: '+3,A'"),
    ("arabic", "\u0661,A\n2,B\n".encode(), ["--config", "run.cfg"],
     "malformed row at line 1: '\u0661,A'"),
    ("latin", b"0,A\n1,caf\xe9\n", ["--tmin", "1", "--tmax", "1"],
     "cannot read latin.csv: not valid UTF-8"),
    ("unnamed", b"0,a\n1,\n2,b\n3,a\n", ["--tmin", "1", "--tmax", "1"],
     "malformed row at line 2: '1,'")],
    ids=["tab", "signed-time", "arabic-indic-time", "latin-1", "empty-name"])
def test_bad_input_is_a_data_error_and_makes_no_outdir(run, capsys, name,
                                                       data, flags, message):
    Path(f"{name}.csv").write_bytes(data)
    assert cli.main(["infer", *flags, "--path", f"{name}.csv",
                     "--outdir", name]) == 2
    assert message in capsys.readouterr().err
    assert not Path(name).exists()


def test_outdir_that_is_a_file_is_a_data_error(run, capsys):
    # refused before the inputs are loaded
    events = (run / "events.csv").read_bytes()
    assert cli.main(["infer", "--config", "run.cfg",
                     "--outdir", "run/events.csv"]) == 2
    assert "cannot write run/events.csv: run/events.csv is not a writable " \
        "directory" in capsys.readouterr().err
    assert cli.main(["infer", "--config", "run.cfg",
                     "--outdir", "run/events.csv/out"]) == 2
    assert "cannot write run/events.csv/out: run/events.csv is not a " \
        "writable directory" in capsys.readouterr().err
    assert (run / "events.csv").read_bytes() == events


def test_bad_config_value_is_a_usage_error_and_makes_no_outdir(run, capsys):
    # a bad value is a usage error as a config key, as it is as a flag
    Path("bad.cfg").write_text("path = run/events.csv\nformat = bogus\n"
                               "outdir = bad\n")
    assert cli.main(["infer", "--config", "bad.cfg"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not Path("bad").exists()


def test_window_beyond_int64_is_a_usage_error_and_makes_no_outdir(run,
                                                                  capsys):
    # a tmax cell is an int64, so a table at 2^63 could not be read back
    assert cli.main(["infer", "--config", "run.cfg", "--tmax", str(2 ** 63),
                     "--outdir", "wide"]) == 1
    assert "tmin <= tmax < 2^63" in capsys.readouterr().err
    assert not Path("wide").exists()
    # no tick has a full window, so no score reaches the fit
    assert cli.main(["infer", "--config", "run.cfg", "--tmax",
                     str(2 ** 63 - 1), "--outdir", "widest"]) == 0
    assert cli.main(["report", "--hypotheses", "widest/hypotheses.tsv",
                     "--outdir", "again"]) == 0
    table = Path("again/hypotheses.tsv").read_text()
    assert table == Path("widest/hypotheses.tsv").read_text()
    assert "\t9223372036854775807\t" in table


def test_check_counts_give_infers_p_cond(run, capsys):
    # check on the traces and infer's p_cond take the same window hits
    capsys.readouterr()
    assert cli.main(["check", "--formula", "A ~>{>=20,<=40}{>=0.5} B",
                     "--path", "run/events.csv",
                     "--format", "event-csv"]) == 0
    num, den = map(int, re.search(r"\((\d+)/(\d+)\)",
                                  capsys.readouterr().out).groups())
    assert cli.main(["infer", "--config", "run.cfg", "--tmin", "20",
                     "--tmax", "40", "--outdir", "window"]) == 3
    (cell,) = [line.split("\t")[4] for line in
               Path("window/hypotheses.tsv").read_text().splitlines()
               if line.startswith("A\tB\t")]
    assert cell == format(num / den, ".10g")
    assert cli.main(["check", "--formula", "[A U{<=40} B]{>=1}",
                     "--path", "run/events.csv",
                     "--format", "event-csv"]) == 0


def test_tree_chain_check_matches_full_products(tmp_path, monkeypatch,
                                                capsys):
    # spike-wide's settings at a tenth of its firings: most rows of the
    # chain are shift rows, so the checker's walk slides
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", "--preset", "tree", "--size", "7",
                     "--trigger-prob", "0.9", "--spontaneous-rate", "0.0333",
                     "--target-firings", "10000", "--seed", "1",
                     "--outdir", "run"]) == 0
    built = build_dtmc(load_data(["run/events.csv"], "event-csv", None))
    assert built._shift_split is not None
    assert all(built.states_with(a).flags.c_contiguous for a in built.atoms)
    export_text(built, "model.txt")
    model = load_text("model.txt")
    capsys.readouterr()
    assert cli.main(["check", "--model", "model.txt", "--formula",
                     "n000 ~>{>=20,<=40}{>=0.5} n001"]) == 0
    num, den = oracles.leads_to_full(model, model.states_with("n000"),
                                     model.states_with("n001"), 20, 40)
    assert f"(weighted {num:.6g}/{den:.6g})\n" in capsys.readouterr().out
    # every true edge, to the bit, against full products
    edges = [line.split(",") for line in
             Path("run/truth.csv").read_text().split()]
    assert len(edges) == 126
    for c, e in edges:
        cmask, emask = model.states_with(c), model.states_with(e)
        assert cmask.flags.c_contiguous and emask.flags.c_contiguous
        est = leads_to_prob(model, Atom(c), Atom(e), 20, 40)
        want = oracles.leads_to_full(model, cmask, emask, 20, 40)
        got = np.array([est.numerator, est.denominator])
        assert np.array_equal(got.view(np.int64),
                              np.array(want).view(np.int64)), (c, e)
