"""The command line end to end, in-process: files that ``cli.main`` writes,
read back by the package and held to the reference implementations in
``oracles``."""

import oracles
from tlcausal import cli
from tlcausal.dtmc import build_dtmc, export_text
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
