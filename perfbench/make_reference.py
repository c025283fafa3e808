#!/usr/bin/env python3
"""Record the sha256 of the spike-paper event file for seeds 1-10.

    python3 perfbench/make_reference.py

writes ``perfbench/reference_events.json``.  ``run.py`` compares every
spike-paper run with a seed in that file against it, so a simulator rewrite
that changes the event list for a given seed shows as an incorrect run.
Regenerate only when a change to the event list is intended.
"""

import json
import shutil

import run as bench

SEEDS = range(1, 11)


def main():
    tl = bench._import_program()
    w = bench.WORKLOADS["spike-paper"]
    workdir = bench.ROOT / ".perfbench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for seed in SEEDS:
            inputs = bench.prepare(tl, w, seed)
            hashes, _ = bench.op_generate(tl, w, inputs, workdir)
            digests[str(seed)] = hashes["events.csv"]
            print(seed, digests[str(seed)])
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    doc = {
        "workload": w.name,
        "generator": {"preset": "tree", "size": w.tree_depth,
                      "trigger_prob": bench.TRIGGER_PROB,
                      "spontaneous_rate": "1/30",
                      "target_firings": w.firings},
        "events_sha256": digests,
    }
    bench.REFERENCE_FILE.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
