"""
Recovering a causal structure end to end
========================================

The five-stage pipeline on simulated spike trains: enumerate pairwise
hypotheses, keep the prima facie causes (occurrence plus probability
raising in the window), score each by its average predictive impact
against rival causes, convert scores to z-values with an empirical-null
local fdr, and keep what survives the threshold.
"""

import tempfile
from pathlib import Path

import numpy as np

from tlcausal import (GenConfig, PipelineConfig, generate, preset,
                      run_pipeline, write_events)

structure = preset("tree", 4, trigger_prob=0.9)
events, truth = generate(GenConfig(structure, spontaneous_rate=1 / 30,
                                   target_firings=100_000, seed=7))

# Files go to a scratch directory that is removed when the block ends.
with tempfile.TemporaryDirectory(prefix="tlcausal_demo_") as tmp:
    workdir = Path(tmp)
    events_path = workdir / "events.csv"
    write_events(events, events_path)
    print(f"simulated data -> {events_path}")

    report = run_pipeline(PipelineConfig(
        paths=(str(events_path),),
        format="event-csv",
        horizon=events.horizon,
        tmin=20, tmax=40,          # the known trigger window
        threshold=0.01,
        outdir=str(workdir / "out"),
    ))
    written = sorted(p.name for p in (workdir / "out").iterdir())

print(f"\nstage counts: {report.counts}")
nm = report.null_model
print(f"empirical null: N({nm.delta0:.3f}, {nm.sigma0:.3f})")
print(f"wall time: {report.wall_time:.1f}s")

found = set(report.significant)
true_edges = set(truth)
tp = found & true_edges
print(f"\ndiscovered {len(found)} edges; "
      f"{len(tp)} true, {len(found - true_edges)} spurious, "
      f"{len(true_edges - found)} missed")
print("precision:", f"{len(tp) / max(len(found), 1):.3f}",
      " recall:", f"{len(tp) / len(true_edges):.3f}")

# The score separation is what makes the decision easy: true edges sit
# far in the right tail of the z-value distribution.
rows = report.rows
scored = np.flatnonzero(~np.isnan(rows.z))
print("\ntop ten hypotheses by z-value:")
for i in scored[np.argsort(-rows.z[scored], kind="stable")][:10]:
    mark = "*" if (rows.cause[i], rows.effect[i]) in true_edges else " "
    print(f" {mark} {rows.cause[i]}->{rows.effect[i]}: "
          f"eps_avg={rows.eps_avg[i]:.3f} z={rows.z[i]:.2f} "
          f"fdr={rows.fdr[i]:.3g}")
print(f"\noutputs written (then removed with the scratch directory): "
      f"{', '.join(written)}")
