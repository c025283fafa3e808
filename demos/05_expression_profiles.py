"""
From real-valued profiles to windowed causal hypotheses
=======================================================

Expression-style input: a matrix of real values per variable per tick is
thresholded into up/down atoms, and the pipeline then tests next-tick
influences between all atom pairs.  Thirty independent regulator/target
pairs are planted: each target tracks its regulator's previous tick.
Only 48 ticks are available, so this also shows how the method behaves
on short, wide data.
"""

import tempfile
from pathlib import Path

import numpy as np

from tlcausal import (PipelineConfig, discretize, events_of, run_pipeline,
                      write_events)

rng = np.random.default_rng(11)
ticks = 48
n_pairs = 30

series, names = [], []
for i in range(n_pairs):
    # regulator: a smooth autoregressive profile of its own
    reg = np.empty(ticks)
    reg[0] = rng.normal()
    for t in range(1, ticks):
        reg[t] = 0.7 * reg[t - 1] + rng.normal(0, 0.7)
    lagged = np.roll(reg, 1)
    lagged[0] = 0.0
    target = 0.9 * lagged + rng.normal(0, 0.35, ticks)
    series += [reg, target]
    names += [f"d{i:02d}", f"t{i:02d}"]

trace = discretize(np.vstack(series), theta_up=0.5, theta_down=-0.5,
                   variables=names)
print(f"discretized {len(names)} profiles x {ticks} ticks "
      f"into {len(trace.variables)} atoms")

# Files go to a scratch directory that is removed when the block ends.
with tempfile.TemporaryDirectory(prefix="tlcausal_expr_") as tmp:
    workdir = Path(tmp)
    path = workdir / "expr.csv"
    write_events(events_of(trace), path)

    report = run_pipeline(PipelineConfig(
        paths=(str(path),),
        format="event-csv",
        horizon=ticks,
        tmin=1, tmax=1,            # influence at exactly the next tick
        threshold=0.01,
        outdir=str(workdir / "out"),
    ))
    written = sorted(p.name for p in (workdir / "out").iterdir())

print(f"stage counts: {report.counts}")
nm = report.null_model
print(f"empirical null: N({nm.delta0:.3f}, {nm.sigma0:.3f})")

def planted(cause, effect):
    return cause[0] == "d" and effect[0] == "t" and cause[1:3] == effect[1:3]

own = [e for e in report.significant if planted(*e)]
other = [e for e in report.significant if not planted(*e)]
print(f"\nsignificant edges: {len(report.significant)}")
print(f"  regulator -> own target: {len(own)} "
      f"(of {2 * n_pairs} plausible up/down pairings)")
print(f"  everything else:         {len(other)} "
      f"(short series leave some chance structure)")
for cause, effect in own[:8]:
    print(f"    {cause} -> {effect}")
print(f"\nfull tables written (then removed with the scratch directory): "
      f"{', '.join(written)}")
