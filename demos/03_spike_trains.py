"""
Simulating spike trains with a hidden causal structure
======================================================

Generate electrode-array-style firing data where a known binary tree of
neurons drives triggered firings through a 20-40 tick delay window, on top
of spontaneous noise, with a 20-tick refractory period.
"""

import numpy as np

from tlcausal import GenConfig, generate, preset

structure = preset("tree", 4, trigger_prob=0.9)
print(f"structure: {len(structure.neurons)} neurons, "
      f"{len(structure.edges)} edges")
print("edges:", ", ".join(f"{p}->{c}" for p, c, _ in structure.edges))

config = GenConfig(
    structure,
    spontaneous_rate=1 / 30,  # with the 20-tick refractory: ~1 firing / 50
    refractory=20,
    delay_min=20,
    delay_max=40,
    target_firings=100_000,
    seed=42,
)
events, truth = generate(config)
print(f"\ngenerated {len(events)} firings over "
      f"{events.horizon} ticks")

# The events are arrays: neuron events.names[events.ids[k]] fired at tick
# events.times[k].  Firing counts per neuron: children fire a bit more
# often than roots because triggered firings add to the spontaneous ones.
counts = dict(zip(events.names, np.bincount(events.ids).tolist()))
for neuron in structure.neurons:
    bar = "#" * (counts.get(neuron, 0) // 200)
    print(f"  {neuron}: {counts.get(neuron, 0):6d} {bar}")

# Inter-firing intervals respect the refractory period by construction.
times_a = events.times[events.ids == events.names.index("A")]
gaps = np.diff(times_a)
print(f"\nroot neuron A: {len(times_a)} firings, "
      f"min gap {gaps.min()}, mean gap {gaps.mean():.1f} ticks")

# Lag histogram from parent A to child B: triggered firings pile up
# inside the 20-40 tick window.
times_b = events.times[events.ids == events.names.index("B")]
lags = []
for t in times_a:
    inside = times_b[(times_b > t) & (times_b <= t + 60)]
    lags.extend(int(u - t) for u in inside)
hist, _ = np.histogram(lags, bins=[0, 10, 20, 30, 40, 50, 60])
print("\nA->B lag histogram (10-tick bands up to 60):")
for lo, n in zip(range(0, 60, 10), hist):
    print(f"  {lo:2d}-{lo + 10:2d}: {'#' * (n // 50)} {n}")
