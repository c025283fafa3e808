import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
import pytest
from scipy import sparse

from tlcausal.dtmc import Dtmc, encode_labels
from tlcausal.traces import Trace, TraceSet


@pytest.fixture
def dtmc_a():
    """s0 {a}, s1 {b}, s2 {}; s0 -> s1/s2 at 0.5 each; s1, s2 absorbing."""
    T = sparse.csr_matrix(np.array([[0.0, 0.5, 0.5],
                                    [0.0, 1.0, 0.0],
                                    [0.0, 0.0, 1.0]]))
    return Dtmc(("a", "b"), encode_labels(("a", "b"), [{"a"}, {"b"}, set()]),
                T, 0, np.array([1.0, 1.0, 1.0]))


@pytest.fixture
def dtmc_b():
    """s0 {a} looping to itself or to absorbing s1 {b} at 0.5 each."""
    T = sparse.csr_matrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
    return Dtmc(("a", "b"), encode_labels(("a", "b"), [{"a"}, {"b"}]),
                T, 0, np.array([1.0, 1.0]))


def trace_from_marks(variables, length, marks):
    """Build a Trace with the named variables true at the given ticks."""
    values = np.zeros((len(variables), length), dtype=bool)
    index = {v: i for i, v in enumerate(variables)}
    for name, ticks in marks.items():
        for t in ticks:
            values[index[name], t] = True
    return Trace(tuple(variables), values)


def traceset_from_marks(variables, length, marks):
    return TraceSet((trace_from_marks(variables, length, marks),))


def random_dtmc(rng, n_states, atoms=("a", "b")):
    """Random stochastic rows, random labels, random positive frequencies."""
    T = rng.random((n_states, n_states)) + 0.05
    T /= T.sum(axis=1, keepdims=True)
    labels = []
    for _ in range(n_states):
        labels.append(frozenset(a for a in atoms if rng.random() < 0.5))
    freq = rng.integers(1, 50, size=n_states).astype(float)
    return Dtmc(tuple(atoms), encode_labels(atoms, labels),
                sparse.csr_matrix(T), int(rng.integers(n_states)), freq)


def random_traceset(rng, n_atoms, max_len=50, n_traces=1, density=0.3):
    atoms = tuple(chr(ord("a") + i) for i in range(n_atoms))
    traces = []
    for _ in range(n_traces):
        length = int(rng.integers(5, max_len + 1))
        values = rng.random((n_atoms, length)) < density
        traces.append(Trace(atoms, values))
    return TraceSet(tuple(traces))
