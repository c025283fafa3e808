"""Synthetic spike-train generator with an embedded causal structure.

Simulation rule, per tick: every eligible neuron fires spontaneously with its
noise rate; when a neuron fires at tick ``t``, each of its out-edges schedules
a trigger at ``t + d`` with ``d`` drawn uniformly from
``{delay_min, ..., delay_max}``, and at that tick the child fires with the
edge's trigger probability if eligible.  A neuron that fired at ``t`` is
ineligible for ticks ``t+1 .. t+refractory-1`` and eligible again exactly at
``t + refractory``.  Generation stops at the first tick where cumulative
firings reach the target.

Randomness comes from ``numpy.random.default_rng(seed)``, consumed in a
fixed order per tick: ``random(k)`` for the eligible neurons in ascending
index, then ``random()`` per trigger in creation order, then
``integers(delay_min, delay_max + 1)`` per out-edge of the tick's firings in
(neuron index, edge declaration) order.  The same seed and config therefore
reproduce the event list bit for bit.  The draws are replayed from blocks of
raw PCG64 words (``random_raw``), without a numpy call per tick: a uniform
takes one word ``w`` as ``(w >> 11) * 2**-53``; a delay is Lemire's bounded
integer on 32-bit draws, each the low half of a new word or the high half
kept from the last one, past any uniforms in between.  Equal delay bounds
draw nothing; a span of ``2**32 - 1`` or more, another numpy branch, is
refused.
"""

from __future__ import annotations

import string
from bisect import insort
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import DataError, UsageError
from .traces import EventList

__all__ = ["StructureSpec", "GenConfig", "GroundTruth", "preset", "generate"]


@dataclass(frozen=True)
class StructureSpec:
    """Neurons and directed trigger edges (parent, child, trigger_prob)."""

    neurons: tuple
    edges: tuple

    def __post_init__(self):
        neurons = tuple(self.neurons)
        edges = tuple((str(p), str(c), float(q)) for p, c, q in self.edges)
        declared = set(neurons)
        if len(declared) != len(neurons):
            raise DataError("duplicate neuron names")
        for p, c, q in edges:
            if p not in declared or c not in declared:
                raise DataError(f"edge endpoint not declared: {p}->{c}")
            if p == c:
                raise DataError(f"self-edge not allowed: {p}")
            if not 0.0 <= q <= 1.0:
                raise DataError(f"trigger probability out of range: {q}")
        object.__setattr__(self, "neurons", neurons)
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class GroundTruth:
    """The embedded edge set as ordered (cause, effect) pairs."""

    edges: tuple

    @staticmethod
    def of(structure: StructureSpec) -> "GroundTruth":
        return GroundTruth(tuple((p, c) for p, c, _ in structure.edges))


@dataclass(frozen=True)
class GenConfig:
    """Generator parameters, checked when built (a bad one is a
    ``DataError``).

    ``spontaneous_rate`` is a probability per neuron per tick; pass a mapping
    to give neurons individual rates (unlisted neurons get 0).
    """

    structure: StructureSpec
    spontaneous_rate: Union[float, Mapping[str, float]]
    refractory: int = 20
    delay_min: int = 20
    delay_max: int = 40
    target_firings: int = 100_000
    seed: int = 0

    def rate_vector(self) -> np.ndarray:
        names = self.structure.neurons
        if isinstance(self.spontaneous_rate, Mapping):
            unknown = [k for k in self.spontaneous_rate if k not in names]
            if unknown:
                raise DataError("spontaneous rate for unknown neurons: "
                                + ", ".join(map(str, unknown)))
            rates = np.array([float(self.spontaneous_rate.get(n, 0.0))
                              for n in names])
        else:
            rates = np.full(len(names), float(self.spontaneous_rate))
        if ((rates < 0) | (rates > 1)).any():
            raise DataError("spontaneous rate must lie in [0, 1]")
        return rates

    def __post_init__(self):
        if self.delay_min > self.delay_max:
            raise DataError("delay_min must not exceed delay_max")
        if self.delay_min < 1:
            raise DataError("delay_min must be >= 1 (a trigger takes at "
                            "least one tick)")
        if self.delay_max - self.delay_min >= _MASK32:
            raise DataError("delay_max - delay_min must be below 2**32 - 1")
        if self.refractory < 0:
            raise DataError("refractory period must be >= 0")
        if self.target_firings < 1:
            raise DataError("target_firings must be >= 1")
        if not (self.rate_vector() > 0).any():
            raise DataError("no spontaneous source: nothing would ever fire")


_PRESET_NAMES = ("chain", "fork", "collider", "tree")
_BLOCK = 1 << 15  # raw words per block
_U53 = 2.0 ** -53
_MASK32 = 0xFFFFFFFF


def _names(count: int) -> tuple:
    letters = string.ascii_uppercase
    if count <= len(letters):
        return tuple(letters[:count])
    width = len(str(count - 1))
    return tuple(f"n{i:0{width}d}" for i in range(count))


def preset(name: str, size: int = None, trigger_prob: float = 1.0) -> StructureSpec:
    """A deterministic benchmark structure.

    ``chain`` links ``size`` neurons in a line (default 4); ``fork`` is one
    parent with two children; ``collider`` is two parents sharing one child;
    ``tree`` is a complete rooted binary tree of ``size`` levels (default 4:
    15 neurons, 14 edges).  All edges carry ``trigger_prob``.  ``fork`` and
    ``collider`` have one size, so they refuse a ``size``.
    """
    if name in ("fork", "collider") and size is not None:
        raise UsageError(f"{name} preset has one size (3 neurons); "
                         f"size does not apply")
    if name == "chain":
        n = 4 if size is None else int(size)
        if n < 2:
            raise UsageError("chain preset needs size >= 2")
        names = _names(n)
        edges = [(names[i], names[i + 1], trigger_prob) for i in range(n - 1)]
        return StructureSpec(names, tuple(edges))
    if name == "fork":
        return StructureSpec(("A", "B", "C"),
                             (("A", "B", trigger_prob), ("A", "C", trigger_prob)))
    if name == "collider":
        return StructureSpec(("A", "B", "C"),
                             (("A", "C", trigger_prob), ("B", "C", trigger_prob)))
    if name == "tree":
        depth = 4 if size is None else int(size)
        if depth < 1:
            raise UsageError("tree preset needs size >= 1")
        count = 2 ** depth - 1
        names = _names(count)
        edges = []
        for i in range(count):
            for child in (2 * i + 1, 2 * i + 2):
                if child < count:
                    edges.append((names[i], names[child], trigger_prob))
        return StructureSpec(names, tuple(edges))
    raise UsageError(f"unknown preset {name!r}; expected one of {_PRESET_NAMES}")


class _Replay:
    """``default_rng(seed)``'s draws, replayed from blocks of raw PCG64 words
    (see the module docstring).  No ``below`` bound may exceed ``cap``."""

    def __init__(self, seed: int, cap: float):
        self._bits, self._cap = np.random.PCG64(seed), cap
        self._raw, self.pos, self.half = np.empty(0, np.uint64), 0, None
        self._fill(0)

    def _fill(self, k: int) -> None:
        """Start a block at ``pos`` with at least ``k`` words, and list the
        positions whose uniform falls below the cap, then a sentinel."""
        raw = np.concatenate([self._raw[self.pos:],
                              self._bits.random_raw(max(_BLOCK, k))])
        low = (raw >> np.uint64(11)) * _U53 < self._cap
        self._raw, self.words = raw, memoryview(raw)  # items read as int
        self.cand = np.flatnonzero(low).tolist() + [len(raw)]
        self.pos = self.ci = 0

    def below(self, chosen: list, bounds: list) -> list:
        """``random(len(chosen))``: the ``i`` in ``chosen`` whose draw falls
        below ``bounds[i]``, in ``chosen`` order."""
        if self.pos + len(chosen) > len(self.words):
            self._fill(len(chosen))
        pos, end, words, cand, ci = (self.pos, self.pos + len(chosen),
                                     self.words, self.cand, self.ci)
        while cand[ci] < pos:  # positions taken by single draws
            ci += 1
        hits = []
        while cand[ci] < end:
            i = chosen[cand[ci] - pos]
            if (words[cand[ci]] >> 11) * _U53 < bounds[i]:
                hits.append(i)
            ci += 1
        self.pos, self.ci = end, ci
        return hits

    def _word(self) -> int:
        if self.pos == len(self.words):
            self._fill(1)
        self.pos += 1
        return self.words[self.pos - 1]

    def uniform(self) -> float:
        """``random()``."""
        return (self._word() >> 11) * _U53

    def bounded(self, span: int) -> int:
        """``integers(lo, lo + span + 1) - lo`` for ``span < 2**32 - 1``:
        Lemire's method on 32-bit draws, each the low half of a new word or
        the high half that the last one left."""
        if not span:
            return 0  # numpy draws nothing
        n = span + 1
        threshold = (_MASK32 - span) % n  # below n: numpy's first test folds in
        while True:
            if self.half is None:
                word = self._word()
                value, self.half = word & _MASK32, word >> 32
            else:
                value, self.half = self.half, None
            if value * n & _MASK32 >= threshold:
                return value * n >> 32


def generate(config: GenConfig) -> tuple:
    """Run the simulation; returns ``(EventList, GroundTruth)``.

    Deterministic given the seed.
    """
    structure = config.structure
    names = structure.neurons
    n = len(names)
    rates = config.rate_vector()
    out_edges = [[] for _ in range(n)]  # per parent: (child index, prob)
    index = {v: i for i, v in enumerate(names)}
    for p, c, q in structure.edges:
        out_edges[index[p]].append((index[c], q))

    stream = _Replay(config.seed, float(rates.max()))
    rates = rates.tolist()
    lo, span = config.delay_min, config.delay_max - config.delay_min
    rest = config.refractory
    eligible_at = [0] * n
    eligible = list(range(n))  # ascending; kept in step with eligible_at
    wake: dict = {}  # tick -> neurons eligible again from that tick
    pending: dict = {}  # tick -> [(child index, trigger prob)] in creation order
    times: list = []
    fired_idx: list = []
    t = 0

    while len(times) < config.target_firings:
        for i in wake.pop(t, ()):
            insort(eligible, i)
        fired = stream.below(eligible, rates)
        triggers = pending.pop(t, None)
        if triggers:
            for child, prob in triggers:
                if eligible_at[child] <= t and stream.uniform() < prob:
                    fired.append(child)
            fired = sorted(set(fired))
        for i in fired:
            times.append(t)
            fired_idx.append(i)
            eligible_at[i] = t + rest
            if rest > 1:
                eligible.remove(i)
                wake.setdefault(t + rest, []).append(i)
            for child, prob in out_edges[i]:
                d = lo + stream.bounded(span)
                pending.setdefault(t + d, []).append((child, prob))
        t += 1

    return (EventList.from_arrays(times, fired_idx, names, t),
            GroundTruth.of(structure))
