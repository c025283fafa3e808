from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from tlcausal import cli, synthgen
from tlcausal.errors import DataError, UsageError
from tlcausal.synthgen import GenConfig, StructureSpec, generate, preset


class TestPreset:
    def test_chain(self):
        s = preset("chain", 4)
        assert [(p, c) for p, c, _ in s.edges] == \
            [("A", "B"), ("B", "C"), ("C", "D")]

    def test_fork(self):
        s = preset("fork")
        assert [(p, c) for p, c, _ in s.edges] == [("A", "B"), ("A", "C")]

    def test_collider(self):
        s = preset("collider")
        assert [(p, c) for p, c, _ in s.edges] == [("A", "C"), ("B", "C")]

    def test_tree_depth_four(self):
        s = preset("tree", 4)
        assert len(s.neurons) == 15
        assert len(s.edges) == 14

    def test_unknown(self):
        with pytest.raises(UsageError):
            preset("ring")

    @pytest.mark.parametrize("name", ["fork", "collider"])
    def test_one_size_shapes_refuse_a_size(self, tmp_path, capsys, name):
        # before, the size was dropped and three neurons were written
        with pytest.raises(UsageError, match=f"{name} preset has one size"):
            preset(name, 9)
        out = tmp_path / "gen"
        assert cli.main(["generate", "--preset", name, "--size", "9",
                         "--target-firings", "10", "--outdir", str(out)]) == 1
        assert "size does not apply" in capsys.readouterr().err
        assert not out.exists()

    def test_trigger_prob_applies(self):
        s = preset("tree", 3, trigger_prob=0.9)
        assert all(q == 0.9 for _, _, q in s.edges)


class TestStructureSpec:
    def test_self_edge_rejected(self):
        with pytest.raises(DataError):
            StructureSpec(("A",), (("A", "A", 1.0),))

    def test_undeclared_endpoint(self):
        with pytest.raises(DataError):
            StructureSpec(("A",), (("A", "B", 1.0),))


class TestGenerate:
    def test_no_source_errors(self):
        s = StructureSpec(("A",), ())
        with pytest.raises(DataError, match="spontaneous"):
            GenConfig(s, 0.0, target_firings=1, seed=1)

    def test_rate_for_unknown_neuron_errors(self):
        # "b" is not "B": the misspelt key must not leave B silent
        with pytest.raises(DataError, match="unknown neurons: b, C$"):
            GenConfig(preset("chain", 2), {"A": 0.5, "b": 0.5, "C": 0.1},
                      target_firings=20, seed=1)

    def test_deterministic_refire(self):
        s = StructureSpec(("A",), ())
        events, _ = generate(GenConfig(s, 1.0, refractory=20,
                                       target_firings=4, seed=3))
        assert events.records == ((0, "A"), (20, "A"), (40, "A"), (60, "A"))

    def test_seed_reproducibility(self):
        cfg = GenConfig(preset("tree", 3, 0.9), 0.02, target_firings=2000,
                        seed=11)
        first, _ = generate(cfg)
        second, _ = generate(cfg)
        assert first == second

    def test_seed_sensitivity(self):
        s = preset("chain", 3)
        a, _ = generate(GenConfig(s, 0.02, target_firings=500, seed=1))
        b, _ = generate(GenConfig(s, 0.02, target_firings=500, seed=2))
        assert a != b

    def test_refractory_invariant(self):
        cfg = GenConfig(preset("tree", 4, 0.9), 1 / 30, refractory=20,
                        target_firings=5000, seed=5)
        events, _ = generate(cfg)
        assert oracles.check_refractory(events, 20) is None

    def test_ground_truth_matches_structure(self):
        structure = preset("tree", 3, 0.8)
        _, truth = generate(GenConfig(structure, 0.05, target_firings=100,
                                      seed=2))
        assert truth == tuple((p, c) for p, c, _ in structure.edges)

    def test_deterministic_chain_triggering(self):
        # A is the only spontaneous source; B fires only when triggered.
        structure = StructureSpec(("A", "B"), (("A", "B", 1.0),))
        cfg = GenConfig(structure, {"A": 0.004}, refractory=20,
                        delay_min=20, delay_max=40, target_firings=400,
                        seed=13)
        events, _ = generate(cfg)
        assert oracles.check_refractory(events, 20) is None
        problems = oracles.check_triggering(events, "A", "B", 20, 40, 20)
        assert problems == []

    def test_stops_at_target(self):
        cfg = GenConfig(preset("chain", 3), 0.5, refractory=2,
                        delay_min=1, delay_max=2, target_firings=50, seed=9)
        events, _ = generate(cfg)
        assert len(events.records) >= 50
        # the final tick crossed the target; the one before did not
        last = events.records[-1][0]
        before = sum(1 for t, _ in events.records if t < last)
        assert before < 50

    def test_delay_span_below_two_to_the_32_minus_one(self):
        structure = preset("chain", 2)
        GenConfig(structure, 0.5, delay_min=1, delay_max=2**32 - 1)
        for delay_max in (2**32, 2**32 + 1):
            with pytest.raises(DataError, match="delay_max - delay_min"):
                GenConfig(structure, 0.5, delay_min=1, delay_max=delay_max,
                          target_firings=1)

    def test_cli_refuses_wide_delay_span_before_writing(self, tmp_path,
                                                        capsys):
        out = tmp_path / "gen"
        rc = cli.main(["generate", "--preset", "chain", "--size", "2",
                       "--delay-min", "1", "--delay-max", "4294967297",
                       "--target-firings", "10", "--seed", "1",
                       "--outdir", str(out)])
        assert rc == 2
        assert "delay_max - delay_min" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# The raw-word replay against numpy's Generator

@st.composite
def _configs(draw):
    kind = draw(st.sampled_from(("chain", "fork", "collider", "tree")))
    size = {"chain": draw(st.integers(2, 6)),
            "tree": draw(st.integers(1, 5))}.get(kind)
    prob = draw(st.sampled_from((0.0, 0.5, 1.0))
                | st.floats(0.0, 1.0, allow_nan=False))
    structure = preset(kind, size, prob)
    rate = st.floats(0.1, 1.0, allow_nan=False)
    if draw(st.booleans()):
        # some neurons silent (rate 0 or unlisted), at least one source
        names = structure.neurons
        rates = {v: draw(st.sampled_from((0.0, None)) | rate) for v in names}
        rates = {v: r for v, r in rates.items() if r is not None}
        rates[draw(st.sampled_from(names))] = draw(rate)
    else:
        rates = draw(rate)
    delay_min = draw(st.integers(1, 30))
    span = draw(st.sampled_from((0, 1, 20, 2**31)) | st.integers(0, 40))
    return GenConfig(structure, rates,
                     refractory=draw(st.sampled_from((0, 1, 2, 20))
                                     | st.integers(0, 25)),
                     delay_min=delay_min, delay_max=delay_min + span,
                     target_firings=draw(st.integers(1, 3000)),
                     seed=draw(st.integers(0, 2**32)))


class TestReplayMatchesGenerator:
    @settings(max_examples=100, deadline=None)
    @given(config=_configs(), block=st.sampled_from((1, 7, 1 << 15)))
    @example(  # delay_min == delay_max: numpy draws nothing for the delay
        config=GenConfig(preset("tree", 3, 0.5), 0.3, refractory=2,
                         delay_min=5, delay_max=5, target_firings=2000,
                         seed=7), block=1 << 15)
    @example(  # refractory 0: a neuron that fired is eligible next tick
        config=GenConfig(preset("chain", 3, 1.0), 0.4, refractory=0,
                         delay_min=1, delay_max=2, target_firings=2000,
                         seed=3), block=7)
    @example(  # two triggers of one child, each drawing; rate-0 child
        config=GenConfig(preset("collider", None, 1.0),
                         {"A": 0.5, "B": 0.5, "C": 0.0}, refractory=3,
                         delay_min=2, delay_max=4, target_firings=2000,
                         seed=11), block=1 << 15)
    @example(  # span 2**31: Lemire's rejection branch about half the time
        config=GenConfig(preset("tree", 2, 1.0), 0.5, refractory=1,
                         delay_min=1, delay_max=1 + 2**31,
                         target_firings=3000, seed=5), block=1 << 15)
    def test_identical_event_lists(self, config, block):
        with mock.patch.object(synthgen, "_BLOCK", block):
            got, truth = generate(config)
        want, want_truth = oracles.generate(config)
        assert got.horizon == want.horizon
        assert got.records == want.records
        assert truth == want_truth


def _pin_op():
    return (st.tuples(st.just("random_k"), st.integers(0, 4000))
            | st.tuples(st.just("random"), st.just(0))
            | st.tuples(st.just("integers"),
                        st.sampled_from((0, 20, 2**31, 2**32 - 2))))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), cap=st.floats(0.01, 1.0),
       ops=st.lists(_pin_op(), max_size=60))
def test_replay_pins_numpy_stream(seed, cap, ops):
    """Replay helpers and ``default_rng(seed)`` give equal values when the
    calls interleave in any order; a numpy that changes its conversions
    fails here before it changes generated events."""
    rng = np.random.default_rng(seed)
    replay = synthgen._Replay(seed, cap)
    coins = np.random.default_rng([seed, 1])
    lo = 3
    for op, arg in ops:
        if op == "random_k":
            want = rng.random(arg)
            # a bound at the draw or one ulp above it pins each draw below
            # the cap exactly
            nudge = coins.random(arg) < 0.5
            bounds = np.minimum(np.where(nudge, np.nextafter(want, 2.0),
                                         want), cap)
            got = replay.below(list(range(arg)), bounds.tolist())
            assert got == np.flatnonzero(want < bounds).tolist()
        elif op == "random":
            assert replay.uniform() == rng.random()
        else:
            assert replay.bounded(arg) == rng.integers(lo, lo + arg + 1) - lo
