import io
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_traceset, traceset_from_marks
from tlcausal import dtmc
from tlcausal.dtmc import Dtmc, build_dtmc, export_text, load_text
from tlcausal.errors import DataError
from tlcausal.traces import Trace, TraceSet


def state_by_label(model, atoms):
    target = frozenset(atoms)
    for i, lab in enumerate(model.labels):
        if lab == target:
            return i
    raise AssertionError(f"no state labeled {target}")


def listing(model):
    sink = io.StringIO()
    export_text(model, sink)
    return sink.getvalue()


def assert_atom_major(model):
    """``label_matrix`` is stored atom-major, and each declared atom's mask
    is a contiguous, read-only view of it."""
    assert model.label_matrix.flags.f_contiguous
    assert not model.label_matrix.flags.writeable
    for atom in model.atoms:
        mask = model.states_with(atom)
        assert mask.flags.c_contiguous and not mask.flags.writeable
        assert np.shares_memory(mask, model.label_matrix)


@st.composite
def _tracesets(draw):
    """1-3 traces of 1-30 ticks each over one list of 0-6 atoms."""
    atoms = tuple(f"v{i}" for i in range(draw(st.integers(0, 6))))
    traces = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, 30))
        cells = draw(st.lists(st.booleans(), min_size=len(atoms) * length,
                              max_size=len(atoms) * length))
        traces.append(Trace(atoms, np.array(cells, dtype=bool)
                            .reshape(len(atoms), length)))
    return TraceSet(tuple(traces))


# Atom counts at the edges of the 64-bit key words, and bits beside them.
_WORD_EDGES = (0, 1, 7, 8, 63, 64, 65, 127, 128)


@st.composite
def _wide_tracesets(draw):
    """1-3 traces of 1-40 ticks over a word-edge number of atoms, each tick
    one of a few labels: the empty label, labels one bit off an earlier
    one at a word edge, and random ones."""
    n = draw(st.sampled_from(_WORD_EDGES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = [np.zeros(n, bool)]
    for _ in range(draw(st.integers(0, 4))):
        if n and draw(st.booleans()):
            label = pool[draw(st.integers(0, len(pool) - 1))].copy()
            bit = draw(st.sampled_from([b for b in (*_WORD_EDGES, n - 1)
                                        if b < n]))
            label[bit] = not label[bit]
        else:
            label = rng.random(n) < draw(st.sampled_from([0.05, 0.5]))
        pool.append(label)
    pool = np.array(pool).reshape(len(pool), n)
    atoms = tuple(f"v{i}" for i in range(n))
    return TraceSet(tuple(
        Trace(atoms, pool[rng.integers(len(pool),
                                       size=draw(st.integers(1, 40)))].T)
        for _ in range(draw(st.integers(1, 3)))))


class TestBuild:
    @staticmethod
    def assert_same_chain(data):
        got, want = build_dtmc(data), oracles.build_dtmc(data)
        assert listing(got) == listing(want)
        assert got.labels == want.labels
        assert np.array_equal(got.label_matrix, want.label_matrix)
        for atom in data.variables:
            assert np.array_equal(got.states_with(atom),
                                  [atom in lab for lab in want.labels])
        assert_atom_major(got)
        assert np.array_equal(got.frequency, want.frequency)
        assert got.initial == want.initial
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got.transitions, part),
                                  getattr(want.transitions, part))

    @settings(max_examples=300, deadline=None)
    @given(data=_tracesets())
    def test_matches_tick_by_tick_oracle(self, data):
        self.assert_same_chain(data)

    @settings(max_examples=300, deadline=None)
    @given(data=_wide_tracesets())
    def test_matches_oracle_at_key_word_edges(self, data):
        self.assert_same_chain(data)

    def test_three_tick_worked_example(self):
        data = traceset_from_marks(("a", "b"), 3,
                                   {"a": [0, 1], "b": [0, 1, 2]})
        model = build_dtmc(data)
        assert model.n_states == 2
        ab = state_by_label(model, {"a", "b"})
        b = state_by_label(model, {"b"})
        T = model.transitions.toarray()
        assert T[ab, ab] == 0.5
        assert T[ab, b] == 0.5
        assert T[b, b] == 1.0
        assert model.initial == ab
        assert model.frequency[ab] == 2 and model.frequency[b] == 1

    def test_constant_trace(self):
        data = traceset_from_marks(("a",), 3, {"a": [0, 1, 2]})
        model = build_dtmc(data)
        assert model.n_states == 1
        assert model.transitions.toarray()[0, 0] == 1.0

    def test_no_transition_across_trace_boundary(self):
        t1 = traceset_from_marks(("a", "b"), 2, {"a": [0, 1]}).traces[0]
        t2 = traceset_from_marks(("a", "b"), 2, {"b": [0, 1]}).traces[0]
        model = build_dtmc(TraceSet((t1, t2)))
        a = state_by_label(model, {"a"})
        b = state_by_label(model, {"b"})
        T = model.transitions.toarray()
        assert T[a, b] == 0.0 and T[a, a] == 1.0 and T[b, b] == 1.0

    def test_row_stochastic_on_random_builds(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            data = random_traceset(rng, n_atoms=3, max_len=40,
                                   n_traces=int(rng.integers(1, 4)))
            model = build_dtmc(data)
            assert model.row_sum_deviation() <= 1e-9

    def test_frequency_sums_to_ticks(self):
        rng = np.random.default_rng(3)
        data = random_traceset(rng, n_atoms=2, max_len=30, n_traces=3)
        model = build_dtmc(data)
        assert int(model.frequency.sum()) == data.total_ticks

    def test_order_independent_across_traces(self):
        rng = np.random.default_rng(8)
        data = random_traceset(rng, n_atoms=2, max_len=25, n_traces=3)
        fwd = build_dtmc(data)
        rev = build_dtmc(TraceSet(tuple(reversed(data.traces))))
        # same state set and same transition probabilities modulo ordering
        fwd_map = {lab: i for i, lab in enumerate(fwd.labels)}
        Tf = fwd.transitions.toarray()
        Tr = rev.transitions.toarray()
        for i, lab_i in enumerate(rev.labels):
            for j, lab_j in enumerate(rev.labels):
                assert Tr[i, j] == pytest.approx(
                    Tf[fwd_map[lab_i], fwd_map[lab_j]], abs=1e-12)
        assert fwd.frequency.sum() == rev.frequency.sum()


class TestLabelLayout:
    def test_any_layout_given_is_stored_atom_major(self):
        rng = np.random.default_rng(5)  # 70 atoms: two key words
        atoms = tuple(f"v{i}" for i in range(70))
        data = TraceSet(tuple(Trace(atoms, rng.random((70, length)) < 0.1)
                              for length in (30, 12)))
        built = build_dtmc(data)
        marks = np.ascontiguousarray(built.label_matrix)  # state-major
        assert marks.flags.c_contiguous and not marks.flags.f_contiguous
        labels = tuple(frozenset(a for a, bit in zip(built.atoms, row) if bit)
                       for row in marks.tolist())
        text = listing(oracles.build_dtmc(data))
        hand = Dtmc(built.atoms, marks, built.transitions, built.initial,
                    built.frequency)
        assert marks.flags.writeable  # the caller's array is left as given
        for model in (built, load_text(io.StringIO(text)), hand):
            assert_atom_major(model)
            assert np.array_equal(model.label_matrix, marks)
            assert model.labels == labels
            assert listing(model) == text
        assert not built.states_with("absent").any()


class TestExport:
    def test_roundtrip(self):
        data = traceset_from_marks(("a", "b"), 5,
                                   {"a": [0, 2, 3], "b": [1, 2]})
        model = build_dtmc(data)
        sink = io.StringIO()
        export_text(model, sink)
        back = load_text(io.StringIO(sink.getvalue()))
        assert back.labels == model.labels
        assert back.initial == model.initial
        assert np.allclose(back.transitions.toarray(),
                           model.transitions.toarray())
        assert np.array_equal(back.frequency, model.frequency)

    @pytest.mark.parametrize("atom", ["gene one", "gene\xa0one", "a,b",
                                      " a", ""])
    def test_atom_a_listing_cannot_hold_is_refused(self, tmp_path, atom):
        # both loaders keep "gene one"; its listing's atoms line would
        # declare "gene" and "one", and load_text would refuse it
        data = TraceSet((Trace((atom, "b"), np.array([[1, 0], [0, 1]],
                                                     bool)),))
        sink = tmp_path / "model.txt"
        with pytest.raises(DataError, match=re.escape(
                f"atom {atom!r} cannot be listed")):
            export_text(build_dtmc(data), sink)
        assert not sink.exists()

    def test_repeated_atom_is_refused(self):
        # a listing loaded one before, as a two-column chain whose
        # states_with read the first column, while a trace was refused
        message = re.escape("duplicate variable name 'a'")
        with pytest.raises(DataError, match=message):
            load_text(io.StringIO("atoms a a\nstate 0: {a}\ntrans 0 0 1.0\n"))
        with pytest.raises(DataError, match=message):
            Dtmc(("a", "a"), np.ones((1, 2), bool), np.eye(1), 0, [1.0])
        with pytest.raises(DataError, match=message):
            Trace(("a", "b", "a"), np.ones((3, 1), bool))

    def test_frequencies_read_back_exactly(self):
        # six significant digits would write 1.23457e+06 and 0.123457
        freq = [1234567.0, 0.1234567, 3.0, 2.0**60, 0.0]
        model = Dtmc(("a",), np.zeros((5, 1), bool), np.eye(5), 0, freq)
        text = listing(model)
        assert "freq 0 1234567\n" in text and "freq 2 3\n" in text
        back = load_text(io.StringIO(text))
        assert back.frequency.tolist() == freq

    def test_malformed(self):
        with pytest.raises(DataError):
            load_text(io.StringIO("state zero: {}\n"))

    @pytest.mark.parametrize("records, message", [
        ("state 0: {c}\nstate 1: {e}\nstate 0: {e}\ntrans 0 1 1.0",
         "model line 5 repeats state 0 (first at line 3)"),
        ("state 0: {c}\nstate 1: {e}\ntrans 0 1 0.5\ntrans 0 1 0.5",
         "model line 6 repeats trans 0 1 (first at line 5)"),
        ("state 0: {c}\nstate 1: {e}\ntrans 0 1 1.0\nfreq 1 3\nfreq 1 7",
         "model line 7 repeats freq 1 (first at line 6)"),
        ("state 0: {c}\nstate 1: {e}\ntrans 0 1 1.0\ninitial 1",
         "model line 6 repeats initial (first at line 2)"),
        ("state 0: {c}\natoms c\nstate 1: {e}\ntrans 0 1 1.0",
         "model line 4 repeats atoms (first at line 1)")],
        ids=["state", "trans", "freq", "initial", "atoms"])
    def test_repeated_record_is_refused(self, records, message):
        text = f"atoms c e\ninitial 0\n{records}\ntrans 1 1 1.0\n"
        with pytest.raises(DataError, match=re.escape(message)):
            load_text(io.StringIO(text))

    @pytest.mark.parametrize("text", [
        "atoms a\nstate 0: {a}\ntrans 0 5 1.0\n",
        "atoms a\nstate 0: {zz}\ntrans 0 0 1.0\n",
        "atoms a\nstate -1: {a}\nstate 0: {}\ntrans 0 0 1.0\n",
        "atoms a\nstate 0: {a}\nfreq 7 9\ntrans 0 0 1.0\n",
        "atoms a\nstate 0: {a}\nfreq -2 4\ntrans 0 0 1.0\n"],
        ids=["undeclared-trans-endpoint", "undeclared-atom",
             "negative-state-id", "undeclared-freq-state",
             "negative-freq-state"])
    def test_malformed_listing(self, text):
        with pytest.raises(DataError):
            load_text(io.StringIO(text))

    # each record would load with its id read by ``int``
    @pytest.mark.parametrize("record", [
        "state 1_0: {}", "state +1: {}", "state ١: {}", "state １: {}",
        "initial ١", "freq ٠ 3", "trans 0 ١ 1.0", "trans +0 0 1.0"])
    def test_ids_are_ascii_digits(self, record):
        text = ("atoms a\nstate 0: {a}\nstate 1: {}\ntrans 0 1 1.0\n"
                f"trans 1 1 1.0\n{record}\n")
        with pytest.raises(DataError, match="malformed model line 6"):
            load_text(io.StringIO(text))

    # the label was read as its text less the first and last characters
    @pytest.mark.parametrize("label", ["a", "{a", "(a,b)"])
    def test_label_outside_braces_is_refused(self, label):
        text = f"atoms a b\nstate 0: {label}\ntrans 0 0 1.0\n"
        with pytest.raises(DataError, match="malformed model line 2"):
            load_text(io.StringIO(text))

    def test_label_names_are_stripped(self):
        text = "atoms a b\nstate 0: {a, b}\ntrans 0 0 1.0\n"
        assert load_text(io.StringIO(text)).labels == ({"a", "b"},)

    def test_ids_may_have_spaces_around_them(self):
        text = ("atoms a\ninitial  1\nstate 0 : {a}\nstate  1: {}\n"
                "trans 0 1 1.0\ntrans 1 1 1.0\n")
        model = load_text(io.StringIO(text))
        assert model.labels == ({"a"}, set()) and model.initial == 1

    def test_state_without_trans_line_is_refused_first(self, monkeypatch):
        # a large id would size every per-state array; only state 0 has a
        # transition row, so the listing is refused before any is built
        def build(*args):
            raise AssertionError("per-state arrays built")
        monkeypatch.setattr(dtmc, "encode_labels", build)
        text = "atoms a\nstate 1000000: {}\ntrans 0 0 1\n"
        with pytest.raises(DataError, match=re.escape(
                "rows must sum to 1 (a state has no trans line)")):
            load_text(io.StringIO(text))


def _fresh(code):
    """What a fresh interpreter prints after running ``code``."""
    src = Path(__import__("tlcausal").__file__).parents[1]
    return subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                          capture_output=True, text=True).stdout.split()


def test_chain_free_run_loads_no_scipy_sparse(tmp_path):
    # infer, from its command line on, loads no scipy module at all
    events = tmp_path / "events.csv"
    events.write_text("".join(f"{t},{'ab'[t % 2]}\n" for t in range(40)))
    code = ("import sys\n"
            "from tlcausal import cli\n"
            f"rc = cli.main(['infer', '--path', {str(events)!r}, "
            f"'--tmin', '1', '--tmax', '2', "
            f"'--outdir', {str(tmp_path / 'out')!r}])\n"
            "print(rc, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    assert _fresh(code)[-2:] == ["0", "[]"]


def test_chains_hold_csr_matrices():
    code = ("import io, numpy as np\n"
            "from tlcausal.dtmc import Dtmc, build_dtmc, export_text, "
            "load_text\n"
            "from tlcausal.traces import Trace, TraceSet\n"
            "built = build_dtmc(TraceSet((Trace(('a',), "
            "np.array([[1, 0, 1]], bool)),)))\n"
            "sink = io.StringIO(); export_text(built, sink)\n"
            "loaded = load_text(io.StringIO(sink.getvalue()))\n"
            "dense = Dtmc(('a',), [[True], [False]], "
            "np.array([[0.0, 1.0], [1.0, 0.0]]), 0, [1.0, 1.0])\n"
            "print(*(m.transitions.format for m in (built, loaded, dense)))")
    assert _fresh(code) == ["csr", "csr", "csr"]
