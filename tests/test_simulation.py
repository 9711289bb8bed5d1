import numpy as np
import pytest

from gtx.errors import ConfigError
from gtx.simulation import (
    SimConfig,
    SimDataset,
    SimLabeler,
    UniformStream,
    draw_assessment,
    init_simulation,
)

from oracles import LabelersExhausted, elicit_label, select_labeler
from support import Script


class TestSimConfig:
    def test_accepts_sane_values(self):
        cfg = SimConfig(n_examples=10, n_labelers=3, accuracy_low=0.6, accuracy_high=0.9)
        assert cfg.n_examples == 10

    def test_reports_every_violation_at_once(self):
        with pytest.raises(ConfigError) as exc:
            SimConfig(n_examples=0, n_labelers=0, accuracy_low=0.9, accuracy_high=0.2)
        msg = str(exc.value)
        assert "n_examples" in msg
        assert "n_labelers" in msg
        assert "accuracy" in msg


class TestSimDataset:
    def test_labels_validated(self):
        with pytest.raises(ValueError):
            SimDataset(true_labels=np.array([0, 2], dtype=np.int8))

    def test_counts(self):
        ds = SimDataset(true_labels=np.array([0, 1, 1], dtype=np.int8))
        assert ds.n_examples == 3


class TestInitSimulation:
    def test_deterministic(self):
        cfg = SimConfig(50, 5, 0.6, 0.9)
        ds1, labs1 = init_simulation(cfg, np.random.default_rng(11))
        ds2, labs2 = init_simulation(cfg, np.random.default_rng(11))
        assert np.array_equal(ds1.true_labels, ds2.true_labels)
        assert labs1 == labs2

    def test_accuracies_inside_cohort_interval(self):
        cfg = SimConfig(10, 200, 0.6, 0.9)
        _, labelers = init_simulation(cfg, np.random.default_rng(1))
        for lab in labelers:
            assert 0.6 <= lab.accuracy < 0.9

    def test_labels_roughly_balanced(self):
        cfg = SimConfig(4000, 1, 0.8, 1.0)
        ds, _ = init_simulation(cfg, np.random.default_rng(2))
        share = float(ds.true_labels.mean())
        assert 0.45 < share < 0.55

    def test_ids_are_dense_and_ordered(self):
        cfg = SimConfig(5, 4, 0.8, 1.0)
        _, labelers = init_simulation(cfg, np.random.default_rng(0))
        assert [lab.labeler_id for lab in labelers] == [0, 1, 2, 3]


class TestDrawAssessment:
    def test_size_and_ids(self):
        a = draw_assessment(7, np.random.default_rng(0))
        assert len(a) == 7
        assert a.example_ids == tuple(range(7))

    def test_size_must_be_positive(self):
        with pytest.raises(ConfigError):
            draw_assessment(0, np.random.default_rng(0))


class TestSelectLabeler:
    def test_uniform_over_unused_in_id_order(self):
        labelers = [SimLabeler(i, 0.8) for i in range(4)]
        # unused after removing 1: [0, 2, 3]; u = 0.34 -> index 1 -> id 2
        picked = select_labeler({1}, labelers, Script([0.34]))
        assert picked.labeler_id == 2

    def test_exhaustion(self):
        labelers = [SimLabeler(0, 0.8)]
        with pytest.raises(LabelersExhausted):
            select_labeler({0}, labelers, Script([0.5]))

    def test_every_labeler_reachable(self):
        labelers = [SimLabeler(i, 0.8) for i in range(6)]
        rng = np.random.default_rng(0)
        seen = {select_labeler(set(), labelers, rng).labeler_id for _ in range(200)}
        assert seen == set(range(6))

    def test_single_draw_consumed(self):
        labelers = [SimLabeler(i, 0.8) for i in range(3)]
        s = Script([0.0, 0.99])
        select_labeler(set(), labelers, s)
        assert s.consumed == 1


class TestElicitLabel:
    def test_correct_when_draw_under_accuracy(self):
        lab = SimLabeler(3, 0.7)
        rec = elicit_label(lab, 42, 1, Script([0.69]))
        assert (rec.example_id, rec.labeler_id, rec.value) == (42, 3, 1)

    def test_wrong_when_draw_at_or_over_accuracy(self):
        lab = SimLabeler(3, 0.7)
        rec = elicit_label(lab, 42, 1, Script([0.7]))
        assert rec.value == 0

    def test_perfect_labeler_never_errs(self):
        lab = SimLabeler(0, 1.0)
        rec = elicit_label(lab, 0, 0, Script([0.999999]))
        assert rec.value == 0

    def test_observed_accuracy_tracks_true_accuracy(self):
        lab = SimLabeler(0, 0.8)
        rng = np.random.default_rng(5)
        hits = sum(elicit_label(lab, i, 1, rng).value == 1 for i in range(2000))
        assert abs(hits / 2000 - 0.8) < 0.03


class TestUniformStream:
    def test_same_bits_as_generator(self):
        a = UniformStream(np.random.default_rng(9))
        b = np.random.default_rng(9)
        ours = [a.random() for _ in range(100)]
        theirs = list(b.random(100))
        assert ours == theirs

    def test_refills_past_block_boundary(self):
        stream = UniformStream(np.random.default_rng(1))
        n = UniformStream.BLOCK + 10
        vals = [stream.random() for _ in range(n)]
        assert len(set(vals)) > n // 2
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_take_continues_the_stream(self):
        # draws handed out one at a time and in blocks, across a refill,
        # follow the generator's own sequence
        stream = UniformStream(np.random.default_rng(3))
        got = [stream.random() for _ in range(5)]
        got += stream.take(UniformStream.BLOCK).tolist()
        got += [stream.random() for _ in range(3)]
        got += stream.take(7).tolist()
        want = np.random.default_rng(3).random(UniformStream.BLOCK + 15).tolist()
        assert got == want
