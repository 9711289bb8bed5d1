import numpy as np
import pytest

from gtx.errors import ConfigError, DataError
from gtx.simulation import (
    MAX_SIZE,
    SimConfig,
    SimDataset,
    SimLabeler,
    draw_assessment,
    init_simulation,
)

from oracles import LabelersExhausted, elicit_label, select_labeler
from support import Script


class TestSimConfig:
    def test_accepts_sane_values(self):
        cfg = SimConfig(n_examples=10, n_labelers=3, accuracy_low=0.6, accuracy_high=0.9)
        assert cfg.n_examples == 10
        assert SimConfig(10, 3, 0, 1).accuracy_high == 1  # integer bounds

    def test_reports_every_violation_at_once(self):
        with pytest.raises(ConfigError) as exc:
            SimConfig(n_examples=0, n_labelers=0, accuracy_low=0.9, accuracy_high=0.2)
        msg = str(exc.value)
        assert "n_examples" in msg
        assert "n_labelers" in msg
        assert "accuracy" in msg

    @pytest.mark.parametrize("args, key", [
        (("10", 3, 0.6, 0.9), "n_examples"),
        ((10.0, 3, 0.6, 0.9), "n_examples"),
        ((True, 3, 0.6, 0.9), "n_examples"),
        ((10, 3.0, 0.6, 0.9), "n_labelers"),
        ((10, 3, "0.6", 0.9), "accuracy_low"),
        ((10, 3, 0.6, None), "accuracy_high"),
        ((10, 3, False, 0.9), "accuracy_low"),
        ((10, 3, 0.6, float("nan")), "accuracy_high"),
    ])
    def test_bad_types_are_config_errors(self, args, key):
        with pytest.raises(ConfigError, match=key):
            SimConfig(*args)

    @pytest.mark.parametrize("key", ["n_examples", "n_labelers"])
    @pytest.mark.parametrize("size", [MAX_SIZE + 1, 10**19])
    def test_sizes_no_array_can_hold_are_config_errors(self, key, size):
        args = {"n_examples": 10, "n_labelers": 3, "accuracy_low": 0.6, "accuracy_high": 0.9}
        with pytest.raises(ConfigError, match=f"^{key} must be in 1..{MAX_SIZE}, got {size}$"):
            SimConfig(**{**args, key: size})
        SimConfig(**{**args, key: MAX_SIZE})


class TestSimLabeler:
    @pytest.mark.parametrize("accuracy,message", [
        ("0.8", "must be a number, got '0.8'"), (None, "must be a number, got None"),
        (True, "must be a number, got True"), (1.5, r"must be in \[0, 1\], got 1.5"),
        (-0.1, r"must be in \[0, 1\]"), (float("nan"), r"must be in \[0, 1\]"),
    ])
    def test_bad_accuracy_is_a_one_line_value_error(self, accuracy, message):
        with pytest.raises(ValueError, match=f"^true accuracy {message}"):
            SimLabeler(0, accuracy)

    @pytest.mark.parametrize("labeler_id", [None, [1], (1,), True, 1.0, b"a", {}])
    def test_id_that_is_not_a_str_or_integer_is_a_data_error(self, labeler_id):
        with pytest.raises(DataError, match="^labeler_id must be a string or an integer, got "):
            SimLabeler(labeler_id, 0.8)

    @pytest.mark.parametrize("labeler_id", ["a", "", 0, -3, np.int64(7), 10**30])
    def test_str_and_integer_ids_are_kept(self, labeler_id):
        assert SimLabeler(labeler_id, 0.8).labeler_id is labeler_id


class TestSimDataset:
    def test_labels_validated(self):
        with pytest.raises(ValueError):
            SimDataset(true_labels=np.array([0, 2], dtype=np.int8))

    @pytest.mark.parametrize("labels", [[0.7, 1, 0.2], [1, 0.5], [257], [-1], [np.nan]])
    def test_values_checked_before_the_int8_cast(self, labels):
        # the cast alone would read 0.7 as 0 and 257 as 1
        with pytest.raises(ValueError, match="0 or 1"):
            SimDataset(labels)

    def test_exact_binary_values_of_any_type_are_kept(self):
        for labels in ([1.0, 0.0], [True, False], np.array([1, 0])):
            ds = SimDataset(labels)
            assert ds.true_labels.dtype == np.int8
            assert ds.true_labels.tolist() == [1, 0]

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

    @pytest.mark.parametrize("size", [2.5, 7.0, "7", True, None, MAX_SIZE + 1, 10**19])
    def test_size_must_be_an_integer(self, size):
        with pytest.raises(ConfigError, match="assessment size"):
            draw_assessment(size, np.random.default_rng(0))


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

