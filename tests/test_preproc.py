"""Windowing, feature arithmetic, labeling, normalization, dataset CSV."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnsids.config import MAX_RUNS
from dnsids.errors import ParseError
from dnsids.preproc import (CLASS_ORDER, TARGET_CODES, ClassLabel, LabeledDataset,
                            class_labels, l2_normalize_rows, label_codes, label_windows,
                            merge_datasets, read_dataset, window_trace, write_dataset)
from dnsids.simnet import (ATTACK, ATTACK_FLOW, DROPPED, RESPONSE, TO_CLIENT, TO_SERVER,
                           AttackKind, GroundTruth, PacketTrace, ScenarioConfig,
                           make_scenario, run)


def _trace(duration, rows):
    """A trace of (time, disposition code, size) rows in time order; only
    these columns matter to windowing."""
    disposition = [d for _, d, _ in rows]
    return PacketTrace(config=ScenarioConfig(duration=duration), seed=0,
                       t=[t for t, _, _ in rows],
                       kind=[RESPONSE if d == TO_CLIENT else ATTACK for d in disposition],
                       size=[size for _, _, size in rows], disposition=disposition,
                       flow=[ATTACK_FLOW] * len(rows),
                       truth=GroundTruth(AttackKind.NONE, None),
                       packets_generated=len(rows), in_flight_at_end=0,
                       max_queue_occupancy=0)


def reference_features(trace, window_len):
    """The per-window arithmetic `window_trace` replaced, one window at a
    time: integer counters, throughput round(bits / window_len, 6), and a
    mean size of 0 for a window that received nothing. Also returns the
    packets each window received."""
    n = math.ceil(trace.config.duration / window_len)
    bits, packets, lost = [0] * n, [0] * n, [0] * n
    for t, size, disposition in zip(trace.t.tolist(), trace.size.tolist(),
                                    trace.disposition.tolist()):
        i = min(int(t // window_len), n - 1)
        if disposition == TO_SERVER:
            bits[i] += size * 8
            packets[i] += 1
        elif disposition == DROPPED:
            lost[i] += 1
    rows = []
    for b, p, lost_i in zip(bits, packets, lost):
        throughput = round(b / window_len, 6)
        mean_size = round((b / 8) / p, 6) if p > 0 else 0.0
        rows.append((throughput, mean_size, lost_i))
    return np.array(rows, dtype=float).reshape(-1, 3), packets


@st.composite
def generated_traces(draw):
    """Traces of up to 60 rows at any times in [0, duration], with window
    lengths that do and do not divide the duration."""
    duration = draw(st.sampled_from([0.5, 20.0, 60.0, 61.0, 640.0, 2e4]))
    rows = draw(st.lists(st.tuples(st.floats(0, duration),
                                   st.sampled_from([TO_SERVER, DROPPED, TO_CLIENT]),
                                   st.integers(1, 70_000)), max_size=60))
    # At most 2000 windows, so the reference stays fast.
    window_len = draw(st.sampled_from([20.0, 0.1, 3.0, 7.3]).filter(
        lambda w: duration / w <= 2000) | st.floats(duration / 2000, 2 * duration))
    return _trace(duration, sorted(rows)), window_len


class TestWindowing:
    def test_empty_trace_gives_zero_windows(self):
        trace = _trace(60.0, [])
        X = window_trace(trace, 20.0)
        assert X.shape == (3, 3) and X.dtype == np.float64
        assert not X.any()

    def test_single_delivery_lands_in_its_window(self):
        trace = _trace(60.0, [(25.0, TO_SERVER, 512)])
        X = window_trace(trace, 20.0)
        assert X[1].tolist() == [4096 / 20, 512.0, 0.0]    # 4096 bits in one packet
        assert X[0, 0] == 0.0
        assert X[2, 0] == 0.0

    def test_drop_counts_as_lost_not_received(self):
        trace = _trace(20.0, [(5.0, DROPPED, 512)])
        (row,) = window_trace(trace, 20.0)
        assert row[2] == 1
        assert row[0] == 0.0 and row[1] == 0.0

    def test_response_to_client_not_counted(self):
        trace = _trace(20.0, [(5.0, TO_CLIENT, 512)])
        (row,) = window_trace(trace, 20.0)
        assert row[0] == 0.0 and row[1] == 0.0

    def test_no_attack_run_two_requests_per_window(self):
        trace = run(make_scenario(duration=200), seed=1)
        X = window_trace(trace, 20.0)
        assert len(X) == 10
        # 2 packets of 60 bytes, 960 bits, per window
        assert X.tolist() == [[960 / 20, 60.0, 0.0]] * 10

    def test_partition_property(self):
        cfg = make_scenario(attack_kind="direct_dos", duration=90,
                            bottleneck_rate=100_000,
                            attack_start_jitter=(0.0, 10.0), attack_duration=90)
        trace = run(cfg, seed=33)
        X = window_trace(trace, 20.0)
        _, packets = reference_features(trace, 20.0)
        assert sum(packets) == np.count_nonzero(trace.disposition == TO_SERVER)
        assert X[:, 2].sum() == trace.drops

    @settings(max_examples=300, deadline=None)
    @given(generated_traces())
    def test_matches_the_per_window_arithmetic(self, case):
        trace, window_len = case
        X = window_trace(trace, window_len)
        want, packets = reference_features(trace, window_len)
        assert np.array_equal(X, want)
        assert (X >= 0).all()
        assert (X[np.array(packets) == 0, 1] == 0.0).all()


class TestFeatures:
    def _window(self, size, packets, lost=0):
        """Feature row of one 20 s window receiving `packets` of `size`
        bytes and dropping `lost`."""
        rows = [(1.0, TO_SERVER, size)] * packets + [(2.0, DROPPED, 512)] * lost
        (row,) = window_trace(_trace(20.0, rows), 20.0)
        return row.tolist()

    def test_normal_window_arithmetic(self):
        assert self._window(60, 2) == [48.0, 60.0, 0]       # 960 bits

    def test_zero_window(self):
        assert self._window(60, 0) == [0.0, 0.0, 0]

    def test_amplification_scale_mean_size(self):
        assert self._window(4096, 2)[1] == 4096.0           # 65536 bits

    @given(size=st.integers(1, 10**5), packets=st.integers(0, 40),
           lost=st.integers(0, 40))
    def test_non_negative_everywhere(self, size, packets, lost):
        throughput, mean_size, packet_loss = self._window(size, packets, lost)
        assert throughput >= 0
        assert mean_size >= 0
        assert packet_loss == lost >= 0
        if packets == 0:
            assert mean_size == 0.0


class TestLabeling:
    def test_no_attack_all_normal(self):
        ds = label_windows(np.zeros((3, 3)), GroundTruth(AttackKind.NONE, None), 20.0)
        assert all(lbl is ClassLabel.NORMAL for lbl in class_labels(ds.codes))

    def test_majority_overlap_rule(self):
        truth = GroundTruth(AttackKind.DIRECT_DOS, (20.0, 200.0))
        ds = label_windows(np.zeros((10, 3)), truth, 20.0)
        labels = class_labels(ds.codes)
        assert labels[0] is ClassLabel.NORMAL
        assert all(lbl is ClassLabel.DIRECT_DOS for lbl in labels[1:])

    def test_exactly_half_overlap_is_normal(self):
        truth = GroundTruth(AttackKind.AMPLIFICATION, (10.0, 20.0))
        ds = label_windows(np.zeros((1, 3)), truth, 20.0)
        assert class_labels(ds.codes)[0] is ClassLabel.NORMAL

    def test_just_over_half_is_attack(self):
        truth = GroundTruth(AttackKind.AMPLIFICATION, (9.99, 20.0))
        ds = label_windows(np.zeros((1, 3)), truth, 20.0)
        assert class_labels(ds.codes)[0] is ClassLabel.AMPLIFICATION

    def test_labeling_is_deterministic_and_keeps_the_rows(self):
        features = np.tile([400.0, 10.0, 0.0], (6, 1))
        truth = GroundTruth(AttackKind.DIRECT_DOS, (35.0, 90.0))
        first = label_windows(features, truth, 20.0, ("t",))
        again = label_windows(features, truth, 20.0, ("t",))
        assert first == again
        assert np.array_equal(first.X, features) and first.provenance == ("t",)
        # windows starting at 40 and 60 are more than half covered
        assert first.codes.tolist() == [0, 0, 1, 1, 0, 0]


class TestTargetCodes:
    def test_code_bijection(self):
        assert TARGET_CODES[ClassLabel.NORMAL] == (0.0, 0.0, 0.0)
        assert TARGET_CODES[ClassLabel.DIRECT_DOS] == (0.0, 0.0, 1.0)
        assert TARGET_CODES[ClassLabel.AMPLIFICATION] == (0.0, 1.0, 0.0)
        assert len({code for code in TARGET_CODES.values()}) == 3
        assert set(TARGET_CODES) == set(CLASS_ORDER)


class TestNormalization:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize_rows([[3, 4, 0]]), [[0.6, 0.8, 0.0]], atol=1e-12)

    def test_unit_vector_unchanged(self):
        assert np.allclose(l2_normalize_rows([[1.0, 0.0, 0.0]]), [[1.0, 0.0, 0.0]])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_unit_norm_property(self, v):
        vec = np.array([v])
        if not np.any(vec != 0):
            return
        out = l2_normalize_rows(vec)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    @given(st.lists(st.floats(0.01, 1e5), min_size=2, max_size=6),
           st.floats(1e-3, 1e3))
    def test_scale_invariance(self, v, c):
        vec = np.array([v])
        assert np.allclose(l2_normalize_rows(vec), l2_normalize_rows(c * vec), atol=1e-9)

    def test_row_normalizer_passes_zero_rows(self):
        rows = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
        out = l2_normalize_rows(rows)
        assert np.allclose(out[0], [0.6, 0.8, 0.0])
        assert np.array_equal(out[1], [0.0, 0.0, 0.0])
        assert np.array_equal(l2_normalize_rows(np.zeros((0, 3))), np.zeros((0, 3)))

    def test_extreme_rows_are_normalized(self):
        # Squaring overflows on the first row and underflows on the second
        # unless each row is pre-scaled.
        rows = np.array([[1e200, 1e198, 0.0], [1e-170, 3e-171, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = l2_normalize_rows(rows)
        for row, ratio in zip(out, (1e-2, 0.3)):
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-15)
            assert row[1] / row[0] == pytest.approx(ratio, rel=1e-15)
            assert row[2] == 0.0

    @given(st.lists(st.floats(1e-6, 1e9), min_size=3, max_size=3),
           st.integers(-900, 900))
    def test_pre_scaling_is_exact(self, v, e):
        # Pre-scaling by a power of two changes no bit of a row that needs none.
        row = np.array([v])
        plain = row / np.sqrt((row * row).sum(axis=1, keepdims=True))
        assert np.array_equal(l2_normalize_rows(row), plain)
        # every scaled component stays a normal float, so scaling is exact
        assert np.array_equal(l2_normalize_rows(np.ldexp(row, e)), plain)


def quantized(value: float) -> float:
    return round(value, 6)


class TestDatasetSerialization:
    def test_single_sample_round_trip(self):
        ds = LabeledDataset([(48.0, 60.0, 0)], label_codes([ClassLabel.NORMAL]),
                            ("trace-a",))
        assert read_dataset(write_dataset(ds)) == ds

    def test_thousand_sample_round_trip(self):
        rng = np.random.default_rng(0)
        rows, labels = [], []
        for _ in range(1000):
            rows.append((quantized(rng.uniform(0, 1e6)),
                         quantized(rng.uniform(0, 5000)),
                         int(rng.integers(0, 500))))
            labels.append(CLASS_ORDER[int(rng.integers(0, 3))])
        ds = LabeledDataset(rows, label_codes(labels), ("a", "b"))
        assert read_dataset(write_dataset(ds)) == ds

    def test_unknown_label_rejected(self):
        text = ("throughput_bps,mean_packet_size_bytes,packet_loss,label\n"
                "1.000000,2.000000,0,flood\n")
        with pytest.raises(ParseError):
            read_dataset(text)

    def test_wrong_column_count_rejected(self):
        text = ("throughput_bps,mean_packet_size_bytes,packet_loss,label\n"
                "1.000000,2.000000,normal\n")
        with pytest.raises(ParseError):
            read_dataset(text)

    def test_negative_feature_rejected(self):
        text = ("throughput_bps,mean_packet_size_bytes,packet_loss,label\n"
                "-1.000000,2.000000,0,normal\n")
        with pytest.raises(ParseError):
            read_dataset(text)

    @pytest.mark.parametrize("row", ["nan,inf,0,normal", "1.0,nan,0,normal",
                                     "inf,2.0,0,normal", "1.0,-inf,0,normal"])
    def test_non_finite_feature_rejected(self, row):
        text = f"throughput_bps,mean_packet_size_bytes,packet_loss,label\n{row}\n"
        with pytest.raises(ParseError, match="non-finite.*line 2"):
            read_dataset(text)

    def test_loss_too_large_for_a_float_rejected(self):
        text = ("throughput_bps,mean_packet_size_bytes,packet_loss,label\n"
                f"1.0,2.0,{10 ** 400},normal\n")
        with pytest.raises(ParseError, match="packet_loss.*line 2"):
            read_dataset(text)

    def test_extreme_rows_accepted_by_the_reader_reach_the_map_normalized(self):
        text = ("throughput_bps,mean_packet_size_bytes,packet_loss,label\n"
                "1e200,1e198,0,normal\n1e-170,3e-171,0,normal\n")
        out = l2_normalize_rows(read_dataset(text).X)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            read_dataset("1.0,2.0,0,normal\n")

    def test_comments_ignored_and_provenance_restored(self):
        ds = LabeledDataset([(1.5, 2.5, 3)], label_codes([ClassLabel.DIRECT_DOS]),
                            ("t1", "t2"))
        assert read_dataset("# master_seed=9\n" + write_dataset(ds)) == ds

    def test_provenance_of_the_most_runs_stays_within_the_line_bound(self):
        # Trace file names are at most 255 bytes.
        names = tuple(f"{i:0255d}" for i in range(MAX_RUNS))
        ds = LabeledDataset([(1.5, 2.5, 3)], label_codes([ClassLabel.NORMAL]), names)
        assert read_dataset(write_dataset(ds)) == ds

    def test_merge_keeps_order_and_provenance(self):
        a = LabeledDataset([(1.0, 1.0, 0)], label_codes([ClassLabel.NORMAL]), ("a",))
        b = LabeledDataset([(2.0, 2.0, 0)], label_codes([ClassLabel.NORMAL]), ("b",))
        merged = merge_datasets([a, b])
        assert merged.provenance == ("a", "b")
        assert merged.X.shape == (2, 3)


def reference_render(rows, provenance=()):
    """The per-sample dataset renderer the columnar one replaced."""
    lines = []
    if provenance:
        lines.append("# provenance=" + ",".join(provenance))
    lines.append("throughput_bps,mean_packet_size_bytes,packet_loss,label")
    for thr, mps, loss, label in rows:
        lines.append(f"{thr:.6f},{mps:.6f},{loss},{label.value}")
    return "\n".join(lines) + "\n"


dataset_rows = st.lists(st.tuples(st.floats(0, 1e9).map(quantized),
                                  st.floats(0, 1e5).map(quantized),
                                  st.integers(0, 2**53),
                                  st.sampled_from(CLASS_ORDER)), max_size=60)
provenances = st.lists(st.from_regex(r"[a-z0-9._-]{1,12}", fullmatch=True), max_size=4)


class TestColumnarDataset:
    @settings(max_examples=200, deadline=None)
    @given(rows=dataset_rows, provenance=provenances)
    def test_text_round_trip_matches_the_per_sample_renderer(self, rows, provenance):
        text = reference_render(rows, tuple(provenance))
        data = read_dataset("# master_seed=1\n" + text)
        assert write_dataset(data) == text
        assert class_labels(data.codes) == [row[3] for row in rows]
        assert data.provenance == tuple(provenance)

    @pytest.mark.parametrize("loss", [2**53 - 1, 2**53])
    def test_largest_exact_losses_round_trip(self, loss):
        text = reference_render([(1.0, 2.0, loss, ClassLabel.NORMAL)])
        assert write_dataset(read_dataset(text)) == text

    @pytest.mark.parametrize("loss", [2**53 + 1, 2**63 - 1, 2**63, 10**300])
    def test_loss_beyond_float_precision_rejected(self, loss):
        text = ("throughput_bps,mean_packet_size_bytes,packet_loss,label\n"
                f"1.0,2.0,0,normal\n1.0,2.0,{loss},normal\n")
        with pytest.raises(ParseError, match="packet_loss.*line 3") as info:
            read_dataset(text)
        assert (info.value.line, info.value.field) == (3, "packet_loss")

    def test_columns_are_typed_read_only_copies(self):
        rows = np.array([[1.0, 2.0, 3.0]])
        ds = LabeledDataset(rows, [2])
        rows[0, 0] = 9.0
        assert ds.X[0, 0] == 1.0
        assert ds.X.dtype == np.float64 and ds.codes.dtype == np.int8
        with pytest.raises(ValueError):
            ds.X[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.codes[0] = 0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset([(1.0, 2.0, 3)] * 2, [0])

    def test_targets_are_the_class_target_codes(self):
        ds = LabeledDataset([(1.0, 1.0, 0)] * 3, label_codes(CLASS_ORDER))
        assert ds.targets().tolist() == [list(TARGET_CODES[lbl]) for lbl in CLASS_ORDER]

    def test_subset_by_indices_and_by_mask(self):
        ds = LabeledDataset([(float(i), 0.0, i) for i in range(5)], [0, 1, 2, 1, 0], ("p",))
        picked = ds.subset((3, 1))
        assert picked.X[:, 0].tolist() == [3.0, 1.0]
        assert picked.codes.tolist() == [1, 1]
        assert picked.provenance == ("p",)
        assert ds.subset(np.array([True, False, True, False, False])) == ds.subset([0, 2])
        assert len(ds.subset([])) == 0

    def test_merge_of_nothing_is_empty(self):
        assert merge_datasets([]) == LabeledDataset((), ())


class TestPipelineSignatures:
    def test_generated_features_quantized_for_exact_round_trip(self):
        cfg = make_scenario(attack_kind="amplification", duration=120,
                            bottleneck_rate=100_000,
                            attack_start_jitter=(0.0, 5.0), attack_duration=120)
        trace = run(cfg, seed=2)
        ds = label_windows(window_trace(trace, 20.0), trace.truth, 20.0, ("t",))
        assert read_dataset(write_dataset(ds)) == ds
