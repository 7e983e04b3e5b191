"""Windowed traffic statistics and labeled feature datasets.

A packet trace is cut into fixed-length tumbling windows aligned to t=0.
Each window yields one three-component feature vector: throughput of
traffic received by the server (bits/second), mean received packet size
(bytes), and the count of packets dropped at the bottleneck queue. Both
legitimate requests and inbound attack packets (including oversized
reflected responses) count as server-received traffic; responses leaving
the server do not.

Feature values are quantized to 6 decimal places, the precision of the
dataset CSV format, so write/read round trips are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParseError
from .simnet import DROPPED, TO_SERVER, AttackKind, GroundTruth, PacketTrace


class ClassLabel(Enum):
    NORMAL = "normal"
    DIRECT_DOS = "direct_dos"
    AMPLIFICATION = "amplification"


# Row/column order of confusion matrices and one-hot-style target codes.
CLASS_ORDER: tuple[ClassLabel, ...] = (
    ClassLabel.NORMAL, ClassLabel.DIRECT_DOS, ClassLabel.AMPLIFICATION)
CLASS_INDEX = {label: i for i, label in enumerate(CLASS_ORDER)}

TARGET_CODES: dict[ClassLabel, tuple[float, float, float]] = {
    ClassLabel.NORMAL: (0.0, 0.0, 0.0),
    ClassLabel.DIRECT_DOS: (0.0, 0.0, 1.0),
    ClassLabel.AMPLIFICATION: (0.0, 1.0, 0.0),
}

_ATTACK_TO_LABEL = {
    AttackKind.NONE: ClassLabel.NORMAL,
    AttackKind.DIRECT_DOS: ClassLabel.DIRECT_DOS,
    AttackKind.AMPLIFICATION: ClassLabel.AMPLIFICATION,
}


@dataclass(frozen=True)
class WindowStats:
    window_index: int
    start: float
    bits_received: int
    packets_received: int
    packets_lost: int


@dataclass(frozen=True)
class FeatureVector:
    throughput: float         # bits/second received by the server
    mean_packet_size: float   # bytes; 0 only when nothing was received
    packet_loss: int          # packets dropped at the bottleneck queue

    def as_array(self) -> np.ndarray:
        return np.array([self.throughput, self.mean_packet_size,
                         float(self.packet_loss)])


@dataclass(frozen=True)
class LabeledDataset:
    samples: tuple[tuple[FeatureVector, ClassLabel], ...]
    provenance: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.samples)

    def features(self) -> np.ndarray:
        """(n, 3) matrix of raw feature vectors."""
        return np.array([fv.as_array() for fv, _ in self.samples]).reshape(-1, 3)

    def targets(self) -> np.ndarray:
        """(n, 3) matrix of class target codes."""
        return np.array([TARGET_CODES[lbl] for _, lbl in self.samples]).reshape(-1, 3)

    def labels(self) -> list[ClassLabel]:
        return [lbl for _, lbl in self.samples]

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset(tuple(self.samples[i] for i in indices), self.provenance)


def merge_datasets(parts: list[LabeledDataset]) -> LabeledDataset:
    samples: list = []
    provenance: list[str] = []
    for part in parts:
        samples.extend(part.samples)
        provenance.extend(part.provenance)
    return LabeledDataset(tuple(samples), tuple(provenance))


def window_trace(trace: PacketTrace, window_len: float) -> list[WindowStats]:
    """Aggregate a trace into ceil(duration / window_len) tumbling windows.

    Server deliveries count toward bits/packets received; queue drops
    count toward packets lost; deliveries back to the client are not
    server-received traffic. An event timestamped exactly at the trace
    end lands in the last window.
    """
    if window_len <= 0:
        raise ValueError("window_len must be > 0")
    n = math.ceil(trace.config.duration / window_len)
    index = np.minimum(trace.t // window_len, n - 1).astype(np.intp)
    received = trace.disposition == TO_SERVER
    bits = np.bincount(index[received], weights=trace.size[received] * 8.0, minlength=n)
    packets = np.bincount(index[received], minlength=n)
    lost = np.bincount(index[trace.disposition == DROPPED], minlength=n)
    return [WindowStats(i, i * window_len, int(bits[i]), int(packets[i]), int(lost[i]))
            for i in range(n)]


def extract_features(w: WindowStats, window_len: float) -> FeatureVector:
    """Turn one window's counters into the three-feature vector.

    Throughput is per second (window-length invariant); mean packet size
    is bytes per received packet, 0 for an empty window. Values are
    rounded to the storage precision of the dataset format.
    """
    if window_len <= 0:
        raise ValueError("window_len must be > 0")
    throughput = round(w.bits_received / window_len, 6)
    if w.packets_received > 0:
        mean_size = round((w.bits_received / 8) / w.packets_received, 6)
    else:
        mean_size = 0.0
    return FeatureVector(throughput, mean_size, w.packets_lost)


def label_windows(windows: list[WindowStats], truth: GroundTruth,
                  window_len: float, provenance: tuple[str, ...] = ()) -> LabeledDataset:
    """Label each window and pair it with its feature vector.

    A window gets the trace's attack class iff the attack interval covers
    strictly more than half of the window span; otherwise it is Normal.
    """
    attack_label = _ATTACK_TO_LABEL[truth.attack_kind]
    samples = []
    for w in windows:
        label = ClassLabel.NORMAL
        if truth.interval is not None:
            a_start, a_end = truth.interval
            overlap = min(a_end, w.start + window_len) - max(a_start, w.start)
            if overlap > window_len / 2:
                label = attack_label
        samples.append((extract_features(w, window_len), label))
    return LabeledDataset(tuple(samples), provenance)


def l2_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise unit normalization for classifier inputs.

    Each row is first scaled by the smallest power of two above its
    largest magnitude, which is exact, so that extreme components
    neither underflow nor overflow when squared. Exactly-zero rows (a
    window with no traffic at all) pass through unchanged instead of
    failing, so classifiers keep their contract of returning a label for
    any finite input.
    """
    arr = np.asarray(matrix, dtype=float)
    _, exponent = np.frexp(np.abs(arr).max(axis=1, keepdims=True, initial=0.0))
    arr = np.ldexp(arr, -exponent)
    norms = np.sqrt((arr * arr).sum(axis=1, keepdims=True))
    safe = np.where(norms == 0.0, 1.0, norms)
    return arr / safe


# --- dataset serialization ---------------------------------------------------

DATASET_HEADER = "throughput_bps,mean_packet_size_bytes,packet_loss,label"
_LABEL_BY_NAME = {label.value: label for label in ClassLabel}


def write_dataset(dataset: LabeledDataset, comments: tuple[str, ...] = ()) -> str:
    """Render a dataset as CSV text; floats carry 6 decimal places."""
    lines = [f"# {c}" for c in comments]
    if dataset.provenance:
        lines.append("# provenance=" + ",".join(dataset.provenance))
    lines.append(DATASET_HEADER)
    for fv, label in dataset.samples:
        lines.append(f"{fv.throughput:.6f},{fv.mean_packet_size:.6f},"
                     f"{fv.packet_loss},{label.value}")
    return "\n".join(lines) + "\n"


def read_dataset(text: str) -> LabeledDataset:
    """Parse CSV text produced by `write_dataset`."""
    provenance: tuple[str, ...] = ()
    samples = []
    saw_header = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("provenance="):
                value = body[len("provenance="):]
                provenance = tuple(value.split(",")) if value else ()
            continue
        if not saw_header:
            if line.strip() != DATASET_HEADER:
                raise ParseError(f"expected header {DATASET_HEADER!r}", line=line_no)
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", line=line_no)
        thr_s, mps_s, loss_s, label_s = parts
        try:
            thr = float(thr_s)
            mps = float(mps_s)
            loss = int(loss_s)
        except ValueError as exc:
            raise ParseError(f"bad numeric field: {exc}", line=line_no) from None
        try:
            float(loss)
        except OverflowError:
            raise ParseError("packet_loss too large for a float", line=line_no) from None
        if not (math.isfinite(thr) and math.isfinite(mps)):
            raise ParseError("non-finite feature value", line=line_no)
        if thr < 0 or mps < 0 or loss < 0:
            raise ParseError("negative feature value", line=line_no)
        if label_s not in _LABEL_BY_NAME:
            raise ParseError(f"unknown label {label_s!r}", line=line_no, field="label")
        samples.append((FeatureVector(thr, mps, loss), _LABEL_BY_NAME[label_s]))
    if not saw_header:
        raise ParseError("missing dataset header row")
    return LabeledDataset(tuple(samples), provenance)
