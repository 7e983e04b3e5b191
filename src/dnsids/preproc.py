"""Windowed traffic statistics and labeled feature datasets.

A packet trace is cut into fixed-length tumbling windows aligned to t=0.
Each window yields one row of an (n, 3) feature matrix: throughput of
traffic received by the server (bits/second), mean received packet size
(bytes), and the count of packets dropped at the bottleneck queue. Both
legitimate requests and inbound attack packets (including oversized
reflected responses) count as server-received traffic; responses leaving
the server do not.

Feature values are quantized to 6 decimal places, the precision of the
dataset CSV format, so write/read round trips are exact.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParseError
from .simnet import (DROPPED, RENDER_BLOCK, TO_SERVER, AttackKind, PacketTrace,
                     line_blocks, round6)


class ClassLabel(Enum):
    NORMAL = "normal"
    DIRECT_DOS = "direct_dos"
    AMPLIFICATION = "amplification"


# Row/column order of confusion matrices; a label code is an index into it.
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


# Row k is the target code of the class with label code k.
_TARGET_TABLE = np.array([TARGET_CODES[label] for label in CLASS_ORDER])


def label_codes(labels) -> np.ndarray:
    """int8 label codes (indices into CLASS_ORDER) of a sequence of labels."""
    return np.array([CLASS_INDEX[label] for label in labels], dtype=np.int8)


def class_labels(codes) -> list[ClassLabel]:
    """The labels named by a sequence of label codes."""
    return [CLASS_ORDER[c] for c in np.asarray(codes).tolist()]


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature rows and their label codes, held as columns.

    `X` is (n, 3) float64 with one feature vector per row (throughput,
    mean packet size, packet loss); `codes` is (n,) int8, each row's
    class as an index into CLASS_ORDER. Both are read-only copies of
    what the constructor was given.
    """
    X: np.ndarray
    codes: np.ndarray
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        X = np.array(self.X, dtype=np.float64).reshape(-1, 3)
        codes = np.array(self.codes, dtype=np.int8).reshape(-1)
        if len(X) != len(codes):
            raise ValueError(f"{len(X)} feature rows vs {len(codes)} label codes")
        X.flags.writeable = False
        codes.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return (np.array_equal(self.X, other.X) and np.array_equal(self.codes, other.codes)
                and self.provenance == other.provenance)

    def targets(self) -> np.ndarray:
        """(n, 3) matrix of class target codes."""
        return _TARGET_TABLE[self.codes]

    def subset(self, index) -> "LabeledDataset":
        """The rows selected by a sequence of row indices or a boolean mask."""
        index = np.asarray(index)
        if index.dtype != bool:
            index = index.astype(np.intp)
        return LabeledDataset(self.X[index], self.codes[index], self.provenance)


def merge_datasets(parts: list[LabeledDataset]) -> LabeledDataset:
    if not parts:
        return LabeledDataset((), ())
    return LabeledDataset(np.concatenate([part.X for part in parts]),
                          np.concatenate([part.codes for part in parts]),
                          tuple(name for part in parts for name in part.provenance))


def window_trace(trace: PacketTrace, window_len: float) -> np.ndarray:
    """Feature rows of ceil(duration / window_len) tumbling windows.

    Row i covers [i * window_len, (i + 1) * window_len) and holds the
    throughput received by the server (bits per second), the mean
    received packet size (bytes, 0 for a window that received nothing)
    and the packets dropped at the bottleneck queue. Server deliveries
    count as received; deliveries back to the client do not. An event
    timestamped exactly at the trace end lands in the last window.
    Throughput and mean size are rounded to the storage precision of the
    dataset format.
    """
    if window_len <= 0:
        raise ValueError("window_len must be > 0")
    n = math.ceil(trace.config.duration / window_len)
    index = np.minimum(trace.t // window_len, n - 1).astype(np.intp)
    received = trace.disposition == TO_SERVER
    bits = np.bincount(index[received], weights=trace.size[received] * 8.0, minlength=n)
    packets = np.bincount(index[received], minlength=n)
    lost = np.bincount(index[trace.disposition == DROPPED], minlength=n)
    mean_size = np.divide(bits / 8, packets, out=np.zeros(n), where=packets > 0)
    return np.column_stack([round6(bits / window_len), round6(mean_size), lost])


def label_windows(features: np.ndarray, attack_kind: AttackKind,
                  interval: tuple[float, float] | None, window_len: float,
                  provenance: tuple[str, ...] = ()) -> LabeledDataset:
    """Label the feature rows of one trace's windows, row i starting at
    i * window_len.

    A window gets the class of `attack_kind` iff the attack `interval`
    covers strictly more than half of the window span; otherwise it is Normal.
    """
    codes = np.full(len(features), CLASS_INDEX[ClassLabel.NORMAL], dtype=np.int8)
    if interval is not None:
        a_start, a_end = interval
        start = np.arange(len(features)) * window_len
        overlap = np.minimum(a_end, start + window_len) - np.maximum(a_start, start)
        codes[overlap > window_len / 2] = CLASS_INDEX[_ATTACK_TO_LABEL[attack_kind]]
    return LabeledDataset(features, codes, provenance)


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
_CODE_BY_NAME = {label.value: CLASS_INDEX[label] for label in ClassLabel}
_NAME_BY_CODE = [label.value for label in CLASS_ORDER]
# The largest packet loss the float64 feature column holds with every
# smaller integer, so each accepted value is written back unchanged.
MAX_PACKET_LOSS = 2 ** 53


def write_dataset(dataset: LabeledDataset) -> str:
    """Render a dataset as CSV text; floats carry 6 decimal places."""
    lines = []
    if dataset.provenance:
        lines.append("# provenance=" + ",".join(dataset.provenance))
    lines.append(DATASET_HEADER)
    for (thr, mps, loss), code in zip(dataset.X.tolist(), dataset.codes.tolist()):
        lines.append(f"{thr:.6f},{mps:.6f},{int(loss)},{_NAME_BY_CODE[code]}")
    return "\n".join(lines) + "\n"


def read_dataset(text: str | Iterable[str]) -> LabeledDataset:
    """Parse CSV text produced by `write_dataset`, given whole or as
    pieces, such as a file's as it is read, that join to it.

    Lines are split as `str.splitlines` splits the whole text, and the
    first faulty line fails.
    """
    provenance: tuple[str, ...] = ()
    rows = []
    codes = []
    saw_header = False
    lines = itertools.chain.from_iterable(line_blocks(text, RENDER_BLOCK))
    for line_no, line in enumerate(lines, start=1):
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
        if not (math.isfinite(thr) and math.isfinite(mps)):
            raise ParseError("non-finite feature value", line=line_no)
        if thr < 0 or mps < 0 or loss < 0:
            raise ParseError("negative feature value", line=line_no)
        if loss > MAX_PACKET_LOSS:
            raise ParseError("packet_loss above 2**53 is not exact as a float64",
                             line=line_no, field="packet_loss")
        if label_s not in _CODE_BY_NAME:
            raise ParseError(f"unknown label {label_s!r}", line=line_no, field="label")
        rows.append((thr, mps, loss))
        codes.append(_CODE_BY_NAME[label_s])
    if not saw_header:
        raise ParseError("missing dataset header row")
    return LabeledDataset(rows, codes, provenance)
