"""Simulation of DoS traffic against a DNS server, and the trace format.

Models the smallest topology that reproduces the phenomena the detector
relies on: a legitimate client and an attack source both route through a
router to the target name server. The router->server link is the single
contested resource; it serializes packets at a configured bit rate behind
a drop-tail FIFO queue. Every other hop is uncongested and contributes
only serialization plus propagation delay.

Traffic sources:

* the legitimate client sends fixed-size queries at a fixed interarrival
  and retransmits on timeout until a response arrives or the retry budget
  is exhausted;
* a direct flood sends constant-bit-rate packets toward the server;
* an amplification flood delivers oversized reflected responses to the
  server's inbound path.

With one contested FIFO there is no need for a general event calendar.
The constant-bit-rate attack arrivals are computed up front as an array;
the few legitimate requests, timeouts and responses run on a small
agenda merged into that stream. Each admitted packet leaves the link at
d_k = max(a_k, d_{k-1}) + s_k (Lindley 1952), and an arrival is dropped
while the packet `queue_capacity + 1` places ahead of it is still on the
link. Rows come out in the order a calendar that breaks time ties by
insertion order would process them; where times tie exactly, that order
is recovered from the events' causes (see `run`).

While the link is busy, the k-th newly admitted packet leaves at the
last departure plus k services. So a run of more than
`queue_capacity + 1` attack arrivals between two legitimate events, met
by a busy link, is decided in numpy by `_settle_full_queue`, which sums
those services one at a time as the per-packet loop does and gives
bit-identical departure times. It settles the run up to the first
arrival at an idle link or the first arrival that ties a departure
exactly. Legitimate arrivals, shorter runs and the arrivals where the
helper stopped go through the per-packet `arrive` in `run`. The
per-packet records (departure time, arrival, whether the arrival started
the link, drops) are typed `array` buffers, filled in bulk from the
helper's arrays and read back as numpy views once the loop ends.

A trace is held as columns with one entry per recorded event: `t`
(float64 seconds, rounded to 6 places), `kind` and `disposition` (int8
indices into KINDS and DISPOSITIONS), `size` (int32 bytes) and `flow`
(int32: n for the legitimate flow `q<n>`, -1 for the attack stream
`atk`). `PacketTrace.events` rebuilds `PacketEvent` rows on demand.

Traces serialize to UTF-8 text: ``#key=value`` header lines followed by
one ``seq,timestamp,kind,size,disposition,flow_id`` row per packet event;
names appear only in this text form. Event timestamps are recorded at
microsecond resolution so the text form round-trips exactly.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, fields
from enum import Enum
from functools import cmp_to_key

import numpy as np

from .errors import InvalidConfig, ParseError, require


class AttackKind(Enum):
    NONE = "none"
    DIRECT_DOS = "direct_dos"
    AMPLIFICATION = "amplification"


class PacketKind(Enum):
    LEGIT_REQUEST = "legit_request"
    LEGIT_RESPONSE = "legit_response"
    ATTACK = "attack_packet"


class Disposition(Enum):
    DELIVERED_TO_SERVER = "delivered_to_server"
    DROPPED_AT_QUEUE = "dropped_at_queue"
    DELIVERED_TO_CLIENT = "delivered_to_client"


# Column codes: a trace's `kind` and `disposition` entries index these.
KINDS: tuple[PacketKind, ...] = tuple(PacketKind)
DISPOSITIONS: tuple[Disposition, ...] = tuple(Disposition)
REQUEST, RESPONSE, ATTACK = (KINDS.index(k) for k in PacketKind)
TO_SERVER, DROPPED, TO_CLIENT = (DISPOSITIONS.index(d) for d in Disposition)
ATTACK_FLOW = -1  # `flow` entry of the attack stream, written as "atk"


# Attack arrivals enter the queue at most this many at a time, whether
# `_settle_full_queue` decides them as arrays or the per-packet `arrive`
# takes them as Python floats, so neither holds more than one block. The
# helper takes a run once it is longer than queue_capacity + 1 and the
# link is busy; what it settles goes into the typed record buffers in
# one piece per call.
ARRIVAL_BLOCK = 8192

# Ratio of offered attack load to bottleneck capacity when no explicit
# attack_rate is configured.
DEFAULT_OVERLOAD = 1.2

# Emissions of each source one run may ask for: attack_rate times the
# attack's length, and duration / legit_interarrival; also the request
# transmissions, retransmissions included. A run holds a few numbers per
# emission, and a trace of this many rows is about 600 MB of text, so a
# config asking for more is refused before anything is built.
MAX_EMISSIONS = 10**7

# Windows one run may be cut into: duration / window_len. Each window is
# one feature row, about 40 bytes of dataset text, so a config asking for
# more is refused before anything is built.
MAX_WINDOWS = 10**6

# Largest packet size, and flow number, that a trace's int32 column holds.
_INT32_MAX = 2**31 - 1

# All rates in bits/second, sizes in bytes, times in seconds.


@dataclass(frozen=True)
class ScenarioConfig:
    duration: float = 200.0
    window_len: float = 20.0
    legit_interarrival: float = 10.0
    request_size: int = 60
    normal_response_size: int = 512
    amp_response_size: int = 4000
    retransmit_max: int = 3
    retransmit_timeout: float = 5.0
    bottleneck_rate: float = 10_000_000.0
    bottleneck_delay: float = 0.010
    edge_rate: float = 100_000_000.0
    edge_delay: float = 0.010
    queue_capacity: int = 100
    attack_kind: AttackKind = AttackKind.NONE
    # None means "derived", and every built object holds a number: an unset
    # attack_duration is duration, and an attack's unset attack_rate offers
    # DEFAULT_OVERLOAD times the bottleneck capacity in packets of
    # attack_packet_size, or of amp_response_size for amplification.
    attack_rate: float | None = None
    attack_packet_size: int = 512
    attack_start_jitter: tuple[float, float] = (0.0, 0.0)
    attack_duration: float | None = None

    def __post_init__(self):
        """Derive the unset fields, then check every rule of a scenario;
        the error names the first key that breaks one."""
        try:
            kind = AttackKind(self.attack_kind)
        except ValueError:
            raise InvalidConfig(f"attack_kind must be one of "
                                f"{', '.join(k.value for k in AttackKind)}, "
                                f"got {self.attack_kind!r}") from None
        object.__setattr__(self, "attack_kind", kind)
        lo, hi = self.attack_start_jitter
        object.__setattr__(self, "attack_start_jitter", (float(lo), float(hi)))
        if self.attack_duration is None:
            object.__setattr__(self, "attack_duration", self.duration)
        if self.attack_rate is None:
            size = (self.amp_response_size if kind is AttackKind.AMPLIFICATION
                    else self.attack_packet_size)
            # A size below 1 breaks its own rule, reported below.
            rate = (DEFAULT_OVERLOAD * self.bottleneck_rate / (8 * size)
                    if kind is not AttackKind.NONE and size >= 1 else 0.0)
            object.__setattr__(self, "attack_rate", rate)

        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            require(bool(np.isfinite(value).all()), name, "finite", value)
        for name in ("duration", "window_len", "legit_interarrival", "retransmit_timeout",
                     "bottleneck_rate", "bottleneck_delay", "edge_rate", "edge_delay"):
            require(getattr(self, name) > 0, name, "> 0", getattr(self, name))
        for name in ("request_size", "normal_response_size", "queue_capacity"):
            require(getattr(self, name) >= 1, name, ">= 1", getattr(self, name))
        require(self.amp_response_size > 512, "amp_response_size",
                "> 512, the standard response size", self.amp_response_size)
        for name in ("request_size", "normal_response_size", "amp_response_size"):
            require(getattr(self, name) <= _INT32_MAX, name,
                    f"<= {_INT32_MAX}, the trace's largest size", getattr(self, name))
        require(self.retransmit_max >= 0, "retransmit_max", ">= 0", self.retransmit_max)
        require(0.0 <= lo <= hi < self.duration, "attack_start_jitter",
                "a range within [0, duration)", self.attack_start_jitter)
        requests = self.duration / self.legit_interarrival
        require(requests <= MAX_EMISSIONS, "duration", f"<= {MAX_EMISSIONS} * "
                f"legit_interarrival, {MAX_EMISSIONS} request emissions per run", self.duration)
        # A request is sent once and retransmitted at most retransmit_max
        # times, one timeout apart within the run. The 1e300 keeps an integer
        # retransmit_max beyond float range printable; it is refused anyway.
        retries = min(self.retransmit_max, self.duration / self.retransmit_timeout, 1e300)
        transmissions = math.ceil(requests) * (1 + retries)
        require(transmissions <= MAX_EMISSIONS, "retransmit_max", f"small enough that "
                f"ceil(duration / legit_interarrival) * (1 + min(retransmit_max, duration / "
                f"retransmit_timeout)) request transmissions per run are <= {MAX_EMISSIONS}",
                f"{transmissions:g} transmissions")
        if self.attack_kind is not AttackKind.NONE:
            require(1 <= self.attack_packet_size <= _INT32_MAX, "attack_packet_size",
                    f"in 1..{_INT32_MAX}", self.attack_packet_size)
            require(self.attack_rate > 0, "attack_rate", "> 0 for attack scenarios",
                    self.attack_rate)
            require(self.attack_duration > 0, "attack_duration", "> 0", self.attack_duration)
            attacks = self.attack_rate * min(self.attack_duration, self.duration)
            require(attacks <= MAX_EMISSIONS, "attack_rate", f"<= {MAX_EMISSIONS} / "
                    f"min(attack_duration, duration), {MAX_EMISSIONS} attack emissions per run",
                    self.attack_rate)
        # The quotient is compared as it is: a tiny window_len makes it inf.
        require(self.duration / self.window_len <= MAX_WINDOWS, "window_len",
                f">= duration / {MAX_WINDOWS}, {MAX_WINDOWS} windows per run", self.window_len)


# Fields holding one float or a pair of them.
_FLOAT_FIELDS = [f.name for f in fields(ScenarioConfig) if "float" in f.type]


@dataclass(frozen=True)
class PacketEvent:
    """One trace row, as a read-only view built from the columns."""
    seq: int
    timestamp: float
    kind: PacketKind
    size: int
    disposition: Disposition
    flow_id: str


_COLUMNS = {"t": np.float64, "kind": np.int8, "size": np.int32,
            "disposition": np.int8, "flow": np.int32}


def flow_name(flow: int) -> str:
    return "atk" if flow == ATTACK_FLOW else f"q{flow}"


@dataclass(frozen=True, eq=False)
class PacketTrace:
    """One run: the scenario, its counters and the event columns.

    The columns are read-only arrays of equal length. A column handed in
    with its dtype already is kept as a view, not copied, so the caller
    must not write to it afterwards; any other is converted.
    """
    config: ScenarioConfig
    seed: int
    t: np.ndarray
    kind: np.ndarray
    size: np.ndarray
    disposition: np.ndarray
    flow: np.ndarray
    attack_interval: tuple[float, float] | None   # None without an attack
    packets_generated: int
    in_flight_at_end: int
    max_queue_occupancy: int

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            column = np.asarray(getattr(self, name), dtype=dtype).reshape(-1)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if len({getattr(self, name).size for name in _COLUMNS}) != 1:
            raise ValueError("trace columns differ in length")

    def __len__(self) -> int:
        return self.t.size

    def __eq__(self, other):
        if not isinstance(other, PacketTrace):
            return NotImplemented
        return (all(getattr(self, f.name) == getattr(other, f.name)
                    for f in fields(self) if f.name not in _COLUMNS)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in _COLUMNS))

    @property
    def drops(self) -> int:
        """Number of packets dropped at the bottleneck queue."""
        return int(np.count_nonzero(self.disposition == DROPPED))

    # Unused in the library; benchmarks/traced.py counts rows and drops
    # through it until ROADMAP item 1 retires that.
    @property
    def events(self) -> tuple[PacketEvent, ...]:
        """The rows as `PacketEvent` records, built on each access."""
        return tuple(
            PacketEvent(seq, t, KINDS[k], size, DISPOSITIONS[d], flow_name(f))
            for seq, (t, k, size, d, f) in enumerate(zip(
                self.t.tolist(), self.kind.tolist(), self.size.tolist(),
                self.disposition.tolist(), self.flow.tolist())))


def _emission_time(start: float, rate: float, i):
    """Constant-bit-rate emission time start + i / rate of attack packet i,
    for an integer i or an array of them; a Python int and the same array
    element give the same float, bit for bit."""
    return start + i / rate


def _attack_emissions(start: float, end: float, rate: float) -> np.ndarray:
    """The emission times `_emission_time` gives that fall before `end`."""
    n = int((end - start) * rate) + 1
    while _emission_time(start, rate, n) < end:
        n += 1
    emit = _emission_time(start, rate, np.arange(n + 1))
    return emit[emit < end]


def round6(x: np.ndarray) -> np.ndarray:
    """Python's round(v, 6) of every element.

    Multiplication rounds monotonically, so rint(v * 1e6) is v rounded to
    whole microseconds unless the product is exactly half-way between two
    integers or too large to hold a fraction; those elements take
    Python's round.
    """
    # In place where it can be, so at most three arrays of x's length are
    # alive at once; `run` rounds its times one block at a time.
    scaled = x * 1e6
    out = np.rint(scaled)
    out /= 1e6
    frac = np.floor(scaled)
    np.subtract(scaled, frac, out=frac)
    inexact = frac == 0.5
    del frac
    inexact |= ~(np.abs(scaled, out=scaled) < 2.0**52)
    for i in np.flatnonzero(inexact).tolist():
        out[i] = round(float(x[i]), 6)
    return out


def _settle_full_queue(tail: np.ndarray, arrivals: np.ndarray, service: float,
                       capacity: int) -> tuple[int, np.ndarray, np.ndarray, int, int]:
    """Decide a run of arrivals at a busy drop-tail link in array operations.

    `tail` holds, in order, the departure times of the admitted packets
    that may not have left yet, at most `capacity + 1` of them; every
    earlier packet has left, and `tail[-1]` lies after `arrivals[0]`.
    `arrivals` are the sorted times of packets of one service time, with
    no other arrival among them. Returns `(settled, admitted, departs,
    max_ahead, left)`: of the first `settled` arrivals, those at the
    indices `admitted` enter the queue and leave at `departs`, and the
    rest are dropped; `max_ahead` is the most packets an admitted one
    found ahead of it, and `left` counts the packets of `tail` and
    `admitted` that have left by the last settled arrival.

    While the link stays busy, admission j leaves at `tail[-1]` plus j + 1
    services, added one at a time as `run`'s loop adds them. An arrival
    is admitted iff at most `capacity` packets are ahead of it, that is,
    iff the packet `capacity + 1` places ahead of it has left. Settling
    stops before the first admission at an idle link, whose departure
    starts a new chain, and before the first arrival that ties a departure
    exactly: the order of the two then depends on their causes. No
    decision depends on a later arrival, so the arrivals before either
    stop are settled exactly.
    """
    chain = np.full(len(arrivals) + 1, service)
    chain[0] = tail[-1]
    departures = np.concatenate([tail, np.add.accumulate(chain)[1:]])
    before = np.searchsorted(departures, arrivals, "left")
    tied = np.flatnonzero(before != np.searchsorted(departures, arrivals, "right"))
    n = int(tied[0]) if tied.size else len(arrivals)
    before = before[:n]
    # Admission j is the first arrival after admission j - 1 at which
    # len(tail) + j - before <= capacity. `before` never decreases, so
    # with first[j] the earliest arrival meeting that bound, admission j
    # is arrival j + max(first[:j + 1] - arange(j + 1)). Room for n more
    # packets admits every arrival, so the bound is clipped there and a
    # huge capacity costs nothing.
    j = np.arange(n)
    room = min(capacity - len(tail), n)
    first = np.searchsorted(before, j - room, "left")
    admitted = j + np.maximum.accumulate(first - j)
    admitted = admitted[:np.searchsorted(admitted, n)]
    ahead = len(tail) + np.arange(len(admitted)) - before[admitted]
    idle = np.flatnonzero(ahead < 1)
    if idle.size:
        settled = int(admitted[idle[0]])
        admitted, ahead = admitted[:idle[0]], ahead[:idle[0]]
    else:
        settled = n
    k = len(admitted)
    left = min(int(before[settled - 1]), len(tail) + k) if settled else 0
    return (settled, admitted, departures[len(tail):len(tail) + k],
            int(ahead.max(initial=0)), left)


def run(config: ScenarioConfig, seed: int) -> PacketTrace:
    """Simulate one scenario; identical (config, seed) gives identical traces.

    The only random draw is the attack start offset, taken uniformly from
    the configured jitter range. Events up to and including `duration`
    take effect. Events at the same instant take effect in the order of
    a calendar that breaks time ties by insertion order. An event is
    inserted when its cause is processed, so equal times are ordered by
    their causes' processing order, then by the order in which one cause
    creates them; the first request emission and the first attack
    emission are inserted before anything else, in that order. Exact ties
    are rare, so this order is worked out only where two times are equal.
    """
    cfg = config
    rng = random.Random(seed)

    if cfg.attack_kind is not AttackKind.NONE:
        lo, hi = cfg.attack_start_jitter
        attack_start = round(lo + rng.random() * (hi - lo), 6)
        # A float even when a library caller's duration is an int.
        emit_end = float(min(attack_start + cfg.attack_duration, cfg.duration))
        attack_interval = (attack_start, round(emit_end, 6))
        attack_size = (cfg.amp_response_size
                       if cfg.attack_kind is AttackKind.AMPLIFICATION
                       else cfg.attack_packet_size)
    else:
        attack_start = 0.0
        emit_end = 0.0
        attack_interval = None
        attack_size = 0

    def edge_latency(size: int) -> float:
        return size * 8 / cfg.edge_rate + cfg.edge_delay

    def tx_time(size: int) -> float:
        return size * 8 / cfg.bottleneck_rate

    horizon = cfg.duration
    link_delay = cfg.bottleneck_delay
    # Uncontested return path: serialize on both links, no queueing.
    reverse = (tx_time(cfg.normal_response_size) + cfg.bottleneck_delay
               + edge_latency(cfg.normal_response_size))
    request_edge = edge_latency(cfg.request_size)
    request_tx = tx_time(cfg.request_size)
    attack_tx = tx_time(attack_size)
    attack_edge = edge_latency(attack_size)

    def emitted(i):
        """Emission time of attack packet i, or of an array of indices."""
        return _emission_time(attack_start, cfg.attack_rate, i)

    # Arrival times at the router; emission times are recomputed where a
    # tie needs them, so no array of them is kept.
    attack_arrive = (_attack_emissions(attack_start, emit_end, cfg.attack_rate)
                     if attack_start < emit_end else np.empty(0))
    attack_emitted = len(attack_arrive)
    attack_arrive += attack_edge
    request_emit = [0.0]
    while request_emit[-1] + cfg.legit_interarrival < horizon:
        request_emit.append(request_emit[-1] + cfg.legit_interarrival)

    # Events are named (tag, index):
    #   "E" attack emission i, "A" its arrival at the router;
    #   "Q" request emission n, "L" arrival and "O" timeout of request
    #   transmission s;
    #   "T" end of transmission of admitted packet k, "D" its delivery to
    #   the server, "R" the response to it when it is a request.
    sent_t: list[float] = []           # request transmission s: when, why and
    sent_cause: list[tuple] = []       # for which flow; its arrival is ("L", s)
    sent_flow: list[int] = []          # and its timeout ("O", s)
    tries: list[int] = []              # flow n: request transmissions so far
    first_admitted: list[int] = []     # flow n: its first admitted packet k, or -1
    depart = array("d")                # admitted packet k: end of transmission,
    source = array("q")                # its arrival (attack i, or ~s), and
    own_start = array("b")             # whether its arrival started the link
    dropped = array("q")               # dropped arrivals, encoded as `source`

    def arrival(x: int) -> tuple:
        return ("A", x) if x >= 0 else ("L", ~x)

    def when(ev: tuple) -> float:
        tag, i = ev
        if tag == "E":
            return emitted(i)
        if tag == "A":
            return emitted(i) + attack_edge
        if tag == "Q":
            return request_emit[i]
        if tag == "L":
            return sent_t[i] + request_edge
        if tag == "O":
            return sent_t[i] + cfg.retransmit_timeout
        if tag == "T":
            return depart[i]
        delivered = depart[i] + link_delay
        return delivered if tag == "D" else delivered + reverse

    def cause(ev: tuple) -> tuple:
        """(causing event, rank among its children), or (None, insertion rank)."""
        tag, i = ev
        if tag == "E":
            return (None, 1) if i == 0 else (("E", i - 1), 1)
        if tag == "A":
            return ("E", i), 0
        if tag == "Q":
            return (None, 0) if i == 0 else (("Q", i - 1), 2)
        if tag == "L":
            return sent_cause[i], 0
        if tag == "O":
            return sent_cause[i], 1
        if tag == "T":
            return (arrival(source[i]), 0) if own_start[i] else (("T", i - 1), 1)
        return (("T", i), 0) if tag == "D" else (("D", i), 0)

    def before(x: tuple, y: tuple) -> bool:
        """Whether the calendar processes event x before event y."""
        while True:
            tx, ty = when(x), when(y)
            if tx != ty:
                return tx < ty
            (px, cx), (py, cy) = cause(x), cause(y)
            if px == py:
                return cx < cy
            if px is None or py is None:
                return px is None
            x, y = px, py

    capacity = cfg.queue_capacity
    done = 0            # admitted packets whose transmission has ended
    max_occupancy = 0

    def arrive(x: int, a: float, service: float) -> bool:
        """Admit arrival x at time a to the drop-tail FIFO, or drop it."""
        nonlocal done, max_occupancy
        n = len(depart)
        while done < n and (depart[done] < a or depart[done] == a
                            and before(("T", done), arrival(x))):
            done += 1
        ahead = n - done        # on the link or queued
        if ahead > capacity:
            dropped.append(x)
            return False
        if ahead > max_occupancy:
            max_occupancy = ahead
        depart.append((depart[-1] if ahead else a) + service)
        source.append(x)
        own_start.append(not ahead)
        return True

    # Pending legitimate events (request emissions, arrivals and timeouts)
    # as a heap of (time, insertion count, event). Each is inserted while
    # its cause, another of them, is processed, so at equal times the
    # insertion count is the calendar's order.
    agenda: list[tuple] = [(0.0, 0, ("Q", 0))]
    inserted = itertools.count(1)

    def schedule(ev: tuple, t: float) -> None:
        if t <= horizon:
            heapq.heappush(agenda, (t, next(inserted), ev))

    def send(flow: int, sender: tuple, t: float) -> None:
        """One request of `flow` sent at t: its arrival, then its timeout."""
        sent_t.append(t)
        sent_cause.append(sender)
        sent_flow.append(flow)
        s = len(sent_t) - 1
        schedule(("L", s), t + request_edge)
        schedule(("O", s), t + cfg.retransmit_timeout)

    def handle_next() -> None:
        """Process the earliest agenda event."""
        t, _, ev = heapq.heappop(agenda)
        tag, i = ev
        if tag == "Q":
            tries.append(1)
            first_admitted.append(-1)
            send(i, ev, t)
            if i + 1 < len(request_emit):
                schedule(("Q", i + 1), request_emit[i + 1])
        elif tag == "O":
            # Departures, and so responses, come in the order of k, and
            # equal-time responses are processed in that order too: the
            # flow is answered by now iff its first admitted packet is.
            flow = sent_flow[i]
            k = first_admitted[flow]
            if tries[flow] <= cfg.retransmit_max and not (k >= 0 and before(("R", k), ev)):
                tries[flow] += 1
                send(flow, ev, t)
        elif arrive(~i, t, request_tx) and first_admitted[sent_flow[i]] < 0:
            first_admitted[sent_flow[i]] = len(depart) - 1

    n_attack = int(np.count_nonzero(attack_arrive <= horizon))
    i = 0
    while i < n_attack:
        a = float(attack_arrive[i])
        while agenda and (agenda[0][0] < a
                          or agenda[0][0] == a and before(agenda[0][2], ("A", i))):
            handle_next()
        # Attack arrivals i..end-1 are due before the next legitimate event.
        head_t = agenda[0][0] if agenda else np.inf
        end = min(max(int(attack_arrive.searchsorted(head_t)), i + 1), n_attack)
        while i < end:
            stop = min(end, i + ARRIVAL_BLOCK)
            long_run = end - i > capacity + 1
            if long_run and depart and depart[-1] > attack_arrive[i]:
                settled, entered, departs, ahead, left = _settle_full_queue(
                    np.frombuffer(depart[done:]), attack_arrive[i:stop], attack_tx, capacity)
                done += left
                if settled:
                    drops = np.ones(settled, dtype=bool)
                    drops[entered] = False
                    dropped.frombytes((np.flatnonzero(drops) + i).tobytes())
                    depart.frombytes(departs.tobytes())
                    source.frombytes((entered + i).tobytes())
                    own_start.frombytes(bytes(len(entered)))
                    max_occupancy = max(max_occupancy, ahead)
                    i += settled
                    continue
            if long_run:    # the queue may fill after capacity + 1 of them
                stop = min(stop, i + capacity + 1)
            for x, a in enumerate(attack_arrive[i:stop].tolist(), i):
                arrive(x, a, attack_tx)
            i = stop
    while agenda:
        handle_next()

    # Rows: drops at their arrival, deliveries to the server, responses.
    # Each buffer and array below is released once its last reader is
    # done, so that on a long trace at most about four full-length arrays
    # of 8-byte entries are alive at once, next to the record buffers.
    # The views fix the buffers' size: nothing is appended from here.
    del attack_arrive
    source_ids = np.frombuffer(source, dtype=np.int64)
    drop_ids = np.frombuffer(dropped, dtype=np.int64)
    # Departures only grow, so the packets delivered by the horizon are
    # the first n_del admitted ones.
    deliver_t = np.frombuffer(depart) + link_delay
    n_del = int(deliver_t.searchsorted(horizon, "right"))
    requests = np.flatnonzero(source_ids[:n_del] < 0)
    # Every attack emission, request transmission and response to a
    # delivered request.
    generated = attack_emitted + len(sent_t) + len(requests)
    answered = requests[deliver_t[requests] + reverse <= horizon]

    n_drop, n_answered = len(drop_ids), len(answered)
    legit_drop = drop_ids < 0
    drop_t = np.empty(n_drop)
    drop_t[legit_drop] = np.array(sent_t)[~drop_ids[legit_drop]] + request_edge
    attack_drop = ~legit_drop
    drop_t[attack_drop] = emitted(drop_ids[attack_drop]) + attack_edge
    times = np.concatenate([drop_t, deliver_t[:n_del], deliver_t[answered] + reverse])
    del drop_t, deliver_t
    order = np.argsort(times, kind="stable")
    # Sorted in place: the values of times[order] without a second array.
    # The tie sorts below permute only equal times.
    times.sort()
    ties = np.flatnonzero(times[1:] == times[:-1])
    if ties.size:
        def row_event(r: int) -> tuple:
            if r < n_drop:
                return arrival(int(drop_ids[r]))
            if r < n_drop + n_del:
                return "D", r - n_drop
            return "R", int(answered[r - n_drop - n_del])

        calendar = cmp_to_key(lambda r, s: -1 if before(row_event(r), row_event(s)) else 1)
        for group in np.split(ties, np.flatnonzero(np.diff(ties) > 1) + 1):
            lo, hi = group[0], group[-1] + 2
            order[lo:hi] = sorted(order[lo:hi].tolist(), key=calendar)
    del depart, own_start     # the tie sort was their last reader

    # In row order: the arrival that carried each row's packet (a response
    # carries its request's), and the row's disposition.
    ids = np.concatenate([drop_ids, source_ids[:n_del], source_ids[answered]])
    del drop_ids, source_ids, dropped, source
    ids = ids[order]
    disposition = np.repeat(np.array([DROPPED, TO_SERVER, TO_CLIENT], np.int8),
                            [n_drop, n_del, n_answered])[order]
    del order
    # Rounded in place, one block at a time, so the rounding's temporaries
    # stay the size of a block.
    for lo in range(0, len(times), ARRIVAL_BLOCK):
        block = times[lo:lo + ARRIVAL_BLOCK]
        block[:] = round6(block)
    legit, response = ids < 0, disposition == TO_CLIENT
    kind = np.full(len(ids), ATTACK, np.int8)
    kind[legit] = REQUEST
    kind[response] = RESPONSE
    sizes = np.zeros(len(KINDS), np.int32)
    sizes[[REQUEST, RESPONSE, ATTACK]] = cfg.request_size, cfg.normal_response_size, attack_size
    size = sizes[kind]
    flow = np.full(len(ids), ATTACK_FLOW, np.int32)
    flow[legit] = np.array(sent_flow, dtype=np.int32)[~ids[legit]]
    return PacketTrace(
        config=cfg,
        seed=seed,
        t=times,
        kind=kind,
        size=size,
        disposition=disposition,
        flow=flow,
        attack_interval=attack_interval,
        packets_generated=generated,
        in_flight_at_end=generated - n_del - n_answered - n_drop,
        max_queue_occupancy=max_occupancy,
    )


# --- trace serialization ---------------------------------------------------

_CONFIG_FIELDS = [f.name for f in fields(ScenarioConfig)]
_COUNTERS = ("seed", "packets_generated", "in_flight_at_end", "max_queue_occupancy")
_KIND_CODES = {kind.value: code for code, kind in enumerate(KINDS)}
_DISPOSITION_CODES = {disp.value: code for code, disp in enumerate(DISPOSITIONS)}
RENDER_BLOCK = 8192     # trace rows rendered to text, and lines parsed, per block
# Characters `line_blocks` takes per line of a block when it splits a long
# piece of text into parts: about the length of a rendered trace row, so a
# part holds about one block.
_PIECE_CHARS_PER_LINE = 64
# The longest line `line_blocks` reads, in characters. A part of a block of
# RENDER_BLOCK rows is half as long, so only a part with a longer line in it
# has its lines measured.
MAX_LINE_CHARS = 1 << 20


def _digits(values: np.ndarray, width: int | None = None) -> np.ndarray:
    """ASCII digits of non-negative integers, one right-aligned row each.

    With a width, every number is zero-padded to it. Without one, rows are
    as wide as the largest number and shorter numbers lead with 0 bytes
    for the caller to strip.
    """
    w = width or len(str(int(values.max(initial=0))))
    out = np.empty((w, len(values)), dtype=np.uint8)    # one row per digit place
    q = values
    for place in range(w - 1, -1, -1):
        # Without a width, a place above the number's leading digit is blank.
        blank = q == 0 if width is None and place < w - 1 else None
        q, digit = np.divmod(q, 10)
        out[place] = digit
        out[place] += ord("0")
        if blank is not None:
            out[place][blank] = 0
    return out.T


def _render_block(trace: PacketTrace, lo: int, hi: int) -> str:
    """Rows lo..hi-1, each ending in a newline, rendered column-wise."""
    kind, size = trace.kind[lo:hi], trace.size[lo:hi]
    disposition, flow = trace.disposition[lo:hi], trace.flow[lo:hi]
    micros = np.rint(trace.t[lo:hi] * 1e6).astype(np.int64)
    # ",kind,size,disposition,flow\n" takes few distinct values: render each once.
    sizes, size_idx = np.unique(size, return_inverse=True)
    flows, flow_idx = np.unique(flow, return_inverse=True)
    code = (((size_idx * len(flows) + flow_idx) * len(KINDS) + kind)
            * len(DISPOSITIONS) + disposition)
    codes, row_code = np.unique(code, return_inverse=True)
    tails = []
    for c in codes.tolist():
        c, d = divmod(c, len(DISPOSITIONS))
        c, k = divmod(c, len(KINDS))
        s, f = divmod(c, len(flows))
        tails.append(f",{KINDS[k].value},{sizes[s]},{DISPOSITIONS[d].value},"
                     f"{flow_name(int(flows[f]))}\n".encode())
    table = np.zeros((len(tails), max(map(len, tails))), dtype=np.uint8)
    for row, tail in zip(table, tails):
        row[:len(tail)] = np.frombuffer(tail, dtype=np.uint8)

    def byte(ch: str) -> np.ndarray:
        return np.full((hi - lo, 1), ord(ch), dtype=np.uint8)

    text = np.hstack([_digits(np.arange(lo, hi)), byte(","), _digits(micros // 10**6),
                      byte("."), _digits(micros % 10**6, 6), table[row_code]])
    return text[text != 0].tobytes().decode("ascii")


def write_trace(trace: PacketTrace, start: int = 0, stop: int | None = None) -> str:
    """Rows start..stop-1 of a trace as UTF-8 text, after the header when
    start is 0; with no range, the whole text, which `read_trace` inverts
    exactly.

    Split the rows at any points after 0, and the texts of the ranges
    join to the whole text, so a writer can stream a trace one range at
    a time. Rows are rendered RENDER_BLOCK at a time, so the digit and
    byte matrices stay the size of one block whatever the range. The
    range that starts at 0 checks once that every timestamp of the trace
    is >= 0.
    """
    n = len(trace)
    stop = n if stop is None else min(stop, n)
    pieces = []
    if start == 0:
        if n and not trace.t.min() >= 0:
            raise ValueError("trace timestamps must be >= 0")
        pieces.append(_header(trace))
    pieces += [_render_block(trace, lo, min(lo + RENDER_BLOCK, stop))
               for lo in range(start, stop, RENDER_BLOCK)]
    return "".join(pieces)


def _header(trace: PacketTrace) -> str:
    """The "#key=value" lines of the scenario and the run's counters."""
    lines = []
    cfg = trace.config
    for name in _CONFIG_FIELDS:
        value = getattr(cfg, name)
        if name == "attack_kind":
            value = value.value
        elif name == "attack_start_jitter":
            value = f"{value[0]!r},{value[1]!r}"
        lines.append(f"#{name}={value!r}" if isinstance(value, float) else f"#{name}={value}")
    lines.append(f"#seed={trace.seed}")
    if trace.attack_interval is None:
        lines.append("#attack_start=")
        lines.append("#attack_end=")
    else:
        lines.append(f"#attack_start={trace.attack_interval[0]!r}")
        lines.append(f"#attack_end={trace.attack_interval[1]!r}")
    lines.append(f"#packets_generated={trace.packets_generated}")
    lines.append(f"#in_flight_at_end={trace.in_flight_at_end}")
    lines.append(f"#max_queue_occupancy={trace.max_queue_occupancy}")
    return "\n".join(lines) + "\n"


def parse_pair(raw: str) -> tuple[float, float]:
    """The "lo,hi" text form of a pair of floats."""
    lo, hi = raw.split(",")
    return float(lo), float(hi)


# How the text form of a value parses, by the annotation of the field it
# sets; each parser raises ValueError on text it cannot read.
PARSERS = {"int": int, "float": float, "float | None": float,
           "tuple[float, float]": parse_pair, "AttackKind": AttackKind}
_HEADER_TYPES = ({f.name: f.type for f in fields(ScenarioConfig)}
                 | dict.fromkeys(_COUNTERS, "int"))


def _parse_header_value(key: str, raw: str, line_no: int):
    try:
        return PARSERS[_HEADER_TYPES[key]](raw)
    except ValueError:
        raise ParseError(f"bad value {raw!r}", line=line_no, field=key) from None


def _flow_code(name: str) -> int | None:
    """Column entry of a flow id: -1 for "atk", n for "q<n>"; None if malformed."""
    if name == "atk":
        return ATTACK_FLOW
    digits = name[1:]
    if (name[:1] == "q" and digits.isdecimal() and digits.isascii()
            and str(int(digits)) == digits and int(digits) <= _INT32_MAX):
        return int(digits)
    return None


def _parse_column(values: list[str], dtype, what: str, line_nos: list[int]):
    """One numeric column; a value that does not parse fails naming its line."""
    try:
        return np.array(values, dtype=dtype)
    except (ValueError, OverflowError):
        convert = float if dtype is np.float64 else int
        for value, line_no in zip(values, line_nos):
            try:
                convert(value)
            except ValueError:
                raise ParseError(f"bad event row: invalid {what} {value!r}",
                                 line=line_no) from None
        raise ParseError(f"bad event row: {what} out of range") from None


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def _split(text: str, first_line: int) -> list[str]:
    """`text.splitlines()`, where the text's first line is line
    `first_line`; a line longer than MAX_LINE_CHARS fails naming it."""
    lines = text.splitlines()
    if len(text) > MAX_LINE_CHARS:
        for i, line in enumerate(lines):
            if len(line) > MAX_LINE_CHARS:
                raise ParseError(f"line longer than {MAX_LINE_CHARS} characters",
                                 line=first_line + i)
    return lines


def line_blocks(pieces: str | Iterable[str], size: int):
    """The lines of the text that `pieces` join to, as `str.splitlines`
    splits it, in lists of `size` lines; the last list may be shorter. A
    str is one piece. A line longer than MAX_LINE_CHARS characters fails
    as a ParseError naming it, once the reader holds more than that many
    characters of it, so an endless line is never held whole.

    Text is split only just after a line feed, which ends a line wherever
    it stands (alone or in "\\r\\n"), so each part splits into the lines
    it holds in the whole text. A part is about `size` rendered rows long,
    or the rest of a piece up to its last line feed, so no list of all the
    lines is built. The text after a piece's last line feed waits for the
    next line feed, and is joined once, so the work stays linear in the
    text's length however the pieces cut it. When that waiting text passes
    the bound, the lines that other line ends in it complete leave it.
    """
    if isinstance(pieces, str):
        pieces = (pieces,)
    step = size * _PIECE_CHARS_PER_LINE
    lines: list[str] = []
    done = 0                # lines already yielded
    tail: list[str] = []    # text since the last line feed
    held = 0                # its length
    for piece in pieces:
        pos, end = 0, piece.rfind("\n") + 1
        while pos < end:
            cut = piece.find("\n", min(pos + step, end - 1)) + 1
            part = piece[pos:cut]
            if tail:
                part = "".join(tail + [part])
                tail, held = [], 0
            lines += _split(part, done + len(lines) + 1)
            pos = cut
            full = len(lines) - len(lines) % size
            for lo in range(0, full, size):
                yield lines[lo:lo + size]
            del lines[:full]
            done += full
        if end < len(piece):
            tail.append(piece[end:])
            held += len(tail[-1])
            if held > MAX_LINE_CHARS:
                # The tail holds no line feed, so its last line may go on
                # (or end in "\r" that a line feed joins) and stays; the
                # ones before it are complete.
                *complete, last = "".join(tail).splitlines(keepends=True)
                lines += _split("".join(complete), done + len(lines) + 1)
                _split(last, done + len(lines) + 1)     # fails if already too long
                tail, held = [last], len(last)
    lines += _split("".join(tail), done + len(lines) + 1)
    for lo in range(0, len(lines), size):
        yield lines[lo:lo + size]


def read_trace(text: str | Iterable[str]) -> PacketTrace:
    """Parse the text form produced by `write_trace`, given whole or as
    pieces, such as a file's as it is read, that join to it.

    Unknown header keys are ignored so writers may annotate traces; all
    config fields, the seed, and the bookkeeping counters are required,
    the config fields must obey the scenario rules, and the counters and
    attack interval must be values `run` can write. Header lines come
    first; blank lines are skipped. Event rows must be numbered from 0
    without gaps, carry timestamps that never decrease and lie within
    [0, duration], and name a flow as `atk` or `q<n>`.

    Lines are parsed RENDER_BLOCK at a time, so the Python strings of one
    block are alive at once, never those of the whole text. Each block is
    checked in the order above, and the first block with a fault fails;
    so of several faults, the one reported is the first by that order
    within the earliest faulty block, which need not be the earliest line.
    """
    blocks = line_blocks(text, RENDER_BLOCK)
    header_lines: list[str] = []
    first_rows: list[str] = []
    for block in blocks:
        n = 0
        while n < len(block) and (block[n][:1] == "#" or not block[n].strip()):
            n += 1
        header_lines += block[:n]
        if n < len(block):
            first_rows = block[n:]
            break
    header, cfg, attack_interval = _parse_header(header_lines)

    parts = {name: [np.empty(0, dtype)] for name, dtype in _COLUMNS.items()}
    n_rows, line_no, last_t = 0, len(header_lines) + 1, -np.inf
    for rows in itertools.chain([first_rows], blocks):
        columns = _parse_rows(rows, line_no, n_rows, last_t, cfg.duration)
        line_no += len(rows)
        if len(columns["t"]):
            n_rows += len(columns["t"])
            last_t = columns["t"][-1]
        for name, column in columns.items():
            parts[name].append(column)

    expected_events = header["packets_generated"] - header["in_flight_at_end"]
    if n_rows != expected_events:
        raise ParseError(
            f"event count {n_rows} does not match header ({expected_events}); "
            "file truncated or corrupt")

    return PacketTrace(
        config=cfg,
        seed=header["seed"],
        # Each column's blocks are released once they are joined.
        **{name: np.concatenate(parts.pop(name)) for name in _COLUMNS},
        attack_interval=attack_interval,
        packets_generated=header["packets_generated"],
        in_flight_at_end=header["in_flight_at_end"],
        max_queue_occupancy=header["max_queue_occupancy"],
    )


def _parse_header(lines: list[str]) -> tuple[dict, ScenarioConfig, tuple[float, float] | None]:
    """The values, scenario and attack interval of a trace's first lines,
    each a "#key=value" line or blank.

    Values `run` never writes fail naming their key: an occupancy outside
    0..queue_capacity, a negative count in flight, and an attack interval
    that is not finite with 0 <= start <= end.
    """
    header: dict[str, object] = {}
    attack_start_raw: str | None = None
    attack_end_raw: str | None = None
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        key, eq, raw = line[1:].partition("=")
        if not eq:
            raise ParseError("header line without '='", line=line_no)
        if key == "attack_start":
            attack_start_raw = raw
        elif key == "attack_end":
            attack_end_raw = raw
        elif key in _CONFIG_FIELDS or key in _COUNTERS:
            header[key] = _parse_header_value(key, raw, line_no)

    for key in _CONFIG_FIELDS + list(_COUNTERS):
        if key not in header:
            raise ParseError("missing header key", field=key)
    if attack_start_raw is None or attack_end_raw is None:
        raise ParseError("missing header key", field="attack_start/attack_end")

    try:
        cfg = ScenarioConfig(**{name: header[name] for name in _CONFIG_FIELDS})
    except InvalidConfig as exc:
        raise ParseError(f"bad header: {exc}") from None
    if not 0 <= header["max_queue_occupancy"] <= cfg.queue_capacity:
        raise ParseError("must be in 0..queue_capacity", field="max_queue_occupancy")
    if header["in_flight_at_end"] < 0:
        raise ParseError("must be >= 0", field="in_flight_at_end")
    if cfg.attack_kind is AttackKind.NONE:
        return header, cfg, None
    if not attack_start_raw or not attack_end_raw:
        raise ParseError("attack scenario without interval", field="attack_start")
    try:
        start, end = float(attack_start_raw), float(attack_end_raw)
    except ValueError:
        raise ParseError("bad attack interval", field="attack_start/attack_end") from None
    if not 0 <= start <= end < math.inf:
        raise ParseError("attack interval must be finite with 0 <= start <= end",
                         field="attack_start/attack_end")
    return header, cfg, (start, end)


def _parse_rows(rows: list[str], first_line: int, first_seq: int, last_t: float,
                duration: float) -> dict[str, np.ndarray]:
    """The columns of one block of event rows, blank lines skipped.

    The block starts at line `first_line`, its first row must be numbered
    `first_seq`, and `last_t` is the timestamp of the row before it.
    """
    line_nos = range(first_line, first_line + len(rows))
    commas = [row.count(",") for row in rows]
    if commas.count(5) != len(rows):    # blank lines, late header lines or bad rows
        kept = []
        for i, (row, line_no) in enumerate(zip(rows, line_nos)):
            if not row.strip():
                continue
            if row[0] == "#":
                raise ParseError("header line after event rows", line=line_no)
            if commas[i] != 5:
                raise ParseError(f"expected 6 fields, got {commas[i] + 1}", line=line_no)
            kept.append(i)
        rows = [rows[i] for i in kept]
        line_nos = [line_nos[i] for i in kept]
    fields_ = ",".join(rows).split(",") if rows else []
    seq_s, t_s, kind_s, size_s, disp_s, flow_s = (fields_[i::6] for i in range(6))

    seq = _parse_column(seq_s, np.int64, "seq", line_nos)
    gap = seq != np.arange(first_seq, first_seq + len(rows))
    if gap.any():
        i = _first(gap)
        raise ParseError(f"sequence gap: expected {first_seq + i}, got {seq[i]}",
                         line=line_nos[i])
    t = _parse_column(t_s, np.float64, "timestamp", line_nos)
    outside = ~((t >= 0) & (t <= duration))
    if outside.any():
        i = _first(outside)
        raise ParseError(f"timestamp {t_s[i]} outside [0, duration]", line=line_nos[i])
    decreasing = t < np.append(last_t, t[:-1])
    if decreasing.any():
        i = _first(decreasing)
        raise ParseError(f"timestamp {t_s[i]} before the previous row's", line=line_nos[i])
    size = _parse_column(size_s, np.int64, "size", line_nos)
    small, large = size < 1, size > _INT32_MAX
    if small.any() or large.any():
        i = _first(small | large)
        raise ParseError("size must be >= 1" if small[i] else "size too large",
                         line=line_nos[i])
    flow_codes = {s: code for s in set(flow_s) if (code := _flow_code(s)) is not None}
    columns = {"t": t, "size": size.astype(_COLUMNS["size"])}
    for name, values, codes in (("kind", kind_s, _KIND_CODES),
                                ("disposition", disp_s, _DISPOSITION_CODES),
                                ("flow", flow_s, flow_codes)):
        try:
            columns[name] = np.fromiter(map(codes.__getitem__, values),
                                        dtype=_COLUMNS[name], count=len(values))
        except KeyError:
            i = next(i for i, value in enumerate(values) if value not in codes)
            raise ParseError(f"bad event row: unknown {name} {values[i]!r}",
                             line=line_nos[i]) from None
    return columns
