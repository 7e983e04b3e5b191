"""Simulator laws: configuration, determinism, conservation, serialization."""

import heapq
import random
import tracemalloc
from collections import deque
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnsids import simnet
from dnsids.errors import InvalidConfig, ParseError
from dnsids.simnet import (ATTACK, DISPOSITIONS, DROPPED, KINDS, REQUEST, RESPONSE,
                           TO_CLIENT, TO_SERVER, AttackKind, Disposition, GroundTruth,
                           PacketKind, ScenarioConfig, make_scenario, read_trace, round6,
                           run, validate_config, write_trace)

COLUMNS = ("t", "kind", "size", "disposition", "flow")


def drops(trace):
    """Row indices of the packets dropped at the bottleneck queue."""
    return np.flatnonzero(trace.disposition == DROPPED)


def server_deliveries(trace):
    """Row indices of the packets delivered to the server."""
    return np.flatnonzero(trace.disposition == TO_SERVER)


def requests_per_flow(trace):
    """Transmissions of each legitimate request, retransmissions included,
    indexed by flow."""
    return np.bincount(trace.flow[trace.kind == REQUEST])


class TestMakeScenario:
    def test_defaults_match_reference_constants(self):
        cfg = make_scenario()
        assert cfg.queue_capacity == 100
        assert cfg.bottleneck_rate == 10_000_000
        assert cfg.edge_rate == 100_000_000
        assert cfg.bottleneck_delay == 0.010
        assert cfg.retransmit_max == 3
        assert cfg.retransmit_timeout == 5.0
        assert cfg.legit_interarrival == 10.0
        assert cfg.request_size == 60
        assert cfg.normal_response_size == 512
        assert cfg.amp_response_size == 4000

    def test_amp_response_must_exceed_standard_size(self):
        with pytest.raises(InvalidConfig):
            make_scenario(attack_kind="amplification", amp_response_size=400)

    def test_zero_attack_rate_rejected_for_attacks(self):
        with pytest.raises(InvalidConfig):
            make_scenario(attack_kind="direct_dos", attack_rate=0)

    def test_attack_rate_zero_fine_without_attack(self):
        cfg = make_scenario(attack_kind="none")
        assert cfg.attack_rate == 0.0

    def test_derived_direct_rate_offers_overload(self):
        cfg = make_scenario(attack_kind="direct_dos")
        assert cfg.attack_rate * cfg.attack_packet_size * 8 == pytest.approx(
            1.2 * cfg.bottleneck_rate)

    def test_derived_amp_rate_uses_reflected_size(self):
        cfg = make_scenario(attack_kind="amplification")
        assert cfg.attack_rate * cfg.amp_response_size * 8 == pytest.approx(
            1.2 * cfg.bottleneck_rate)

    def test_jitter_must_fit_duration(self):
        with pytest.raises(InvalidConfig):
            make_scenario(duration=100, attack_start_jitter=(0, 100))

    def test_queue_capacity_positive(self):
        with pytest.raises(InvalidConfig):
            make_scenario(queue_capacity=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidConfig):
            make_scenario(not_a_field=1)

    # An infinite duration would keep `run` appending request emissions
    # forever, so a direct caller must be stopped before the loop.
    @pytest.mark.parametrize("name", simnet._FLOAT_FIELDS)
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_float_field_rejected(self, name, bad):
        cfg = make_scenario(attack_kind="direct_dos")
        value = (0.0, bad) if name == "attack_start_jitter" else bad
        with pytest.raises(InvalidConfig, match=f"{name} must be finite"):
            run(replace(cfg, **{name: value}), seed=1)

    @pytest.mark.parametrize("params, key", [
        (dict(attack_kind="direct_dos", attack_rate=1e9), "attack_rate"),
        (dict(attack_kind="direct_dos", attack_rate=1e300), "attack_rate"),
        (dict(attack_kind="amplification", bottleneck_rate=1e300), "attack_rate"),
        (dict(duration=1e300), "duration"),
        (dict(legit_interarrival=1e-6), "duration"),
        (dict(duration=640, retransmit_max=10**9, retransmit_timeout=1e-5), "retransmit_max"),
        (dict(retransmit_max=10**7, retransmit_timeout=1e-6), "retransmit_max"),
        (dict(duration=1e300, legit_interarrival=1e300, retransmit_max=10**400,
              retransmit_timeout=5e-324), "retransmit_max"),
        # 10**6 windows per run; 1 / 1e-320 is inf, which `math.ceil` cannot
        # turn into a window count.
        (dict(duration=200.0, window_len=200.0 / (10**6 + 1)), "window_len"),
        (dict(duration=1.0, window_len=1e-320), "window_len"),
    ])
    def test_emissions_per_run_bounded(self, params, key):
        # Validation only: none of these scenarios is run.
        with pytest.raises(InvalidConfig, match=f"^{key} .* per run"):
            make_scenario(**params)

    def test_transmissions_at_the_bound_accepted(self):
        # 10 requests, each sent once and retransmitted at most 10**6 - 1 times
        bound = simnet.MAX_EMISSIONS
        cfg = make_scenario(duration=100.0, retransmit_max=bound // 10 - 1,
                            retransmit_timeout=1e-9)
        assert 10 * (1 + cfg.retransmit_max) == bound

    def test_emissions_at_the_bound_accepted(self):
        bound = simnet.MAX_EMISSIONS
        cfg = make_scenario(attack_kind="direct_dos", duration=100.0, retransmit_max=0,
                            legit_interarrival=100.0 / bound, attack_rate=bound / 100.0)
        assert cfg.attack_rate * cfg.duration == bound

    def test_windows_at_the_bound_accepted(self):
        bound = simnet.MAX_WINDOWS
        cfg = make_scenario(duration=200.0, window_len=200.0 / bound)
        assert cfg.duration / cfg.window_len == bound

    # A trace's `size` column is int32; a larger size used to be written
    # wrapped to a negative number that `read_trace` refuses.
    @pytest.mark.parametrize("key", ["request_size", "normal_response_size",
                                     "amp_response_size", "attack_packet_size"])
    def test_size_beyond_the_trace_column_rejected(self, key):
        with pytest.raises(InvalidConfig, match=f"^{key} must be"):
            make_scenario(attack_kind="direct_dos", **{key: 2**31})

    @pytest.mark.parametrize("kind", ["direct_dos", "amplification"])
    def test_largest_size_the_trace_column_holds_round_trips(self, kind):
        big = 2**31 - 1
        cfg = make_scenario(attack_kind=kind, duration=20.0, legit_interarrival=1.0,
                            edge_rate=1e12, bottleneck_rate=1e12, request_size=big,
                            normal_response_size=big, amp_response_size=big,
                            attack_packet_size=big)
        trace = run(cfg, seed=3)
        for code in (REQUEST, RESPONSE, ATTACK):
            assert (trace.kind == code).any()
        assert (trace.size == big).all()
        assert read_trace(write_trace(trace)) == trace


class TestNoAttackRun:
    # Offered legitimate load is 60 B / 10 s = 48 bit/s, far below the
    # 10 Mbit/s bottleneck, so nothing can ever queue up.
    def test_zero_drops_and_full_delivery(self):
        trace = run(make_scenario(duration=200), seed=1)
        assert drops(trace).size == 0
        requests = [i for i in server_deliveries(trace) if trace.kind[i] == REQUEST]
        responses = np.flatnonzero(trace.disposition == TO_CLIENT)
        # 20 emissions at t = 0, 10, ..., 190; each answered once
        assert len(requests) == 20
        assert len(responses) == 20
        assert trace.in_flight_at_end == 0
        assert trace.packets_generated == 40

    def test_no_attack_purity(self):
        trace = run(make_scenario(duration=200), seed=5)
        assert (trace.kind != ATTACK).all()
        assert trace.truth.attack_kind is AttackKind.NONE
        assert trace.truth.interval is None

    def test_single_flow_emission_without_loss(self):
        trace = run(make_scenario(duration=200), seed=2)
        assert set(requests_per_flow(trace).tolist()) == {1}


class TestOverloadRun:
    # 2929.6875 pkt/s of 512 B is 12 Mbit/s offered against a 10 Mbit/s
    # link: sustained 1.2x overload must overflow a 100-packet queue.
    def test_direct_overload_drops_within_attack_interval(self):
        cfg = make_scenario(attack_kind="direct_dos", duration=40,
                            attack_start_jitter=(0.0, 0.0), attack_duration=30)
        trace = run(cfg, seed=3)
        dropped = trace.t[drops(trace)]
        assert dropped.size
        start, end = trace.truth.interval
        assert ((start <= dropped) & (dropped <= end + 1.0)).all()

    def test_queue_never_exceeds_capacity(self):
        cfg = make_scenario(attack_kind="direct_dos", duration=40,
                            attack_start_jitter=(0.0, 0.0), attack_duration=30)
        trace = run(cfg, seed=3)
        assert trace.max_queue_occupancy == cfg.queue_capacity

    def test_retransmission_bound_under_loss(self):
        cfg = make_scenario(attack_kind="direct_dos", duration=120,
                            bottleneck_rate=100_000,
                            attack_start_jitter=(0.0, 0.0), attack_duration=120)
        trace = run(cfg, seed=9)
        per_flow = requests_per_flow(trace)
        assert per_flow.size
        assert per_flow.max() <= 1 + cfg.retransmit_max

    def test_amplification_delivers_oversized_packets_inbound(self):
        cfg = make_scenario(attack_kind="amplification", duration=60,
                            bottleneck_rate=100_000,
                            attack_start_jitter=(0.0, 0.0), attack_duration=60)
        trace = run(cfg, seed=4)
        amp = [i for i in server_deliveries(trace) if trace.kind[i] == ATTACK]
        assert amp
        assert (trace.size[amp] == cfg.amp_response_size).all()


class TestTraceLaws:
    def test_determinism_bit_identical(self):
        cfg = make_scenario(attack_kind="amplification", duration=80,
                            bottleneck_rate=100_000,
                            attack_start_jitter=(0.0, 20.0), attack_duration=60)
        assert run(cfg, seed=11) == run(cfg, seed=11)

    def test_different_seeds_move_attack_start(self):
        cfg = make_scenario(attack_kind="direct_dos", duration=80,
                            bottleneck_rate=100_000,
                            attack_start_jitter=(0.0, 20.0), attack_duration=60)
        starts = {run(cfg, seed=s).truth.interval[0] for s in range(5)}
        assert len(starts) > 1
        assert all(0.0 <= s < 20.0 for s in starts)

    def test_conservation(self):
        cfg = make_scenario(attack_kind="direct_dos", duration=60,
                            bottleneck_rate=100_000,
                            attack_start_jitter=(0.0, 5.0), attack_duration=60)
        trace = run(cfg, seed=21)
        assert trace.packets_generated == len(trace) + trace.in_flight_at_end

    def test_causality_response_follows_delivered_request(self):
        trace = run(make_scenario(duration=200), seed=6)
        delivered = np.flatnonzero((trace.kind == REQUEST) & (trace.disposition == TO_SERVER))
        first_delivery = np.full(trace.flow.max(initial=-1) + 1, len(trace))
        np.minimum.at(first_delivery, trace.flow[delivered], delivered)
        responses = np.flatnonzero(trace.kind == RESPONSE)
        assert (first_delivery[trace.flow[responses]] < responses).all()

    def test_events_sorted_with_stable_ties(self):
        trace = run(make_scenario(attack_kind="direct_dos", duration=30,
                                  attack_start_jitter=(0.0, 0.0),
                                  attack_duration=20), seed=8)
        stamps = list(zip(trace.t.tolist(), range(len(trace))))
        assert stamps == sorted(stamps)

    def test_in_flight_packets_counted(self):
        # A request emitted at t=10 cannot reach the server by t=10.005.
        cfg = make_scenario(duration=10.005)
        trace = run(cfg, seed=1)
        assert trace.in_flight_at_end >= 1
        assert trace.packets_generated == len(trace) + trace.in_flight_at_end


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    kind=st.sampled_from(["none", "direct_dos", "amplification"]),
    duration=st.floats(20.0, 80.0),
    queue=st.integers(1, 40),
)
def test_core_laws_hold_everywhere(seed, kind, duration, queue):
    params = dict(duration=duration, bottleneck_rate=50_000, queue_capacity=queue,
                  attack_kind=kind)
    if kind != "none":
        params.update(attack_start_jitter=(0.0, duration / 4),
                      attack_duration=duration)
    cfg = make_scenario(**params)
    trace = run(cfg, seed)
    assert trace.packets_generated == len(trace) + trace.in_flight_at_end
    assert trace.max_queue_occupancy <= cfg.queue_capacity
    assert ((0 <= trace.t) & (trace.t <= cfg.duration)).all()
    if kind == "none":
        assert not drops(trace).size


class TestTraceSerialization:
    def test_empty_trace_round_trips_header_only(self):
        # Duration shorter than the first router hop: no event can land.
        trace = run(make_scenario(duration=0.005), seed=7)
        assert len(trace) == 0
        text = write_trace(trace)
        assert text == write_trace(trace, 0, 0) == write_trace(trace, 0, simnet.RENDER_BLOCK)
        assert all(line.startswith("#") for line in text.splitlines())
        assert read_trace(text) == trace

    def test_generated_trace_round_trips_exactly(self):
        cfg = make_scenario(attack_kind="amplification", duration=60,
                            bottleneck_rate=100_000,
                            attack_start_jitter=(0.0, 10.0), attack_duration=50)
        trace = run(cfg, seed=13)
        assert read_trace(write_trace(trace)) == trace

    def test_truncated_file_rejected(self):
        trace = run(make_scenario(duration=200), seed=1)
        text = write_trace(trace)
        truncated = "\n".join(text.splitlines()[:-3]) + "\n"
        with pytest.raises(ParseError):
            read_trace(truncated)

    def test_garbage_row_rejected(self):
        trace = run(make_scenario(duration=200), seed=1)
        text = write_trace(trace) + "0,not-a-number,legit_request,60,delivered_to_server,q0\n"
        with pytest.raises(ParseError):
            read_trace(text)

    def test_missing_header_key_rejected(self):
        trace = run(make_scenario(duration=0.005), seed=7)
        lines = [l for l in write_trace(trace).splitlines() if not l.startswith("#seed=")]
        with pytest.raises(ParseError):
            read_trace("\n".join(lines) + "\n")

    def test_unknown_header_keys_ignored(self):
        trace = run(make_scenario(duration=200), seed=1)
        text = "#master_seed=42\n#config_digest=deadbeef\n" + write_trace(trace)
        assert read_trace(text) == trace

    def test_timestamps_have_microsecond_resolution(self):
        trace = run(make_scenario(duration=200), seed=1)
        for t in trace.t.tolist():
            assert t == round(t, 6)

    def test_events_view_matches_columns(self):
        trace = run(make_scenario(attack_kind="direct_dos", duration=20,
                                  bottleneck_rate=100_000), seed=4)
        rows = trace.events
        assert len(rows) == len(trace) > 0
        assert [e.seq for e in rows] == list(range(len(trace)))
        assert [e.timestamp for e in rows] == trace.t.tolist()
        assert {e.flow_id for e in rows if e.kind is PacketKind.ATTACK} == {"atk"}
        assert trace.drops == sum(e.disposition is Disposition.DROPPED_AT_QUEUE for e in rows)
        with pytest.raises(ValueError):
            trace.t[0] = 1.0

    def test_columns_with_their_dtype_are_kept_and_others_converted(self):
        trace = run(make_scenario(duration=20), seed=1)
        t = trace.t.copy()
        kept = replace(trace, t=t)
        assert np.shares_memory(kept.t, t)
        assert not kept.t.flags.writeable and t.flags.writeable
        converted = replace(trace, t=t.tolist(), size=trace.size.astype(np.int64))
        assert converted.t.dtype == np.float64 and not np.shares_memory(converted.t, t)
        assert converted.size.dtype == np.int32
        assert converted == trace


def test_vector_rounding_equals_python_round():
    rng = np.random.default_rng(0)
    values = np.concatenate([
        rng.uniform(0.0, 1e4, 20_000),
        # decimal half-way points, where the scaled product can round either way
        (rng.integers(0, 10**9, 20_000) + 0.5) / 1e6,
        np.round(rng.uniform(0.0, 1e3, 20_000), 7),
        rng.uniform(1e9, 1e13, 2_000),
    ])
    assert round6(values).tolist() == [round(v, 6) for v in values.tolist()]


def _rows(text: str) -> tuple[list[str], list[str]]:
    lines = text.splitlines()
    n_header = sum(line.startswith("#") for line in lines)
    return lines[:n_header], lines[n_header:]


def _with_row(text: str, index: int, **changes) -> str:
    """The trace text with one event row's fields replaced."""
    header, rows = _rows(text)
    fields = dict(zip(("seq", "t", "kind", "size", "disposition", "flow"),
                      rows[index].split(",")))
    fields.update(changes)
    rows[index] = ",".join(fields.values())
    return "\n".join(header + rows) + "\n"


class TestStrictTraceParsing:
    @pytest.fixture(scope="class")
    def text(self):
        cfg = make_scenario(attack_kind="direct_dos", duration=30, bottleneck_rate=100_000,
                            attack_start_jitter=(0.0, 0.0), attack_duration=30)
        return write_trace(run(cfg, seed=2))

    def test_decreasing_timestamp_names_its_line(self, text):
        header, _ = _rows(text)
        bad = _with_row(text, 40, t="0.000001")
        with pytest.raises(ParseError, match=f"line {len(header) + 41}"):
            read_trace(bad)

    @pytest.mark.parametrize("t", ["-0.000001", "30.000001", "nan", "inf"])
    def test_timestamp_outside_duration_names_its_line(self, text, t):
        header, rows = _rows(text)
        last = len(rows) - 1
        bad = _with_row(text, last if t != "-0.000001" else 0, t=t)
        line = len(header) + (last if t != "-0.000001" else 0) + 1
        with pytest.raises(ParseError, match=f"outside.*line {line}"):
            read_trace(bad)

    @pytest.mark.parametrize("change", [dict(flow="q01"), dict(flow="x1"), dict(flow="q"),
                                        dict(kind="legit"), dict(disposition="lost"),
                                        dict(size="0"), dict(size="1.5"), dict(seq="7")])
    def test_bad_field_names_its_line(self, text, change):
        header, _ = _rows(text)
        with pytest.raises(ParseError, match=f"line {len(header) + 6}"):
            read_trace(_with_row(text, 5, **change))

    def test_header_line_after_rows_rejected(self, text):
        with pytest.raises(ParseError, match="header line after event rows"):
            read_trace(text + "#late=1\n")

    def test_blank_lines_skipped(self, text):
        header, rows = _rows(text)
        spaced = "\n".join(header + ["", *rows[:3], "  ", *rows[3:]]) + "\n"
        assert read_trace(spaced) == read_trace(text)



# --- reference simulator ------------------------------------------------------
#
# The heap-driven discrete-event simulator that `run` replaced, kept as the
# oracle for `run`'s rows and counters. Calendar ties break by insertion
# order. Rows are (timestamp, kind code, size, disposition code, flow).

_EMIT_REQ, _EMIT_ATK, _ARRIVE, _TX_DONE, _DELIVER, _RESPOND, _TIMEOUT = range(7)


def reference_run(config: ScenarioConfig, seed: int) -> dict:
    """Simulate one scenario with an event heap; also count same-time pops."""
    validate_config(config)
    cfg = config
    rng = random.Random(seed)

    if cfg.attack_kind is not AttackKind.NONE:
        lo, hi = cfg.attack_start_jitter
        attack_start = round(lo + rng.random() * (hi - lo), 6)
        emit_end = min(attack_start + cfg.attack_duration, cfg.duration)
        truth = GroundTruth(cfg.attack_kind, (attack_start, round(emit_end, 6)))
        attack_size = (cfg.amp_response_size
                       if cfg.attack_kind is AttackKind.AMPLIFICATION
                       else cfg.attack_packet_size)
    else:
        attack_start = 0.0
        emit_end = 0.0
        truth = GroundTruth(AttackKind.NONE, None)
        attack_size = 0

    def edge_latency(size: int) -> float:
        return size * 8 / cfg.edge_rate + cfg.edge_delay

    def tx_time(size: int) -> float:
        return size * 8 / cfg.bottleneck_rate

    # Uncontested return path: serialize on both links, no queueing.
    def reverse_latency(size: int) -> float:
        return tx_time(size) + cfg.bottleneck_delay + edge_latency(size)

    heap: list[tuple[float, int, int, object]] = []
    push_count = 0

    def push(t: float, tag: int, payload: object) -> None:
        nonlocal push_count
        heapq.heappush(heap, (t, push_count, tag, payload))
        push_count += 1

    events: list[tuple] = []

    def record(t: float, kind: PacketKind, size: int, disp: Disposition, flow: str) -> None:
        events.append((round(t, 6), KINDS.index(kind), size, DISPOSITIONS.index(disp),
                       -1 if flow == "atk" else int(flow[1:])))

    queue: deque[tuple[int, PacketKind, str]] = deque()
    busy = False
    max_occupancy = 0
    generated = 0
    delivered = 0
    dropped = 0
    # flow -> [answered, request emissions so far]
    flows: dict[str, list] = {}

    push(0.0, _EMIT_REQ, 0)
    if cfg.attack_kind is not AttackKind.NONE and attack_start < emit_end:
        push(attack_start, _EMIT_ATK, 0)

    last_t = None
    same_time_pops = 0
    while heap and heap[0][0] <= cfg.duration:
        t, _, tag, payload = heapq.heappop(heap)
        same_time_pops += t == last_t
        last_t = t

        if tag == _EMIT_REQ:
            n = payload
            flow = f"q{n}"
            flows[flow] = [False, 1]
            generated += 1
            push(t + edge_latency(cfg.request_size), _ARRIVE,
                 (cfg.request_size, PacketKind.LEGIT_REQUEST, flow))
            push(t + cfg.retransmit_timeout, _TIMEOUT, flow)
            nxt = t + cfg.legit_interarrival
            if nxt < cfg.duration:
                push(nxt, _EMIT_REQ, n + 1)

        elif tag == _EMIT_ATK:
            i = payload
            generated += 1
            push(t + edge_latency(attack_size), _ARRIVE,
                 (attack_size, PacketKind.ATTACK, "atk"))
            nxt = attack_start + (i + 1) / cfg.attack_rate
            if nxt < emit_end:
                push(nxt, _EMIT_ATK, i + 1)

        elif tag == _ARRIVE:
            size, kind, flow = payload
            if not busy:
                busy = True
                push(t + tx_time(size), _TX_DONE, payload)
            elif len(queue) < cfg.queue_capacity:
                queue.append(payload)
                if len(queue) > max_occupancy:
                    max_occupancy = len(queue)
            else:
                dropped += 1
                record(t, kind, size, Disposition.DROPPED_AT_QUEUE, flow)

        elif tag == _TX_DONE:
            push(t + cfg.bottleneck_delay, _DELIVER, payload)
            if queue:
                nxt_payload = queue.popleft()
                push(t + tx_time(nxt_payload[0]), _TX_DONE, nxt_payload)
            else:
                busy = False

        elif tag == _DELIVER:
            size, kind, flow = payload
            delivered += 1
            record(t, kind, size, Disposition.DELIVERED_TO_SERVER, flow)
            if kind is PacketKind.LEGIT_REQUEST:
                generated += 1
                push(t + reverse_latency(cfg.normal_response_size), _RESPOND, flow)

        elif tag == _RESPOND:
            flow = payload
            delivered += 1
            record(t, PacketKind.LEGIT_RESPONSE, cfg.normal_response_size,
                   Disposition.DELIVERED_TO_CLIENT, flow)
            flows[flow][0] = True

        elif tag == _TIMEOUT:
            flow = payload
            state = flows[flow]
            if not state[0] and state[1] <= cfg.retransmit_max:
                state[1] += 1
                generated += 1
                push(t + edge_latency(cfg.request_size), _ARRIVE,
                     (cfg.request_size, PacketKind.LEGIT_REQUEST, flow))
                push(t + cfg.retransmit_timeout, _TIMEOUT, flow)

    return {
        "columns": [np.array(c) for c in zip(*events)] if events else [[]] * 5,
        "truth": truth,
        "packets_generated": generated,
        "in_flight_at_end": generated - delivered - dropped,
        "max_queue_occupancy": max_occupancy,
        "same_time_pops": same_time_pops,
    }


def assert_matches_reference(cfg, seed) -> dict:
    want = reference_run(cfg, seed)
    got = run(cfg, seed)
    for name, column in zip(COLUMNS, want["columns"]):
        assert np.array_equal(getattr(got, name), column), name
    assert got.truth == want["truth"]
    for key in ("packets_generated", "in_flight_at_end", "max_queue_occupancy"):
        assert getattr(got, key) == want[key], key
    return want


@st.composite
def scenarios(draw):
    """Small scenarios, often at exactly 1.0x load so that arrivals land on
    transmit completions."""
    kind = draw(st.sampled_from(["none", "direct_dos", "amplification"]))
    rate = draw(st.sampled_from([20_000.0, 50_000.0, 100_000.0, 400_000.0]))
    duration = draw(st.sampled_from([0.005, 6.0, 17.5, 30.0]))
    # Request emissions, timeouts and the attack start share a grid of
    # 2.5 s multiples, so they coincide as well.
    params = dict(attack_kind=kind, bottleneck_rate=rate, duration=duration,
                  legit_interarrival=draw(st.sampled_from([10.0, 5.0, 2.5])),
                  retransmit_timeout=draw(st.sampled_from([5.0, 5.0, 2.5, 10.0])),
                  queue_capacity=draw(st.integers(1, 5)),
                  retransmit_max=draw(st.integers(0, 3)))
    if kind != "none":
        size = draw(st.sampled_from([60, 512]))
        wire = 4000 if kind == "amplification" else size
        load = draw(st.sampled_from([1.0, 1.0, 0.5, 1.2, 3.0]))
        jitter = draw(st.sampled_from([(0.0, 0.0), (0.0, 0.0), (0.0, 2.0), (5.0, 5.0),
                                       (10.0, 10.0)]))
        params.update(attack_packet_size=size, attack_rate=load * rate / (8 * wire),
                      attack_start_jitter=jitter if jitter[1] < duration else (0.0, 0.0),
                      attack_duration=draw(st.sampled_from([0.02, 0.5, 4.0, 100.0])))
    return make_scenario(**params)


class TestReferenceEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(cfg=scenarios(), seed=st.integers(0, 2**32 - 1))
    def test_columns_and_counters_match_reference(self, cfg, seed):
        assert_matches_reference(cfg, seed)

    @pytest.mark.parametrize("params", [
        # 1.0x load from t=0: transmit completions, attack arrivals and (for
        # 60-byte packets) legitimate arrivals coincide exactly.
        dict(attack_packet_size=512, attack_rate=50_000 / (8 * 512)),
        dict(attack_packet_size=60, attack_rate=50_000 / (8 * 60)),
        # The first attack packet leaves with request q1, and the two
        # 60-byte packets reach the router at the same instant.
        dict(attack_packet_size=60, attack_start_jitter=(10.0, 10.0)),
        # Interarrival equals the timeout: a new request and the
        # retransmission of a dropped one leave at the same instant.
        dict(legit_interarrival=5.0, retransmit_timeout=5.0, retransmit_max=1),
    ])
    def test_exact_ties(self, params):
        params = dict(dict(attack_kind="direct_dos", duration=30, bottleneck_rate=50_000,
                           queue_capacity=1, attack_start_jitter=(0.0, 0.0),
                           attack_duration=30), **params)
        assert assert_matches_reference(make_scenario(**params), seed=1)["same_time_pops"] > 0

    # Every time is a multiple of 1/8 s: each retransmission reaches the
    # link as the one ahead of it leaves, and timeouts land on responses,
    # several of one flow's packets admitted before the first is answered.
    @pytest.mark.parametrize("timeout", [0.125, 0.25, 0.5, 2.0])
    def test_exact_ties_of_timeouts_and_responses(self, timeout):
        cfg = make_scenario(duration=16, legit_interarrival=8, request_size=64,
                            normal_response_size=64, edge_rate=2048, edge_delay=0.25,
                            bottleneck_rate=2048, bottleneck_delay=0.25,
                            retransmit_timeout=timeout, retransmit_max=20)
        assert assert_matches_reference(cfg, seed=1)["same_time_pops"] > 0

    def test_many_retransmissions_match_reference(self):
        # The response needs about 3000 timeouts of 1e-5 s to come back, so
        # each flow has thousands of packets admitted when it is answered.
        cfg = make_scenario(duration=20, retransmit_max=10**9, retransmit_timeout=1e-5)
        assert assert_matches_reference(cfg, seed=1)["packets_generated"] == 9990

    def test_many_pending_timeouts_match_reference(self):
        # Each request is sent again every 1e-4 s until it is answered, so
        # about a hundred arrivals and timeouts are pending at once.
        cfg = make_scenario(duration=20, retransmit_max=10**9, retransmit_timeout=1e-4)
        want = assert_matches_reference(cfg, seed=1)
        assert len(want["columns"][0]) == 1624

    @pytest.mark.parametrize("kind", ["none", "direct_dos", "amplification"])
    def test_bundled_scale_matches_reference(self, kind):
        params = dict(attack_kind=kind, duration=120, bottleneck_rate=100_000)
        if kind != "none":
            params.update(attack_start_jitter=(0.0, 9.5), attack_duration=120)
        assert_matches_reference(make_scenario(**params), seed=42)

    def test_settled_runs_match_reference(self, monkeypatch):
        calls = record_settles(monkeypatch)

        @settings(max_examples=100, deadline=None)
        @given(cfg=busy_scenarios(), seed=st.integers(0, 2**32 - 1))
        def check(cfg, seed):
            assert_matches_reference(cfg, seed)

        check()
        assert sum(n for _, n in calls) > 0     # the array path was taken, not only the loop

    def test_runs_up_to_twice_the_queue_are_settled_in_arrays(self, monkeypatch):
        calls = record_settles(monkeypatch)

        @settings(max_examples=60, deadline=None)
        @given(cfg=gate_scenarios(), seed=st.integers(0, 2**32 - 1))
        def check(cfg, seed):
            first = len(calls)
            assert_matches_reference(cfg, seed)
            assert all(offered <= 2 * (cfg.queue_capacity + 1)
                       for offered, _ in calls[first:])

        check()
        assert sum(n for _, n in calls) > 0


def record_settles(monkeypatch) -> list[tuple[int, int]]:
    """Wrap `_settle_full_queue`; the list gets (arrivals offered, arrivals
    settled) for each call."""
    calls = []
    settle = simnet._settle_full_queue

    def recording(tail, arrivals, service, capacity):
        result = settle(tail, arrivals, service, capacity)
        calls.append((len(arrivals), result[0]))
        return result

    monkeypatch.setattr(simnet, "_settle_full_queue", recording)
    return calls


@st.composite
def busy_scenarios(draw):
    """Attacks that keep queues of 1 to 120 packets busy, so long runs of
    attack arrivals meet a busy link; at 1.0x load from t = 0 arrivals
    land exactly on departures."""
    kind = draw(st.sampled_from(["direct_dos", "amplification"]))
    rate = draw(st.sampled_from([50_000.0, 100_000.0, 200_000.0]))
    size = draw(st.sampled_from([60, 512]))
    wire = 4000 if kind == "amplification" else size
    load = draw(st.sampled_from([0.9, 1.0, 1.01, 1.2, 3.0]))
    duration = draw(st.sampled_from([6.0, 20.0, 60.0]))
    return make_scenario(
        attack_kind=kind, bottleneck_rate=rate, duration=duration,
        queue_capacity=draw(st.integers(1, 120)),
        legit_interarrival=draw(st.sampled_from([10.0, 5.0, 2.5])),
        retransmit_max=draw(st.integers(0, 3)),
        attack_packet_size=size, attack_rate=load * rate / (8 * wire),
        attack_start_jitter=draw(st.sampled_from([(0.0, 0.0), (0.0, 2.0)])),
        attack_duration=draw(st.sampled_from([duration, duration / 2])))


@st.composite
def gate_scenarios(draw):
    """Attacks on a busy link whose runs between legitimate events are
    capacity + 2 to 2 * (capacity + 1) arrivals long.

    The timeout is half the request interval, so a legitimate event comes
    every half interval, and one edge latency after some of them; the
    attack rate puts 1.5 * (capacity + 1) arrivals in each half interval.
    """
    kind = draw(st.sampled_from(["direct_dos", "amplification"]))
    capacity = draw(st.integers(10, 60))
    interval = draw(st.sampled_from([1.0, 2.0, 4.0]))
    size = draw(st.sampled_from([60, 512]))
    wire = 4000 if kind == "amplification" else size
    load = draw(st.sampled_from([1.1, 1.5, 3.0]))
    attack_rate = 3 * (capacity + 1) / interval
    duration = interval * draw(st.integers(2, 5))
    return make_scenario(
        attack_kind=kind, bottleneck_rate=8 * wire * attack_rate / load, duration=duration,
        queue_capacity=capacity, legit_interarrival=interval,
        retransmit_timeout=interval / 2, retransmit_max=draw(st.integers(0, 3)),
        attack_packet_size=size, attack_rate=attack_rate,
        attack_start_jitter=draw(st.sampled_from([(0.0, 0.0), (0.0, 0.5)])),
        attack_duration=duration)


def settle_one_at_a_time(tail, arrivals, service, capacity):
    """`_settle_full_queue` as `run`'s per-packet loop decides it."""
    depart, done, left = list(tail), 0, 0
    admitted, ahead_max = [], 0
    for m, a in enumerate(arrivals.tolist()):
        while done < len(depart) and depart[done] < a:
            done += 1
        ahead = len(depart) - done
        if ahead == 0:
            return m, admitted, depart[len(tail):], ahead_max, left
        left = done
        if ahead <= capacity:
            admitted.append(m)
            ahead_max = max(ahead_max, ahead)
            depart.append(depart[-1] + service)
    return len(arrivals), admitted, depart[len(tail):], ahead_max, left


class TestSettleFullQueue:
    @staticmethod
    def settle(tail, arrivals, service, capacity):
        return simnet._settle_full_queue(np.array(tail, dtype=float),
                                         np.array(arrivals, dtype=float), service, capacity)

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 6), ahead=st.integers(1, 7),
           gaps=st.lists(st.integers(1, 40), min_size=1, max_size=60),
           service=st.sampled_from([0.5, 1.0, 1.25, 3.0]))
    def test_matches_one_at_a_time(self, capacity, ahead, gaps, service):
        # Departures on a 1/4 grid and arrivals at odd multiples of 1/128:
        # exact sums and no ties. The first arrival finds the link busy.
        ahead = min(ahead, capacity + 1)
        tail = [10.0 + service * (k + 1) for k in range(ahead)]
        arrivals = 10.0 + (np.cumsum(gaps) - gaps[0]) / 64 + 1 / 128
        got = self.settle(tail, arrivals, service, capacity)
        want = settle_one_at_a_time(np.array(tail), arrivals, service, capacity)
        assert want[0] > 0
        self.assert_settles_like_the_loop(got, want)

    def test_departures_add_one_service_at_a_time(self):
        tail, service = [0.1], 0.1
        arrivals = np.linspace(0.0, 0.05, 50)
        _, admitted, departs, _, _ = self.settle(tail, arrivals, service, 10**6)
        assert len(admitted) == 50
        want = [0.1]
        for _ in arrivals:
            want.append(want[-1] + service)
        assert departs.tolist() == want[1:]      # not 0.1 * k, which rounds differently

    @staticmethod
    def assert_settles_like_the_loop(got, want):
        settled, admitted, departs, ahead_max, left = want
        assert got[0] == settled
        assert got[1].tolist() == admitted
        assert got[2].tolist() == departs
        assert got[3] == ahead_max
        assert got[4] == left

    def test_exact_tie_settles_the_arrivals_before_it(self):
        # The fourth arrival lands exactly on the second packet's departure,
        # so only the three before it are settled; all three are dropped.
        tail, arrivals = [1.0, 2.0], np.array([0.5, 0.7, 0.9, 2.0, 2.5, 2.7])
        got = self.settle(tail, arrivals, 1.0, 1)
        assert got[0] == 3
        self.assert_settles_like_the_loop(
            got, settle_one_at_a_time(np.array(tail), arrivals[:3], 1.0, 1))

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 6), ahead=st.integers(1, 7),
           gaps=st.lists(st.integers(0, 12), min_size=1, max_size=60),
           service=st.sampled_from([0.25, 0.5, 1.0, 1.25]))
    def test_ties_settle_the_prefix_before_the_first(self, capacity, ahead, gaps, service):
        # Departures and arrivals on a 1/4 grid, so arrivals often land
        # exactly on a departure of the tail or of the chain that follows.
        ahead = min(ahead, capacity + 1)
        tail = [10.0 + service * (k + 1) for k in range(ahead)]
        arrivals = 10.0 + np.cumsum(gaps) / 4
        chain = [tail[-1]]
        for _ in arrivals:
            chain.append(chain[-1] + service)
        departures = set(tail) | set(chain[1:])
        first_tie = next((m for m, a in enumerate(arrivals.tolist()) if a in departures),
                         len(arrivals))
        self.assert_settles_like_the_loop(
            self.settle(tail, arrivals, service, capacity),
            settle_one_at_a_time(np.array(tail), arrivals[:first_tie], service, capacity))

    def test_stops_before_an_admission_at_an_idle_link(self):
        # Two packets join the one on the link and the third is dropped;
        # by 5.5 all three have left, so the arrival there starts the
        # link again and is left to the per-packet loop.
        settled, admitted, departs, ahead_max, left = self.settle(
            [1.0], [0.2, 0.4, 0.6, 5.5, 5.7], 1.0, 2)
        assert settled == 3
        assert admitted.tolist() == [0, 1]
        assert departs.tolist() == [2.0, 3.0]
        assert ahead_max == 2
        assert left == 0

    def test_huge_capacity_allocates_nothing_in_proportion(self):
        arrivals = np.arange(1000) / 1000
        tracemalloc.start()
        try:
            settled, admitted, _, ahead_max, _ = self.settle([5.0], arrivals, 0.5, 10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert settled == len(admitted) == 1000
        assert ahead_max == 1000
        assert peak < 1_000_000

    def test_huge_capacity_simulates_without_drops(self):
        cfg = make_scenario(attack_kind="direct_dos", duration=60, bottleneck_rate=100_000,
                            queue_capacity=10**12)
        trace = run(cfg, seed=1)
        assert trace.drops == 0
        assert trace.max_queue_occupancy > 100

    def test_array_path_equals_per_packet_loop_at_scale(self, monkeypatch):
        cfg = make_scenario(attack_kind="direct_dos", duration=120, bottleneck_rate=1_000_000,
                            attack_start_jitter=(0.0, 9.5))
        calls = record_settles(monkeypatch)
        fast = run(cfg, seed=42)
        assert sum(n for _, n in calls) > 0.8 * np.count_nonzero(fast.kind == simnet.ATTACK)
        monkeypatch.setattr(simnet, "_settle_full_queue",
                            lambda tail, arrivals, service, capacity:
                            (0, np.empty(0, np.intp), np.empty(0), 0, 0))
        assert run(cfg, seed=42) == fast


def test_run_peak_memory_is_a_small_multiple_of_its_columns():
    # A shortened `flood` direct_dos run: 120 s at 1 Mbit/s, about 33k rows,
    # on a queue that stays full. Typed record buffers, buffers released
    # after their last reader, times sorted and rounded in place and no
    # array of emission times keep the peak near 1.95 times the columns.
    # Keeping the emission or arrival times to the end, gathering the
    # sorted times into a second array, or rounding them in one piece
    # each take it above 2.25; all of those together gave 5.0.
    cfg = make_scenario(attack_kind="direct_dos", duration=120, bottleneck_rate=1_000_000,
                        attack_start_jitter=(0.0, 9.5))
    tracemalloc.start()
    try:
        trace = run(cfg, seed=42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) > 30_000
    assert peak < 2.25 * sum(getattr(trace, name).nbytes for name in COLUMNS)


@settings(max_examples=200, deadline=None)
@given(rate=st.floats(1e-3, 1e7), lo=st.floats(0.0, 1e4), width=st.floats(0.0, 1e3),
       draw=st.floats(0.0, 1.0, exclude_max=True), n=st.integers(1, 3000),
       edge=st.floats(1e-9, 10.0))
def test_on_demand_emission_times_equal_the_array_elements(rate, lo, width, draw, n, edge):
    # `run` draws the start as below and keeps only the arrival array, then
    # recomputes emission times, and the arrival times of drops, from the
    # index. The reference is the emission array `run` used to keep.
    start = round(lo + draw * width, 6)
    end = start + n / rate
    old_emit = start + np.arange(n + 2) / rate
    old_emit = old_emit[old_emit < end]
    old_arrive = old_emit + edge
    emit = simnet._attack_emissions(start, end, rate)
    assert emit.tobytes() == old_emit.tobytes()
    scalar = np.array([simnet._emission_time(start, rate, i) for i in range(len(emit))])
    assert scalar.tobytes() == old_emit.tobytes()
    assert (scalar + edge).tobytes() == old_arrive.tobytes()
    ids = np.arange(len(emit))[::-3]
    assert ((simnet._emission_time(start, rate, ids) + edge).tobytes()
            == old_arrive[ids].tobytes())


@pytest.mark.parametrize("block", [simnet.RENDER_BLOCK, 7])
@settings(max_examples=60, deadline=None)
@given(cfg=scenarios(), seed=st.integers(0, 2**32 - 1))
def test_text_round_trip_is_exact(block, cfg, seed):
    trace = run(cfg, seed)
    with patch.object(simnet, "RENDER_BLOCK", block):
        back = read_trace(write_trace(trace))
    for name in COLUMNS:
        got, want = getattr(back, name), getattr(trace, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (back.config, back.seed, back.truth) == (trace.config, trace.seed, trace.truth)
    assert back == trace


# --- block rendering ------------------------------------------------------------

def reference_render_rows(trace) -> str:
    """The trace's rows rendered in one pass: the whole trace in one set of
    digit and byte matrices, not a block at a time."""
    n = len(trace)
    if n == 0:
        return ""
    if not trace.t.min() >= 0:
        raise ValueError("trace timestamps must be >= 0")
    micros = np.rint(trace.t * 1e6).astype(np.int64)
    sizes, size_idx = np.unique(trace.size, return_inverse=True)
    flows, flow_idx = np.unique(trace.flow, return_inverse=True)
    code = (((size_idx * len(flows) + flow_idx) * len(KINDS) + trace.kind)
            * len(DISPOSITIONS) + trace.disposition)
    codes, row_code = np.unique(code, return_inverse=True)
    tails = []
    for c in codes.tolist():
        c, d = divmod(c, len(DISPOSITIONS))
        c, k = divmod(c, len(KINDS))
        s, f = divmod(c, len(flows))
        tails.append(f",{KINDS[k].value},{sizes[s]},{DISPOSITIONS[d].value},"
                     f"{simnet.flow_name(int(flows[f]))}\n".encode())
    table = np.zeros((len(tails), max(map(len, tails))), dtype=np.uint8)
    for row, tail in zip(table, tails):
        row[:len(tail)] = np.frombuffer(tail, dtype=np.uint8)

    def byte(ch: str) -> np.ndarray:
        return np.full((n, 1), ord(ch), dtype=np.uint8)

    text = np.hstack([reference_digits(np.arange(n)), byte(","),
                      reference_digits(micros // 10**6), byte("."),
                      reference_digits(micros % 10**6, 6), table[row_code]])
    return text[text != 0].tobytes().decode("ascii")


def reference_digits(values: np.ndarray, width: int | None = None) -> np.ndarray:
    """`_digits` as it was before it divided place by place: every place
    at once, broadcast against the powers of ten."""
    w = width or len(str(int(values.max(initial=0))))
    powers = 10 ** np.arange(w - 1, -1, -1, dtype=np.int64)
    out = (values[:, None] // powers % 10 + ord("0")).astype(np.uint8)
    if width is None:
        lead = values[:, None] < powers
        lead[:, -1] = False
        out[lead] = 0
    return out


class TestDigits:
    # No trace reaches these magnitudes, so the golden digests cannot
    # catch a fault here: 0, both sides of every power of ten up to
    # 10**18 - 1, the int64 maximum and random values.
    EDGES = np.array([0] + [10**k + d for k in range(1, 19) for d in (-1, 0)
                            if 10**k + d < 10**18] + [2**63 - 1], dtype=np.int64)

    # 19 places hold every int64; the broadcast reference's powers of ten
    # overflow beyond that.
    @pytest.mark.parametrize("width", [None, 19])
    def test_edges_match_broadcast_digits(self, width):
        for values in (self.EDGES, self.EDGES[::-1], self.EDGES[:1], self.EDGES[:0]):
            got = simnet._digits(values, width)
            assert np.array_equal(got, reference_digits(values, width))
        rows = simnet._digits(self.EDGES, width)
        assert [bytes(r[r != 0]).decode().lstrip("0") or "0" for r in rows] == [
            str(v) for v in self.EDGES.tolist()]

    @pytest.mark.parametrize("width", [None, 6])
    def test_small_values_match_broadcast_digits(self, width):
        values = np.array([0, 9, 10, 99, 100, 99_999, 100_000, 999_999], dtype=np.int64)
        assert np.array_equal(simnet._digits(values, width), reference_digits(values, width))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
           high=st.sampled_from([10, 10**6, 10**12, 2**63 - 1]),
           width=st.sampled_from([None, 19]))
    def test_random_values_match_broadcast_digits(self, seed, n, high, width):
        values = np.random.default_rng(seed).integers(0, high, n, dtype=np.int64)
        assert np.array_equal(simnet._digits(values, width), reference_digits(values, width))


@pytest.fixture(scope="module")
def long_trace():
    """About 3k rows of every kind and disposition, with timestamps up to 120 s."""
    return run(make_scenario(attack_kind="direct_dos", duration=120,
                             bottleneck_rate=100_000, attack_start_jitter=(0.0, 9.5)),
               seed=42)


class TestBlockRendering:
    @staticmethod
    def first_rows(trace, n: int, **columns):
        return replace(trace, **{name: getattr(trace, name)[:n] for name in COLUMNS} | columns)

    @staticmethod
    def rows(trace) -> str:
        """The trace's text below its header."""
        return write_trace(trace)[len(write_trace(trace, 0, 0)):]

    # With 10-row blocks the row number and (in the trace with whole-second
    # steps) the seconds gain a digit at a block boundary; with 7-row
    # blocks they gain it inside a block.
    @pytest.mark.parametrize("block", [7, 10])
    def test_blocks_render_the_bytes_of_one_pass(self, long_trace, block, monkeypatch):
        monkeypatch.setattr(simnet, "RENDER_BLOCK", block)
        lengths = {0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, len(long_trace)}
        lengths |= {k * block + d for k in (1, 2, 3, 15) for d in (-1, 0, 1)}
        assert max(lengths) == len(long_trace)
        for n in sorted(lengths):
            for trace in (self.first_rows(long_trace, n),
                          self.first_rows(long_trace, n, t=np.arange(n) + 0.25)):
                assert self.rows(trace) == reference_render_rows(trace), n

    # Cuts fall anywhere, so most ranges start and end inside a block;
    # repeated cuts give empty ranges, and a cut at the end an empty last one.
    @pytest.mark.parametrize("block", [7, 10])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_split_of_the_rows_renders_the_whole_text(self, long_trace, block, data):
        n = len(long_trace)
        cuts = data.draw(st.lists(st.integers(1, n), max_size=6), label="cuts")
        bounds = [0, *sorted(cuts), n]
        with patch.object(simnet, "RENDER_BLOCK", block):
            text = "".join(write_trace(long_trace, lo, hi) for lo, hi in zip(bounds, bounds[1:]))
        assert text == write_trace(long_trace)
        assert read_trace(text) == long_trace

    def test_ranges_are_clipped_to_the_trace(self, long_trace, monkeypatch):
        monkeypatch.setattr(simnet, "RENDER_BLOCK", 7)
        n = len(long_trace)
        whole = write_trace(long_trace)
        assert write_trace(long_trace, n) == write_trace(long_trace, n, n + 7) == ""
        assert write_trace(long_trace, 0, n) + write_trace(long_trace, n) == whole
        assert write_trace(long_trace, 0, n + 7) == whole

    def test_negative_timestamp_in_a_later_block_rejected(self, long_trace, monkeypatch):
        monkeypatch.setattr(simnet, "RENDER_BLOCK", 7)
        t = long_trace.t.copy()
        t[20] = -1.0
        trace = replace(long_trace, t=t)
        # The range that starts at 0 checks the whole trace, once.
        for stop in (None, 7):
            with pytest.raises(ValueError, match=">= 0"):
                write_trace(trace, 0, stop)


# --- block parsing --------------------------------------------------------------

def head(trace, n: int):
    """The trace's first n rows, with counters that account for them."""
    return replace(trace, **{name: getattr(trace, name)[:n] for name in COLUMNS},
                   in_flight_at_end=trace.packets_generated - n)


@pytest.fixture(scope="module")
def full_queue_trace():
    """About 33k rows of a 1 Mbit/s direct flood whose queue stays full."""
    return run(make_scenario(attack_kind="direct_dos", duration=120,
                             bottleneck_rate=1_000_000, attack_start_jitter=(0.0, 9.5)),
               seed=42)


# Every character `str.splitlines` ends a line at, and "\r\n".
_SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


def _first_longer(lines: list[str], bound: int) -> int | None:
    """Number of the first line longer than `bound`, counted from 1."""
    return next((i + 1 for i, line in enumerate(lines) if len(line) > bound), None)


class TestBlockParsing:
    """`read_trace` parses RENDER_BLOCK lines at a time. What it returns, and
    the line an error names, do not depend on where the blocks start."""

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(sorted(set("a, #" + "".join(_SEPARATORS))), max_size=200),
           size=st.integers(1, 9), piece=st.sampled_from([1, 3, 64]),
           bound=st.integers(0, 40))
    def test_line_blocks_split_as_splitlines(self, text, size, piece, bound):
        # Under a small bound many texts hold a longer line, which fails
        # naming the first such line.
        too_long = _first_longer(text.splitlines(), bound)
        with patch.object(simnet, "_PIECE_CHARS_PER_LINE", piece), \
                patch.object(simnet, "MAX_LINE_CHARS", bound):
            if too_long is not None:
                with pytest.raises(ParseError, match=rf"than {bound} .*\(line {too_long}\)"):
                    list(simnet.line_blocks(text, size))
                return
            blocks = list(simnet.line_blocks(text, size))
        assert [line for block in blocks for line in block] == text.splitlines()
        assert all(len(block) == size for block in blocks[:-1])
        assert all(0 < len(block) <= size for block in blocks)

    def test_a_line_at_the_bound_reads_and_one_character_more_fails(self):
        bound = simnet.MAX_LINE_CHARS
        for text in ("x" * bound, "a\n" + "x" * bound + "\r\nb"):
            assert max(map(len, sum(simnet.line_blocks(text, 2), []))) == bound
        for text in ("x" * (bound + 1), "a\n" + "x" * (bound + 1) + "\r\nb"):
            line = text.splitlines().index("x" * (bound + 1)) + 1
            with pytest.raises(ParseError, match=rf"longer than {bound} .*\(line {line}\)"):
                list(simnet.line_blocks(text, 2))
            pieces = [text[i:i + 4096] for i in range(0, len(text), 4096)]
            with pytest.raises(ParseError, match=rf"\(line {line}\)"):
                list(simnet.line_blocks(pieces, 2))

    def test_traces_at_the_block_length_round_trip(self, full_queue_trace):
        block = simnet.RENDER_BLOCK
        n_header = len(_rows(write_trace(head(full_queue_trace, 0)))[0])
        lengths = {block - n_header + d for d in (-1, 0, 1)} | {block, block + 1,
                                                                2 * block, 2 * block + 1}
        assert len(full_queue_trace) > max(lengths)
        for n in sorted(lengths):
            trace = head(full_queue_trace, n)
            assert read_trace(write_trace(trace)) == trace, n

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_decreasing_timestamp_at_any_row_names_its_line(self, long_trace, block,
                                                            monkeypatch):
        monkeypatch.setattr(simnet, "RENDER_BLOCK", block)
        text = write_trace(head(long_trace, 40))
        n_header = len(_rows(text)[0])
        assert long_trace.t[0] > 0
        for i in range(1, 40):
            line = n_header + i + 1
            with pytest.raises(ParseError, match=rf"before the previous.*\(line {line}\)"):
                read_trace(_with_row(text, i, t="0.000000"))

    @pytest.mark.parametrize("block", [1, 2, 7])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_separators_and_blank_lines_keep_line_numbers(self, long_trace, block, data):
        trace = head(long_trace, 30)
        lines = write_trace(trace).splitlines()
        for _ in range(data.draw(st.integers(0, 8), "blank lines")):
            lines.insert(data.draw(st.integers(0, len(lines)), "at"),
                         data.draw(st.sampled_from(["", " ", "\t"]), "blank"))
        ends = data.draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(lines),
                                  max_size=len(lines)), "separators")
        bad = data.draw(st.integers(0, len(trace) - 1), "bad row")
        faulty = [f"{line.rsplit(',', 1)[0]},x{bad}" if line.startswith(f"{bad},") else line
                  for line in lines]
        with patch.object(simnet, "RENDER_BLOCK", block):
            text = "".join(map(str.__add__, lines, ends))
            assert read_trace(text) == trace
            text = "".join(map(str.__add__, faulty, ends))
            line = 1 + next(i for i, row in enumerate(text.splitlines())
                            if row.startswith(f"{bad},"))
            with pytest.raises(ParseError, match=rf"unknown flow 'x{bad}' \(line {line}\)"):
                read_trace(text)

        # Under a bound at the longest line the text reads; a blank line one
        # character longer fails naming it, before any row after it is parsed.
        bound = max(map(len, lines))
        at = data.draw(st.integers(0, len(lines)), "long line at")
        longer = lines[:at] + [" " * (bound + 1)] + lines[at:]
        with patch.object(simnet, "RENDER_BLOCK", block), \
                patch.object(simnet, "MAX_LINE_CHARS", bound):
            assert read_trace("".join(map(str.__add__, lines, ends))) == trace
            text = "".join(map(str.__add__, longer, ends + ["\n"]))
            line = text.splitlines().index(longer[at]) + 1
            with pytest.raises(ParseError, match=rf"longer than {bound} .*\(line {line}\)"):
                read_trace(text)

    def test_a_fault_in_an_earlier_block_is_reported_first(self, long_trace, monkeypatch):
        # Across the whole text, a sequence gap is checked before the flow
        # names; blocks are checked one after another, so the bad flow of
        # an earlier block is the fault reported.
        monkeypatch.setattr(simnet, "RENDER_BLOCK", 7)
        text = write_trace(head(long_trace, 40))
        n_header = len(_rows(text)[0])
        text = _with_row(_with_row(text, 20, seq="99"), 3, flow="x")
        with pytest.raises(ParseError, match=rf"unknown flow 'x' \(line {n_header + 4}\)"):
            read_trace(text)

    def test_read_peak_memory_is_a_small_multiple_of_its_columns(self, full_queue_trace,
                                                                 monkeypatch):
        # With blocks of 256 lines, the strings of one block are small next
        # to the columns. Splitting the whole text into lines and fields
        # took the peak to about 36 times the columns.
        monkeypatch.setattr(simnet, "RENDER_BLOCK", 256)
        text = write_trace(full_queue_trace)
        tracemalloc.start()
        try:
            trace = read_trace(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace == full_queue_trace
        assert peak < 2.5 * sum(getattr(trace, name).nbytes for name in COLUMNS)


def _cut(text: str, cuts) -> list[str]:
    """The text cut at the given offsets; a repeated offset makes an empty piece."""
    bounds = [0, *sorted(min(c, len(text)) for c in cuts), len(text)]
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


class TestPieceParsing:
    """`read_trace` also takes its text as pieces, such as a file's as it is
    read. The lines, their blocks and the line an error names do not depend
    on where the pieces are cut."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(sorted(set("a, #" + "".join(_SEPARATORS))), max_size=200),
           size=st.integers(1, 9), cuts=st.lists(st.integers(0, 200), max_size=12),
           piece=st.sampled_from([1, 3, 64]), bound=st.integers(0, 40))
    def test_line_blocks_of_pieces_split_as_splitlines(self, text, size, cuts, piece, bound):
        lines = text.splitlines()
        too_long = _first_longer(lines, bound)
        with patch.object(simnet, "_PIECE_CHARS_PER_LINE", piece), \
                patch.object(simnet, "MAX_LINE_CHARS", bound):
            if too_long is not None:
                with pytest.raises(ParseError, match=rf"than {bound} .*\(line {too_long}\)"):
                    list(simnet.line_blocks(_cut(text, cuts), size))
                return
            blocks = list(simnet.line_blocks(_cut(text, cuts), size))
        assert blocks == [lines[lo:lo + size] for lo in range(0, len(lines), size)]

    def test_crlf_cut_between_its_characters_ends_one_line(self):
        text = "#a=1\r\n\r\nb\r\n"
        for at in range(len(text) + 1):
            blocks = list(simnet.line_blocks([text[:at], text[at:]], 2))
            assert blocks == [["#a=1", ""], ["b"]], at

    @pytest.mark.parametrize("length", [1, 7, 100, 4096])
    def test_traces_in_pieces_round_trip(self, full_queue_trace, length, monkeypatch):
        monkeypatch.setattr(simnet, "RENDER_BLOCK", 64)
        trace = head(full_queue_trace, 3000)
        text = write_trace(trace)
        pieces = [text[i:i + length] for i in range(0, len(text), length)]
        assert read_trace(pieces) == trace

    def test_text_without_line_feeds_reads_in_pieces(self, long_trace):
        trace = head(long_trace, 40)
        text = write_trace(trace).replace("\n", "\r")
        assert read_trace(text[i:i + 5] for i in range(0, len(text), 5)) == trace

    @pytest.mark.parametrize("length", [1, 13, 64])
    def test_a_fault_in_a_later_piece_names_its_line(self, long_trace, length, monkeypatch):
        monkeypatch.setattr(simnet, "RENDER_BLOCK", 7)
        text = write_trace(head(long_trace, 40))
        n_header = len(_rows(text)[0])
        text = _with_row(text, 33, t="0.000000")
        with pytest.raises(ParseError, match=rf"before the previous.*\(line {n_header + 34}\)"):
            read_trace(text[i:i + length] for i in range(0, len(text), length))
