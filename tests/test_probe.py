import json
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink import cli
from leolink.discovery import Endpoint
from leolink.probe import (
    CONFIRM_SAMPLES,
    InsufficientPathError,
    MeasurementSession,
    NoSatelliteJumpError,
    TraceHop,
    TracerouteResult,
    UnreachableError,
    identify_sat_link,
    measure_session,
    probe_each_tick,
    run_traceroute,
)
from leolink.simnet import SimnetTransport, build_scenario
from leolink.store import MeasurementStore
from tests.conftest import scenario_dict

ENDPOINT = Endpoint(address="100.64.9.1", pop_code="sttlwax1")


def hop(ttl, responder=None, rtts=()):
    return TraceHop(ttl=ttl, responder=responder, rtt_samples=tuple(rtts))


def six_hop_transport(**overrides):
    hops = [{"label": f"r{i}", "address": f"10.0.1.{i}", "ttl_expired": True,
             "echo": False} for i in range(1, 6)]
    hops.append({"label": "customer", "address": "100.64.9.1",
                 "ttl_expired": True, "echo": True})
    obj = scenario_dict(
        hops=hops,
        base_latencies_ms=[1.0, 2.0, 3.0, 1.5, 12.5, 1.0],
        satellite_segment=[5, 6],
        **overrides,
    )
    return SimnetTransport(build_scenario(obj))


# -------------------------------------------------------------- traceroute

def test_traceroute_bent_pipe_six_hops():
    trace = run_traceroute(six_hop_transport(), "100.64.9.1")
    assert trace.reached
    assert len(trace.hops) == 6
    assert all(h.responsive for h in trace.hops)
    assert trace.hops[-1].responder == "100.64.9.1"


def test_traceroute_stops_at_max_ttl_unreached():
    trace = run_traceroute(six_hop_transport(), "100.64.9.1", max_ttl=1)
    assert not trace.reached
    assert len(trace.hops) == 1


def test_traceroute_rejects_bad_arguments(quiet_transport):
    with pytest.raises(ValueError):
        run_traceroute(quiet_transport, "100.64.9.1", max_ttl=0)
    with pytest.raises(ValueError):
        run_traceroute(quiet_transport, "100.64.9.1", max_ttl=65)
    with pytest.raises(ValueError):
        run_traceroute(quiet_transport, "100.64.9.1", probes_per_hop=0)


def test_traceroute_unreachable_when_nothing_responds():
    obj = scenario_dict(hops=[
        {"label": "mute", "address": "10.0.0.1", "ttl_expired": False, "echo": False},
        {"label": "dark", "address": "100.64.9.1", "ttl_expired": False, "echo": False},
    ], base_latencies_ms=[1.0, 10.0], satellite_segment=[1, 2])
    transport = SimnetTransport(build_scenario(obj))
    with pytest.raises(UnreachableError):
        run_traceroute(transport, "100.64.9.1", max_ttl=4)


def test_traceroute_records_unresponsive_middle_hop():
    obj = scenario_dict()
    obj["hops"][1] = {"label": "mute", "address": "10.0.0.2",
                      "ttl_expired": False, "echo": False}
    transport = SimnetTransport(build_scenario(obj))
    trace = run_traceroute(transport, "100.64.9.1")
    assert trace.reached
    assert not trace.hops[1].responsive
    assert trace.hops[1].rtt_samples == ()


def test_protocol_reachability_ordering():
    # Three endpoints: one answers everything, one refuses tcp, one is
    # icmp-only.  Reachability must come out icmp >= udp >= tcp.
    cohort = [
        six_hop_transport(target_protocols=["icmp", "udp", "tcp"]),
        six_hop_transport(target_protocols=["icmp", "udp"]),
        six_hop_transport(target_protocols=["icmp"]),
    ]
    reached = {proto: 0 for proto in ("icmp", "udp", "tcp")}
    for proto in reached:
        for transport in cohort:
            trace = run_traceroute(SimnetTransport(transport.scenario, protocol=proto),
                                   "100.64.9.1")
            reached[proto] += trace.reached
    assert reached["icmp"] == 3
    assert reached["icmp"] >= reached["udp"] >= reached["tcp"]


# ------------------------------------------------------------ identify_sat

def test_identify_sat_link_late_jump():
    # Terrestrial path flat around 12 ms, then the endpoint answers 38 ms
    # above the hop before it; the unresponsive hop in between is skipped.
    trace = TracerouteResult(
        target="98.97.48.115", reached=True,
        hops=(
            hop(15, "10.0.0.15", [11900.0, 12100.0, 12000.0]),
            hop(16, "206.224.64.21", [12000.0, 12400.0, 12200.0]),
            hop(17),
            hop(18, "98.97.48.115", [50100.0, 50200.0, 50300.0]),
        ),
    )
    path = identify_sat_link(trace)
    assert path.pre_sat_ttl == 16
    assert path.post_sat_ttl == 18
    assert path.pre_sat_router == "206.224.64.21"
    assert path.jump_ms == pytest.approx(38.0, abs=0.01)


def test_identify_sat_link_below_threshold():
    trace = TracerouteResult(
        target="10.0.0.2", reached=True,
        hops=(hop(1, "10.0.0.1", [1000.0]), hop(2, "10.0.0.2", [3000.0])),
    )
    with pytest.raises(NoSatelliteJumpError):
        identify_sat_link(trace, jump_threshold_ms=10.0)
    # The same jump passes a threshold at or below it.
    assert identify_sat_link(trace, jump_threshold_ms=2.0).jump_ms == pytest.approx(2.0)


def test_identify_sat_link_needs_two_responsive_hops():
    trace = TracerouteResult(
        target="10.0.0.1", reached=True,
        hops=(hop(1, "10.0.0.1", [1000.0]),),
    )
    with pytest.raises(InsufficientPathError):
        identify_sat_link(trace)


def test_identify_sat_link_requires_target_reached():
    trace = TracerouteResult(
        target="99.99.99.99", reached=False,
        hops=(hop(1, "10.0.0.1", [1000.0]), hop(2, "10.0.0.2", [30000.0])),
    )
    with pytest.raises(InsufficientPathError):
        identify_sat_link(trace)


def test_identify_sat_link_on_simnet_hops_4_and_5():
    hops = [{"label": f"r{i}", "address": f"10.0.2.{i}", "ttl_expired": True,
             "echo": False} for i in range(1, 5)]
    hops.append({"label": "customer", "address": "100.64.9.1",
                 "ttl_expired": True, "echo": True})
    obj = scenario_dict(hops=hops, base_latencies_ms=[1.0, 2.0, 3.0, 1.5, 12.5],
                        satellite_segment=[4, 5])
    transport = SimnetTransport(build_scenario(obj))
    path = identify_sat_link(run_traceroute(transport, "100.64.9.1"))
    assert (path.pre_sat_ttl, path.post_sat_ttl) == (4, 5)
    assert path.jump_ms == pytest.approx(25.0, abs=0.001)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_identify_sat_link_is_deterministic(seed):
    import random
    rng = random.Random(seed)
    hops = []
    base = 0.0
    for ttl in range(1, rng.randint(3, 8)):
        base += rng.uniform(500, 2000)
        hops.append(hop(ttl, f"10.9.0.{ttl}", [base + rng.uniform(0, 300)
                                               for _ in range(3)]))
    hops.append(hop(len(hops) + 1, "target",
                    [base + 40000 + rng.uniform(0, 300) for _ in range(3)]))
    trace = TracerouteResult(target="target", reached=True, hops=tuple(hops))
    assert identify_sat_link(trace) == identify_sat_link(trace)


def test_identify_sat_link_takes_a_confirmed_jump_from_six_ms():
    def trace(samples, jump_us):
        return TracerouteResult(target="10.0.0.2", reached=True, hops=(
            hop(1, "10.0.0.1", [1000.0] * samples),
            hop(2, "10.0.0.2", [1000.0 + jump_us] * samples)))

    assert identify_sat_link(trace(CONFIRM_SAMPLES, 6000.0)).jump_ms == pytest.approx(6.0)
    assert identify_sat_link(trace(CONFIRM_SAMPLES, 6000.0), 8.0).jump_ms == pytest.approx(6.0)
    for refused in (trace(3, 9900.0), trace(CONFIRM_SAMPLES, 5990.0)):
        with pytest.raises(NoSatelliteJumpError):
            identify_sat_link(refused)
    # a threshold set above the band is kept as it is
    with pytest.raises(NoSatelliteJumpError, match="threshold 12.00 ms"):
        identify_sat_link(trace(CONFIRM_SAMPLES, 11000.0), jump_threshold_ms=12.0)


@pytest.mark.parametrize("sat_oneway_ms, samples", [
    (4.5, [3, 9, 9]),    # a 9 ms jump: both sides of it are probed again
    (1.0, [3, 3, 3]),    # 2 ms: below the band, refused as it is
    (12.5, [3, 3, 3]),   # 25 ms: above the band, taken as it is
])
def test_traceroute_probes_a_jump_in_the_band_again(sat_oneway_ms, samples):
    transport = SimnetTransport(build_scenario(
        scenario_dict(base_latencies_ms=[2.0, 3.0, sat_oneway_ms])))
    trace = run_traceroute(transport, "100.64.9.1")
    assert [len(h.rtt_samples) for h in trace.hops] == samples
    assert transport.probes_sent == sum(samples)


def test_relay_split_traces_at_every_seed():
    # The bundled relay/ISL split has a 9 ms bent-pipe round trip.  Its
    # median jump over three samples per hop falls under the 10 ms
    # threshold at most seeds; over nine it stays above 6 ms at all.
    scenarios = Path(cli.__file__).parent / "data" / "scenarios"
    obj = json.loads((scenarios / "relay_split" / "nigeria_relay_split.json").read_text())
    untraced = []
    for seed in range(1000):
        scenario = build_scenario({**obj, "seed": seed})
        trace = run_traceroute(SimnetTransport(scenario), scenario.target_address)
        try:
            path = identify_sat_link(trace)
        except NoSatelliteJumpError as exc:
            untraced.append((seed, str(exc)))
            continue
        assert (path.pre_sat_ttl, path.post_sat_ttl) == (2, 3)
    assert untraced == []


# --------------------------------------------------------------- ttl pings

def ttl_ping(transport, target, ttl, responder):
    """One TTL-pinned probe as a one-tick session: (send time, RTT)."""
    sent_ms, rtt_us = transport.probe_ticks(target, ((ttl, responder),),
                                            transport.now_ms(), 1, 1)
    return sent_ms[0, 0], rtt_us[0, 0]


def test_ttl_ping_exact_rtt_without_jitter(quiet_transport):
    # Hop 2 sits behind segments of 2 + 3 ms one way: RTT 10 ms.
    before = quiet_transport.now_ms()
    sent_ms, rtt_us = ttl_ping(quiet_transport, "100.64.9.1", 2, "10.0.0.2")
    assert not math.isnan(rtt_us)
    assert rtt_us == pytest.approx(10_000.0, abs=1.0)
    assert sent_ms == before


def test_ttl_ping_beyond_path_is_lost(quiet_transport):
    _, rtt_us = ttl_ping(SimnetTransport(quiet_transport.scenario, protocol="udp"),
                         "100.64.9.1", 9, "100.64.9.1")  # target answers icmp+udp echo here
    assert not math.isnan(rtt_us)  # ttl past the chain still reaches the target
    obj = scenario_dict(target_protocols=["udp"])
    transport = SimnetTransport(build_scenario(obj), protocol="icmp")
    _, lost_rtt_us = ttl_ping(transport, "100.64.9.1", 9, "100.64.9.1")
    assert math.isnan(lost_rtt_us)


def test_terrestrial_hop_answers_ttl_ping_but_not_direct_ping(quiet_transport):
    _, pinned_rtt_us = ttl_ping(quiet_transport, "100.64.9.1", 1, "10.0.0.1")
    assert not math.isnan(pinned_rtt_us)
    # A direct ping addressed at the router itself gets nothing back.
    _, direct_rtt_us = ttl_ping(quiet_transport, "10.0.0.1", 32, "10.0.0.1")
    assert math.isnan(direct_rtt_us)


# ---------------------------------------------------------------- sessions

def path_of(transport):
    return identify_sat_link(run_traceroute(transport, "100.64.9.1"))


def test_measure_session_sample_counts(quiet_transport):
    path = path_of(quiet_transport)
    session = measure_session(quiet_transport, ENDPOINT, path, duration_s=300)
    assert session.sent_ms.shape == session.rtt_us.shape == (2, 300)
    assert session.usable
    assert session.terrestrial_loss_fraction == 0.0


def test_measure_session_probe_budget():
    transport = SimnetTransport(build_scenario(scenario_dict()))
    path = path_of(transport)
    before = transport.sat_probe_count
    measure_session(transport, ENDPOINT, path, duration_s=120, cadence_hz=1)
    # One probe per tick crosses the satellite segment, no more.
    assert transport.sat_probe_count - before == 120


def test_measure_session_timestamps_strictly_increasing(quiet_transport):
    path = path_of(quiet_transport)
    session = measure_session(quiet_transport, ENDPOINT, path, duration_s=60)
    for stamps in session.sent_ms:
        assert np.all(np.diff(stamps) > 0)
    span = session.sent_ms[1, -1] - session.start_ms
    assert span <= 60 * 1000


def test_measure_session_shows_reroute_for_full_event():
    obj = scenario_dict(events=[
        {"at_s": 60, "kind": "isl_reroute", "delta_ms": 80.0, "duration_s": 30}])
    transport = SimnetTransport(build_scenario(obj))
    path = path_of(transport)
    session = measure_session(transport, ENDPOINT, path, duration_s=150)
    shifted = session.rtt_us[1] > 80_000.0  # False where lost
    assert np.count_nonzero(shifted) == 30
    gaps = np.diff(session.sent_ms[1][shifted])
    assert np.all(gaps == 1000)  # consecutive ticks


def test_measure_session_flags_unusable_on_heavy_terrestrial_loss():
    obj = scenario_dict(loss_probability=0.7, duration_s=600)
    transport = SimnetTransport(build_scenario(obj))
    session = measure_session(
        transport, ENDPOINT,
        path_of_uncheckable(), duration_s=120)
    assert session.terrestrial_loss_fraction > 0.5
    assert type(session.terrestrial_loss_fraction) is float
    assert not session.usable


def path_of_uncheckable():
    # Loss makes tracing flaky, so pin the known path directly.
    from leolink.probe import SatLinkPath
    return SatLinkPath(target="100.64.9.1", pre_sat_ttl=2,
                       pre_sat_router="10.0.0.2", post_sat_ttl=3, jump_ms=25.0)


def in_memory_session(sent_ms, rtt_us):
    return MeasurementSession(endpoint=ENDPOINT, path=path_of_uncheckable(), start_ms=0,
                              duration_s=10, cadence_hz=1, sent_ms=sent_ms, rtt_us=rtt_us)


@pytest.mark.parametrize("hop", ["terrestrial", "endpoint"])
def test_session_rejects_misaligned_arrays(hop):
    row = ("terrestrial", "endpoint").index(hop)
    arrays = {"sent_ms": [np.arange(10)] * 2, "rtt_us": [np.arange(1, 11)] * 2}
    in_memory_session(**arrays)
    for name in arrays:
        ragged = list(arrays[name])
        ragged[row] = np.arange(9)  # numpy refuses these rows; the session names why
        for bad in (ragged, np.arange(20), np.zeros((3, 10)), np.zeros((2, 9))):
            with pytest.raises(ValueError, match="aligned by tick"):
                in_memory_session(**dict(arrays, **{name: bad}))


@pytest.mark.parametrize("duration_s, cadence_hz", [(9, 1), (11, 1), (10, 2)])
def test_session_refuses_a_tick_count_off_its_schedule(duration_s, cadence_hz):
    # measure_session schedules duration_s * cadence_hz ticks and loss is
    # counted against that number, so a session holds exactly that many.
    arrays = {"sent_ms": [np.arange(10) * 100] * 2, "rtt_us": np.ones((2, 10))}
    with pytest.raises(ValueError, match=f"^10 ticks, but {duration_s} s at {cadence_hz} Hz "
                                         f"is {duration_s * cadence_hz}$"):
        MeasurementSession(endpoint=ENDPOINT, path=path_of_uncheckable(), start_ms=0,
                           duration_s=duration_s, cadence_hz=cadence_hz, **arrays)
    MeasurementSession(endpoint=ENDPOINT, path=path_of_uncheckable(), start_ms=0,
                       duration_s=5, cadence_hz=2, **arrays)


@pytest.mark.parametrize("endpoint_ms", [4500, 2990])
def test_session_refuses_unpaired_ticks(endpoint_ms):
    # Tick 3's endpoint probe leaves after tick 4's terrestrial probe, or
    # before its own: a measured session is held to the rule a stored one is.
    terrestrial = np.arange(10) * 1000
    endpoint = terrestrial + 10
    endpoint[3] = endpoint_ms
    with pytest.raises(ValueError, match="the rows of tick 3 do not pair by send time"):
        in_memory_session([terrestrial, endpoint], np.ones((2, 10)))
    endpoint[3] = 3000  # both probes of a tick may leave in one millisecond
    in_memory_session([terrestrial, endpoint], np.ones((2, 10)))


@pytest.mark.parametrize("hop", [0, 1])
@pytest.mark.parametrize("rtt_us", [math.inf, -math.inf, -90000.0, 0.0])
def test_session_refuses_an_rtt_that_is_not_a_measurement(hop, rtt_us):
    # An RTT is lost (nan) or a positive, finite time.
    sent = np.arange(10) * 1000
    rtt = np.full((2, 10), 1234.5)
    rtt[:, 7] = math.nan
    in_memory_session([sent, sent], rtt)
    rtt[hop, 3] = rtt_us
    with pytest.raises(ValueError, match=re.escape(f"the RTTs of tick 3, {rtt[:, 3].tolist()}, "
                                                   "are not each nan (lost) or finite")):
        in_memory_session([sent, sent], rtt)


def test_session_refuses_an_rtt_it_would_store_as_zero():
    # 0.04 µs is positive, but at the 0.1 µs of session.csv it would be
    # 0.0, which read_session refuses.
    sent = np.arange(10) * 1000
    rtt = np.full((2, 10), 10_000.0)
    rtt[1, 1:3] = 0.04, math.nan
    with pytest.raises(ValueError, match=re.escape(
            "the RTT 0.04 µs of tick 1 would be stored as 0.0")):
        in_memory_session([sent, sent], rtt)
    rtt[1, 1] = 0.05  # held as 0.1
    assert in_memory_session([sent, sent], rtt).rtt_us[1].tolist()[:2] == [10_000.0, 0.1]


@pytest.mark.parametrize("refused, other, stored", [
    (0.03, 0.04, "as 0.0"),
    (9.2e14, 9.1e14, "inexactly, at 2**53 tenths of a µs or more"),
])
def test_session_refusal_names_the_first_tick_of_the_extreme_rtt(refused, other, stored):
    # Over both hops, the least (or greatest) RTT is named at the first
    # tick holding it.
    sent = np.arange(12_500) * 1000
    rtt = np.full((2, 12_500), 35_000.0)
    rtt[0, 100] = rtt[1, 12_000] = other
    rtt[1, 9000] = rtt[0, 12_001] = refused
    with pytest.raises(ValueError, match=re.escape(
            f"the RTT {refused} µs of tick 9000 would be stored {stored}")):
        MeasurementSession(endpoint=ENDPOINT, path=path_of_uncheckable(), start_ms=0,
                           duration_s=12_500, cadence_hz=1, sent_ms=[sent, sent], rtt_us=rtt)


def test_session_holds_read_only_rtts_rounded_as_stored():
    # Each RTT is rounded once, to the 0.1 µs session.csv spells it in, into
    # arrays of the session's own that nothing changes after its checks.
    sent = np.arange(10) * 1000
    rtt = np.full((2, 10), 1234.5)
    rtt[1, :4] = 0.25, 0.35, 12.45, math.nan
    session = in_memory_session([sent, sent], rtt)
    assert session.rtt_us[1, :3].tolist() == [0.2, 0.3, 12.4]
    assert math.isnan(session.rtt_us[1, 3]) and session.rtt_us[0, 0] == 1234.5
    assert rtt[1, 0] == 0.25  # the arrays it was given are left as they were
    for name in ("sent_ms", "rtt_us"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(session, name)[1, 5] = 1
    sent[5] = rtt[1, 5] = 1  # and are no longer the session's
    assert (session.sent_ms[1, 5], session.rtt_us[1, 5]) == (5000, 1234.5)


@pytest.mark.parametrize("name", [f.name for f in fields(MeasurementSession)])
def test_session_fields_cannot_be_assigned(name):
    # A new value would skip every check the constructor makes, and the
    # writer would store rows the reader refuses.
    sent = np.arange(10) * 1000
    session = in_memory_session([sent, sent], np.ones((2, 10)))
    with pytest.raises(FrozenInstanceError):
        setattr(session, name, np.zeros((2, 3)))
    assert session.rtt_us.shape == (2, 10)


@pytest.mark.parametrize("cadence_hz", [1, 3, 7])
def test_measure_session_ticks_stay_on_the_cadence_grid(quiet_transport, cadence_hz):
    # Tick k goes out at start + (k * 1000) // cadence: a cadence that
    # does not divide 1000 must not drift (at 7 Hz a 142 ms step would
    # end a 600 s session 3.7 s early).
    path = path_of(quiet_transport)
    session = measure_session(quiet_transport, ENDPOINT, path, duration_s=600,
                              cadence_hz=cadence_hz)
    k = np.arange(600 * cadence_hz)
    assert np.array_equal(session.sent_ms[0], session.start_ms + (k * 1000) // cadence_hz)
    # the last tick is less than one tick before the session's end
    last = session.sent_ms[0, -1] - session.start_ms
    assert 600_000 - last <= math.ceil(1000 / cadence_hz)


def test_measure_session_counts_replies_from_the_wrong_hop():
    # The flap is active when the trace runs, so the path brackets the
    # flap router at TTL 3.  Outside flaps TTL 3 reaches the target: those
    # replies are lost to the terrestrial series and counted, so the
    # session is unusable instead of subtracting the target from itself.
    transport = SimnetTransport(build_scenario(
        scenario_dict(hop_flap={"every_s": 25, "duration_s": 1})))
    path = path_of(transport)
    assert (path.pre_sat_ttl, path.pre_sat_router, path.post_sat_ttl) == (3, "10.255.255.1", 4)
    session = measure_session(transport, ENDPOINT, path, duration_s=100)
    assert transport.wrong_responders == {3: 96}
    assert np.count_nonzero(np.isnan(session.rtt_us[0])) == 96
    assert not np.isnan(session.rtt_us[1]).any()
    assert not session.usable
    # a steady path draws no wrong replies
    steady = SimnetTransport(build_scenario(scenario_dict()))
    measure_session(steady, ENDPOINT, path_of(steady), duration_s=100)
    assert steady.wrong_responders == {}


def test_measure_session_validates_arguments(quiet_transport):
    path = path_of(quiet_transport)
    with pytest.raises(ValueError):
        measure_session(quiet_transport, ENDPOINT, path, duration_s=0)
    with pytest.raises(ValueError):
        measure_session(quiet_transport, ENDPOINT, path, cadence_hz=11)


@pytest.mark.parametrize("name,value", [
    ("duration_s", 1.5), ("duration_s", True), ("cadence_hz", np.float64(1.0)),
    ("max_ttl", 3.5), ("probes_per_hop", True),
], ids=["duration_float", "duration_bool", "cadence_numpy_float", "max_ttl_float",
        "probes_bool"])
def test_integer_settings_refuse_what_is_not_an_integer(quiet_transport, name, value):
    if name in ("max_ttl", "probes_per_hop"):
        call = partial(run_traceroute, quiet_transport, "100.64.9.1")
    else:
        call = partial(measure_session, quiet_transport, ENDPOINT, path_of(quiet_transport))
    with pytest.raises(ValueError, match=rf"^{name}: expected an integer in \d+\.\.\d+, "
                                         rf"got {re.escape(repr(value))}$"):
        call(**{name: value})


def test_integer_settings_take_numpy_integers(quiet_transport):
    session = measure_session(quiet_transport, ENDPOINT, path_of(quiet_transport),
                              duration_s=np.int64(3), cadence_hz=np.int32(2))
    assert session.sent_ms.shape == (2, 6)


def test_a_day_session_is_probed_and_written_in_bounded_passes(tmp_path):
    # Ticks go through probe_ticks and write_session in passes of
    # PASS_TICKS, so neither holds numpy scratch for a whole day at once:
    # about 1.4 and 1.2 MB at 8,192 ticks a pass, 12 MB each in one pass.
    bound = 2_000_000
    transport = SimnetTransport(build_scenario(scenario_dict(
        duration_s=86_400, loss_probability=0.05,
        jitter={"dist": "gaussian", "sigma_ms": 0.3, "satellite_sigma_ms": 2.0})))
    path = path_of(transport)
    hops = ((path.pre_sat_ttl, path.pre_sat_router), (path.post_sat_ttl, path.target))
    store = MeasurementStore(tmp_path)
    partition = store.new_partition("day")
    start_ms = transport.now_ms()
    tracemalloc.start()
    try:
        sent_ms, rtt_us = transport.probe_ticks(path.target, hops, start_ms, 1, 86_400)
        probing = tracemalloc.get_traced_memory()[1] - sent_ms.nbytes - rtt_us.nbytes
        session = MeasurementSession(endpoint=ENDPOINT, path=path, start_ms=start_ms,
                                     duration_s=86_400, cadence_hz=1,
                                     sent_ms=sent_ms, rtt_us=rtt_us)
        del sent_ms, rtt_us
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        store.write_session(partition, session, config_hash="x")
        writing = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert np.isnan(session.rtt_us).any()  # lost probes time out, so fix-up passes ran
    assert probing < bound, f"probe_ticks peaked {probing} B above the arrays it returned"
    assert writing < bound, f"write_session peaked {writing} B above the session it wrote"


def test_a_day_session_is_read_back_with_its_rtts_rounded_in_place(tmp_path):
    # read_session gives the session a list of the loaded rows' fields, so
    # the RTTs stacked from them are a new array, rounded where it lies:
    # loadtxt's rows, the send times and the RTTs make four (2, n) arrays
    # of float64, and the passes' scratch little more.  Rounding the stack
    # into a second buffer made five.  A caller's array keeps its copy.
    n = 86_400
    rng = np.random.default_rng(5)
    sent = np.arange(n) * 1000
    rtt = rng.normal([[20_000.0], [45_000.0]], [[500.0], [3_000.0]], (2, n))
    rtt[rng.random((2, n)) < 0.05] = math.nan
    given_rtt = rtt.copy()
    session = MeasurementSession(endpoint=ENDPOINT, path=path_of_uncheckable(), start_ms=0,
                                 duration_s=n, cadence_hz=1, sent_ms=[sent, sent + 3], rtt_us=rtt)
    assert np.array_equal(rtt, given_rtt, equal_nan=True)
    store = MeasurementStore(tmp_path)
    store.write_session(store.new_partition("day"), session, config_hash="x")
    tracemalloc.start()
    try:
        read = store.read_session(store.sessions()[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read.rtt_us.tobytes() == session.rtt_us.tobytes()
    assert peak < 5 * rtt.nbytes, f"read_session peaked at {peak / rtt.nbytes:.2f} RTT arrays"
