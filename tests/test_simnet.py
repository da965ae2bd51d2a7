import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.analysis import SpikeEvent
from leolink.probe import PROTOCOLS
from leolink.simnet import (
    EVENT_GRID_S,
    RerouteEvent,
    Scenario,
    ScenarioError,
    SimHop,
    SimnetTransport,
    _probe_core,
    build_scenario,
    load_scenario_dir,
    score_spikes,
)
from tests.conftest import respond_to_probe, scenario_dict

EVENT_80MS = {"at_s": 60, "kind": "isl_reroute", "delta_ms": 80.0, "duration_s": 30}


# -------------------------------------------------------------- validation

def test_minimal_scenario_builds():
    sc = build_scenario(scenario_dict())
    assert isinstance(sc, Scenario)
    assert sc.events == ()
    assert sc.target_address == "100.64.9.1"
    assert len(sc.hops) == 3
    assert sc.satellite_base_oneway_ms() == pytest.approx(12.5)


@pytest.mark.parametrize("mutate,field", [
    (lambda o: o.update(schema="other/9"), "schema"),
    (lambda o: o.update(hops=o["hops"][:1]), "hops"),
    (lambda o: o.update(base_latencies_ms=[1.0]), "base_latencies_ms"),
    (lambda o: o.update(base_latencies_ms=[1.0, -2.0, 3.0]), "base_latencies_ms[1]"),
    (lambda o: o.update(satellite_segment=[3, 2]), "satellite_segment"),
    (lambda o: o.update(satellite_segment=[0, 2]), "satellite_segment"),
    (lambda o: o.update(duration_s=0), "duration_s"),
    (lambda o: o.update(jitter={"dist": "uniform"}), "jitter.dist"),
    (lambda o: o.update(jitter={"dist": "gaussian", "sigma_ms": -1}), "jitter.sigma_ms"),
    (lambda o: o.update(loss_probability=1.5), "loss_probability"),
    (lambda o: o.update(target_protocols=["icmp", "gre"]), "target_protocols"),
    (lambda o: o.update(hop_flap={"every_s": 5, "duration_s": 5}), "hop_flap.every_s"),
])
def test_build_scenario_names_bad_field(mutate, field):
    obj = scenario_dict()
    mutate(obj)
    with pytest.raises(ScenarioError) as err:
        build_scenario(obj)
    assert str(err.value).startswith(field + ":")


@pytest.mark.parametrize("mutate,message", [
    (lambda o: o.update(seed=True), "seed: expected an integer, got True"),
    (lambda o: o.update(seed=8.0), "seed: expected an integer, got 8.0"),
    (lambda o: o["hops"][2].update(echo=0), "hops[2].echo: expected true or false, got 0"),
    (lambda o: o.update(jitter={"dist": 1}), "jitter.dist: expected a string, got 1"),
    (lambda o: o.update(target_protocols="icmp"), "target_protocols: expected a list, got 'icmp'"),
    (lambda o: o.update(endpoint={"longitude": float("inf")}),
     "endpoint.longitude: expected a finite number, got inf"),
    (lambda o: o.update(jitter=None), "jitter: expected an object, got None"),
    (lambda o: o.update(hop_flap=None), "hop_flap: expected an object, got None"),
    (lambda o: o.update(endpoint=None), "endpoint: expected an object, got None"),
    (lambda o: o.update(comment=5), "comment: expected a string, got 5"),
], ids=["seed_bool", "seed_float", "echo_number", "dist_number", "protocols_string",
        "longitude_inf", "jitter_null", "hop_flap_null", "endpoint_null", "comment_number"])
def test_build_scenario_refuses_a_field_of_the_wrong_type(mutate, message):
    obj = scenario_dict()
    mutate(obj)
    with pytest.raises(ScenarioError) as err:
        build_scenario(obj)
    assert str(err.value) == message


def test_build_scenario_keeps_values_as_given():
    sc = build_scenario(scenario_dict(base_latencies_ms=[2, 3, 12.5], seed=7))
    assert [type(x) for x in sc.base_latencies_ms] == [int, int, float]
    assert sc.satellite_base_oneway_ms() == 12.5


@pytest.mark.parametrize("event,field", [
    ({"at_s": 17, "kind": "isl_reroute", "delta_ms": 10.0, "duration_s": 30},
     "events[0].at_s"),
    ({"at_s": 15, "kind": "isl_reroute", "delta_ms": 10.0, "duration_s": 20},
     "events[0].duration_s"),
    ({"at_s": 15, "kind": "teleport", "delta_ms": 10.0, "duration_s": 30},
     "events[0].kind"),
    ({"at_s": 285, "kind": "isl_reroute", "delta_ms": 10.0, "duration_s": 30},
     "events[0]"),
    ({"at_s": 15, "kind": "isl_reroute", "duration_s": 30}, "events[0]"),
    ({"at_s": 15, "kind": "isl_reroute", "delta_ms": 1.0, "new_rtt_ms": 50.0,
      "duration_s": 30}, "events[0]"),
])
def test_event_validation_names_field(event, field):
    with pytest.raises(ScenarioError) as err:
        build_scenario(scenario_dict(events=[event]))
    assert str(err.value).startswith(field + ":")


@pytest.mark.parametrize("change,message", [
    ({"new_rtt_ms": -50.0}, "events[1]: satellite RTT would be -50.0 ms, below 0"),
    ({"delta_ms": -500.0}, "events[1]: satellite RTT would be -475.0 ms, below 0"),
], ids=["new_rtt_negative", "delta_below_the_span"])
def test_event_whose_satellite_rtt_would_be_negative_is_refused(change, message):
    # the span's base round trip is 2 x 12.5 ms
    event = {"at_s": 120, "kind": "gs_switch", "duration_s": 30, **change}
    with pytest.raises(ScenarioError) as err:
        build_scenario(scenario_dict(events=[EVENT_80MS, event]))
    assert str(err.value) == message


def test_event_may_take_the_satellite_rtt_to_zero():
    sc = build_scenario(scenario_dict(events=[{**EVENT_80MS, "delta_ms": -25.0}]))
    assert 2.0 * (sc.satellite_base_oneway_ms() + sc.satellite_delta_ms(60.0)) == 0.0


CODE_HOPS = tuple(SimHop(**hop) for hop in scenario_dict()["hops"])


@pytest.mark.parametrize("key,in_file,in_code,message", [
    ("satellite_segment", [3, 2], (3, 2), "satellite_segment: need 1 <= pre < post <= 3"),
    ("satellite_segment", [2], (2,), "satellite_segment: expected [pre_hop, post_hop]"),
    ("events", [{**EVENT_80MS, "duration_s": 60}, {**EVENT_80MS, "at_s": 90}],
     (RerouteEvent(60, "isl_reroute", 60, delta_ms=80.0),
      RerouteEvent(90, "isl_reroute", 30, delta_ms=80.0)),
     "events: events at 60s and 90s overlap"),
    ("endpoint", {"latitude": "north"}, {"latitude": "north"},
     "endpoint.latitude: expected a finite number, got 'north'"),
    ("hops", scenario_dict()["hops"][:1], CODE_HOPS[:1],
     "hops: need at least two hops (one before and one after the satellite)"),
], ids=["segment_reversed", "segment_short", "events_overlap", "endpoint_latitude",
        "one_hop"])
def test_scenario_built_in_code_is_checked_as_a_file_is(key, in_file, in_code, message):
    with pytest.raises(ScenarioError) as from_file:
        build_scenario(scenario_dict(**{key: in_file}))
    with pytest.raises(ScenarioError) as from_code:
        Scenario(**{"hops": CODE_HOPS, "base_latencies_ms": (2.0, 3.0, 12.5),
                    "satellite_segment": (2, 3), "events": (), key: in_code})
    assert str(from_file.value) == str(from_code.value) == message


def test_scenario_fields_are_the_file_keys():
    sc = build_scenario(scenario_dict(comment="note", endpoint={"pop_code": "sttlwax1"}))
    assert (sc.satellite_segment, sc.pre_sat, sc.post_sat) == ((2, 3), 2, 3)
    assert (sc.schema, sc.comment, sc.endpoint) == ("leolink-scenario/1", "note",
                                                    {"pop_code": "sttlwax1"})
    assert sc.hops == CODE_HOPS and sc.hop_flap is None


def test_overlapping_events_rejected():
    with pytest.raises(ScenarioError, match="overlap"):
        build_scenario(scenario_dict(events=[
            {"at_s": 60, "kind": "isl_reroute", "delta_ms": 10.0, "duration_s": 60},
            {"at_s": 90, "kind": "gs_switch", "delta_ms": 5.0, "duration_s": 30},
        ]))


def test_event_grid_is_15_seconds():
    assert EVENT_GRID_S == 15


def test_load_scenario_dir(tmp_path):
    for i, addr in enumerate(["100.64.9.1", "100.64.9.2"]):
        obj = scenario_dict()
        obj["hops"][-1]["address"] = addr
        (tmp_path / f"s{i}.json").write_text(json.dumps(obj))
    scenarios = load_scenario_dir(tmp_path)
    assert sorted(scenarios) == ["100.64.9.1", "100.64.9.2"]
    with pytest.raises(ScenarioError, match="no scenario files"):
        load_scenario_dir(tmp_path / "empty")


def test_load_scenario_dir_rejects_duplicate_target(tmp_path):
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(scenario_dict()))
    with pytest.raises(ScenarioError, match="duplicate target"):
        load_scenario_dir(tmp_path)


# ------------------------------------------------------------ probe replies

def test_reply_rtt_is_twice_cumulative_oneway(quiet_scenario):
    # base segments 2 + 3 + 12.5 one way
    r1 = respond_to_probe(quiet_scenario, "100.64.9.1", 1, 0)
    r2 = respond_to_probe(quiet_scenario, "100.64.9.1", 2, 0)
    r3 = respond_to_probe(quiet_scenario, "100.64.9.1", 3, 0)
    assert r1.rtt_us == pytest.approx(2 * 2.0 * 1000.0)
    assert r2.rtt_us == pytest.approx(2 * 5.0 * 1000.0)
    assert r3.rtt_us == pytest.approx(2 * 17.5 * 1000.0)
    assert r3.responder == "100.64.9.1"


def test_reply_other_target_is_silence(quiet_scenario):
    assert respond_to_probe(quiet_scenario, "10.0.0.1", 8, 0) is None


def test_reply_validates_arguments(quiet_scenario):
    with pytest.raises(ValueError):
        respond_to_probe(quiet_scenario, "100.64.9.1", 0, 0)
    with pytest.raises(ValueError):
        respond_to_probe(quiet_scenario, "100.64.9.1", 1, 0, protocol="gre")


def test_transport_refuses_an_unknown_protocol_when_made(quiet_scenario):
    with pytest.raises(ValueError, match="unknown protocol: gre"):
        SimnetTransport(quiet_scenario, protocol="gre")
    for protocol in PROTOCOLS:
        assert SimnetTransport(quiet_scenario, protocol=protocol).protocol == protocol


def test_scenario_allows_a_top_level_comment_only():
    assert build_scenario(scenario_dict(comment="free text")).hops
    obj = scenario_dict()
    obj["hops"][0]["comment"] = "free text"
    with pytest.raises(ScenarioError, match=re.escape("hops[0]: unknown fields ['comment']")):
        build_scenario(obj)


def test_event_delta_applies_to_satellite_span_only():
    sc = build_scenario(scenario_dict(events=[EVENT_80MS]))
    inside, outside = 70_000, 30_000
    # terrestrial hops unaffected during the event
    assert respond_to_probe(sc, "100.64.9.1", 2, inside).rtt_us == \
        respond_to_probe(sc, "100.64.9.1", 2, outside).rtt_us
    # endpoint shifted by the full 80 ms round trip
    shifted = respond_to_probe(sc, "100.64.9.1", 3, inside).rtt_us
    base = respond_to_probe(sc, "100.64.9.1", 3, outside).rtt_us
    assert shifted - base == pytest.approx(80_000.0)


def test_new_rtt_event_replaces_satellite_span():
    ev = {"at_s": 60, "kind": "satellite_switch", "new_rtt_ms": 90.0,
          "duration_s": 30}
    sc = build_scenario(scenario_dict(events=[ev]))
    r = respond_to_probe(sc, "100.64.9.1", 3, 70_000)
    # 2 terrestrial segments (2+3) round trip + replaced 90 ms span
    assert r.rtt_us == pytest.approx((10.0 + 90.0) * 1000.0)


def test_echo_off_target_never_answers_final_ttl():
    obj = scenario_dict()
    obj["hops"][-1]["echo"] = False
    sc = build_scenario(obj)
    assert respond_to_probe(sc, "100.64.9.1", 3, 0) is None
    assert respond_to_probe(sc, "100.64.9.1", 2, 0) is not None


def test_target_protocols_gate_echo(quiet_scenario):
    sc = build_scenario(scenario_dict(target_protocols=["udp"]))
    assert respond_to_probe(sc, "100.64.9.1", 3, 0, protocol="icmp") is None
    assert respond_to_probe(sc, "100.64.9.1", 3, 0, protocol="udp") is not None
    # TTL-expired replies come from routers and ignore the gate.
    assert respond_to_probe(sc, "100.64.9.1", 1, 0, protocol="icmp") is not None


def test_loss_probability_one_silences_everything():
    sc = build_scenario(scenario_dict(loss_probability=1.0))
    assert all(respond_to_probe(sc, "100.64.9.1", ttl, t) is None
               for ttl in (1, 2, 3) for t in (0, 1000, 2000))


def test_flap_inserts_transient_hop():
    sc = build_scenario(scenario_dict(hop_flap={"every_s": 60, "duration_s": 15}))
    flapped = respond_to_probe(sc, "100.64.9.1", 3, 5_000)
    clean = respond_to_probe(sc, "100.64.9.1", 3, 20_000)
    assert flapped.responder == "10.255.255.1"  # extra hop shifted the path
    assert clean.responder == "100.64.9.1"
    assert respond_to_probe(sc, "100.64.9.1", 4, 5_000).responder == "100.64.9.1"


def test_replies_deterministic_bit_for_bit():
    obj = scenario_dict(jitter={"dist": "gaussian", "sigma_ms": 0.7,
                                "satellite_sigma_ms": 2.0}, seed=99)
    a, b = build_scenario(obj), build_scenario(obj)
    for t in range(0, 10_000, 777):
        for ttl in (1, 2, 3):
            ra = respond_to_probe(a, "100.64.9.1", ttl, t)
            rb = respond_to_probe(b, "100.64.9.1", ttl, t)
            assert ra == rb


def test_jitter_varies_with_time_and_flow():
    sc = build_scenario(scenario_dict(
        jitter={"dist": "gaussian", "sigma_ms": 1.0, "satellite_sigma_ms": 1.0}))
    r0 = respond_to_probe(sc, "100.64.9.1", 3, 0)
    r1 = respond_to_probe(sc, "100.64.9.1", 3, 1)
    assert r0.rtt_us != r1.rtt_us


def stream_rtts(ttl, **overrides):
    """The RTTs less the path of 10^5 probes at TTL 2 or 3 sent 1 ms apart,
    on a path whose one jittered segment (sigma 1 ms) both TTLs cross:
    without loss, the normal each probe draws."""
    sc = build_scenario(scenario_dict(
        satellite_segment=[1, 3], base_latencies_ms=[20.0, 30.0, 40.0],
        jitter={"dist": "gaussian", "sigma_ms": 0.0, "satellite_sigma_ms": 1.0}, **overrides))
    rtt_ms, _ = _probe_core(sc, "icmp")[1](ttl, np.arange(100_000, dtype=np.int64))
    return rtt_ms - {2: 100.0, 3: 180.0}[ttl]


def test_stream_normals_are_standard_and_independent():
    z2, z3 = stream_rtts(2), stream_rtts(3)
    for z in (z2, z3):
        assert abs(z.mean()) < 0.01 and abs(z.var() - 1.0) < 0.02
        # adjacent send times
        assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < 0.01
    # TTL 2 and 3 at one send time
    assert abs(np.corrcoef(z2, z3)[0, 1]) < 0.01


def test_stream_loses_its_share_of_probes():
    assert abs(np.isnan(stream_rtts(3, loss_probability=0.1)).mean() - 0.1) <= 0.005


@given(st.integers(0, 300_000), st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_rtt_monotone_in_ttl_without_jitter(t_ms, seed):
    sc = build_scenario(scenario_dict(seed=seed))
    rtts = [respond_to_probe(sc, "100.64.9.1", ttl, t_ms).rtt_us
            for ttl in (1, 2, 3)]
    assert rtts[0] <= rtts[1] <= rtts[2]


# ------------------------------------------------------------- ground truth

def sat_rtt_ms(sc, t_s):
    """The satellite span's jitter-free round trip at each of the times ``t_s``."""
    return 2.0 * (sc.satellite_base_oneway_ms() + sc.satellite_delta_ms(t_s))


def test_ground_truth_baseline(quiet_scenario):
    t = np.array([10.0])
    assert quiet_scenario.event_at(t).tolist() == [-1]  # no event: the baseline route
    assert sat_rtt_ms(quiet_scenario, t) == pytest.approx([25.0])


def test_ground_truth_event_boundaries():
    sc = build_scenario(scenario_dict(events=[EVENT_80MS]))
    t = np.array([59.999, 60.0, 89.999, 90.0])
    active = sc.event_at(t) >= 0
    assert active.tolist() == [False, True, True, False]
    assert sat_rtt_ms(sc, t) == pytest.approx(25.0 + np.where(active, 80.0, 0.0))
    assert sc.events[sc.event_at(75.0)].kind == "isl_reroute"


def test_ground_truth_full_timeline_matches_events():
    events = [
        {"at_s": 30, "kind": "gs_switch", "delta_ms": 10.0, "duration_s": 15},
        {"at_s": 120, "kind": "satellite_switch", "delta_ms": 20.0, "duration_s": 45},
    ]
    sc = build_scenario(scenario_dict(events=events))
    active_seconds = np.flatnonzero(sc.event_at(np.arange(sc.duration_s, dtype=float)) >= 0)
    expected = list(range(30, 45)) + list(range(120, 165))
    assert active_seconds.tolist() == expected


# ------------------------------------------------------------- spike scoring

def spike(start_s, kind="sustained", length_s=20):
    return SpikeEvent(start_ms=int(start_s * 1000), end_ms=int((start_s + length_s) * 1000),
                      kind=kind, peak_ms=100.0, baseline_median_ms=40.0)


def switch(at_s):
    return RerouteEvent(at_s=at_s, kind="satellite_switch", duration_s=0)


def unpaired(score):
    """The fraction of the scored spikes with no event within the window."""
    return score.nearest.count(None) / len(score.nearest) if score.nearest else 0.0


def test_score_without_events_leaves_every_spike_unpaired():
    score = score_spikes([spike(t) for t in (10, 60, 110, 160, 210)], [])
    assert score.nearest == (None,) * 5
    assert unpaired(score) == 1.0
    assert score.false_sustained == 5


def test_score_pairs_three_of_five_sustained_spikes():
    score = score_spikes([spike(t) for t in (100, 200, 300, 400, 500)],
                         [switch(101), switch(196), switch(305)])
    assert score.nearest == (0, 1, 2, None, None)
    assert unpaired(score) == pytest.approx(2 / 5)


def test_score_leaves_five_of_hundred_standard_spikes_unpaired():
    score = score_spikes([spike(100 + 30 * i, kind="standard") for i in range(100)],
                         [switch(100 + 30 * i + 3) for i in range(95)])
    assert score.nearest.count(None) == 5
    assert unpaired(score) == pytest.approx(0.05)
    assert score.false_sustained == 0  # standard spikes are never false


def test_score_window_is_inclusive_both_sides():
    assert score_spikes([spike(100)], [switch(85)]).nearest == (0,)
    assert score_spikes([spike(100)], [switch(115)]).nearest == (0,)
    assert score_spikes([spike(100)], [switch(116)]).nearest == (None,)
    assert score_spikes([spike(100)], [switch(116)], window_s=16.0).nearest == (0,)


def test_score_pairs_a_spike_with_its_nearest_event():
    score = score_spikes([spike(100)], [switch(95), switch(102), switch(112)])
    assert score.nearest == (1,)


def test_score_of_no_spikes_has_zero_unpaired_fraction():
    score = score_spikes([], [switch(5)])
    assert score.nearest == () and unpaired(score) == 0.0
    assert score.recalled == (False,) and score.false_sustained == 0


def test_score_refuses_a_negative_window():
    with pytest.raises(ValueError, match="window_s"):
        score_spikes([], [], window_s=-1.0)


@given(st.lists(st.integers(0, 5000), max_size=8), st.lists(st.integers(0, 5000), max_size=8))
@settings(max_examples=60)
def test_score_unpaired_fraction_is_bounded(switch_times, spike_times):
    spikes = [spike(t) for t in sorted(set(spike_times))]
    score = score_spikes(spikes, [switch(t) for t in switch_times])
    assert 0.0 <= unpaired(score) <= 1.0
    assert len(score.nearest) == len(spikes)
    assert len(score.recalled) == len(switch_times)


def test_score_is_invariant_under_a_time_shift():
    spikes = [spike(t) for t in (100, 200, 300)]
    switches = [switch(103), switch(207)]
    shifted = score_spikes([spike(int(s.start_ms / 1000) + 1000) for s in spikes],
                           [switch(s.at_s + 1000) for s in switches])
    assert score_spikes(spikes, switches) == shifted


def event(at_s, duration_s):
    return RerouteEvent(at_s=at_s, kind="isl_reroute", duration_s=duration_s, delta_ms=30.0)


def test_score_recalls_an_event_only_past_its_ramps():
    # a sustained spike must overlap [at_s + 7.5 s, end_s - 7.5 s)
    ev = event(60, 45)
    for start_s, length_s, recalled in [(40, 27.5, False), (40, 27.6, True),
                                        (97.5, 20, False), (97.4, 20, True)]:
        score = score_spikes([spike(start_s, length_s=length_s)], [ev])
        assert score.recalled == (recalled,)
        assert score.false_sustained == 0  # each one overlaps the whole span
    standard = score_spikes([spike(70, kind="standard")], [ev])
    assert standard.recalled == (False,)


def test_score_counts_a_sustained_spike_outside_every_span_as_false():
    events = [event(60, 45), event(300, 60)]
    # spans are half-open: the spike ending at 60 s and the one starting at
    # 360 s touch a span and overlap none; the one at 104 s overlaps only
    # the first span's ramp, so it is not false and recalls nothing
    score = score_spikes([spike(50, length_s=10), spike(104),
                          spike(200), spike(360, length_s=10)], events)
    assert score.false_sustained == 3
    assert score.recalled == (False, False)
    assert score.nearest == (0, None, None, None)


# ---------------------------------------------------------------- transport

def test_virtual_clock_semantics():
    # The transport keeps its own float clock and reads it in whole ms.
    transport = SimnetTransport(build_scenario(scenario_dict(base_latencies_ms=[2.2, 3.0, 12.5])))
    transport.sleep_until_ms(1000)
    assert transport.now_ms() == 1000
    transport.probe("100.64.9.1", 1)  # a 4.4 ms round trip
    assert transport.now_ms() == 1004  # integer milliseconds, floor
    transport.probe("100.64.9.1", 1)
    transport.probe("100.64.9.1", 1)
    assert transport.now_ms() == 1013  # the fractions add up: 1013.2, not 1012
    transport.sleep_until_ms(2000)
    assert transport.now_ms() == 2000
    transport.sleep_until_ms(500)  # never goes backwards
    assert transport.now_ms() == 2000


def test_transport_clock_advances_by_rtt(quiet_transport):
    t0 = quiet_transport.now_ms()
    reply = quiet_transport.probe("100.64.9.1", 3)
    assert quiet_transport.now_ms() - t0 == int(reply.rtt_us / 1000.0)


def test_transport_timeout_advances_clock():
    sc = build_scenario(scenario_dict(loss_probability=1.0))
    transport = SimnetTransport(sc, timeout_s=2.0)
    t0 = transport.now_ms()
    assert transport.probe("100.64.9.1", 3) is None
    assert transport.now_ms() - t0 == 2000
    with pytest.raises(ValueError, match="timeout_s must be positive"):
        SimnetTransport(sc, timeout_s=-1.0)


def test_transport_counts_satellite_probes(quiet_transport):
    quiet_transport.probe("100.64.9.1", 1)
    quiet_transport.probe("100.64.9.1", 2)
    quiet_transport.probe("100.64.9.1", 3)
    assert quiet_transport.probes_sent == 3
    assert quiet_transport.sat_probe_count == 1  # only the ttl-3 probe
