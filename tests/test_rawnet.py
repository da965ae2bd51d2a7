import errno
import os
import socket
import struct
import types
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink import rawnet
from leolink.probe import run_traceroute
from leolink.rawnet import (
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REPLY,
    ICMP_TIME_EXCEEDED,
    ICMP6_ECHO_REPLY,
    ICMP6_TIME_EXCEEDED,
    PAYLOAD_LEN,
    RawTransport,
    TransportUnavailableError,
    build_icmp_echo,
    flow_checksum,
    flow_ident,
    inet_checksum,
    parse_icmp_v4,
    parse_icmp_v6,
    udp_src_port,
)


def ipv4_header(proto, ihl_words=5, dst="0.0.0.0"):
    header = bytearray(ihl_words * 4)
    header[0] = 0x40 | ihl_words
    header[9] = proto
    header[16:20] = socket.inet_aton(dst)
    return bytes(header)


# ---------------------------------------------------------------- checksums

def test_inet_checksum_known_vector():
    # classic RFC 1071 example data
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert inet_checksum(data) == 0xFFFF - ((0x0001 + 0xF203 + 0xF4F5 + 0xF6F7)
                                            % 0xFFFF)


def test_checksum_of_valid_packet_is_zero():
    packet = build_icmp_echo(ident=77, seq=3, flow_id=9)
    assert inet_checksum(packet) == 0


@given(st.integers(0, 2**15 - 1), st.integers(0, 2**16 - 1),
       st.integers(0, 2**16 - 1), st.binary(max_size=PAYLOAD_LEN - 2))
@settings(max_examples=150)
def test_echo_checksum_pinned_to_flow(flow_id, ident, seq, extra):
    packet = build_icmp_echo(ident=ident, seq=seq, flow_id=flow_id,
                             payload_extra=extra)
    assert len(packet) == 8 + PAYLOAD_LEN
    assert inet_checksum(packet) == 0
    # the wire checksum field is the per-flow constant: a NAT-grade
    # load balancer hashing on it keeps the whole ramp on one path
    (checksum,) = struct.unpack("!H", packet[2:4])
    assert checksum == flow_checksum(flow_id)
    assert checksum != 0


def test_flow_checksum_distinct_for_odd_flows():
    # bit 0 is forced on, so only ids differing above it are distinct
    values = {flow_checksum(f) for f in range(1, 128, 2)}
    assert len(values) == 64
    assert all(v & 0x8000 for v in values)


def test_flow_ident_stable_and_process_bound():
    assert flow_ident(5) == flow_ident(5)
    assert flow_ident(5) != flow_ident(6)
    assert flow_ident(0) == (os.getpid() & 0xFFFF)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=80)
def test_udp_src_port_in_high_range(flow_id):
    port = udp_src_port(flow_id)
    assert 33000 <= port < 33512


# ------------------------------------------------------------------ parsing

def test_parse_echo_reply_v4():
    echo = build_icmp_echo(ident=424, seq=7, flow_id=3)
    reply = bytes([ICMP_ECHO_REPLY, 0]) + echo[2:]
    parsed = parse_icmp_v4(ipv4_header(socket.IPPROTO_ICMP) + reply)
    assert parsed is not None
    assert parsed.icmp_type == ICMP_ECHO_REPLY
    assert parsed.ident == 424
    assert parsed.seq == 7


def test_parse_time_exceeded_quotes_inner_echo():
    inner_ip = ipv4_header(socket.IPPROTO_ICMP)
    inner = inner_ip + build_icmp_echo(ident=999, seq=12, flow_id=1)
    outer = struct.pack("!BBHHH", ICMP_TIME_EXCEEDED, 0, 0, 0, 0) + inner
    parsed = parse_icmp_v4(ipv4_header(socket.IPPROTO_ICMP) + outer)
    assert parsed.icmp_type == ICMP_TIME_EXCEEDED
    assert parsed.ident == 999
    assert parsed.seq == 12


def test_parse_unreach_quotes_inner_udp_ports():
    inner_udp = struct.pack("!HHHH", 33017, 33434, 8, 0)
    inner = ipv4_header(socket.IPPROTO_UDP) + inner_udp
    outer = struct.pack("!BBHHH", ICMP_DEST_UNREACH, 3, 0, 0, 0) + inner
    parsed = parse_icmp_v4(ipv4_header(socket.IPPROTO_ICMP) + outer)
    assert parsed.icmp_type == ICMP_DEST_UNREACH
    assert parsed.code == 3
    assert parsed.quoted_udp_ports == (33017, 33434)
    assert parsed.ident is None


def test_parse_rejects_truncated_and_foreign():
    assert parse_icmp_v4(b"\x45" + b"\x00" * 10) is None
    # echo request (type 8) is our own outbound packet looping back
    own = ipv4_header(socket.IPPROTO_ICMP) + build_icmp_echo(1, 1, 1)
    assert parse_icmp_v4(own) is None


def test_parse_v6_echo_reply():
    echo = build_icmp_echo(ident=31, seq=2, flow_id=5)
    datagram = bytes([ICMP6_ECHO_REPLY, 0]) + echo[2:]
    parsed = parse_icmp_v6(datagram)
    assert parsed.icmp_type == ICMP6_ECHO_REPLY
    assert (parsed.ident, parsed.seq) == (31, 2)


def test_parse_v6_time_exceeded():
    quoted_ip6 = bytearray(40)
    quoted_ip6[6] = socket.IPPROTO_ICMPV6
    inner_echo = struct.pack("!BBHHH", 128, 0, 0, 55, 9)
    datagram = struct.pack("!BBHHH", ICMP6_TIME_EXCEEDED, 0, 0, 0, 0) \
        + bytes(quoted_ip6) + inner_echo
    parsed = parse_icmp_v6(datagram)
    assert parsed.icmp_type == ICMP6_TIME_EXCEEDED
    assert (parsed.ident, parsed.seq) == (55, 9)


def test_parse_v6_short_datagram_is_none():
    assert parse_icmp_v6(b"\x81\x00") is None


@given(st.binary(max_size=80))
@settings(max_examples=100)
def test_parsers_never_raise_on_garbage(blob):
    parse_icmp_v4(blob)
    parse_icmp_v6(blob)


# ------------------------------------------------------------ live loopback

needs_root = pytest.mark.skipif(
    os.geteuid() != 0, reason="raw sockets need root")


@needs_root
def test_loopback_icmp_probe():
    try:
        with RawTransport(protocol="icmp", timeout_s=2.0) as transport:
            reply = transport.probe("127.0.0.1", 8)
    except TransportUnavailableError:
        pytest.skip("raw sockets unavailable in this environment")
    assert reply is not None
    assert reply.responder == "127.0.0.1"
    assert reply.rtt_us > 0


@needs_root
def test_loopback_clock_is_monotonic():
    try:
        transport = RawTransport()
    except TransportUnavailableError:
        pytest.skip("raw sockets unavailable in this environment")
    with transport:
        t0 = transport.now_ms()
        transport.sleep_until_ms(t0 + 20)
        assert transport.now_ms() >= t0 + 20



# ------------------------------------------------- concurrent transports

class SharedIcmpWire:
    """Stands in for the network and the kernel.  Every probe draws an ICMP
    error from router ``10.<last octet of target>.0.<ttl>`` (time exceeded
    for icmp, port unreachable for udp) and, as with raw sockets, every raw
    ICMP socket of the process receives a copy of every message.  With
    ``decoy`` set, each error is preceded by one from ``decoy``'s router
    that quotes the same probe as sent to ``decoy``.  Ports in ``udp_ports_taken`` cannot be bound."""

    def __init__(self, decoy=None, udp_ports_taken=()):
        self.raw_sockets = []
        self.sent = []  # (target, the ICMP echo or UDP datagram) per probe
        self.decoy = decoy
        self.udp_ports_taken = set(udp_ports_taken)

    def raw_socket(self, *_):
        sock = FakeRawSocket(self)
        self.raw_sockets.append(sock)
        return sock

    def udp_socket(self, *_):
        return FakeUdpSocket(self)

    def answer(self, probe, target, ttl, proto):
        self.sent.append((target, probe))
        head = (ICMP_TIME_EXCEEDED, 0) if proto == socket.IPPROTO_ICMP else (ICMP_DEST_UNREACH, 3)
        for dst in ([self.decoy] if self.decoy else []) + [target]:
            router = f"10.{dst.rsplit('.', 1)[1]}.0.{ttl}"
            message = (ipv4_header(socket.IPPROTO_ICMP)
                       + struct.pack("!BBHHH", *head, 0, 0, 0)
                       + ipv4_header(proto, dst=dst) + probe)
            for sock in self.raw_sockets:
                sock.deliver(message, (router, 0))


class FakeRawSocket:
    """A raw ICMP socket on a SharedIcmpWire; a pipe makes it selectable."""

    def __init__(self, wire):
        self.wire, self.inbox, self.ttl = wire, [], None
        self._r, self._w = os.pipe()

    def fileno(self):
        return self._r

    def deliver(self, message, source):
        self.inbox.append((message, source))
        os.write(self._w, b"x")

    def setsockopt(self, level, option, value):
        self.ttl = value

    def sendto(self, packet, address):
        self.wire.answer(packet, address[0], self.ttl, socket.IPPROTO_ICMP)

    def recvfrom(self, _size):
        os.read(self._r, 1)
        return self.inbox.pop(0)

    def close(self):
        os.close(self._r)
        os.close(self._w)


class FakeUdpSocket:
    """A UDP socket on a SharedIcmpWire; sendto on an unbound one binds
    the lowest free port from 40000."""

    def __init__(self, wire):
        self.wire, self.ttl, self.port = wire, None, None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.wire.udp_ports_taken.discard(self.port)

    def setsockopt(self, level, option, value):
        self.ttl = value

    def bind(self, address):
        if address[1] in self.wire.udp_ports_taken:
            raise OSError(errno.EADDRINUSE, "Address already in use")
        self.port = address[1]
        self.wire.udp_ports_taken.add(self.port)

    def getsockname(self):
        return ("0.0.0.0", self.port)

    def sendto(self, payload, address):
        if self.port is None:
            self.bind(("", min(set(range(40000, 40100)) - self.wire.udp_ports_taken)))
        datagram = struct.pack("!HHHH", self.port, address[1], 8 + len(payload), 0)
        self.wire.answer(datagram + payload, address[0], self.ttl, socket.IPPROTO_UDP)


@pytest.fixture
def on_wire(monkeypatch):
    """Route RawTransport's sockets onto a SharedIcmpWire built from kwargs."""
    def attach(**kwargs):
        wire = SharedIcmpWire(**kwargs)
        monkeypatch.setattr(RawTransport, "_open_raw", staticmethod(wire.raw_socket))
        module = types.SimpleNamespace(**vars(socket))
        module.socket = wire.udp_socket
        monkeypatch.setattr(rawnet, "socket", module)
        return wire
    return attach


@pytest.mark.parametrize("protocol", ["icmp", "udp"])
def test_concurrent_transports_reject_each_others_replies(on_wire, protocol):
    on_wire()
    a, b = (RawTransport(protocol=protocol, timeout_s=0.2) for _ in range(2))
    # each probe's error reaches both sockets, so each transport finds the
    # other's reply queued ahead of its own
    replies = [(t.probe(target, 3), router)
               for t, target, router in [(a, "192.0.2.1", "10.1.0.3"),
                                         (b, "192.0.2.2", "10.2.0.3"),
                                         (a, "192.0.2.1", "10.1.0.3"),
                                         (b, "192.0.2.2", "10.2.0.3")]]
    a.close()
    b.close()
    assert [reply.responder for reply, _ in replies] == [router for _, router in replies]


@pytest.mark.parametrize("protocol", ["icmp", "udp"])
def test_error_quoting_another_destination_is_rejected(on_wire, protocol):
    on_wire(decoy="192.0.2.77")
    with RawTransport(protocol=protocol, timeout_s=0.2) as transport:
        reply = transport.probe("192.0.2.1", 4)
    assert reply.responder == "10.1.0.4"


def test_udp_probe_matches_the_port_it_was_given(on_wire):
    # with every flow port taken, the kernel picks the source port
    on_wire(udp_ports_taken=range(33000, 33512))
    with RawTransport(protocol="udp", timeout_s=0.2) as transport:
        reply = transport.probe("192.0.2.1", 2)
    assert reply is not None
    assert reply.responder == "10.1.0.2"


# the header fields a per-flow balancer hashes: ICMP checksum and
# identifier, or the UDP source port
FLOW_FIELDS = {"icmp": lambda echo: (echo[2:4], echo[4:6]),
               "udp": lambda datagram: (datagram[0:2],)}


@pytest.mark.parametrize("protocol", ["icmp", "udp"])
def test_each_transport_keeps_one_flow_on_the_wire(on_wire, protocol):
    wire = on_wire()
    targets = ("192.0.2.1", "192.0.2.2")
    with RawTransport(protocol=protocol, timeout_s=0.2) as a, \
            RawTransport(protocol=protocol, timeout_s=0.2) as b:
        with ThreadPoolExecutor(2) as pool:
            traces = list(pool.map(lambda job: run_traceroute(*job, max_ttl=4),
                                   zip((a, b), targets)))
    assert [len(t.hops) for t in traces] == [4, 4]
    flows = [{FLOW_FIELDS[protocol](probe) for target, probe in wire.sent if target == t}
             for t in targets]
    assert [sum(target == t for target, _ in wire.sent) for t in targets] == [12, 12]
    # one flow per transport over its whole ramp, and not the other's
    [flow_a], [flow_b] = flows
    assert all(x != y for x, y in zip(flow_a, flow_b))
