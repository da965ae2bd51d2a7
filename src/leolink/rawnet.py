"""Raw-socket probe transport for live paths.

Implements the probe contract from :mod:`leolink.probe` on top of real
sockets.  A transport takes its protocol and timeout when it is made,
and its instance number is its flow: every probe it sends carries that
flow's header fields.  Three probe protocols:

* ``icmp``: raw ICMP echo with the TTL pinned.  The echo sequence
  number varies per probe while a balance field in the payload keeps
  the ICMP checksum constant per flow, so per-flow load balancers
  (which hash type/code/checksum for ICMP) keep the path stable across
  a TTL ramp.
* ``udp``: a datagram with pinned TTL and a constant port pair per
  flow; replies arrive as ICMP errors on the raw socket.  A port
  unreachable means the probe reached the target host.
* ``tcp``: a connect attempt with pinned TTL.  SYN-ACK or RST both
  prove the target was reached; mid-path expiries surface through the
  kernel error queue, which carries the reporting router's address.
  This mode needs no raw socket.

ICMP and UDP modes need a raw ICMP socket (root or CAP_NET_RAW).  On
loopback the raw socket also sees our own outbound request, so the
receive loop filters by message type and echoes' identifiers before
matching.  One transport instance serves one probing thread; create a
transport per worker instead of sharing.  Every raw ICMP socket of the
process receives a copy of every ICMP message, so concurrent transports
keep apart by flow: each derives its echo identifier, ICMP checksum
and UDP source port from its own instance number, and a time-exceeded
or unreachable message only counts when the datagram it quotes was
addressed to the probe's target.

Packet builders, parsers and the ICMP/UDP receive paths are unit-tested,
the latter on fake sockets; a loopback test that needs root sends an echo.
"""
from __future__ import annotations

import errno
import itertools
import os
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Optional

from .probe import DEFAULT_PROBE_TIMEOUT_S, PROTOCOLS, ProbeReply, probe_each_tick

ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0
ICMP_DEST_UNREACH = 3
ICMP_TIME_EXCEEDED = 11
ICMP_PORT_UNREACH_CODE = 3

ICMP6_ECHO_REQUEST = 128
ICMP6_ECHO_REPLY = 129
ICMP6_TIME_EXCEEDED = 3
ICMP6_DEST_UNREACH = 1

# UDP probes use the classic traceroute destination port and a
# flow-derived source port, both held constant across a TTL ramp.
UDP_BASE_DST_PORT = 33434
TCP_DST_PORT = 443

PAYLOAD_LEN = 24  # bytes after the 8-byte ICMP header

# from linux/errqueue.h, for the tcp error-queue path
SO_EE_ORIGIN_ICMP = 2
IP_RECVERR = 11


class TransportUnavailableError(RuntimeError):
    """Raised when the needed socket cannot be created (privileges)."""


def _ones_sum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return total


def inet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement checksum."""
    return (~_ones_sum(data)) & 0xFFFF


def flow_checksum(flow_id: int) -> int:
    """Target ICMP checksum for a flow; nonzero and flow-stable."""
    return 0x8000 | (flow_id & 0x7FFF) | 0x0001


def flow_ident(flow_id: int) -> int:
    """ICMP identifier: distinguishes this process and flow."""
    return (os.getpid() & 0xFFFF) ^ ((flow_id * 0x9E37) & 0xFFFF)


def build_icmp_echo(ident: int, seq: int, flow_id: int,
                    payload_extra: bytes = b"") -> bytes:
    """Echo request whose checksum equals flow_checksum(flow_id).

    The last two payload bytes are a balance field chosen so the
    ones-complement sum cancels out to the per-flow target no matter
    what the sequence number or the rest of the payload holds.
    """
    target = flow_checksum(flow_id)
    payload = payload_extra[:PAYLOAD_LEN - 2]
    payload += b"\x00" * (PAYLOAD_LEN - 2 - len(payload))
    head = struct.pack("!BBHHH", ICMP_ECHO_REQUEST, 0, target,
                       ident & 0xFFFF, seq & 0xFFFF)
    # a valid packet's ones-complement sum is 0xFFFF; the balance field
    # absorbs whatever the variable parts contribute
    balance = (0xFFFF - _ones_sum(head + payload)) & 0xFFFF
    return head + payload + struct.pack("!H", balance)


@dataclass(frozen=True)
class ParsedIcmp:
    icmp_type: int
    code: int
    ident: Optional[int]        # echo id of ours, if recoverable
    seq: Optional[int]
    quoted_udp_ports: Optional[tuple[int, int]] = None
    quoted_dst: Optional[bytes] = None  # packed destination of the quoted datagram


def _parse_inner(icmp_type: int, code: int, inner: bytes) -> ParsedIcmp:
    """An ICMP error with our identifiers pulled out of the quoted
    original datagram."""
    if len(inner) < 20:
        return ParsedIcmp(icmp_type, code, ident=None, seq=None)
    ihl = (inner[0] & 0x0F) * 4
    proto = inner[9]
    dst = inner[16:20]
    body = inner[ihl:]
    if proto == socket.IPPROTO_ICMP and len(body) >= 8:
        _t, _c, _ck, ident, seq = struct.unpack("!BBHHH", body[:8])
        return ParsedIcmp(icmp_type, code, ident=ident, seq=seq, quoted_dst=dst)
    if proto == socket.IPPROTO_UDP and len(body) >= 4:
        ports = struct.unpack("!HH", body[:4])
        return ParsedIcmp(icmp_type, code, ident=None, seq=None,
                          quoted_udp_ports=ports, quoted_dst=dst)
    return ParsedIcmp(icmp_type, code, ident=None, seq=None, quoted_dst=dst)


def parse_icmp_v4(datagram: bytes) -> Optional[ParsedIcmp]:
    """Parse a raw AF_INET ICMP datagram (includes the IP header)."""
    if len(datagram) < 28:
        return None
    ihl = (datagram[0] & 0x0F) * 4
    icmp = datagram[ihl:]
    if len(icmp) < 8:
        return None
    icmp_type, code, _cksum, a, b = struct.unpack("!BBHHH", icmp[:8])
    if icmp_type == ICMP_ECHO_REPLY:
        return ParsedIcmp(icmp_type, code, ident=a, seq=b)
    if icmp_type in (ICMP_TIME_EXCEEDED, ICMP_DEST_UNREACH):
        return _parse_inner(icmp_type, code, icmp[8:])
    return None


def parse_icmp_v6(datagram: bytes) -> Optional[ParsedIcmp]:
    """Parse an AF_INET6 ICMPv6 datagram (no IP header included)."""
    if len(datagram) < 8:
        return None
    icmp_type, code, _cksum, a, b = struct.unpack("!BBHHH", datagram[:8])
    if icmp_type == ICMP6_ECHO_REPLY:
        return ParsedIcmp(icmp_type, code, ident=a, seq=b)
    if icmp_type in (ICMP6_TIME_EXCEEDED, ICMP6_DEST_UNREACH):
        inner = datagram[8:]
        # quoted IPv6 header is fixed 40 bytes; next header at offset 6,
        # destination at 24
        if len(inner) >= 48 and inner[6] == socket.IPPROTO_ICMPV6:
            _t, _c, _ck, ident, seq = struct.unpack("!BBHHH", inner[40:48])
            return ParsedIcmp(icmp_type, code, ident=ident, seq=seq,
                              quoted_dst=inner[24:40])
        return ParsedIcmp(icmp_type, code, ident=None, seq=None)
    return None


def udp_src_port(flow_id: int) -> int:
    return 33000 + (flow_id % 512)


# Odd, since flow_checksum forces bit 0 on: live transports get distinct
# identifiers and checksums up to 16,384 of them, source ports up to 256.
_instance_numbers = itertools.count(1, 2)
_instance_lock = threading.Lock()


def _receive(sock: socket.socket, parse, accept, t0: int,
             timeout_s: float) -> Optional[ProbeReply]:
    """The reply of the first packet read from sock whose parse ``accept``
    takes, or None once timeout_s has passed since t0 (ns)."""
    deadline = t0 + int(timeout_s * 1e9)
    while True:
        remaining = (deadline - time.monotonic_ns()) / 1e9
        if remaining <= 0:
            return None
        ready, _, _ = select.select([sock], [], [], remaining)
        if not ready:
            return None
        try:
            data, addr = sock.recvfrom(4096)
        except BlockingIOError:
            continue
        t1 = time.monotonic_ns()
        parsed = parse(data)
        if parsed is not None and accept(parsed):
            return ProbeReply(responder=addr[0], rtt_us=(t1 - t0) / 1000.0)


class RawTransport:
    """Live-network transport; one instance per probing thread."""

    def __init__(self, *, protocol: str = "icmp",
                 timeout_s: float = DEFAULT_PROBE_TIMEOUT_S) -> None:
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol: {protocol}")
        self.protocol = protocol
        self.timeout_s = timeout_s
        with _instance_lock:
            self._flow = next(_instance_numbers)
        self._seq = 0
        self.wrong_responders: dict[int, int] = {}
        self._icmp4: Optional[socket.socket] = None
        self._icmp6: Optional[socket.socket] = None

    # -- clock -----------------------------------------------------------
    def now_ms(self) -> int:
        return time.monotonic_ns() // 1_000_000

    def sleep_until_ms(self, t_ms: int) -> None:
        delta = (t_ms - self.now_ms()) / 1000.0
        if delta > 0:
            time.sleep(delta)

    # -- sockets ---------------------------------------------------------
    def _icmp_sock(self, family: int) -> socket.socket:
        if family == socket.AF_INET:
            if self._icmp4 is None:
                self._icmp4 = self._open_raw(socket.AF_INET, socket.IPPROTO_ICMP)
            return self._icmp4
        if self._icmp6 is None:
            self._icmp6 = self._open_raw(socket.AF_INET6, socket.IPPROTO_ICMPV6)
        return self._icmp6

    @staticmethod
    def _open_raw(family: int, proto: int) -> socket.socket:
        try:
            sock = socket.socket(family, socket.SOCK_RAW, proto)
        except PermissionError as exc:
            raise TransportUnavailableError(
                "raw ICMP socket needs root or CAP_NET_RAW") from exc
        sock.setblocking(False)
        return sock

    def close(self) -> None:
        for sock in (self._icmp4, self._icmp6):
            if sock is not None:
                sock.close()
        self._icmp4 = self._icmp6 = None

    def __enter__(self) -> "RawTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- probing ---------------------------------------------------------
    probe_ticks = probe_each_tick  # a session is one probe per hop per tick

    def probe(self, target: str, ttl: int) -> Optional[ProbeReply]:
        family = socket.AF_INET6 if ":" in target else socket.AF_INET
        if self.protocol == "icmp":
            return self._probe_icmp(target, family, ttl)
        if family == socket.AF_INET6:
            raise TransportUnavailableError(f"{self.protocol} probes are v4-only here")
        if self.protocol == "udp":
            return self._probe_udp(target, ttl)
        return self._probe_tcp(target, ttl)

    def _probe_icmp(self, target: str, family: int, ttl: int) -> Optional[ProbeReply]:
        sock = self._icmp_sock(family)
        if family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_TTL, ttl)
        else:
            sock.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_UNICAST_HOPS, ttl)
        seq = self._seq = (self._seq + 1) & 0xFFFF
        ident = flow_ident(self._flow)
        dst = socket.inet_pton(family, target)
        stamp = struct.pack("!Q", time.monotonic_ns() & (2**64 - 1))
        if family == socket.AF_INET:
            packet = build_icmp_echo(ident, seq, self._flow, payload_extra=stamp)
        else:
            # the v6 kernel fills the checksum; flow stability relies on
            # constant addresses and identifier instead of balancing
            packet = struct.pack("!BBHHH", ICMP6_ECHO_REQUEST, 0, 0,
                                 ident, seq) + stamp + b"\x00" * (PAYLOAD_LEN - 8)
        parse = parse_icmp_v4 if family == socket.AF_INET else parse_icmp_v6
        reply_type = ICMP_ECHO_REPLY if family == socket.AF_INET else ICMP6_ECHO_REPLY

        def ours(parsed: ParsedIcmp) -> bool:
            # not someone else's traffic, nor our own request echoed back,
            # nor an error about a probe to another target
            return (parsed.ident == ident and parsed.seq == seq
                    and (parsed.icmp_type == reply_type or parsed.quoted_dst == dst))

        t0 = time.monotonic_ns()
        sock.sendto(packet, (target, 0))
        # an echo reply, or an error naming the router where the path ends
        return _receive(sock, parse, ours, t0, self.timeout_s)

    def _probe_udp(self, target: str, ttl: int) -> Optional[ProbeReply]:
        icmp = self._icmp_sock(socket.AF_INET)
        dst = socket.inet_pton(socket.AF_INET, target)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
            udp.setsockopt(socket.IPPROTO_IP, socket.IP_TTL, ttl)
            try:
                udp.bind(("", udp_src_port(self._flow)))
            except OSError:
                pass  # port taken; sendto binds another, read back below
            t0 = time.monotonic_ns()
            udp.sendto(b"\x00" * 8, (target, UDP_BASE_DST_PORT))
            sport = udp.getsockname()[1]

            def ours(parsed: ParsedIcmp) -> bool:
                # an error quoting this datagram: time exceeded on the way,
                # or port unreachable from the target; other codes are ignored
                return (parsed.quoted_udp_ports == (sport, UDP_BASE_DST_PORT)
                        and parsed.quoted_dst == dst
                        and (parsed.icmp_type == ICMP_TIME_EXCEEDED
                             or (parsed.icmp_type == ICMP_DEST_UNREACH
                                 and parsed.code == ICMP_PORT_UNREACH_CODE)))

            return _receive(icmp, parse_icmp_v4, ours, t0, self.timeout_s)

    def _probe_tcp(self, target: str, ttl: int) -> Optional[ProbeReply]:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_TTL, ttl)
            sock.setsockopt(socket.IPPROTO_IP, IP_RECVERR, 1)
            sock.setblocking(False)
            t0 = time.monotonic_ns()
            rc = sock.connect_ex((target, TCP_DST_PORT))
            if rc not in (0, errno.EINPROGRESS):
                return None
            remaining = self.timeout_s - (time.monotonic_ns() - t0) / 1e9
            _, writable, _ = select.select([], [sock], [], max(remaining, 0.0))
            if not writable:
                return None
            rtt_us = (time.monotonic_ns() - t0) / 1000.0
            err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err == 0 or err == errno.ECONNREFUSED:
                # SYN-ACK or RST: the target answered either way
                return ProbeReply(responder=target, rtt_us=rtt_us)
            # an expiry on the way: the error queue names the reporting router
            responder = (err in (errno.EHOSTUNREACH, errno.ENETUNREACH)
                         and self._errqueue_offender(sock))
            if not responder:
                return None
            return ProbeReply(responder=responder, rtt_us=rtt_us)

    @staticmethod
    def _errqueue_offender(sock: socket.socket) -> Optional[str]:
        """Router that reported the ICMP error, from the error queue."""
        try:
            _, ancdata, _, _ = sock.recvmsg(0, 512, socket.MSG_ERRQUEUE)
        except OSError:
            return None
        for level, ctype, cdata in ancdata:
            if level == socket.IPPROTO_IP and ctype == IP_RECVERR:
                # struct sock_extended_err: errno u32, origin u8 at
                # offset 4; the offending sockaddr_in follows at 16
                if len(cdata) >= 16 + 8 and cdata[4] == SO_EE_ORIGIN_ICMP:
                    addr_bytes = cdata[16 + 4:16 + 8]
                    return socket.inet_ntoa(addr_bytes)
        return None
