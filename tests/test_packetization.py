"""Sec. 3.1 packetization: nbits, fragmentation, C, MFT."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packetization import (
    DEFAULT_CONFIG,
    ETH_DATA_BITS,
    ETH_MAX_WIRE_BITS,
    ETH_MIN_WIRE_BITS,
    ETH_WIRE_OVERHEAD_BITS,
    IP_HEADER_BITS,
    RTP_HEADER_BITS,
    STRICT_CONFIG,
    UDP_HEADER_BITS,
    PacketizationConfig,
    eth_frame_count,
    max_frame_transmission_time,
    max_payload_per_udp_packet,
    packet_wire_bits,
    packetize,
    transmission_time,
    udp_packet_bits,
)
from repro.model.flow import Transport


class TestWireConstants:
    def test_paper_constants(self):
        """Sec. 3.1: 12304-bit max frame, 11840 data bits, 304 overhead."""
        assert ETH_MAX_WIRE_BITS == 12304
        assert ETH_DATA_BITS == 11840
        assert ETH_WIRE_OVERHEAD_BITS == 304
        assert IP_HEADER_BITS == 160


class TestUdpPacketBits:
    def test_byte_rounding_plus_udp_header(self):
        """nbits = ceil(S/8)*8 + 64 (Sec. 3.1 first formula)."""
        assert udp_packet_bits(100) == 104 + 64

    def test_exact_bytes(self):
        assert udp_packet_bits(800) == 800 + 64

    def test_rtp_adds_16_bytes(self):
        """Second formula: RTP adds 16*8 bits."""
        assert udp_packet_bits(800, Transport.RTP) == 800 + 64 + 128

    def test_zero_payload_rejected(self):
        with pytest.raises(ValueError):
            udp_packet_bits(0)


class TestFragmentation:
    def test_small_packet_single_fragment(self):
        p = packetize(1000)
        assert p.n_eth_frames == 1

    def test_exact_fill_boundary(self):
        """Payload exactly filling one Ethernet frame of data."""
        payload = ETH_DATA_BITS - 64  # room for the UDP header
        p = packetize(payload)
        assert p.n_eth_frames == 1
        assert p.fragment_wire_bits == (ETH_MAX_WIRE_BITS,)

    def test_one_bit_over_boundary_adds_fragment(self):
        payload = ETH_DATA_BITS - 64 + 8  # one byte too big
        p = packetize(payload)
        assert p.n_eth_frames == 2

    def test_full_fragments_are_max_size(self):
        p = packetize(50_000)
        assert all(b == ETH_MAX_WIRE_BITS for b in p.fragment_wire_bits[:-1])

    def test_remainder_has_ip_header_and_overhead(self):
        payload = ETH_DATA_BITS - 64 + 8 * 100  # remainder 800 bits
        p = packetize(payload)
        assert p.fragment_wire_bits[-1] == 800 + 160 + 304

    def test_minimum_frame_padding(self):
        """A tiny remainder is padded to the 64-byte Ethernet minimum."""
        payload = ETH_DATA_BITS - 64 + 8  # remainder 8 bits
        p = packetize(payload)
        assert p.fragment_wire_bits[-1] == ETH_MIN_WIRE_BITS

    def test_strict_paper_remainder(self):
        """strict_paper reproduces the printed `rem + 304` formula."""
        payload = ETH_DATA_BITS - 64 + 8
        p = packetize(payload, config=STRICT_CONFIG)
        assert p.fragment_wire_bits[-1] == 8 + 304

    def test_strict_never_larger_than_corrected(self):
        for payload in (100, 5_000, 11_776, 11_777, 40_000, 123_456):
            strict = packetize(payload, config=STRICT_CONFIG).wire_bits
            corrected = packetize(payload, config=DEFAULT_CONFIG).wire_bits
            assert strict <= corrected

    def test_eth_frame_count_matches_packetize(self):
        for payload in (64, 1000, 11_776, 11_777, 40_000, 200_000):
            assert eth_frame_count(payload) == packetize(payload).n_eth_frames


class TestTransmissionTime:
    def test_c_is_wire_bits_over_speed(self):
        p = packetize(40_000)
        assert p.transmission_time(1e7) == pytest.approx(p.wire_bits / 1e7)

    def test_paper_example_speed(self):
        """Sec. 3.1 uses linkspeed(0,4) = 10^7 bit/s."""
        c = transmission_time(16_000, 1e7)
        # 16000 payload + 64 UDP -> 2 fragments.
        p = packetize(16_000)
        assert p.n_eth_frames == 2
        assert c == pytest.approx(p.wire_bits / 1e7)

    def test_fragment_times_sum_to_c(self):
        p = packetize(120_000)
        assert sum(p.fragment_times(1e8)) == pytest.approx(
            p.transmission_time(1e8)
        )

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            packetize(1000).transmission_time(0)


class TestMft:
    def test_mft_formula(self):
        """Eq. 1: MFT = 12304 / linkspeed."""
        assert max_frame_transmission_time(1e7) == pytest.approx(1.2304e-3)

    def test_mft_gigabit(self):
        assert max_frame_transmission_time(1e9) == pytest.approx(12.304e-6)

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            max_frame_transmission_time(-1)

    def test_no_fragment_exceeds_mft(self):
        for payload in (100, 11_000, 11_777, 99_999):
            p = packetize(payload)
            assert max(p.fragment_wire_bits) <= ETH_MAX_WIRE_BITS


class TestProperties:
    @given(payload=st.integers(1, 10**6))
    @settings(max_examples=200)
    def test_invariants(self, payload):
        p = packetize(payload)
        # Fragment count matches ceil of transport bits over frame data.
        assert p.n_eth_frames == math.ceil(p.udp_bits / ETH_DATA_BITS)
        # Wire bits at least the transport bits, at most frames * max.
        assert p.wire_bits >= p.udp_bits
        assert p.wire_bits <= p.n_eth_frames * ETH_MAX_WIRE_BITS
        # Every fragment within [min wire, max wire].
        for b in p.fragment_wire_bits:
            assert ETH_MIN_WIRE_BITS <= b <= ETH_MAX_WIRE_BITS

    @given(payload=st.integers(1, 10**6))
    @settings(max_examples=100)
    def test_monotone_in_payload(self, payload):
        a = packetize(payload).wire_bits
        b = packetize(payload + 8).wire_bits
        assert b >= a

    @given(payload=st.integers(1, 10**5))
    @settings(max_examples=100)
    def test_rtp_at_least_udp(self, payload):
        assert (
            packetize(payload, Transport.RTP).wire_bits
            >= packetize(payload, Transport.UDP).wire_bits
        )

    def test_max_payload_single_frame(self):
        payload = max_payload_per_udp_packet()
        assert packetize(payload).n_eth_frames == 1
        assert packetize(payload + 8).n_eth_frames == 2


#: Payloads within 8 bits of a fragment boundary: ``k * 11840`` of
#: payload, or of UDP (+ RTP) packet bits.
_BOUNDARY_PAYLOADS = st.builds(
    lambda k, header, delta: max(1, k * ETH_DATA_BITS - header + delta),
    st.integers(1, 10**8 // ETH_DATA_BITS),
    st.sampled_from((0, UDP_HEADER_BITS, UDP_HEADER_BITS + RTP_HEADER_BITS)),
    st.integers(-8, 8),
)


class TestClosedForm:
    """``packet_wire_bits`` and ``eth_frame_count`` price a packet
    without building its fragments; they must agree with them."""

    @given(
        payload=st.one_of(st.integers(1, 10**8), _BOUNDARY_PAYLOADS),
        transport=st.sampled_from(list(Transport)),
        config=st.sampled_from((DEFAULT_CONFIG, STRICT_CONFIG)),
    )
    @settings(max_examples=500)
    def test_matches_fragments(self, payload, transport, config):
        p = packetize(payload, transport, config)
        wire = packet_wire_bits(payload, transport, config)
        assert wire == p.wire_bits == sum(p.fragment_wire_bits)
        assert eth_frame_count(payload, transport) == p.n_eth_frames
        assert transmission_time(payload, 1e7, transport, config) == (
            p.transmission_time(1e7)
        )
