"""Sec. 3.1 "Basic parameters": UDP packets on the Ethernet wire.

Derives, from a frame's payload size ``S_i^k`` (bits):

* ``nbits_i^k`` — the UDP packet size including transport headers;
* the fragmentation into Ethernet frames (IP fragmentation: every
  fragment carries an IP header, full fragments carry 1480 bytes of
  transport data);
* ``C_i^{k,link(s,d)}`` — the wire transmission time on a link of known
  bit rate, including all per-Ethernet-frame overheads;
* ``MFT(link)`` — Eq. 1, the maximum transmission time of a single
  Ethernet frame, the blocking term of the egress analysis.

Wire-format constants (paper values)::

    Ethernet payload        1500 bytes (of which 20 = IP header)
    Ethernet header           14 bytes
    CRC                        4 bytes
    preamble + SFD             8 bytes
    inter-frame gap           12 bytes
    -> max wire size       1538 bytes = 12304 bits
    -> transport data/frame 1480 bytes = 11840 bits

**OCR note**: the printed remainder-fragment cost adds
only 304 bits (Ethernet overhead) to the leftover transport bits; a real
last fragment also carries its own 160-bit IP header and is padded to the
64-byte Ethernet minimum.  The corrected model is the default;
``strict_paper=True`` reproduces the printed formula exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.model.flow import Transport

# Transport / network header sizes, bits.
UDP_HEADER_BITS = 8 * 8
RTP_HEADER_BITS = 16 * 8
IP_HEADER_BITS = 20 * 8

# Ethernet wire format, bits.
ETH_HEADER_BITS = 14 * 8
ETH_CRC_BITS = 4 * 8
ETH_PREAMBLE_BITS = 8 * 8
ETH_IFG_BITS = 12 * 8
#: Per-Ethernet-frame overhead outside the 1500-byte payload field.
ETH_WIRE_OVERHEAD_BITS = (
    ETH_HEADER_BITS + ETH_CRC_BITS + ETH_PREAMBLE_BITS + ETH_IFG_BITS
)  # = 304
#: Maximum size of one Ethernet frame on the wire (Sec. 3.1): 12304 bits.
ETH_MAX_WIRE_BITS = 1500 * 8 + ETH_WIRE_OVERHEAD_BITS
#: Transport-layer bits carried by one full Ethernet frame: 11840.
ETH_DATA_BITS = 1500 * 8 - IP_HEADER_BITS
#: Minimum wire size: 64-byte frame + preamble/SFD + IFG = 84 bytes.
ETH_MIN_WIRE_BITS = 64 * 8 + ETH_PREAMBLE_BITS + ETH_IFG_BITS

assert ETH_WIRE_OVERHEAD_BITS == 304
assert ETH_MAX_WIRE_BITS == 12304
assert ETH_DATA_BITS == 11840


@dataclass(frozen=True)
class PacketizationConfig:
    """Switches selecting the paper-literal vs corrected wire model.

    Attributes
    ----------
    strict_paper:
        When True, the remainder fragment costs ``rem + 304`` bits as
        printed in the paper (no IP header, no minimum-size padding).
        When False (default), it costs ``max(rem + 464, 672)`` bits.
    """

    strict_paper: bool = False

    def remainder_wire_bits(self, remainder_data_bits: int) -> int:
        """Wire cost of the last (partial) fragment of a UDP packet."""
        if remainder_data_bits <= 0:
            raise ValueError("remainder must be positive")
        if self.strict_paper:
            return remainder_data_bits + ETH_WIRE_OVERHEAD_BITS
        return max(
            remainder_data_bits + IP_HEADER_BITS + ETH_WIRE_OVERHEAD_BITS,
            ETH_MIN_WIRE_BITS,
        )


DEFAULT_CONFIG = PacketizationConfig()
STRICT_CONFIG = PacketizationConfig(strict_paper=True)


def udp_packet_bits(payload_bits: int, transport: Transport = Transport.UDP) -> int:
    """``nbits_i^k``: UDP packet size in bits including transport headers.

    The payload is rounded up to whole bytes (a UDP packet has an
    integral number of bytes), then the 8-byte UDP header — and for RTP
    flows the 16-byte RTP header — is added (Sec. 3.1 formulas).
    """
    if payload_bits <= 0:
        raise ValueError("payload must be positive")
    nbits = math.ceil(payload_bits / 8) * 8 + UDP_HEADER_BITS
    if transport is Transport.RTP:
        nbits += RTP_HEADER_BITS
    return nbits


@dataclass(frozen=True)
class Packetization:
    """Fragmentation of one UDP packet into Ethernet frames.

    ``fragment_wire_bits`` lists the wire cost of each Ethernet frame in
    transmission order; the simulator transmits exactly these sizes.
    ``wire_bits`` is their sum, priced in closed form by
    :func:`packet_wire_bits` (the analysis calls that and
    :func:`eth_frame_count` directly, without building the fragments).
    """

    udp_bits: int
    fragment_wire_bits: tuple[int, ...]
    #: Total bits occupying the wire for this UDP packet.
    wire_bits: int

    @property
    def n_eth_frames(self) -> int:
        """Number of Ethernet frames the packet fragments into."""
        return len(self.fragment_wire_bits)

    def transmission_time(self, linkspeed_bps: float) -> float:
        """``C_i^{k,link}``: wire time of the whole packet on a link."""
        if linkspeed_bps <= 0:
            raise ValueError("linkspeed must be positive")
        return self.wire_bits / linkspeed_bps

    def fragment_times(self, linkspeed_bps: float) -> tuple[float, ...]:
        """Per-Ethernet-frame transmission times on a link."""
        if linkspeed_bps <= 0:
            raise ValueError("linkspeed must be positive")
        return tuple(b / linkspeed_bps for b in self.fragment_wire_bits)


def packetize(
    payload_bits: int,
    transport: Transport = Transport.UDP,
    config: PacketizationConfig = DEFAULT_CONFIG,
) -> Packetization:
    """Fragment a UDP payload into Ethernet frames (Sec. 3.1).

    Full fragments carry ``ETH_DATA_BITS`` (11840) transport bits and
    cost ``ETH_MAX_WIRE_BITS`` (12304) on the wire; the remainder (if
    any) costs ``config.remainder_wire_bits(rem)``.

    >>> p = packetize(11840 * 2)   # exactly two full frames of data... plus header
    >>> p.n_eth_frames
    3
    """
    nbits = udp_packet_bits(payload_bits, transport)
    full, rem = divmod(nbits, ETH_DATA_BITS)
    fragments = [ETH_MAX_WIRE_BITS] * full
    if rem:
        fragments.append(config.remainder_wire_bits(rem))
    return Packetization(
        udp_bits=nbits,
        fragment_wire_bits=tuple(fragments),
        wire_bits=packet_wire_bits(payload_bits, transport, config),
    )


def packet_wire_bits(
    payload_bits: int,
    transport: Transport = Transport.UDP,
    config: PacketizationConfig = DEFAULT_CONFIG,
) -> int:
    """Total wire bits of one UDP packet, in closed form (Sec. 3.1).

    ``floor(nbits / 11840)`` full frames of 12304 bits plus the
    remainder fragment's ``config.remainder_wire_bits(rem)``: the sum
    of :func:`packetize`'s fragments without building them.
    """
    nbits = udp_packet_bits(payload_bits, transport)
    full, rem = divmod(nbits, ETH_DATA_BITS)
    if rem:
        return full * ETH_MAX_WIRE_BITS + config.remainder_wire_bits(rem)
    return full * ETH_MAX_WIRE_BITS


def transmission_time(
    payload_bits: int,
    linkspeed_bps: float,
    transport: Transport = Transport.UDP,
    config: PacketizationConfig = DEFAULT_CONFIG,
) -> float:
    """``C_i^{k,link(s,d)}`` directly from payload size and link speed."""
    wire_bits = packet_wire_bits(payload_bits, transport, config)
    if linkspeed_bps <= 0:
        raise ValueError("linkspeed must be positive")
    return wire_bits / linkspeed_bps


def eth_frame_count(
    payload_bits: int,
    transport: Transport = Transport.UDP,
) -> int:
    """Number of Ethernet frames of one UDP packet (``ceil(nbits/11840)``)."""
    full, rem = divmod(udp_packet_bits(payload_bits, transport), ETH_DATA_BITS)
    return full + 1 if rem else full


def max_frame_transmission_time(linkspeed_bps: float) -> float:
    """``MFT(link)`` (Eq. 1): ``12304 / linkspeed``."""
    if linkspeed_bps <= 0:
        raise ValueError("linkspeed must be positive")
    return ETH_MAX_WIRE_BITS / linkspeed_bps


def max_payload_per_udp_packet() -> int:
    """Largest UDP payload that still fits a single Ethernet frame (bits)."""
    return ETH_DATA_BITS - UDP_HEADER_BITS
