"""MPEG video traffic as GMF flows (the paper's Fig. 3 example).

An MPEG group of pictures (GoP) such as ``IBBPBBPBB`` is transmitted in
decode order: the I- and first P-frame go out together ("I+P" in
Fig. 3), then the stream alternates B/P frames every frame time (30 ms
in the figure).  Frame sizes differ wildly between I, P and B frames —
exactly what the GMF model expresses and the sporadic model cannot.

The scan of the paper does not preserve Fig. 4's per-frame byte sizes,
so :func:`paper_fig3_spec` uses canonical MPEG-1 frame sizes
documented below; the recoverable values (``TSUM = 270 ms`` for
the 9-frame GoP at 30 ms) are matched exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.model.flow import Flow, Transport
from repro.model.gmf import GmfSpec
from repro.util.units import ms

#: Canonical frame payload sizes (bits) used for the Fig. 3/4 example:
#: a ~1.5 Mbit/s MPEG-1 stream.  The first entry is the "I+P" pair.
DEFAULT_I_BITS = 120_000
DEFAULT_P_BITS = 48_000
DEFAULT_B_BITS = 16_000


@dataclass(frozen=True)
class MpegGopPattern:
    """A GoP structure in *transmission order*.

    ``pattern`` is a string over ``{"I", "P", "B"}``; the paper's
    Fig. 3 sequence IBBPBBPBB is transmitted as
    ``(I+P) B B P B B (P?) ...`` — use :func:`paper_fig3_pattern` for
    that exact example.  Each character becomes one GMF frame.
    """

    pattern: str
    frame_time: float
    i_bits: int = DEFAULT_I_BITS
    p_bits: int = DEFAULT_P_BITS
    b_bits: int = DEFAULT_B_BITS

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("empty GoP pattern")
        bad = set(self.pattern) - set("IPBX")
        if bad:
            raise ValueError(f"unknown frame types {bad!r} (use I/P/B/X)")
        if self.frame_time <= 0:
            raise ValueError("frame_time must be positive")

    def payload_bits(self) -> tuple[int, ...]:
        """Per-GMF-frame payload sizes; ``X`` means I+P sent together."""
        sizes = {
            "I": self.i_bits,
            "P": self.p_bits,
            "B": self.b_bits,
            "X": self.i_bits + self.p_bits,  # the Fig. 3 "I+P" packet
        }
        return tuple(sizes[c] for c in self.pattern)


def paper_fig3_pattern(frame_time: float = ms(30)) -> MpegGopPattern:
    """The paper's Fig. 3 transmission order for the IBBPBBPBB GoP.

    Because B frames reference the *next* I/P frame, decode order sends
    the I frame together with the first P frame ("I+P" in Fig. 3),
    giving nine transmitted UDP packets per GoP:
    ``X B B P B B P B B`` with ``X = I+P``, one every 30 ms.
    """
    return MpegGopPattern(pattern="XBBPBBPBB", frame_time=frame_time)


def mpeg_gop_spec(
    gop: MpegGopPattern,
    *,
    deadline: float,
    jitter: float = 0.0,
) -> GmfSpec:
    """Build the GMF spec of an MPEG GoP stream.

    One GMF frame per transmitted packet, all separated by the constant
    frame time; shared end-to-end deadline and generalized jitter.
    """
    n = len(gop.pattern)
    return GmfSpec(
        min_separations=(gop.frame_time,) * n,
        deadlines=(deadline,) * n,
        jitters=(jitter,) * n,
        payload_bits=gop.payload_bits(),
    )


def paper_fig3_spec(
    *,
    deadline: float = ms(100),
    jitter: float = ms(1),
    frame_time: float = ms(30),
) -> GmfSpec:
    """The Fig. 3/4 example flow: IBBPBBPBB at 30 ms, 1 ms jitter.

    ``TSUM`` is exactly ``9 * 30 ms = 270 ms`` — the value the paper
    reports for Eq. 6 on this example.
    """
    return mpeg_gop_spec(
        paper_fig3_pattern(frame_time), deadline=deadline, jitter=jitter
    )


def paper_fig3_flow(
    route: Sequence[str],
    *,
    name: str = "mpeg",
    priority: int = 5,
    deadline: float = ms(100),
    jitter: float = ms(1),
    transport: Transport = Transport.UDP,
) -> Flow:
    """The Fig. 2 flow (source 0 → switches 4, 6 → destination 3)."""
    return Flow(
        name=name,
        spec=paper_fig3_spec(deadline=deadline, jitter=jitter),
        route=tuple(route),
        priority=priority,
        transport=transport,
    )
