"""Frame-release processes at source nodes.

A GMF flow specifies only *minimum* separations ``T_i^k``; how the
source actually releases frames is a policy.  The policies here cover
the spectrum the validation experiments need:

* :class:`EagerRelease` — every separation exactly at its minimum (the
  densest legal arrival pattern; the adversarial default for bound
  validation);
* :class:`PeriodicRelease` — separations scaled by a slack factor
  ``>= 1`` (steady under-utilised sources);
* :class:`RandomRelease` — separations inflated by random slack drawn
  reproducibly from a seeded RNG (realistic bursty-but-legal traffic).

Within one frame, the UDP packet's Ethernet fragments are released over
the generalized-jitter window ``[t, t + GJ_i^k)`` according to a jitter
policy:

* :class:`BurstJitterPolicy` — all fragments at ``t`` (no spread);
* :class:`SpreadJitterPolicy` — fragments spaced evenly with the last
  one approaching the window's end (maximally stretched release).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

import numpy as np

from repro.model.gmf import GmfSpec


class ReleasePolicy(Protocol):
    """Produces the absolute arrival times of a flow's frame sequence."""

    def arrivals(self, spec: GmfSpec, until: float) -> Iterator[tuple[float, int]]:
        """Yield ``(arrival_time, frame_index)`` pairs up to ``until``."""
        ...


@dataclass(frozen=True)
class EagerRelease:
    """Release every frame exactly at its minimum separation.

    ``phase`` shifts the first arrival; ``start_frame`` rotates which
    frame of the GMF cycle arrives first (the GMF model leaves this
    free, and analyses must hold for every rotation).
    """

    phase: float = 0.0
    start_frame: int = 0

    def arrivals(self, spec: GmfSpec, until: float) -> Iterator[tuple[float, int]]:
        t = self.phase
        k = self.start_frame % spec.n_frames
        while t <= until:
            yield (t, k)
            t += spec.min_separations[k]
            k = (k + 1) % spec.n_frames


@dataclass(frozen=True)
class PeriodicRelease:
    """Separations scaled by a constant ``slack_factor >= 1``."""

    slack_factor: float = 1.0
    phase: float = 0.0
    start_frame: int = 0

    def __post_init__(self) -> None:
        if self.slack_factor < 1.0:
            raise ValueError(
                "slack_factor must be >= 1 (below 1 violates the GMF "
                "minimum separations)"
            )

    def arrivals(self, spec: GmfSpec, until: float) -> Iterator[tuple[float, int]]:
        t = self.phase
        k = self.start_frame % spec.n_frames
        while t <= until:
            yield (t, k)
            t += spec.min_separations[k] * self.slack_factor
            k = (k + 1) % spec.n_frames


@dataclass(frozen=True)
class RandomRelease:
    """Separations inflated by random slack: ``T * (1 + U[0, spread])``.

    Seeded, so simulations are reproducible.  ``spread = 0`` degenerates
    to :class:`EagerRelease`.
    """

    seed: int = 0
    spread: float = 0.5
    phase: float = 0.0
    start_frame: int = 0

    def __post_init__(self) -> None:
        if self.spread < 0:
            raise ValueError("spread must be >= 0")

    def arrivals(self, spec: GmfSpec, until: float) -> Iterator[tuple[float, int]]:
        rng = np.random.default_rng(self.seed)
        t = self.phase
        k = self.start_frame % spec.n_frames
        while t <= until:
            yield (t, k)
            slack = 1.0 + rng.uniform(0.0, self.spread)
            t += spec.min_separations[k] * slack
            k = (k + 1) % spec.n_frames


# ----------------------------------------------------------------------
# Generalized-jitter policies: fragment offsets within [t, t + GJ)
# ----------------------------------------------------------------------
class JitterPolicy(Protocol):
    """Places a packet's fragments inside its generalized-jitter window.

    ``offsets`` must be a pure function of ``(n_fragments, jitter)``:
    the simulator evaluates it once per frame class and reuses the
    offsets for every arrival of that class.
    """

    def offsets(self, n_fragments: int, jitter: float) -> Sequence[float]:
        ...


@dataclass(frozen=True)
class BurstJitterPolicy:
    """All Ethernet fragments released together at the frame arrival."""

    def offsets(self, n_fragments: int, jitter: float) -> Sequence[float]:
        return [0.0] * n_fragments


@dataclass(frozen=True)
class SpreadJitterPolicy:
    """Fragments spread across the window, first at 0, last near ``GJ``.

    The paper defines the window as half-open ``[t, t + GJ)``; the last
    fragment is placed at ``GJ * (F-1)/F`` so releases stay inside it.
    """

    def offsets(self, n_fragments: int, jitter: float) -> Sequence[float]:
        if n_fragments == 1 or jitter <= 0.0:
            return [0.0] * n_fragments
        return [jitter * i / n_fragments for i in range(n_fragments)]
