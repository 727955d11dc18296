"""Seeded random GMF flow-set generation for synthetic sweeps.

The acceptance-ratio experiment (E5) needs flow sets at a controlled
*offered utilisation*.  The classic recipe from schedulability
evaluation is UUniFast (Bini & Buttazzo): split a total utilisation
uniformly at random over ``n`` flows; here each flow's share is then
realised as a random GMF cycle (random frame count, separations and
payload mix) routed over random host pairs of a topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.packetization import packet_wire_bits
from repro.model.flow import Flow
from repro.model.gmf import GmfSpec
from repro.model.network import Network, NodeKind
from repro.model.routing import RouteError, shortest_route


def uunifast(rng: np.random.Generator, n: int, total: float) -> list[float]:
    """UUniFast: ``n`` utilisations summing to ``total``, uniform over
    the simplex.  Standard generator for schedulability experiments."""
    if n < 1:
        raise ValueError("need at least one task")
    if total < 0:
        raise ValueError("total utilisation must be >= 0")
    utils: list[float] = []
    remaining = total
    for i in range(1, n):
        nxt = remaining * rng.random() ** (1.0 / (n - i))
        utils.append(remaining - nxt)
        remaining = nxt
    utils.append(remaining)
    return utils


@dataclass(frozen=True)
class RandomFlowConfig:
    """Shape parameters of random GMF flows.

    Attributes
    ----------
    n_frames_range:
        Inclusive range of GMF cycle lengths.
    separation_range:
        Inclusive range (seconds) each ``T_i^k`` is drawn from
        (log-uniform).
    burstiness:
        Ratio between the largest and smallest payload within a flow's
        cycle (1.0 = all frames equal; MPEG-like streams are ~8-10).
        Payload sizes are scaled afterwards to hit the flow's
        utilisation share.
    deadline_factor_range:
        Deadline = factor * TSUM, factor drawn uniformly from this range.
    jitter_fraction:
        ``GJ_i^k = jitter_fraction * T_i^k``.
    priority_levels:
        Flows get random priorities in ``0..priority_levels-1``.
    """

    n_frames_range: tuple[int, int] = (1, 8)
    separation_range: tuple[float, float] = (5e-3, 50e-3)
    burstiness: float = 8.0
    deadline_factor_range: tuple[float, float] = (0.5, 2.0)
    jitter_fraction: float = 0.05
    priority_levels: int = 8

    def __post_init__(self) -> None:
        lo, hi = self.n_frames_range
        if not (1 <= lo <= hi):
            raise ValueError("invalid n_frames_range")
        if self.burstiness < 1.0:
            raise ValueError("burstiness must be >= 1")
        if self.priority_levels < 1:
            raise ValueError("need at least one priority level")


def _random_spec(
    rng: np.random.Generator,
    cfg: RandomFlowConfig,
    *,
    utilization: float,
    linkspeed_bps: float,
) -> GmfSpec:
    """One random GMF spec whose CSUM/TSUM on ``linkspeed`` is close to
    (and at most) ``utilization``.

    Payload sizes are drawn with the configured burstiness and scaled so
    the *wire* utilisation (including per-fragment overheads) matches;
    because overheads quantise, the scale is found by a short bisection
    and rounded down (never exceeding the requested share).
    """
    lo, hi = cfg.n_frames_range
    n = int(rng.integers(lo, hi + 1))
    seps = np.exp(
        rng.uniform(
            math.log(cfg.separation_range[0]),
            math.log(cfg.separation_range[1]),
            size=n,
        )
    )
    tsum = float(seps.sum())
    # Relative payload mix with the requested burstiness.
    mix = rng.uniform(1.0, cfg.burstiness, size=n)
    mix[int(rng.integers(0, n))] = cfg.burstiness  # ensure the ratio exists
    mix /= mix.sum()

    budget_bits = utilization * tsum * linkspeed_bps  # wire bits per cycle
    # Python floats multiply to the same doubles as numpy scalars, faster.
    shares = mix.tolist()
    # Once the scale moves by less than a bit per frame, rounds repeat
    # their payloads: each distinct payload is priced once.
    priced: dict[int, int] = {}

    def wire_bits(scale: float) -> int:
        total = 0
        for share in shares:
            payload = int(share * scale)
            if payload < 64:
                payload = 64
            wire = priced.get(payload)
            if wire is None:
                wire = priced[payload] = packet_wire_bits(payload)
            total += wire
        return total

    # Bisection on the total payload scale.  A round that moves neither
    # end is repeated exactly by every later one, so it ends the search.
    lo_s, hi_s = 1.0, max(2.0, budget_bits)
    for _ in range(60):
        mid = 0.5 * (lo_s + hi_s)
        if wire_bits(mid) <= budget_bits:
            if mid == lo_s:
                break
            lo_s = mid
        elif mid == hi_s:
            break
        else:
            hi_s = mid
    scale = lo_s

    payloads = tuple(max(64, int(share * scale)) for share in shares)
    deadline_factor = rng.uniform(*cfg.deadline_factor_range)
    deadline = max(1e-4, deadline_factor * tsum)
    return GmfSpec(
        min_separations=tuple(float(t) for t in seps),
        deadlines=(deadline,) * n,
        jitters=tuple(float(cfg.jitter_fraction * t) for t in seps),
        payload_bits=payloads,
    )


def random_flow_set(
    network: Network,
    *,
    n_flows: int,
    total_utilization: float,
    seed: int = 0,
    config: RandomFlowConfig | None = None,
    name_prefix: str = "rf",
) -> list[Flow]:
    """Random GMF flows over random host pairs at a target utilisation.

    ``total_utilization`` is interpreted per the *slowest link on each
    flow's route*: each flow's CSUM/TSUM share (UUniFast) is realised on
    that link speed, so the most loaded link of the network carries at
    most roughly ``total_utilization``.  Flows are routed on shortest
    paths between distinct random end hosts (or routers).
    """
    rng = np.random.default_rng(seed)
    cfg = config or RandomFlowConfig()
    endpoints = [
        n.name
        for n in network.nodes()
        if n.kind in (NodeKind.ENDHOST, NodeKind.ROUTER)
    ]
    if len(endpoints) < 2:
        raise ValueError("topology needs at least two route endpoints")

    shares = uunifast(rng, n_flows, total_utilization)
    flows: list[Flow] = []
    for i, share in enumerate(shares):
        for _attempt in range(100):
            src, dst = rng.choice(endpoints, size=2, replace=False)
            try:
                route = shortest_route(network, str(src), str(dst))
                break
            except RouteError:
                continue
        else:
            raise RouteError("could not find a routable host pair")
        slowest = min(
            network.linkspeed(a, b) for a, b in zip(route, route[1:])
        )
        spec = _random_spec(
            rng, cfg, utilization=max(share, 1e-6), linkspeed_bps=slowest
        )
        flows.append(
            Flow(
                name=f"{name_prefix}{i}",
                spec=spec,
                route=route,
                priority=int(rng.integers(0, cfg.priority_levels)),
            )
        )
    return flows
