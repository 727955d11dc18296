"""Generic driver for the busy-period / response-time fixed points.

Every analysis in the paper (Eqs. 14-19, 21-26, 28-33 and the holistic
iteration of Sec. 3.5) is an iteration ``x_{v+1} = f(x_v)`` with a
monotone non-decreasing ``f`` started from a lower bound, stopped at the
first ``x_{v+1} == x_v``.  This module centralises convergence detection,
divergence cut-offs and iteration accounting so the analysis modules stay
equation-shaped.

Accelerated mode
----------------
Plain Picard iteration climbs the demand staircase one plateau at a
time, which near utilisation 1 means thousands of tiny steps.  The
recurrences here admit a *safeguarded* certified-floor acceleration
that keeps the result exact:

* The caller certifies an affine lower support ``f(t) >= rate*t +
  intercept`` for all ``t >= 0`` (a :class:`LinearLowerBound`).  For the
  paper's recurrences this is immediate: every ``MX``/``NX`` demand term
  is bounded below by its long-run rate (Eqs. 4-6), so ``rate`` is the
  summed utilisation of the interferer set and ``intercept`` collects
  the constant terms and jitter shifts.  No fixed point can lie below
  ``intercept / (1 - rate)`` — starting the iteration at that *floor*
  is sound and cannot overshoot the least fixed point, so the
  accelerated iteration converges to *the same* fixed point as plain
  Picard (the holistic engine relies on this for bit-identical
  results), skipping the entire staircase climb below the floor.
  Above the floor the iteration stays plain Picard: the staircases
  cross the diagonal more than once (exactly why the analyses examine
  several instances ``q``), so no extrapolation without a certificate
  could be trusted to stop at the *least* crossing.
* The floor is defended twice against certificate rounding: its shave
  scales with the ``1/(1-rate)`` error amplification (collapsing to a
  vacuous floor as ``rate`` approaches 1), and the first evaluation
  after a floor jump must not decrease — below the least fixed point a
  monotone ``f`` satisfies ``f(t) > t`` strictly, so any decrease
  proves an overshoot and the iteration restarts as plain Picard.
* ``rate >= 1`` with a positive intercept certifies ``f(t) > t``
  everywhere: the iteration cannot converge and is declared divergent
  immediately instead of crawling to the horizon.
* A certificate whose floor lies below the seed (a vacuous one, or a
  zero ``rate`` with an intercept no larger than the seed) leaves the
  iteration plain Picard: same iterates, same iteration count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro import telemetry as _telemetry
from repro.telemetry import tracing as _tracing


class FixedPointDiverged(RuntimeError):
    """Raised when a busy-period iteration exceeds its divergence bound.

    The paper's Eqs. 20/34/35 give utilisation conditions under which the
    iterations converge; outside them the iteration grows without bound and
    the flow set is deemed unschedulable.  Callers normally pre-check the
    utilisation condition, but the horizon/iteration caps here are the
    backstop for pathological inputs (e.g. utilisation exactly 1).
    """

    def __init__(self, message: str, last_value: float, iterations: int):
        super().__init__(message)
        self.last_value = last_value
        self.iterations = iterations


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a convergent fixed-point iteration.

    Attributes
    ----------
    value:
        The fixed point ``x`` with ``f(x) == x``.
    iterations:
        Number of applications of ``f`` that advanced the iterate (0
        when the seed was already a fixed point; the final confirming
        application that reproduces its input exactly is not counted).
    """

    value: float
    iterations: int


@dataclass(frozen=True)
class LinearLowerBound:
    """Certificate ``f(t) >= rate*t + intercept`` for all ``t >= 0``.

    Produced by the stage analyses from the interferer set's long-run
    demand rates; consumed by :func:`iterate_fixed_point` to bound the
    region that provably contains no fixed point (see module docstring).
    """

    rate: float
    intercept: float

    @property
    def floor(self) -> float:
        """Largest value certified to be <= the least fixed point.

        ``rate*t + intercept > t`` for every ``t`` below
        ``intercept / (1 - rate)``, so no fixed point exists there.
        Returns ``inf`` when ``rate >= 1`` and the intercept is positive
        (no fixed point exists at all) and ``0.0`` when the certificate
        is vacuous.
        """
        if self.intercept <= 0.0:
            return 0.0
        if self.rate >= 1.0:
            return math.inf
        # Shaved so that float rounding in the certificate (a summed
        # rate a few ulps above the staircase's true long-run slope)
        # cannot push the floor past the true least fixed point.  The
        # rounding error is amplified by 1/(1-rate), so the margin must
        # scale the same way; near rate 1 it reaches 1 and the floor
        # collapses to 0 (plain Picard — sound, just unaccelerated).
        slack = 1.0 - self.rate
        margin = min(1.0, 1e-10 / slack)
        return (self.intercept / slack) * (1.0 - margin)


def solve_cached(
    cache: dict,
    key: float,
    f: Callable[[float], float],
    *,
    seed: float,
    horizon: float = float("inf"),
    max_iterations: int = 0,
    what: str = "fixed point",
    accelerator: LinearLowerBound | None = None,
) -> float | None:
    """Memoized least-fixed-point solve; ``None`` records divergence.

    The stage analyses solve the same recurrence for many frames or
    instances that differ only in a seed/backlog value; this helper
    centralises the cache-or-solve pattern (and its divergence-as-None
    convention) they all share.  ``max_iterations <= 0`` means the
    module default.
    """
    reg = _telemetry.REGISTRY
    if key not in cache:
        if reg is not None:
            reg.add("engine.fixed_point.cache_misses")
        try:
            cache[key] = iterate_fixed_point(
                f,
                seed=seed,
                horizon=horizon,
                max_iterations=(
                    max_iterations
                    if max_iterations > 0
                    else DEFAULT_MAX_ITERATIONS
                ),
                what=what,
                accelerator=accelerator,
            ).value
        except FixedPointDiverged:
            cache[key] = None
    elif reg is not None:
        reg.add("engine.fixed_point.cache_hits")
    return cache[key]


#: Default cap on the number of iterations before declaring divergence.
DEFAULT_MAX_ITERATIONS = 100_000

#: Default relative tolerance used to declare convergence.  The recurrences
#: in this library are sums/products of floats, so exact equality is usually
#: reached, but a tolerance guards against last-bit oscillation.
DEFAULT_REL_TOL = 1e-12


def iterate_fixed_point(
    f: Callable[[float], float],
    seed: float,
    *,
    horizon: float = float("inf"),
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    rel_tol: float = DEFAULT_REL_TOL,
    what: str = "fixed point",
    accelerator: LinearLowerBound | None = None,
) -> FixedPointResult:
    """Iterate ``x <- f(x)`` from ``seed`` until convergence.

    Parameters
    ----------
    f:
        Monotone non-decreasing update function.
    seed:
        Starting value; must be a lower bound on the fixed point for the
        result to be the *least* fixed point (all callers guarantee this).
    horizon:
        Upper bound on ``x`` beyond which the iteration is declared
        divergent (e.g. the deadline or a busy-period cap).
    max_iterations:
        Hard cap on iterations, a backstop for slow growth near
        utilisation 1.
    rel_tol:
        Relative tolerance for convergence.
    what:
        Human-readable description used in error messages.
    accelerator:
        Optional :class:`LinearLowerBound` certificate enabling the
        certified-floor acceleration (see module docstring).  The
        result is exactly the least fixed point Picard would reach.

    Raises
    ------
    FixedPointDiverged
        If the iteration exceeds ``horizon`` or ``max_iterations``, or
        the certificate proves no fixed point exists.
    ValueError
        If ``f`` ever decreases the iterate, which indicates a programming
        error in the caller (the paper's recurrences are monotone).
    """
    x = float(seed)
    floor = 0.0
    if accelerator is not None:
        floor = accelerator.floor
        if math.isinf(floor):
            # rate >= 1 with positive intercept: f(t) > t everywhere.
            _note_diverged()
            raise FixedPointDiverged(
                f"{what}: certified divergent "
                f"(demand rate {accelerator.rate!r} >= 1)",
                last_value=x,
                iterations=0,
            )
        if floor > horizon:
            _note_diverged()
            raise FixedPointDiverged(
                f"{what}: certified floor {floor!r} exceeds horizon "
                f"{horizon!r}",
                last_value=floor,
                iterations=0,
            )
        if floor > x:
            # Start directly at the certified floor: no fixed point
            # lies below it, so this is still a lower bound on the
            # least fixed point and the monotone iteration converges to
            # the same value, skipping the staircase climb below it.
            x = floor
    jumped = x == floor and floor > 0.0
    for iteration in range(max_iterations):
        nxt = float(f(x))
        if jumped and iteration == 0 and nxt < x:
            # Below the least fixed point a monotone f satisfies
            # f(t) > t strictly, so any decrease at the floor proves
            # the certificate's rounding overshot it.  Restart as plain
            # Picard from the original seed (sound, merely slower).
            _telemetry.add("engine.fixed_point.floor_restarts")
            return iterate_fixed_point(
                f,
                seed,
                horizon=horizon,
                max_iterations=max_iterations,
                rel_tol=rel_tol,
                what=what,
            )
        if nxt < x and (x - nxt) > rel_tol * max(1.0, abs(x)):
            raise ValueError(
                f"{what}: update decreased from {x!r} to {nxt!r}; "
                "recurrence is expected to be monotone non-decreasing"
            )
        if nxt > horizon:
            _note_diverged()
            raise FixedPointDiverged(
                f"{what}: iterate {nxt!r} exceeded horizon {horizon!r}",
                last_value=nxt,
                iterations=iteration + 1,
            )
        if abs(nxt - x) <= rel_tol * max(1.0, abs(x), abs(nxt)):
            # The final application only confirmed the fixed point when
            # it reproduced its input exactly (seed-was-fixed contract).
            advanced = iteration + (0 if nxt == x else 1)
            reg = _telemetry.REGISTRY
            if reg is not None:
                reg.add("engine.fixed_point.solves")
                reg.observe("engine.fixed_point.iterations", advanced)
                if jumped:
                    reg.add("engine.fixed_point.floor_jumps")
            tr = _tracing.TRACER
            if tr is not None:
                # Solver attribution: fold per-solve work onto whatever
                # request span is open (admission.request in the shard
                # worker), so a traced slow admit shows *why* — spiky
                # iteration counts, not just elapsed time.
                tr.annotate("fp.solves")
                tr.annotate("fp.iterations", float(advanced))
            return FixedPointResult(value=nxt, iterations=advanced)
        x = nxt
    _note_diverged()
    raise FixedPointDiverged(
        f"{what}: no convergence after {max_iterations} iterations "
        f"(last value {x!r})",
        last_value=x,
        iterations=max_iterations,
    )


def _note_diverged() -> None:
    """Count a divergence declaration (cold path)."""
    _telemetry.add("engine.fixed_point.diverged")
