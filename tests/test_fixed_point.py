"""The generic fixed-point driver all analyses build on."""

import math

import pytest

from repro.util.fixed_point import (
    FixedPointDiverged,
    LinearLowerBound,
    iterate_fixed_point,
)


class TestConvergence:
    def test_constant_function(self):
        res = iterate_fixed_point(lambda x: 5.0, seed=0.0)
        assert res.value == 5.0

    def test_seed_already_fixed(self):
        """Documented contract: iterations == 0 when the seed is already
        a fixed point (the single confirming application is not
        counted)."""
        res = iterate_fixed_point(lambda x: x, seed=3.0)
        assert res.value == 3.0
        assert res.iterations == 0

    def test_classic_response_time_shape(self):
        """R = C + ceil(R/T) * C_hi: the textbook recurrence."""
        c, t_hi, c_hi = 2.0, 5.0, 1.0
        res = iterate_fixed_point(
            lambda r: c + math.ceil(r / t_hi) * c_hi, seed=c
        )
        # R = 2 + ceil(R/5): R=3 -> 2+1=3 fixed.
        assert res.value == 3.0

    def test_step_function_converges(self):
        res = iterate_fixed_point(
            lambda x: 1.0 + math.floor(x / 2.0), seed=0.0
        )
        assert res.value == 1.0

    def test_iterations_counted(self):
        """The last application only confirms the fixed point (it maps
        4.0 to itself), so it is not counted as an advance."""
        calls = []
        def f(x):
            calls.append(x)
            return min(x + 1.0, 4.0)
        res = iterate_fixed_point(f, seed=0.0)
        assert res.value == 4.0
        assert res.iterations == len(calls) - 1


class TestDivergence:
    def test_horizon_exceeded(self):
        with pytest.raises(FixedPointDiverged) as exc:
            iterate_fixed_point(lambda x: x + 1.0, seed=0.0, horizon=10.0)
        assert exc.value.last_value > 10.0

    def test_max_iterations_exceeded(self):
        with pytest.raises(FixedPointDiverged):
            iterate_fixed_point(
                lambda x: x + 1e-6, seed=0.0, max_iterations=50
            )

    def test_divergence_records_iterations(self):
        with pytest.raises(FixedPointDiverged) as exc:
            iterate_fixed_point(
                lambda x: x + 1.0, seed=0.0, max_iterations=7, horizon=1e9
            )
        assert exc.value.iterations == 7

    def test_what_appears_in_message(self):
        with pytest.raises(FixedPointDiverged, match="my recurrence"):
            iterate_fixed_point(
                lambda x: x + 1.0, seed=0.0, horizon=3.0, what="my recurrence"
            )


class TestMonotonicityGuard:
    def test_decreasing_update_raises(self):
        with pytest.raises(ValueError, match="monotone"):
            iterate_fixed_point(lambda x: x - 1.0, seed=10.0)

    def test_tiny_float_noise_tolerated(self):
        # A one-ulp decrease must not trip the guard.
        values = iter([1.0, 1.0 - 1e-16, 1.0 - 1e-16])
        res = iterate_fixed_point(lambda x: next(values), seed=0.0)
        assert res.value == pytest.approx(1.0)


def staircase(steps):
    """Monotone staircase: f(x) = value of the last step with edge <= x."""
    def f(x):
        total = 0.0
        for edge, value in steps:
            if x >= edge:
                total = value
        return total
    return f


class TestAcceleration:
    """The safeguarded certified-floor accelerated mode."""

    def slow_recurrence(self, rate=0.9, burst=1.0):
        # f(x) = burst + rate * ceil(x): a demand staircase that genuinely
        # satisfies f(t) >= rate*t + burst (ceil(t) >= t), so
        # LinearLowerBound(rate, burst) is a valid certificate.  Picard
        # needs ~lfp iterations; the certified floor jumps most of them.
        def f(x):
            return burst + rate * math.ceil(x)
        return f

    def test_accelerated_matches_picard_value(self):
        f = self.slow_recurrence()
        plain = iterate_fixed_point(f, seed=0.0)
        accel = iterate_fixed_point(
            f, seed=0.0, accelerator=LinearLowerBound(0.9, 1.0)
        )
        assert accel.value == plain.value

    def test_accelerated_uses_fewer_iterations(self):
        f = self.slow_recurrence(rate=0.99)
        plain = iterate_fixed_point(f, seed=0.0)
        accel = iterate_fixed_point(
            f, seed=0.0, accelerator=LinearLowerBound(0.99, 1.0)
        )
        assert accel.value == plain.value
        assert accel.iterations < plain.iterations / 5

    def test_floor_never_skips_least_fixed_point(self):
        """A staircase with several diagonal crossings: the floor jump
        must return the *least* fixed point, like Picard."""
        # Fixed points at 1 (f(1)=1) and at 10 (f(10)=10).
        f = staircase([(0.0, 1.0), (2.0, 10.0)])
        plain = iterate_fixed_point(f, seed=0.0)
        assert plain.value == 1.0
        # The tightest *valid* certificate for a bounded staircase is
        # rate 0 with the global minimum as intercept: the floor lands
        # just below the first fixed point and must not skip it.
        accel = iterate_fixed_point(
            f, seed=0.0, accelerator=LinearLowerBound(0.0, 1.0)
        )
        assert accel.value == 1.0

    def test_invalid_certificate_falls_back_to_picard(self):
        """An overshooting floor is detected and handled soundly.

        The certificate below is *invalid* for the capped staircase
        (its line crosses the cap), putting the floor at ~1.5 — past
        the least fixed point 1, inside a region where f(t) < t.  The
        strict no-decrease check at the floor must catch this and
        restart as plain Picard instead of silently converging to the
        higher fixed point 10 (or raising the monotonicity error)."""
        f = staircase([(0.0, 1.0), (2.0, 10.0)])
        accel = iterate_fixed_point(
            f, seed=0.0, accelerator=LinearLowerBound(0.5, 0.75)
        )
        assert accel.value == 1.0

    def test_certified_divergence(self):
        with pytest.raises(FixedPointDiverged, match="certified divergent"):
            iterate_fixed_point(
                lambda x: x + 1.0,
                seed=0.0,
                accelerator=LinearLowerBound(1.5, 1.0),
            )

    def test_floor_beyond_horizon_diverges_immediately(self):
        calls = []

        def f(x):
            calls.append(x)
            return x + 1.0

        with pytest.raises(FixedPointDiverged, match="floor"):
            iterate_fixed_point(
                f,
                seed=0.0,
                horizon=10.0,
                accelerator=LinearLowerBound(0.9, 100.0),
            )
        assert calls == []  # rejected before any evaluation

    def test_vacuous_certificate_is_plain_picard(self):
        f = self.slow_recurrence()
        plain = iterate_fixed_point(f, seed=0.0)
        accel = iterate_fixed_point(
            f, seed=0.0, accelerator=LinearLowerBound(0.0, 0.0)
        )
        assert accel.value == plain.value
        assert accel.iterations == plain.iterations

    def test_seed_level_certificate_is_plain_picard(self):
        """A zero-rate certificate whose intercept is the seed (what the
        stages build from the oracle's vacuous supports) never lifts
        the seed: the iteration is plain Picard, step for step."""
        f = self.slow_recurrence()
        plain = iterate_fixed_point(f, seed=2.5)
        accel = iterate_fixed_point(
            f, seed=2.5, accelerator=LinearLowerBound(0.0, 2.5)
        )
        assert accel.value == plain.value
        assert accel.iterations == plain.iterations > 1
