"""Discrete-event engine: ordering, determinism, causality."""

import math
import weakref

import pytest

from repro.sim.engine import EventEngine


class TestOrdering:
    def test_time_order(self):
        eng = EventEngine()
        hits = []
        eng.schedule(2.0, lambda: hits.append("b"))
        eng.schedule(1.0, lambda: hits.append("a"))
        eng.schedule(3.0, lambda: hits.append("c"))
        eng.run()
        assert hits == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        eng = EventEngine()
        hits = []
        for i in range(5):
            eng.schedule(1.0, lambda i=i: hits.append(i))
        eng.run()
        assert hits == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        eng = EventEngine()
        seen = []
        eng.schedule(1.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [1.5]

    def test_events_scheduled_during_run(self):
        eng = EventEngine()
        hits = []

        def first():
            hits.append("first")
            eng.schedule_in(1.0, lambda: hits.append("second"))

        eng.schedule(1.0, first)
        eng.run()
        assert hits == ["first", "second"]
        assert eng.now == 2.0


class TestArgsScheduling:
    def test_callback_args_passed(self):
        eng = EventEngine()
        hits = []
        eng.schedule(1.0, hits.append, "a")
        eng.schedule_in(2.0, hits.append, "b")
        eng.run()
        assert hits == ["a", "b"]

    def test_args_and_closures_interleave_in_seq_order(self):
        eng = EventEngine()
        hits = []
        eng.schedule(1.0, hits.append, 0)
        eng.schedule(1.0, lambda: hits.append(1))
        eng.schedule(1.0, hits.append, 2)
        eng.run()
        assert hits == [0, 1, 2]

    def test_same_timestamp_batch_sees_new_events(self):
        # An event scheduled *at* the current timestamp from inside a
        # callback still fires within the same drain, in seq order.
        eng = EventEngine()
        hits = []

        def first():
            hits.append("first")
            eng.schedule(1.0, hits.append, "nested")

        eng.schedule(1.0, first)
        eng.schedule(1.0, hits.append, "second")
        eng.run()
        assert hits == ["first", "second", "nested"]
        assert eng.events_processed == 3


class TestCausality:
    def test_past_scheduling_rejected(self):
        eng = EventEngine()
        eng.schedule(5.0, lambda: eng.schedule(1.0, lambda: None))
        with pytest.raises(ValueError, match="causality"):
            eng.run()

    def test_negative_delay_rejected(self):
        eng = EventEngine()
        with pytest.raises(ValueError):
            eng.schedule_in(-1.0, lambda: None)

    def test_nan_rejected(self):
        eng = EventEngine()
        with pytest.raises(ValueError):
            eng.schedule(math.nan, lambda: None)

    def test_inf_rejected(self):
        eng = EventEngine()
        with pytest.raises(ValueError):
            eng.schedule(math.inf, lambda: None)


class TestHorizon:
    def test_until_stops_processing(self):
        eng = EventEngine()
        hits = []
        eng.schedule(1.0, lambda: hits.append(1))
        eng.schedule(10.0, lambda: hits.append(10))
        eng.run(until=5.0)
        assert hits == [1]
        assert eng.pending() == 1

    def test_max_events(self):
        eng = EventEngine()
        hits = []
        for i in range(10):
            eng.schedule(float(i), lambda i=i: hits.append(i))
        eng.run(max_events=3)
        assert hits == [0, 1, 2]

    def test_events_processed_counter(self):
        eng = EventEngine()
        for i in range(4):
            eng.schedule(float(i), lambda: None)
        eng.run()
        assert eng.events_processed == 4

    def test_clock_advances_to_horizon_when_drained(self):
        eng = EventEngine()
        eng.schedule(1.0, lambda: None)
        eng.run(until=7.0)
        assert eng.now == 7.0

    def test_empty_queue_advances_to_finite_horizon(self):
        eng = EventEngine()
        eng.run(until=5.0)
        assert eng.now == 5.0

    def test_computed_infinity_never_advances_clock(self):
        """Regression: the infinite-horizon check must compare by
        value, not identity — a *computed* float('inf') is a different
        object from math.inf, and the old ``until is not math.inf``
        test advanced the clock to infinity on an empty queue."""
        eng = EventEngine()
        eng.schedule(1.0, lambda: None)
        eng.run(until=float("1e300") * float("1e300"))  # inf, fresh object
        assert eng.now == 1.0

        eng2 = EventEngine()
        eng2.run(until=float("inf"))  # empty queue, computed inf
        assert eng2.now == 0.0


class TestReleaseStream:
    """``schedule_many`` loads a sorted release stream with only its
    head in the heap; the pop order is that of one push per release."""

    @staticmethod
    def _logging_engine():
        eng = EventEngine()
        log = []
        kind = eng.register_handler(lambda a, b: log.append((eng.now, a)))
        return eng, log, kind

    def test_equal_times_pop_in_sequence_order_load_first(self):
        eng, log, kind = self._logging_engine()
        eng.schedule_many([(1.0, kind, "stream", None)])
        eng.schedule_call(1.0, kind, "dynamic")
        eng.run()
        assert log == [(1.0, "stream"), (1.0, "dynamic")]

    def test_equal_times_pop_in_sequence_order_dynamic_first(self):
        eng, log, kind = self._logging_engine()
        eng.schedule_call(1.0, kind, "dynamic")
        eng.schedule_many([(1.0, kind, "stream", None)])
        eng.run()
        assert log == [(1.0, "dynamic"), (1.0, "stream")]

    def test_unsorted_load_dispatches_in_time_then_load_order(self):
        eng, log, kind = self._logging_engine()
        eng.schedule_many(
            [(2.0, kind, "c", None), (1.0, kind, "a", None),
             (2.0, kind, "d", None), (1.0, kind, "b", None)]
        )
        eng.run()
        assert [a for _, a in log] == ["a", "b", "c", "d"]

    def test_release_handler_sees_next_release_at_heap_head(self):
        """The next head is seated before a release dispatches, so a
        handler reading ``heap[0]`` (as the rotation driver's in-place
        test does) sees the heap it would see with every release
        pushed."""
        eng = EventEngine()
        heads = []
        kind = eng.register_handler(
            lambda a, b: heads.append(eng._heap[0][0] if eng._heap else None)
        )
        eng.schedule_many([(1.0, kind, None, None), (2.0, kind, None, None)])
        eng.run()
        assert heads == [2.0, None]

    def test_heap_holds_one_stream_record(self):
        eng, _, kind = self._logging_engine()
        eng.schedule_call(0.5, kind, "x")
        eng.schedule_call(70.0, kind, "y")
        eng.schedule_many([(float(i), kind, i, None) for i in range(1, 101)])
        assert len(eng._heap) == 2 + 1
        eng.run(until=50.0)
        assert len(eng._heap) == 1 + 1
        eng.run()
        assert len(eng._heap) == 0

    def test_pending_counts_undispatched_stream(self):
        eng, _, kind = self._logging_engine()
        eng.schedule_call(2.5, kind, "x")
        eng.schedule_many([(float(i), kind, i, None) for i in range(1, 6)])
        assert eng.pending() == 6
        eng.run(until=2.0)
        assert eng.pending() == 4
        eng.run(until=4.0)
        assert eng.pending() == 1
        eng.run()
        assert eng.pending() == 0

    def test_split_run_with_head_beyond_horizon_matches_one_run(self):
        def build():
            eng, log, _ = self._logging_engine()

            def echo(a, b):
                log.append((eng.now, a))
                if b:
                    eng.schedule_call_in(0.75, k_echo, f"{a}'", b - 1)

            k_echo = eng.register_handler(echo)
            eng.schedule_many(
                [(t, k_echo, f"r{t}", 2) for t in (1.0, 1.0, 3.0, 6.0, 6.5)]
            )
            return eng, log

        whole, whole_log = build()
        whole.run()
        split, split_log = build()
        for until in (0.5, 2.0, 4.0, 5.9):
            split.run(until=until)
            assert split.now <= until
        split.run()
        assert split_log == whole_log
        assert split.events_processed == whole.events_processed == 15

    def test_max_events_counts_each_release_once(self):
        eng, log, kind = self._logging_engine()
        eng.schedule_many([(float(i), kind, i, None) for i in range(10)])
        eng.run(max_events=3)
        assert [a for _, a in log] == [0, 1, 2]
        assert eng.events_processed == 3
        assert eng.pending() == 7
        eng.run()
        assert eng.events_processed == 10

    def test_reset_drops_stream(self):
        eng, log, kind = self._logging_engine()
        eng.schedule_many([(float(i), kind, i, None) for i in range(1, 4)])
        eng.reset()
        assert eng.pending() == 0
        assert len(eng._heap) == 0
        eng.schedule_many([(5.0, kind, "after", None)])
        eng.run()
        assert log == [(5.0, "after")]

    def test_second_load_on_live_stream_raises(self):
        eng, log, kind = self._logging_engine()
        eng.schedule_many([(1.0, kind, "a", None), (2.0, kind, "b", None)])
        with pytest.raises(RuntimeError, match="release stream"):
            eng.schedule_many([(3.0, kind, "c", None)])
        eng.run(until=1.5)
        with pytest.raises(RuntimeError, match="release stream"):
            eng.schedule_many([(3.0, kind, "c", None)])
        eng.run()
        # An exhausted stream takes the next load.
        eng.schedule_many([(3.0, kind, "c", None)])
        eng.run()
        assert [a for _, a in log] == ["a", "b", "c"]

    def test_invalid_load_leaves_engine_unchanged(self):
        eng, log, kind = self._logging_engine()
        with pytest.raises(ValueError):
            eng.schedule_many([(1.0, kind, "a", None), (math.nan, kind, "b", None)])
        assert eng.pending() == 0
        eng.schedule_many([(1.0, kind, "a", None)])
        eng.run()
        assert log == [(1.0, "a")]

    def test_dispatched_release_operand_is_freed(self):
        class Operand:
            pass

        eng = EventEngine()
        follow = eng.register_handler(lambda a, b: None)
        kind = eng.register_handler(
            lambda a, b: eng.schedule_call_in(1.0, follow, a)
        )
        op = Operand()
        ref = weakref.ref(op)
        eng.schedule_many([(1.0, kind, op, None), (5.0, kind, None, None)])
        del op
        eng.run(until=3.0)
        assert ref() is None
