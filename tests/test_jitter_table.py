"""JitterTable bookkeeping: the undo log and the per-round accounting.

The incremental admission controller rolls a rejected candidate's
writes back through the undo log, and the holistic solve reads the
round accounting (:meth:`~repro.core.context.JitterTable.round_delta`)
for convergence and the return value of
:meth:`~repro.core.context.JitterTable.set` as the signal that marks
an entry's readers.  A write that stores the value already there
changes nothing, so it must leave no trace in either.
"""

from repro.core.context import JitterTable, ingress_resource, link_resource
from repro.model.flow import Flow
from repro.model.gmf import GmfSpec
from repro.util.units import ms

FIRST = link_resource("h0", "s0")
INGRESS = ingress_resource("s0")


def _table():
    flow = Flow(
        name="f",
        spec=GmfSpec(
            min_separations=(ms(10), ms(10)),
            deadlines=(ms(50), ms(50)),
            jitters=(ms(1), ms(2)),
            payload_bits=(12_000, 12_000),
        ),
        route=("h0", "s0", "h1"),
    )
    return JitterTable([flow])


class TestUndo:
    def test_first_write_rolls_back_to_the_default(self):
        table = _table()
        table.begin_undo()
        table.set("f", INGRESS, (1.0, 2.0))
        assert table.extra("f", INGRESS) == 2.0
        table.rollback_undo()
        assert table.get("f", INGRESS) == (0.0, 0.0)
        assert table.extra("f", INGRESS) == 0.0
        assert table.snapshot() == {}

    def test_overwrite_rolls_back_to_the_value_before_begin(self):
        table = _table()
        table.set("f", INGRESS, (1.0, 2.0))
        table.begin_undo()
        table.set("f", INGRESS, (3.0, 4.0))
        table.set("f", INGRESS, (5.0, 6.0))
        table.rollback_undo()
        assert table.get("f", INGRESS) == (1.0, 2.0)
        assert table.extra("f", INGRESS) == 2.0
        assert table.snapshot() == {("f", INGRESS): (1.0, 2.0)}

    def test_commit_keeps_the_writes(self):
        table = _table()
        table.begin_undo()
        table.set("f", INGRESS, (1.0, 2.0))
        table.commit_undo()
        table.begin_undo()
        table.rollback_undo()
        assert table.get("f", INGRESS) == (1.0, 2.0)


class TestRoundAccounting:
    def test_unequal_overwrite_counts_its_change(self):
        table = _table()
        table.set("f", INGRESS, (1.0, 2.0))
        table.begin_round()
        assert table.set("f", INGRESS, (1.0, 2.5))
        assert table.round_delta() == 0.5

    def test_equal_overwrite_counts_nothing(self):
        table = _table()
        table.set("f", INGRESS, (1.0, 2.0))
        table.begin_round()
        assert not table.set("f", INGRESS, [1.0, 2.0])
        assert table.round_delta() == 0.0

    def test_first_write_is_judged_against_the_default(self):
        """A first explicit write counts as its own magnitude in the
        delta, but is a change only if it differs from the default
        :meth:`get` returned."""
        table = _table()
        source = (ms(1), ms(2))
        table.begin_round()
        assert not table.set("f", FIRST, source)
        assert table.round_delta() == ms(2)
        assert not table.set("f", INGRESS, (0.0, 0.0))
        assert table.set("f", link_resource("s0", "h1"), (0.0, 3.0))
        assert table.round_delta() == 3.0
        assert set(table.snapshot()) == {
            ("f", FIRST),
            ("f", INGRESS),
            ("f", link_resource("s0", "h1")),
        }


class TestEqualWrite:
    def test_records_no_undo_entry_and_no_changed_key(self):
        table = _table()
        table.set("f", INGRESS, (1.0, 2.0))
        table.begin_undo()
        table.begin_round()
        assert not table.set("f", INGRESS, (1.0, 2.0))
        assert table._undo == {}
        assert table.round_delta() == 0.0

    def test_later_write_still_rolls_back_to_the_value_before_begin(self):
        table = _table()
        table.set("f", INGRESS, (1.0, 2.0))
        table.begin_undo()
        assert not table.set("f", INGRESS, (1.0, 2.0))
        assert table.set("f", INGRESS, (3.0, 4.0))
        table.rollback_undo()
        assert table.get("f", INGRESS) == (1.0, 2.0)
        assert table.extra("f", INGRESS) == 2.0

    def test_extra_stays_right_after_a_rollback_dropped_it(self):
        """A rollback drops the flow's cached extras; an equal write
        after it refreshes nothing, and :meth:`extra` recomputes."""
        table = _table()
        table.set("f", INGRESS, (1.0, 2.0))
        table.begin_undo()
        table.set("f", FIRST, (5.0, 5.0))
        table.rollback_undo()
        table.set("f", INGRESS, (1.0, 2.0))
        assert table.extra("f", INGRESS) == 2.0
        assert table.extra("f", FIRST) == ms(2)
