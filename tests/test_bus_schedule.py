"""Unit tests for TDM schedules and the distance metric (Def 4.2)."""

import pytest

from repro.bus.schedule import TdmSchedule, distance, one_slot_tdm
from repro.common.errors import ScheduleError


class TestTdmScheduleStructure:
    def test_period(self):
        schedule = TdmSchedule((0, 1, 2, 3), 50)
        assert schedule.period_slots == 4
        assert schedule.period_cycles == 200

    def test_cores(self):
        schedule = TdmSchedule((0, 1, 1), 10)
        assert schedule.cores == (0, 1)
        assert schedule.num_cores == 2

    def test_slots_of(self):
        schedule = TdmSchedule((0, 1, 1), 10)
        assert schedule.slots_of(1) == (1, 2)
        assert schedule.slots_of(0) == (0,)

    def test_is_one_slot_true(self):
        assert TdmSchedule((0, 1, 2), 10).is_one_slot

    def test_is_one_slot_false(self):
        assert not TdmSchedule((0, 1, 1), 10).is_one_slot

    def test_require_one_slot_raises_with_offenders(self):
        with pytest.raises(ScheduleError, match=r"\[1\]"):
            TdmSchedule((0, 1, 1), 10).require_one_slot()

    def test_rejects_empty(self):
        with pytest.raises(ScheduleError):
            TdmSchedule((), 10)

    def test_rejects_negative_owner(self):
        with pytest.raises(ScheduleError):
            TdmSchedule((0, -1), 10)

    def test_rejects_zero_slot_width(self):
        with pytest.raises(ScheduleError):
            TdmSchedule((0,), 0)


class TestTimeArithmetic:
    def test_owner_of_slot_wraps(self):
        schedule = TdmSchedule((0, 1, 2), 10)
        assert schedule.owner_of_slot(0) == 0
        assert schedule.owner_of_slot(4) == 1
        assert schedule.owner_of_slot(300) == 0

    def test_slot_start_end(self):
        schedule = TdmSchedule((0, 1), 50)
        assert schedule.slot_start(3) == 150
        assert schedule.slot_end(3) == 200

    def test_slot_of_cycle(self):
        schedule = TdmSchedule((0, 1), 50)
        assert schedule.slot_of_cycle(0) == 0
        assert schedule.slot_of_cycle(49) == 0
        assert schedule.slot_of_cycle(50) == 1

    def test_next_slot_of_same_phase(self):
        schedule = TdmSchedule((0, 1, 2), 10)
        assert schedule.next_slot_of(1, 1) == 1
        assert schedule.next_slot_of(1, 2) == 4

    def test_next_slot_of_wraps_period(self):
        schedule = TdmSchedule((0, 1, 2), 10)
        assert schedule.next_slot_of(0, 1) == 3

    def test_next_slot_of_multi_slot_core(self):
        schedule = TdmSchedule((0, 1, 1), 10)
        assert schedule.next_slot_of(1, 0) == 1
        assert schedule.next_slot_of(1, 2) == 2
        assert schedule.next_slot_of(1, 3) == 4

    def test_next_slot_start_boundary_inclusive(self):
        schedule = TdmSchedule((0, 1), 50)
        # Ready exactly at its slot start -> uses that slot.
        assert schedule.next_slot_start(0, 100) == 100
        # Ready one cycle in -> next period.
        assert schedule.next_slot_start(0, 101) == 200

    def test_next_slot_of_unknown_core(self):
        with pytest.raises(ScheduleError):
            TdmSchedule((0, 1), 10).next_slot_of(7, 0)

    def test_negative_inputs_rejected(self):
        schedule = TdmSchedule((0, 1), 10)
        with pytest.raises(ScheduleError):
            schedule.owner_of_slot(-1)
        with pytest.raises(ScheduleError):
            schedule.slot_start(-1)
        with pytest.raises(ScheduleError):
            schedule.slot_of_cycle(-1)

    def test_next_slot_start_rejects_negative_from_cycle(self):
        # Floor division would round -1 *down* to candidate slot -1 —
        # either a too-early answer or a confusing slot_start error —
        # so the boundary must be validated at the entry point.
        schedule = TdmSchedule((0, 1), 50)
        with pytest.raises(ScheduleError, match="next_slot_start.*non-negative"):
            schedule.next_slot_start(0, -1)

    def test_slot_end_rejects_negative_slot(self):
        with pytest.raises(ScheduleError, match="slot_end.*non-negative"):
            TdmSchedule((0, 1), 50).slot_end(-1)

    def test_next_slot_start_slot_width_boundaries(self):
        # from_cycle at 0, one before a boundary, and exactly on one:
        # the eligibility rule is "ready <= slot_start uses the slot".
        schedule = TdmSchedule((0, 1), 50)
        assert schedule.next_slot_start(1, 0) == 50
        assert schedule.next_slot_start(1, 49) == 50
        assert schedule.next_slot_start(1, 50) == 50
        assert schedule.next_slot_start(1, 51) == 150


class TestOneSlotFactory:
    def test_default_order(self):
        schedule = one_slot_tdm(4, 50)
        assert schedule.slot_owners == (0, 1, 2, 3)
        assert schedule.is_one_slot

    def test_custom_order(self):
        schedule = one_slot_tdm(3, 10, order=(2, 0, 1))
        assert schedule.slot_owners == (2, 0, 1)

    def test_rejects_non_permutation(self):
        with pytest.raises(ScheduleError):
            one_slot_tdm(3, 10, order=(0, 0, 1))

    def test_rejects_zero_cores(self):
        with pytest.raises(ScheduleError):
            one_slot_tdm(0, 10)


class TestDistance:
    """Definition 4.2 with the paper's worked example (Figure 3)."""

    def test_paper_example(self):
        # Schedule {c_ua, c2, c3, c4} with c_ua = core 0.
        schedule = one_slot_tdm(4, 50)
        assert distance(schedule, 2, 0) == 2  # d_{c_ua}^{c_3} = 2
        assert distance(schedule, 3, 0) == 1  # d_{c_ua}^{c_4} = 1

    def test_self_distance_is_period(self):
        schedule = one_slot_tdm(4, 50)
        for core in range(4):
            assert distance(schedule, core, core) == 4

    def test_corollary_4_3_bounds(self):
        # 1 <= d <= N for every pair.
        schedule = one_slot_tdm(5, 10)
        for i in range(5):
            for j in range(5):
                assert 1 <= distance(schedule, i, j) <= 5

    def test_adjacent(self):
        schedule = one_slot_tdm(4, 10)
        assert distance(schedule, 0, 1) == 1
        assert distance(schedule, 1, 2) == 1
        assert distance(schedule, 3, 0) == 1

    def test_respects_custom_order(self):
        schedule = one_slot_tdm(3, 10, order=(2, 0, 1))
        assert distance(schedule, 2, 0) == 1
        assert distance(schedule, 0, 2) == 2

    def test_requires_one_slot_schedule(self):
        with pytest.raises(ScheduleError):
            distance(TdmSchedule((0, 1, 1), 10), 0, 1)

    def test_non_one_slot_raises_even_between_single_slot_cores(self):
        # Cores 0 and 1 own one slot each, but core 2 owns two: the
        # schedule is not 1S-TDM, so no distance is defined in it.
        schedule = TdmSchedule((0, 1, 2, 2), 10)
        for _ in range(2):  # the verdict is fixed, not consumed
            with pytest.raises(ScheduleError, match=r"cores \[2\]"):
                distance(schedule, 0, 1)

    @pytest.mark.parametrize(
        "owners", [(0,), (0, 1), (1, 0, 2), (0, 0), (0, 1, 0), (3, 1, 3, 2)]
    )
    def test_one_slot_verdict_matches_definition(self, owners):
        schedule = TdmSchedule(owners, 10)
        assert schedule.is_one_slot == all(
            len(schedule.slots_of(core)) == 1 for core in schedule.cores
        )

    def test_unknown_core_rejected(self):
        with pytest.raises(ScheduleError):
            distance(one_slot_tdm(2, 10), 0, 5)
