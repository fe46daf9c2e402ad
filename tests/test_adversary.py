"""Control-plane adversary: interposition, invariants, minimization."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (
    CHANNEL_ACTIONS,
    FaultAction,
    FaultEvent,
    FaultSchedule,
    MessageInterposer,
    find_violating_schedule,
    minimize_schedule,
    random_schedule,
    run_adversary,
)
from repro.adversary.invariants import _mastership_uniqueness
from repro.errors import ReproError, ScheduleError
from repro.resilience import ResilienceEvent, ResilienceLedger
from repro.sdnsim import EventScheduler
from repro.taxonomy import Symptom


class TestSchedule:
    def test_events_sorted_and_replayable(self):
        schedule = FaultSchedule()
        schedule.add(5.0, "node:a", FaultAction.DROP, 2)
        schedule.add(1.0, "dev:1", FaultAction.DELAY, 4.0)
        assert [e.time for e in schedule] == [1.0, 5.0]
        assert schedule.horizon == 5.0

    def test_json_round_trip(self):
        schedule = random_schedule(3, events=10)
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored == schedule
        assert restored.to_dicts() == schedule.to_dicts()

    def test_subset_preserves_order(self):
        schedule = random_schedule(1, events=8)
        sub = schedule.subset([0, 3, 5])
        assert len(sub) == 3
        assert sub.events == [schedule.events[i] for i in (0, 3, 5)]

    def test_random_schedule_deterministic(self):
        assert random_schedule(9, events=15) == random_schedule(9, events=15)
        assert random_schedule(9, events=15) != random_schedule(10, events=15)

    def test_malformed_inputs_rejected(self):
        with pytest.raises(ReproError):
            FaultSchedule([FaultEvent(-1.0, "node:a", FaultAction.DROP)])
        with pytest.raises(ReproError):
            FaultSchedule.from_dicts([{"time": 1.0, "action": "drop"}])
        with pytest.raises(ReproError):
            random_schedule(0, events=0)

    def test_unknown_action_names_known_ones(self):
        with pytest.raises(ScheduleError, match="unknown fault action"):
            FaultEvent.from_dict(
                {"time": 1.0, "target": "node:a", "action": "explode"}
            )
        with pytest.raises(ScheduleError, match="drop"):
            FaultEvent.from_dict(
                {"time": 1.0, "target": "node:a", "action": "explode"}
            )

    def test_missing_fields_listed(self):
        with pytest.raises(ScheduleError, match="target"):
            FaultEvent.from_dict({"time": 1.0, "action": "drop"})
        with pytest.raises(ScheduleError, match="time.*target|target.*time"):
            FaultEvent.from_dict({"action": "drop"})

    def test_non_numeric_fields_rejected(self):
        with pytest.raises(ScheduleError, match="must be a number"):
            FaultEvent.from_dict(
                {"time": "soon", "target": "node:a", "action": "drop"}
            )
        with pytest.raises(ScheduleError, match="must be a number"):
            FaultEvent.from_dict(
                {"time": 1.0, "target": "node:a", "action": "drop",
                 "param": True}
            )

    def test_bad_json_shapes_rejected(self):
        with pytest.raises(ScheduleError, match="not valid JSON"):
            FaultSchedule.from_json("{nope")
        with pytest.raises(ScheduleError, match="list of events"):
            FaultSchedule.from_json('{"time": 1.0}')
        with pytest.raises(ScheduleError, match="must be a JSON object"):
            FaultSchedule.from_dicts(["drop"])

    def test_round_trip_after_validation(self):
        schedule = random_schedule(5, events=12)
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored == schedule
        again = FaultSchedule.from_dicts(restored.to_dicts())
        assert again.to_dicts() == schedule.to_dicts()


def _per_dpid_reference(world):
    """The per-device scan ``_mastership_uniqueness`` replaced, kept as its
    oracle."""
    for dpid in world.dpids:
        claimants = sorted(
            node
            for node, view in world.views.items()
            if world.cluster.instances[node].is_alive
            and view.get(dpid, (0, None))[1] == node
        )
        if len(claimants) > 1:
            yield (
                f"dpid={dpid}",
                f"dual mastership: {', '.join(claimants)} all claim dpid {dpid}",
            )


def _fake_world(dpids, alive, views):
    instances = {
        node: SimpleNamespace(is_alive=is_alive) for node, is_alive in alive.items()
    }
    return SimpleNamespace(
        dpids=tuple(dpids), views=views, cluster=SimpleNamespace(instances=instances)
    )


_NODES = ("n1", "n2", "n3", "n4", "n5")


@st.composite
def _mastership_world(draw):
    nodes = draw(st.lists(st.sampled_from(_NODES), min_size=1, unique=True))
    alive = {node: draw(st.booleans()) for node in nodes}
    # Views may also hold dpids outside ``world.dpids`` (7 and 8 here) and
    # name masters that are not cluster members.
    masters = st.sampled_from(nodes + ["ghost"])
    view = st.dictionaries(
        st.integers(1, 8), st.tuples(st.integers(0, 4), masters), max_size=8
    )
    views = {node: draw(view) for node in nodes}
    dpids = draw(st.lists(st.integers(1, 6), unique=True, max_size=6))
    return _fake_world(dpids, alive, views)


class TestMastershipUniqueness:
    @settings(max_examples=300, deadline=None)
    @given(world=_mastership_world())
    def test_matches_per_dpid_scan(self, world):
        assert list(_mastership_uniqueness(world)) == list(
            _per_dpid_reference(world)
        )

    def test_dead_and_foreign_claims_are_ignored(self):
        world = _fake_world(
            dpids=(3, 1),
            alive={"b": True, "a": True, "c": True, "d": False},
            views={
                "b": {1: (2, "b"), 3: (1, "b"), 9: (1, "b")},
                "a": {1: (1, "a"), 3: (1, "b"), 9: (1, "a")},
                "c": {1: (3, "c")},
                "d": {3: (1, "d")},
            },
        )
        assert list(_mastership_uniqueness(world)) == [
            ("dpid=1", "dual mastership: a, b, c all claim dpid 1"),
        ]
        assert list(_mastership_uniqueness(world)) == list(
            _per_dpid_reference(world)
        )


class TestInterposer:
    def _make(self, **kwargs):
        scheduler = EventScheduler()
        delivered: list[object] = []
        interposer = MessageInterposer(
            scheduler,
            lambda message, _source: delivered.append(message),
            name="test",
            **kwargs,
        )
        return scheduler, interposer, delivered

    def test_drop_budget_consumes_messages(self):
        scheduler, interposer, delivered = self._make()
        interposer.arm(FaultAction.DROP, 2)
        for i in range(4):
            interposer.feed(i)
        scheduler.run(until=1)
        assert delivered == [2, 3]
        assert interposer.log.count("dropped") == 2

    def test_duplicate_delivers_twice(self):
        scheduler, interposer, delivered = self._make()
        interposer.arm(FaultAction.DUPLICATE, 1)
        interposer.feed("m")
        scheduler.run(until=1)
        assert delivered == ["m", "m"]

    def test_delay_defers_on_sim_clock(self):
        scheduler, interposer, delivered = self._make()
        interposer.arm(FaultAction.DELAY, 7.5)
        interposer.feed("late")
        scheduler.run(until=7.0)
        assert delivered == []
        scheduler.run(until=8.0)
        assert delivered == ["late"]

    def test_reorder_lets_successor_overtake(self):
        scheduler, interposer, delivered = self._make()
        interposer.arm(FaultAction.REORDER, 1)
        interposer.feed("first")
        interposer.feed("second")
        scheduler.run(until=1)
        assert delivered == ["second", "first"]

    def test_reorder_flushes_without_successor(self):
        scheduler, interposer, delivered = self._make()
        interposer.arm(FaultAction.REORDER, 1)
        interposer.feed("only")
        scheduler.run(until=30)
        assert delivered == ["only"]
        assert interposer.log.count("flushed") == 1

    def test_corrupt_uses_domain_corrupter(self):
        scheduler, interposer, delivered = self._make(
            corrupter=lambda m: m.upper() if m != "poison" else None
        )
        interposer.arm(FaultAction.CORRUPT, 2)
        interposer.feed("msg")
        interposer.feed("poison")
        scheduler.run(until=1)
        assert delivered == ["MSG"]
        assert interposer.log.count("corrupted-dropped") == 1

    def test_partition_oracle_cuts_traffic(self):
        scheduler, interposer, delivered = self._make(
            reachable=lambda source: source != "isolated"
        )
        interposer.feed("kept", source="peer")
        interposer.feed("cut", source="isolated")
        scheduler.run(until=1)
        assert delivered == ["kept"]
        assert interposer.log.count("partitioned") == 1

    def test_non_channel_action_rejected(self):
        _scheduler, interposer, _delivered = self._make()
        with pytest.raises(ReproError):
            interposer.arm(FaultAction.KILL, 0)
        assert FaultAction.KILL not in CHANNEL_ACTIONS


class TestAdversaryRuns:
    def test_replay_is_deterministic(self):
        schedule = random_schedule(4, events=20)
        a = run_adversary(schedule)
        b = run_adversary(schedule)
        assert a.violations == b.violations
        assert a.violated_subjects() == b.violated_subjects()

    def test_partition_produces_dual_mastership(self):
        """Isolate a master; the majority re-elects while the isolated node
        keeps its stale self-claim — mastership-uniqueness fires."""
        schedule = FaultSchedule()
        schedule.add(5.0, "a|b,c", FaultAction.PARTITION)
        result = run_adversary(schedule, horizon=30.0)
        assert "mastership-uniqueness" in result.by_invariant()
        outcome = result.outcome()
        assert outcome.symptom is Symptom.BYZANTINE

    def test_kill_wedges_buggy_cluster_only(self):
        schedule = FaultSchedule()
        schedule.add(5.0, "a", FaultAction.KILL)
        bare = run_adversary(schedule, horizon=40.0)
        hardened = run_adversary(schedule, hardened=True, horizon=40.0)
        assert "quorum-safety" in bare.by_invariant()
        assert not hardened.violated

    def test_violations_priced_into_ledger(self):
        ledger = ResilienceLedger()
        schedule = FaultSchedule()
        schedule.add(5.0, "a", FaultAction.KILL)
        result = run_adversary(schedule, ledger=ledger, horizon=40.0)
        assert result.violated
        assert ledger.count(ResilienceEvent.VIOLATION) == len(result.violations)

    def test_random_schedules_violate_bare_world(self):
        for seed in range(3):
            schedule = random_schedule(seed, events=20)
            assert run_adversary(schedule).violated, f"seed {seed}"

    def test_healthy_world_stays_clean(self):
        schedule = FaultSchedule()
        schedule.add(1.0, "node:a", FaultAction.DELAY, 0.5)
        result = run_adversary(schedule, horizon=30.0)
        assert not result.violated


class TestMinimizer:
    def test_acceptance_demo(self):
        """ISSUE acceptance: a seeded schedule of >=20 events violates an
        invariant and ddmin shrinks it to <=5 events reproducing the same
        violation under deterministic replay."""
        seed, schedule, result = find_violating_schedule(0, events=20)
        assert len(schedule) >= 20
        assert result.violated
        minimized = minimize_schedule(schedule)
        assert len(minimized.minimized) <= 5
        assert minimized.reduction > 0.5
        replay = run_adversary(minimized.minimized)
        assert replay.violated
        assert any(
            v.invariant == minimized.target for v in replay.violations
        )
        # probes counts every subset ddmin asked about, replays only the
        # ones actually executed; they can only differ by memo hits.
        assert minimized.replays <= minimized.probes

    def test_memoization_skips_revisited_subsets(self):
        """A two-culprit predicate forces ddmin through complement passes
        and granularity resets that revisit identical index-subsets; the
        memo answers those without re-running the replay."""
        schedule = random_schedule(4, events=20)
        culprits = (schedule.events[3], schedule.events[17])
        replay_calls: list[int] = []

        def replay(subset):
            replay_calls.append(1)
            return subset

        def predicate(subset) -> bool:
            return all(c in subset.events for c in culprits)

        minimized = minimize_schedule(
            schedule, replay=replay, predicate=predicate
        )
        assert len(minimized.minimized) <= 4
        assert all(c in minimized.minimized.events for c in culprits)
        assert minimized.replays == len(replay_calls)
        assert minimized.replays < minimized.probes, (
            "memoization never fired on a revisiting ddmin run"
        )

    def test_memoization_never_changes_the_answer(self):
        """The memo is a pure cache: probe accounting aside, the minimized
        schedule equals what a replay-every-probe ddmin produces."""
        _seed, schedule, _result = find_violating_schedule(0, events=20)
        first = minimize_schedule(schedule)
        second = minimize_schedule(schedule)
        assert first.minimized == second.minimized
        assert first.replays == second.replays
        assert first.probes == second.probes

    def test_minimized_is_one_minimal(self):
        """1-minimality: removing any single event loses the violation."""
        _seed, schedule, _result = find_violating_schedule(0, events=20)
        minimized = minimize_schedule(schedule)
        kept = minimized.minimized
        for drop in range(len(kept)):
            indices = [i for i in range(len(kept)) if i != drop]
            smaller = kept.subset(indices)
            replay = run_adversary(smaller)
            assert not any(
                v.invariant == minimized.target for v in replay.violations
            )

    def test_non_violating_schedule_rejected(self):
        schedule = FaultSchedule()
        schedule.add(1.0, "node:a", FaultAction.DELAY, 0.5)
        with pytest.raises(ReproError, match="does not violate"):
            minimize_schedule(schedule)

    def test_explicit_target_must_be_violated(self):
        schedule = FaultSchedule()
        schedule.add(5.0, "a", FaultAction.KILL)
        with pytest.raises(ReproError, match="does not violate"):
            minimize_schedule(schedule, target="mastership-uniqueness")


class TestAdversarialAb:
    def test_hardened_violates_less(self):
        from repro.faultinjection import FaultCampaign

        report = FaultCampaign(seeds_per_fault=3).run_adversarial_ab(events=16)
        assert report.bare_violation_count > 0
        assert report.hardened_violation_count <= report.bare_violation_count
        summary = report.summary()
        assert summary["schedules"] == 3
        assert summary["hardened_retries"] > 0
        per_invariant = report.per_invariant()
        assert per_invariant
        for bare, hardened in per_invariant.values():
            assert bare >= 0 and hardened >= 0
