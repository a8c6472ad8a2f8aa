"""The slot-stepped simulation engine.

Executes an :class:`~repro.policies.base.ActivationPolicy` on a
:class:`~repro.sim.network.SensorNetwork` for ``L`` slots with exact
per-node energy accounting, optional stochastic charging (Sec. V) and
optional event detection.  This is the "testbed" of the reproduction:
the combinatorial claims of :mod:`repro.core` (feasibility of the
greedy schedule, achieved average utility) are validated by running
them here, where a node that is not actually fully charged will refuse
its activation no matter what the schedule says.

Long runs are crash-safe: :meth:`SimulationEngine.checkpoint` captures
every piece of mutable runtime state -- clock, batteries, accumulator,
RNG streams, policy state -- as a JSON-compatible dict, and
:meth:`SimulationEngine.restore` puts an identically-constructed engine
back into it, after which :meth:`SimulationEngine.advance` continues
the run bit-for-bit where it left off (see :mod:`repro.io.checkpoint`
for the atomic on-disk format).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.energy.states import NodeState
from repro.obs import events as obs_events
from repro.obs import tracing
from repro.obs.registry import get_registry
from repro.policies.base import ActivationPolicy
from repro.sim.events import DetectionOutcome, PoissonEventProcess
from repro.sim.metrics import SlotRecord, UtilityAccumulator
from repro.sim.network import SensorNetwork
from repro.sim.node import NodeSlotReport
from repro.sim.random_model import RandomChargingModel
from repro.utility.incremental import SlotValueMemo

#: Format tag/version of :meth:`SimulationEngine.checkpoint` payloads.
ENGINE_STATE_KIND = "engine-state"
ENGINE_STATE_VERSION = 1

#: Entries kept by each per-distinct-set cache of the slot loop.  A
#: periodic schedule revisits a few dozen distinct sets (the 20k-sensor
#: city of ``perfbench`` fleet-day: 4 command sets, 24 active sets in a
#: 112-slot cycle); a policy that builds a fresh set every slot just
#: cycles through the bound.
SLOT_CACHE_ENTRIES = 64


@dataclass
class SimulationResult:
    """Everything a run produced."""

    num_slots: int
    accumulator: UtilityAccumulator
    refused_activations: int
    node_reports: List[List[NodeSlotReport]] = field(default_factory=list)
    detection: Optional[DetectionOutcome] = None

    @property
    def total_utility(self) -> float:
        return self.accumulator.total_utility

    @property
    def average_slot_utility(self) -> float:
        return self.accumulator.average_slot_utility

    @property
    def average_utility_per_target(self) -> float:
        return self.accumulator.average_utility_per_target

    def activation_evenness(self) -> float:
        """Std/mean of per-sensor activation counts (0 = perfectly even)."""
        counts = self.accumulator.activation_counts()
        if not counts:
            return 0.0
        values = np.array(list(counts.values()), dtype=float)
        if values.mean() == 0:
            return 0.0
        return float(values.std() / values.mean())


class SimulationEngine:
    """Couples network, policy and optional stochastic models.

    Parameters
    ----------
    network, policy, charging_model, event_process, keep_node_reports:
        As before: the simulated hardware, the decision layer and the
        optional Sec. V stochastic models.
    sensing_filter:
        Optional ``(node_id, slot) -> bool`` predicate; nodes for which
        it returns False drain energy like any active node but their
        readings are discarded -- they contribute nothing to utility or
        event detection.  This is the hardware half of the stuck-active
        fault model (pass
        :meth:`~repro.sim.failures.FailurePlan.sensing_ok`).
    vectorized:
        ``None`` (default) auto-selects the struct-of-arrays fast path
        when nothing needs per-node reports: no ``charging_model`` (its
        per-node RNG draws fix the scalar call order), no
        ``keep_node_reports``, and a policy whose ``observe`` is the
        base no-op.  ``False`` forces scalar object stepping (the
        differential reference); ``True`` asserts eligibility.  Both
        paths are bit-identical -- the fast path performs the same
        float64 ops per node (see :mod:`repro.sim.soa`) and builds the
        active set in the same ascending-id order, and a
        ``sensing_filter`` is applied *after* the activity mask is
        computed, exactly like the scalar path.
    """

    def __init__(
        self,
        network: SensorNetwork,
        policy: ActivationPolicy,
        charging_model: Optional[RandomChargingModel] = None,
        event_process: Optional[PoissonEventProcess] = None,
        keep_node_reports: bool = False,
        sensing_filter: Optional[Callable[[int, int], bool]] = None,
        vectorized: Optional[bool] = None,
    ):
        self.network = network
        self.policy = policy
        self.charging_model = charging_model
        self.event_process = event_process
        self.keep_node_reports = keep_node_reports
        self.sensing_filter = sensing_filter
        eligible = (
            charging_model is None
            and not keep_node_reports
            and type(policy).observe is ActivationPolicy.observe
        )
        if vectorized is None:
            self._vectorized = eligible
        elif vectorized and not eligible:
            raise ValueError(
                "vectorized stepping needs no charging model, no node "
                "reports and a policy without an observe() override"
            )
        else:
            self._vectorized = bool(vectorized)
        self._accumulator: Optional[UtilityAccumulator] = None
        self._all_reports: List[List[NodeSlotReport]] = []
        self._refused_total = 0
        self._slots_done = 0
        # Bounded caches of the slot loop (see _command and
        # _intern_active).  Not run state, so checkpoint and restore
        # ignore them and a resumed engine rebuilds them.
        # id(command frozenset) -> [the set, its mask, encoded sorted ids]
        self._commands = SlotValueMemo(SLOT_CACHE_ENTRIES)
        # activity-mask bytes -> [active set, ascending id tuple, its JSON]
        self._active_sets = SlotValueMemo(SLOT_CACHE_ENTRIES)
        # Metric handles are resolved once; per-slot work is then a
        # couple of lock-protected adds (or no-ops under REPRO_OBS=0).
        registry = get_registry()
        self._m_slots = registry.counter(
            "repro_sim_slots_total", "Simulation slots executed"
        )
        self._m_slot_seconds = registry.histogram(
            "repro_sim_slot_seconds", "Per-slot simulation step wall time"
        )
        self._m_refusals = registry.counter(
            "repro_sim_refusals_total",
            "Activations refused by undercharged nodes",
        )
        self._m_slot_utility = registry.gauge(
            "repro_sim_slot_utility",
            "Utility achieved in the most recent simulated slot",
        )

    @property
    def slots_done(self) -> int:
        """Slots executed in the current accumulation (survives restore)."""
        return self._slots_done

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, num_slots: int) -> SimulationResult:
        """Execute the policy for ``num_slots`` slots from the current
        network state, accumulating into a *fresh* result."""
        self._begin()
        return self.advance(num_slots)

    def advance(self, num_slots: int) -> SimulationResult:
        """Execute ``num_slots`` more slots, *continuing* the current
        accumulation, and return the cumulative result so far.

        Unlike :meth:`run` this never resets the accumulator, so a run
        executed as several ``advance`` calls -- or interrupted,
        checkpointed and resumed in a new process -- produces exactly
        the result an uninterrupted ``run`` would have.
        """
        if num_slots < 0:
            raise ValueError(f"num_slots must be >= 0, got {num_slots}")
        if self._accumulator is None:
            self._begin()
        with tracing.span("engine.advance", slots=num_slots):
            for _ in range(num_slots):
                self._step()
        return SimulationResult(
            num_slots=self._slots_done,
            accumulator=self._accumulator,
            refused_activations=self._refused_total,
            node_reports=self._all_reports,
            detection=(
                self.event_process.outcome
                if self.event_process is not None
                else None
            ),
        )

    def _begin(self) -> None:
        self._accumulator = UtilityAccumulator(self.network.utility)
        if self.sensing_filter is not None:
            # Filtered active sets are re-built per slot with a
            # slot-dependent predicate; equal sets need not share one
            # construction order, so the memo is not provably bit-exact.
            self._accumulator.disable_memo()
        self._all_reports = []
        self._refused_total = 0
        self._slots_done = 0

    def _step(self) -> None:
        step_start = time.perf_counter()
        slot = self.network.clock.slot
        commands = self.policy.decide(slot, self.network)
        command = None

        if self._vectorized:
            # Struct-of-arrays fast path: one vectorized pass over the
            # shared NodeArrays, bit-identical to the scalar loop below.
            command = self._command(commands)
            was_active, refused = self.network.arrays.step_all(command[1])
            interned = self._intern_active(was_active)
            active_set = interned[0]
            reports: List[NodeSlotReport] = []
        else:
            charge_scale = 1.0
            if self.charging_model is not None:
                charge_scale = self.charging_model.charge_scale(slot)

            reports = []
            for node in self.network.nodes:
                drain_scale = 1.0
                if self.charging_model is not None and node.node_id in commands:
                    drain_scale = self.charging_model.drain_scale(slot)
                reports.append(
                    node.step(
                        slot,
                        activate=node.node_id in commands,
                        drain_scale=drain_scale,
                        charge_scale=charge_scale,
                    )
                )
            active_set = frozenset(r.node_id for r in reports if r.was_active)
            interned = None
            refused = sum(1 for r in reports if r.refused_activation)

        if self.sensing_filter is not None:
            # Stuck nodes burned the energy but their readings are junk.
            # Applied strictly *after* the activity mask / candidate
            # lookup, on both stepping paths, so filtered sensors still
            # drain energy exactly like unfiltered ones.
            active_set = frozenset(
                v for v in active_set if self.sensing_filter(v, slot)
            )
            interned = None
        self._refused_total += refused
        record = self._accumulator.record(slot, active_set, refused=refused)

        if self.event_process is not None:
            self.event_process.step(slot, active_set)

        if obs_events.sink_active():
            # Sorted id lists cost O(n log n) at fleet scale and their
            # JSON about as much again: on the fast path both are built
            # once per distinct set, and not at all when nothing is
            # listening.
            obs_events.emit(
                "engine.slot",
                slot=slot,
                commanded=self._sorted_ids(commands, command),
                active=(
                    self._encoded_ids(interned)
                    if interned is not None
                    else sorted(active_set)
                ),
                utility=record.utility,
                refused=refused,
            )
        if not self._vectorized:
            self.policy.observe(slot, reports)
        if self.keep_node_reports:
            self._all_reports.append(reports)
        self.network.clock.advance()
        self._slots_done += 1
        self._m_slots.inc()
        if refused:
            self._m_refusals.inc(refused)
        self._m_slot_utility.set(record.utility)
        self._m_slot_seconds.observe(time.perf_counter() - step_start)

    def _command(self, commands: Iterable[int]) -> List:
        """``[commands, mask, encoded sorted ids]`` of the slot's
        commands; the read-only mask feeds ``NodeArrays.step_all``, the
        sorted ids and their JSON text (filled on first use, see
        :meth:`_sorted_ids`) the ``engine.slot`` event.

        A frozenset's entry is built once and reused while the policy
        keeps handing over that same object, as a schedule does every
        period.  The entry is keyed on the object's identity, so a
        policy that builds a fresh set every slot pays one int probe
        and its set is never hashed; the entry holds the set, so its id
        cannot be reused while the entry lives.
        """
        mask_of = self.network.arrays.command_mask
        if not isinstance(commands, frozenset):
            return [commands, mask_of(commands), None]
        entry = self._commands.lookup(id(commands))
        if entry is None:
            mask = mask_of(commands)
            mask.flags.writeable = False
            entry = self._commands.store(id(commands), [commands, mask, None])
        return entry

    def _intern_active(self, was_active: np.ndarray) -> List:
        """``[active set, ascending ids, encoded ids]`` of an activity
        mask.

        This is the fast path's one construction site: a frozenset
        filled in ascending id order, the same order as the scalar
        path's node walk.  An equal mask returns the pair built for it
        before, so every equal active set is the *same* object -- its
        hash is cached and :class:`~repro.sim.metrics.UtilityAccumulator`
        memo hits become identity probes.  Reusing the object is
        bit-exact because a fresh build would lay the set out
        identically.  The id tuple is the ``engine.slot`` event's
        ``active`` list, already sorted; its JSON text is filled in by
        :meth:`_encoded_ids` when a sink first needs it.
        """
        key = was_active.tobytes()
        interned = self._active_sets.lookup(key)
        if interned is None:
            ids = np.flatnonzero(was_active).tolist()
            interned = self._active_sets.store(
                key, [frozenset(ids), tuple(ids), None]
            )
        return interned

    @staticmethod
    def _encoded_ids(interned: List) -> obs_events.Encoded:
        """The interned active ids with their JSON text, encoded once
        per distinct set and only when a sink asks for them."""
        if interned[2] is None:
            interned[2] = obs_events.Encoded.of(interned[1])
        return interned[2]

    @staticmethod
    def _sorted_ids(
        commands: Iterable[int], command: Optional[List]
    ) -> Union[List[int], obs_events.Encoded]:
        """``sorted(commands)``; for a cached command frozenset kept in
        its entry as a tuple with its JSON text, which every event of
        that set splices in."""
        if command is None or not isinstance(commands, frozenset):
            return sorted(commands)
        if command[2] is None:
            command[2] = obs_events.Encoded.of(tuple(sorted(commands)))
        return command[2]

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict:
        """Capture all mutable runtime state as a JSON-compatible dict.

        The engine's *construction* (network topology, utility, policy
        wiring, stochastic-model parameters) is deliberately not
        captured -- the caller rebuilds an identical engine and then
        calls :meth:`restore`, the same contract as
        :func:`~repro.io.serialization.schedule_to_dict` shipping a
        schedule without its solver.
        """
        return {
            "kind": ENGINE_STATE_KIND,
            "version": ENGINE_STATE_VERSION,
            "clock_slot": self.network.clock.slot,
            "nodes": [node.snapshot() for node in self.network.nodes],
            "slots_done": self._slots_done,
            "refused_total": self._refused_total,
            "accumulator": (
                None
                if self._accumulator is None
                else [_record_to_dict(r) for r in self._accumulator.records]
            ),
            "node_reports": (
                [
                    [_report_to_dict(r) for r in slot_reports]
                    for slot_reports in self._all_reports
                ]
                if self.keep_node_reports
                else None
            ),
            "charging_model": (
                None
                if self.charging_model is None
                else self.charging_model.state_dict()
            ),
            "event_process": (
                None
                if self.event_process is None
                else self.event_process.state_dict()
            ),
            "policy": self.policy.state_dict(),
        }

    def restore(self, state: Dict) -> None:
        """Inverse of :meth:`checkpoint`, onto an identically-built engine."""
        kind = state.get("kind")
        if kind != ENGINE_STATE_KIND:
            raise ValueError(
                f"not an engine state (kind={kind!r}, "
                f"expected {ENGINE_STATE_KIND!r})"
            )
        version = state.get("version")
        if version != ENGINE_STATE_VERSION:
            raise ValueError(
                f"unsupported engine state version {version!r} "
                f"(supported: {ENGINE_STATE_VERSION})"
            )
        if len(state["nodes"]) != self.network.num_sensors:
            raise ValueError(
                f"checkpoint holds {len(state['nodes'])} nodes but the "
                f"network has {self.network.num_sensors}; rebuild the "
                "engine with the original configuration before restoring"
            )
        self.network.clock.seek(state["clock_slot"])
        for node, snap in zip(self.network.nodes, state["nodes"]):
            node.restore_snapshot(snap)
        self._slots_done = state["slots_done"]
        self._refused_total = state["refused_total"]
        if state["accumulator"] is None:
            self._accumulator = None
        else:
            self._accumulator = UtilityAccumulator(self.network.utility)
            if self.sensing_filter is not None:
                self._accumulator.disable_memo()
            self._accumulator.records = [
                _record_from_dict(d) for d in state["accumulator"]
            ]
        reports = state.get("node_reports")
        self._all_reports = (
            []
            if reports is None
            else [
                [_report_from_dict(r) for r in slot_reports]
                for slot_reports in reports
            ]
        )
        if self.charging_model is not None and state["charging_model"] is not None:
            self.charging_model.load_state_dict(state["charging_model"])
        if self.event_process is not None and state["event_process"] is not None:
            self.event_process.load_state_dict(state["event_process"])
        self.policy.load_state_dict(state["policy"])


# ----------------------------------------------------------------------
# Record / report (de)serialization helpers
# ----------------------------------------------------------------------


def _record_to_dict(record: SlotRecord) -> Dict:
    return {
        "slot": record.slot,
        "active_set": sorted(record.active_set),
        "utility": record.utility,
        "per_target": (
            None if record.per_target is None else record.per_target.tolist()
        ),
        "refused_activations": record.refused_activations,
    }


def _record_from_dict(data: Dict) -> SlotRecord:
    return SlotRecord(
        slot=data["slot"],
        active_set=frozenset(data["active_set"]),
        utility=data["utility"],
        per_target=(
            None
            if data["per_target"] is None
            else np.asarray(data["per_target"], dtype=float)
        ),
        refused_activations=data["refused_activations"],
    )


def _report_to_dict(report: NodeSlotReport) -> Dict:
    return {
        "node_id": report.node_id,
        "slot": report.slot,
        "was_active": report.was_active,
        "refused_activation": report.refused_activation,
        "energy_drained": report.energy_drained,
        "energy_charged": report.energy_charged,
        "state_after": report.state_after.value,
        "level_after": report.level_after,
    }


def _report_from_dict(data: Dict) -> NodeSlotReport:
    return NodeSlotReport(
        node_id=data["node_id"],
        slot=data["slot"],
        was_active=data["was_active"],
        refused_activation=data["refused_activation"],
        energy_drained=data["energy_drained"],
        energy_charged=data["energy_charged"],
        state_after=NodeState(data["state_after"]),
        level_after=data["level_after"],
    )
