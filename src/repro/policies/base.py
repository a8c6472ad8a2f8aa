"""The activation-policy interface.

A policy ``X`` in the paper's notation maps every time-slot to the set
of sensors commanded active (Sec. II-D).  The simulator calls
:meth:`decide` at the start of each slot and :meth:`observe` after the
slot resolves, so stateful policies (self-healing, estimators)
can learn from what actually happened -- e.g. refused activations
reveal that the assumed charging pattern was wrong.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, FrozenSet, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.network import SensorNetwork
    from repro.sim.node import NodeSlotReport


class ActivationPolicy(ABC):
    """Decides, per slot, which sensors to command active."""

    @abstractmethod
    def decide(self, slot: int, network: "SensorNetwork") -> FrozenSet[int]:
        """Sensors to command active at the start of ``slot``.

        Commands to non-READY nodes are refused by the hardware layer
        (and counted); a policy that wants clean execution should
        consult ``network.ready_sensors()``.
        """

    def observe(
        self, slot: int, reports: Sequence["NodeSlotReport"]
    ) -> None:  # noqa: B027 - optional hook, default no-op
        """Post-slot feedback hook; default does nothing."""

    def reset(self) -> None:  # noqa: B027 - optional hook, default no-op
        """Clear internal state before a fresh run; default no-op."""

    def state_dict(self) -> dict:
        """JSON-compatible snapshot of mutable state for checkpointing.

        Stateless policies (and policies whose state is a deterministic
        function of the network, like a lazily-planned schedule) can
        keep the default empty dict; policies carrying RNG streams,
        estimators or repair state must override both this and
        :meth:`load_state_dict` or a resumed run will diverge from the
        uninterrupted one.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:  # noqa: B027 - optional hook
        """Restore what :meth:`state_dict` captured; default no-op."""
