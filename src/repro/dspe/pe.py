"""Processing-element state tracked by the simulation engine.

A PE is one replica of a bolt's operator pinned to a (simulated) cluster
node.  The engine models each PE as a FIFO single-server queue: messages
are served in arrival order and the service time of each message is the
*measured* wall-clock cost of the real operator code (scaled by the
engine's ``time_scale``), so relative algorithmic cost differences between
join designs translate directly into simulated throughput and latency.
"""

from __future__ import annotations

from .topology import Operator

__all__ = ["ProcessingElement"]


class ProcessingElement:
    """One operator instance plus its queueing state."""

    __slots__ = (
        "component",
        "index",
        "node",
        "operator",
        "busy_until",
        "processed",
        "busy_time",
        "wait_time",
        "wait_max",
        "down",
        "crashes",
        "downtime",
        "checkpoints",
        "pending",
        "queue_peak",
    )

    def __init__(self, component: str, index: int, node: int, operator: Operator) -> None:
        self.component = component
        self.index = index
        self.node = node
        self.operator = operator
        #: Simulated time until which this PE is occupied.
        self.busy_until = 0.0
        self.processed = 0
        self.busy_time = 0.0
        #: Aggregate / worst time messages spent queued before service.
        self.wait_time = 0.0
        self.wait_max = 0.0
        #: Fault-injection state: a down PE receives no deliveries (they
        #: are held for redelivery) until its scheduled restart.
        self.down = False
        self.crashes = 0
        self.downtime = 0.0
        self.checkpoints = 0
        #: Observability gauge: deliveries dispatched to this PE but not
        #: yet served (maintained only when the run has an observer).
        self.pending = 0
        #: Peak depth of this PE's queue over the run (the high
        #: watermark; see repro.dspe.flow).
        self.queue_peak = 0

    @property
    def name(self) -> str:
        return f"{self.component}[{self.index}]"

    def utilization(self, horizon: float) -> float:
        """Fraction of the simulated horizon this PE spent serving.

        0.0 for a PE that never did any work (zero messages processed
        and no checkpoint overhead charged) or for an empty horizon —
        an idle PE must report idle, not garbage from a 0/0 ratio.
        """
        if horizon <= 0:
            return 0.0
        if self.processed == 0 and self.busy_time == 0.0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def mean_wait(self) -> float:
        """Average queueing delay per processed message.

        0.0 when the PE processed nothing — the mean of an empty sample
        is reported as idle, never a division error or a stale ratio.
        """
        if self.processed == 0:
            return 0.0
        return self.wait_time / self.processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessingElement({self.name}, node={self.node}, "
            f"processed={self.processed})"
        )
