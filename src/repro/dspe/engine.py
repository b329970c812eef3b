"""Discrete-event simulation engine for distributed stream topologies.

This module stands in for the paper's Apache Storm cluster (10 machines,
Nimbus/Supervisor/Zookeeper; Section 5.3).  The simulation preserves what
the experiments actually measure:

* every processing element is a FIFO single-server queue whose **service
  time is the measured wall-clock cost of the real operator code**, so the
  relative expense of probing a PO-Join batch vs a CSS-tree vs a chain
  index drives throughput and latency exactly as on a real cluster;
* messages between PEs pay a configurable network delay (lower within a
  node than across nodes);
* tuples carry their router-entry time, so event-time latency includes
  queueing and network cost end to end.

Delivery is reliable and per-link FIFO, which satisfies the paper's
at-least-once processing guarantee without modelling replays.

The fault-injection subsystem (:mod:`repro.dspe.faults`) relaxes that:
with a :class:`~repro.dspe.faults.FaultConfig`, PEs crash and restart at
scheduled simulated times, link delays spike, and the distributed cache
partitions.  The recovery layer (:mod:`repro.dspe.recovery`) keeps the
results correct anyway — periodic operator checkpoints, bounded replay
logs, held-delivery buffers for downtime, and replay-duplicate dedup —
so a chaos run's final result multiset is bit-identical to the
failure-free run.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import random
import time
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.arena import ArenaSlice
from ..obs import Observer
from .faults import CrashEvent, FaultConfig, FaultPlan, build_fault_plan
from .flow import FlowConfig, FlowController
from .partitioning import Grouping
from .pe import ProcessingElement
from .recovery import RecoveryConfig, RecoveryManager
from .topology import Topology

__all__ = [
    "Message",
    "Context",
    "Executor",
    "Engine",
    "RunResult",
    "Record",
    "TupleBatch",
]


class TupleBatch:
    """A micro-batch of tuples travelling the topology as one message.

    The engine's cost contract is unchanged — a PE's service time is the
    measured wall clock of one ``process`` call — so a batch amortizes
    the per-message interpreter overhead over ``len(batch)`` tuples.
    ``origin_times[i]`` preserves tuple ``i``'s router-entry time; the
    batch's own ``origin_time`` (its oldest tuple's) is what the
    enclosing :class:`Message` is stamped with, keeping event-time
    latency conservative at batch granularity.

    ``tuples`` is the router's zero-copy
    :class:`~repro.core.arena.ArenaSlice`: consumers read its columns or
    iterate it for per-tuple views, and pickling ships the slice's wire
    format (raw column arrays), never per-tuple objects.
    """

    __slots__ = ("tuples", "origin_times")

    def __init__(self, tuples: ArenaSlice, origin_times=None) -> None:
        self.tuples = tuples
        self.origin_times = (
            list(origin_times) if origin_times is not None else None
        )

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    @property
    def origin_time(self) -> Optional[float]:
        if self.origin_times:
            return self.origin_times[0]
        return None


class Message:
    """Envelope delivered to a PE.

    ``trace`` is the observability hook: when a run has an observer and
    this delivery was sampled, it holds the tuple's
    :class:`~repro.obs.trace.TraceSpan`, which downstream emissions
    inherit.  It stays ``None`` (and costs one slot) otherwise.

    ``attempts`` counts failed service attempts of this exact envelope
    (poison-tuple retries, see :mod:`repro.dspe.flow`); redeliveries
    reuse the envelope so the count survives requeueing.
    """

    __slots__ = ("payload", "stream", "origin_time", "marks", "trace", "attempts")

    def __init__(
        self,
        payload,
        stream: str = "default",
        origin_time: float = 0.0,
        marks: Optional[Dict[str, float]] = None,
        trace=None,
    ) -> None:
        self.payload = payload
        self.stream = stream
        self.origin_time = origin_time
        self.marks = marks if marks is not None else {}
        self.trace = trace
        self.attempts = 0


class Record:
    """A metric record emitted by an operator via ``ctx.record``."""

    __slots__ = ("name", "payload", "completion_time", "origin_time", "marks")

    def __init__(
        self,
        name: str,
        payload,
        completion_time: float,
        origin_time: float,
        marks: Dict[str, float],
    ) -> None:
        self.name = name
        self.payload = payload
        self.completion_time = completion_time
        self.origin_time = origin_time
        self.marks = marks

    @property
    def event_latency(self) -> float:
        """Completion minus router-entry time (event-time latency)."""
        return self.completion_time - self.origin_time

    def processing_latency(self, mark: str = "joiner") -> float:
        """Completion minus the time the tuple entered the joiner."""
        entered = self.marks.get(mark, self.origin_time)
        return self.completion_time - entered


class Context:
    """Facilities an operator may use while processing one message."""

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        self._begin(None, 0.0, None)

    def _begin(
        self,
        pe: Optional[ProcessingElement],
        now: float,
        message: Optional[Message],
        pressure: bool = False,
    ) -> None:
        """Reset per-call state before one ``process`` / ``flush`` call."""
        self.pe = pe
        self.now = now
        self._message = message
        self._emissions: List[Tuple[str, object]] = []
        self._records: List[Tuple[str, object]] = []
        self._charged: Optional[float] = None
        #: Wall seconds spent inside observe_* callbacks during the
        #: current service; the engine subtracts this from the measured
        #: service time so instrumentation never inflates the charge.
        self._obs_overhead = 0.0
        #: Overload signal of the serving PE's queue.
        self._pressure = pressure

    # -- emission -------------------------------------------------------
    def emit(self, payload, stream: str = "default") -> None:
        """Send ``payload`` downstream on ``stream`` (after completion)."""
        self._emissions.append((stream, payload))

    # -- metrics --------------------------------------------------------
    def record(self, name: str, payload=None) -> None:
        """Log a metric record stamped with this message's completion time."""
        self._records.append((name, payload))

    # -- state migration ------------------------------------------------
    def migrate_out(self, payload: dict) -> None:
        """Hand exported shard state to the executor's migration board.

        Part of adaptive repartitioning (:mod:`repro.parallel.balance`):
        an affected shard joiner calls this while processing a
        repartition marker; once every affected shard of the epoch has
        deposited, the executor re-slices the state by the new cuts and
        delivers each shard its ``MigrateIn``.  The deposit is immediate
        (not an emission) — the board must be able to complete while
        other deliveries are still in flight.
        """
        assert self.pe is not None
        self._engine._migration_deposit(self.pe.component, payload)

    def mark(self, name: str) -> None:
        """Stamp the in-flight message (e.g. joiner entry time)."""
        assert self._message is not None
        self._message.marks.setdefault(name, self.now)

    # -- cost model -----------------------------------------------------
    def charge(self, seconds: float) -> None:
        """Override the measured service time for this message.

        Used where the Python wall clock is the wrong model — e.g. the
        PO-Join PE charges the *makespan* of Algorithm 4's thread pool
        rather than the single-threaded sum.
        """
        if seconds < 0:
            raise ValueError("charge must be non-negative")
        self._charged = seconds

    # -- observability --------------------------------------------------
    @property
    def observing(self) -> bool:
        """True when the run has an observer attached.

        Operators gate *all* instrumentation work (timestamping,
        dict-building) behind this so a plain run pays nothing.
        """
        return self._engine.obs is not None

    def observe_cost(self, category: str, seconds: float, **fields) -> None:
        """Attribute ``seconds`` of this service to a phase category.

        The join operators use this for the paper's operator-cost split
        (insert vs. probe vs. merge).  The callback's own wall cost is
        accumulated into ``_obs_overhead`` and excluded from the charged
        service time.
        """
        obs = self._engine.obs
        if obs is None:
            return
        t0 = time.perf_counter()  # repro: allow-wallclock
        assert self.pe is not None
        obs.on_operator_cost(self.pe.name, self.now, category, seconds, fields or None)
        self._obs_overhead += time.perf_counter() - t0  # repro: allow-wallclock

    def observe_event(self, kind: str, **fields) -> None:
        """Append a point event (merge, cache sync, ...) to the event log."""
        obs = self._engine.obs
        if obs is None:
            return
        t0 = time.perf_counter()  # repro: allow-wallclock
        assert self.pe is not None
        obs.on_event(kind, self.now, self.pe.name, fields or None)
        self._obs_overhead += time.perf_counter() - t0  # repro: allow-wallclock

    @property
    def pressure(self) -> bool:
        """True while the serving PE's queue is above its pressure mark.

        Only the ``degrade`` flow policy is expected to act on this —
        the SPO joiner defers merges and answers from the mutable
        component while pressured — but the signal is maintained for
        every PE queue.  Always False on an unbounded queue.
        """
        return self._pressure

    @property
    def num_pes(self) -> int:
        assert self.pe is not None
        return self._engine.parallelism_of(self.pe.component)

    @property
    def pe_index(self) -> int:
        assert self.pe is not None
        return self.pe.index

    @property
    def origin_time(self) -> float:
        assert self._message is not None
        return self._message.origin_time


class RunResult:
    """Everything a benchmark needs from one simulated run."""

    def __init__(
        self,
        records: List[Record],
        pes: List[ProcessingElement],
        sim_end: float,
        wall_seconds: float,
        events_processed: int,
        recovery=None,
        fault_plan: Optional[FaultPlan] = None,
        telemetry=None,
        obs: Optional[Observer] = None,
        flow=None,
        redeliveries: int = 0,
        duplicates_dropped: int = 0,
        redeliveries_exhausted: int = 0,
        supervisor=None,
    ) -> None:
        self.records = records
        self.pes = pes
        self.sim_end = sim_end
        self.wall_seconds = wall_seconds
        self.events_processed = events_processed
        #: :class:`~repro.dspe.metrics.RecoveryMetrics` when the run had
        #: a recovery layer, else None.
        self.recovery = recovery
        self.fault_plan = fault_plan
        #: :class:`~repro.obs.telemetry.Telemetry` per-PE tick series
        #: when the run had an observer, else None.
        self.telemetry = telemetry
        #: The full :class:`~repro.obs.Observer` (tracer + telemetry +
        #: event log) when one was attached, else None.
        self.obs = obs
        #: The :class:`~repro.dspe.flow.FlowController` (config, metrics,
        #: dead-letter log) of a simulated run; None on the process
        #: substrate.
        self.flow = flow
        #: At-least-once ingestion counters: scheduled redeliveries,
        #: duplicate copies dropped by offset dedup, and tuples whose
        #: redelivery budget (``max_redeliveries``) ran out.
        self.redeliveries = redeliveries
        self.duplicates_dropped = duplicates_dropped
        self.redeliveries_exhausted = redeliveries_exhausted
        #: :class:`~repro.parallel.supervisor.SupervisorReport` when the
        #: run executed on the process substrate with supervision, else
        #: None (simulated runs report recovery via ``recovery``).
        self.supervisor = supervisor

    @property
    def dead_letters(self):
        """Quarantined messages and exhausted source redeliveries of a
        simulated run; empty on the process substrate."""
        return self.flow.dead_letters if self.flow is not None else []

    def records_named(self, name: str) -> List[Record]:
        return [r for r in self.records if r.name == name]

    def pes_of(self, component: str) -> List[ProcessingElement]:
        return [pe for pe in self.pes if pe.component == component]

    def result_fingerprint(
        self,
        names: Tuple[str, ...] = ("result", "mutable_result", "immutable_result"),
    ) -> str:
        """Order-independent digest of the run's join results.

        Hashes the multiset of ``(record name, probe tid, sorted match
        set)`` triples — the timing-free part of a run — so two runs
        produce the same fingerprint iff they emitted the same results,
        regardless of simulated-clock jitter from measured service
        times.  This is what the chaos experiments compare against the
        failure-free run.
        """
        entries = []
        for record in self.records:
            if record.name not in names:
                continue
            payload = record.payload
            if isinstance(payload, dict) and "tid" in payload:
                entries.append(
                    (
                        record.name,
                        payload["tid"],
                        tuple(sorted(payload.get("matches", ()))),
                    )
                )
        entries.sort()
        return hashlib.sha256(repr(entries).encode()).hexdigest()


_SPOUT = 0
_DELIVERY = 1
_FAULT = 2
_RESTART = 3
_CHECKPOINT = 4
_SERVICE = 5


def _payload_tuples(payload) -> int:
    """Tuples carried by one delivery (batches count their length)."""
    if isinstance(payload, TupleBatch):
        return len(payload)
    return 1


def _payload_key(payload) -> object:
    """Stable identity of a delivery for dead-letter / retry accounting."""
    tid = getattr(payload, "tid", None)
    if tid is not None:
        return tid
    if isinstance(payload, TupleBatch) and len(payload):
        # First entry of the tid column: no per-row view is built.
        return int(payload.tuples.tid_values()[0])
    return repr(payload)[:80]


class Executor:
    """Common seam between topology executors.

    A topology can run on the simulated single-process :class:`Engine`
    (service-time accounting, simulated clock) or on a process-backed
    executor (:class:`repro.parallel.ParallelExecutor`) that hosts leaf
    PEs in real worker processes.  Both share the pieces that define
    *what* a run computes — topology validation, PE bookkeeping, and the
    routing rule — so results cannot drift between execution modes; only
    *when/where* operators run differs.

    Subclasses populate ``_pes`` (component name -> PE instances, or any
    per-instance bookkeeping objects) and implement :meth:`run`.
    """

    def __init__(self, topology: Topology) -> None:
        topology.validate()
        self.topology = topology
        self._pes: Dict[str, List[ProcessingElement]] = {}

    def parallelism_of(self, component: str) -> int:
        instances = self._pes.get(component)
        if instances is not None:
            return len(instances)
        bolt = self.topology.bolts.get(component)
        return bolt.parallelism if bolt is not None else 0

    def pes_of(self, component: str) -> List[ProcessingElement]:
        return list(self._pes.get(component, []))

    def route_targets(
        self, source: str, stream: str, payload
    ) -> List[Tuple[str, int]]:
        """``(component, pe_index)`` targets of one emission.

        The single routing rule — subscription lookup plus grouping
        fan-out — shared by every executor, so a payload reaches the
        same logical PEs no matter which process hosts them.
        """
        targets: List[Tuple[str, int]] = []
        for bolt, grouping in self.topology.consumers_of(source, stream):
            num = self.parallelism_of(bolt.name)
            for index in grouping.targets(payload, num):
                targets.append((bolt.name, index))
        return targets

    def run(self) -> "RunResult":
        raise NotImplementedError


class Engine(Executor):
    """Runs a :class:`~repro.dspe.topology.Topology` to completion.

    Parameters
    ----------
    topology:
        The DAG to execute.
    num_nodes:
        Simulated machines; PEs are assigned round-robin (scale-out knob
        for the Figure 16 experiment).
    net_delay_remote / net_delay_local:
        Per-message delay between PEs on different / the same node.
    time_scale:
        Multiplier applied to measured operator wall time before it is
        charged as simulated service time.
    faults:
        A :class:`~repro.dspe.faults.FaultConfig` to expand into a
        deterministic fault schedule (PE crashes, delay spikes, cache
        partitions).  Implies a default recovery layer when ``recovery``
        is not given.
    recovery:
        A :class:`~repro.dspe.recovery.RecoveryConfig` controlling
        periodic checkpoints, replay-log capacity, and which components
        are protected.
    fault_seed:
        Single seed for everything stochastic about failures: it
        overrides ``loss_seed`` for the at-least-once loss RNG and seeds
        the fault plan, so one value makes a whole chaos run
        reproducible.
    obs:
        An :class:`~repro.obs.Observer` collecting tuple traces, per-PE
        telemetry, and point events.  ``None`` (the default) disables
        all instrumentation at the cost of a per-serve ``is None``
        check; charged service times are identical either way (the
        overhead-isolation rule — see :mod:`repro.obs`).
    flow:
        A :class:`~repro.dspe.flow.FlowConfig` bounding every PE's FIFO
        queue under an overload policy (``block`` backpressure /
        ``shed`` / ``degrade``) plus poison-tuple retry + dead-letter
        quarantine.  ``None`` (the default) is the same queue model left
        unbounded and without a retry policy: operator exceptions
        propagate and spout redeliveries wait the fixed
        ``redelivery_timeout``.
    max_redeliveries:
        Budget of at-least-once redeliveries per source offset; an
        offset exhausting it is dropped with a ``redelivery_exhausted``
        record instead of retrying forever.
    """

    def __init__(
        self,
        topology: Topology,
        num_nodes: int = 1,
        net_delay_remote: float = 5e-4,
        net_delay_local: float = 5e-5,
        time_scale: float = 1.0,
        max_events: int = 50_000_000,
        cores_per_node: Optional[int] = None,
        spout_loss_rate: float = 0.0,
        redelivery_timeout: float = 0.01,
        loss_seed: int = 0,
        faults: Optional[FaultConfig] = None,
        recovery: Optional[RecoveryConfig] = None,
        fault_seed: Optional[int] = None,
        obs: Optional[Observer] = None,
        flow: Optional[FlowConfig] = None,
        max_redeliveries: int = 100,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if cores_per_node is not None and cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        if not 0.0 <= spout_loss_rate < 0.5:
            raise ValueError("spout_loss_rate must be in [0, 0.5)")
        if max_redeliveries < 0:
            raise ValueError("max_redeliveries must be >= 0")
        # Simulated time must never run backwards: a negative service or
        # delay would schedule events before the current clock.
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        if net_delay_local < 0 or net_delay_remote < 0:
            raise ValueError("network delays must be >= 0")
        if redelivery_timeout <= 0:
            raise ValueError("redelivery_timeout must be > 0")
        super().__init__(topology)
        self.num_nodes = num_nodes
        self.net_delay_remote = net_delay_remote
        self.net_delay_local = net_delay_local
        self.time_scale = time_scale
        self.max_events = max_events
        # CPU contention model (the scale-out experiments): when set, PEs
        # packed on a node compete for its cores, so a message's service
        # also waits for the node's earliest-free core.  None = unlimited.
        self.cores_per_node = cores_per_node
        self._node_cores: List[List[float]] = [
            [0.0] * (cores_per_node or 0) for __ in range(num_nodes)
        ]

        # At-least-once ingestion (Section 5.3's processing guarantee):
        # source->router deliveries may be lost (redelivered after a
        # timeout) or duplicated (redelivered although the first copy
        # arrived); offset tracking at the consumer deduplicates, so every
        # source tuple is processed exactly once, possibly late.
        self.spout_loss_rate = spout_loss_rate
        self.redelivery_timeout = redelivery_timeout
        if fault_seed is not None:
            loss_seed = fault_seed
        self.fault_seed = fault_seed if fault_seed is not None else loss_seed
        self._loss_rng = random.Random(loss_seed)
        self.redeliveries = 0
        self.duplicates_dropped = 0
        # Redelivery hardening: at most this many redeliveries per source
        # offset; an offset that exhausts the budget is dropped (counted
        # and dead-lettered) instead of retrying forever.  With a retry
        # policy the delay follows its backoff; without one it stays the
        # fixed timeout.
        self.max_redeliveries = max_redeliveries
        self.redeliveries_exhausted = 0
        self._redelivery_attempts: Dict[Tuple[str, int], int] = {}

        # Every PE is a FIFO queue drained by _SERVICE events (see
        # repro.dspe.flow); ``flow=None`` leaves the queues unbounded.
        self.flow_ctl = FlowController(flow)

        # Observability (see repro.obs): None means every hook reduces
        # to an attribute check, keeping plain runs unobserved and free.
        self.obs = obs
        self._replaying = False
        # During replay of a recovered PE's log, stateful out-edge
        # groupings (round-robin) that were restored to the checkpoint
        # must be dry-advanced so they resume the crash-time sequence
        # even though the emissions themselves are not re-dispatched.
        self._replay_routing = False
        # Adaptive-repartition migration board: epoch -> collected shard
        # exports.  Once every affected shard of an epoch has deposited,
        # the exports are re-sliced by the new cuts and each shard gets
        # its MigrateIn (see repro.parallel.balance).
        self._migrations: Dict[int, Dict] = {}

        self._build_pes()
        for instances in self._pes.values():
            for pe in instances:
                self.flow_ctl.register(pe)
        self._records: List[Record] = []
        self._seq = itertools.count()
        # Per-link FIFO floor: newest arrival per (sender, receiver PE).
        # With constant link delays this is a no-op; under delay spikes it
        # keeps a message sent during a spike from being overtaken by a
        # later message sent after the spike, preserving the engine's
        # reliable-FIFO delivery contract.
        self._link_arrivals: Dict[Tuple[str, str], float] = {}

        # Fault injection + recovery (see module docstring).  Injected
        # crashes without a recovery layer would silently lose operator
        # state, so faults imply a default RecoveryConfig.
        if faults is not None and recovery is None:
            recovery = RecoveryConfig()
        self.recovery_manager: Optional[RecoveryManager] = None
        self.fault_plan: Optional[FaultPlan] = None
        protected: Dict[str, int] = {}
        if recovery is not None:
            self.recovery_manager = RecoveryManager(recovery)
            for name, instances in self._pes.items():
                if recovery.components is not None:
                    if name not in recovery.components:
                        continue
                    if not instances[0].operator.checkpointable:
                        raise ValueError(
                            f"component {name!r} cannot be protected: its "
                            "operator is not checkpointable"
                        )
                elif not instances[0].operator.checkpointable:
                    continue
                protected[name] = len(instances)
                for pe in instances:
                    self.recovery_manager.register(pe)
        if faults is not None:
            self.fault_plan = build_fault_plan(faults, protected, self.fault_seed)

    # ------------------------------------------------------------------
    def _build_pes(self) -> None:
        node_cycle = itertools.cycle(range(self.num_nodes))
        for bolt in self.topology.bolts.values():
            instances = []
            for index in range(bolt.parallelism):
                operator = bolt.factory()
                instances.append(
                    ProcessingElement(bolt.name, index, next(node_cycle), operator)
                )
            self._pes[bolt.name] = instances

    def _delay(self, src_node: Optional[int], dst_node: int, at: float) -> float:
        if src_node is None or src_node == dst_node:
            base = self.net_delay_local
        else:
            base = self.net_delay_remote
        if self.fault_plan is not None:
            base *= self.fault_plan.delay_multiplier(at)
        return base

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        wall_start = time.perf_counter()  # repro: allow-wallclock
        heap: List[Tuple[float, int, int, object]] = []
        ctx = Context(self)
        fc = self.flow_ctl
        # Credit-based backpressure reaches the source itself: under the
        # ``block`` and ``degrade`` policies the spout pulls the next
        # tuple only once the current one was admitted downstream.
        throttle = fc.config.throttles

        # Prime the PEs.
        for instances in self._pes.values():
            for pe in instances:
                ctx.pe = pe
                pe.operator.setup(ctx)
                fc.state_of(pe).resume = functools.partial(
                    self._resume_service, heap, pe
                )

        # Prime spouts: one pending event each; refilled as consumed so a
        # long source never materializes in memory at once.
        spout_iters: Dict[str, Iterator] = {
            name: iter(spout.source) for name, spout in self.topology.spouts.items()
        }
        spout_offsets: Dict[str, Iterator[int]] = {
            name: itertools.count() for name in spout_iters
        }
        delivered: Dict[str, Set[int]] = {name: set() for name in spout_iters}
        for name, it in spout_iters.items():
            self._push_spout_event(heap, name, it, spout_offsets[name])

        # Schedule the fault plan and the first periodic checkpoint tick.
        if self.fault_plan is not None:
            for crash in self.fault_plan.crashes:
                heapq.heappush(
                    heap, (crash.at, next(self._seq), _FAULT, crash)
                )
        mgr = self.recovery_manager
        if mgr is not None and mgr.config.checkpoint_interval is not None:
            heapq.heappush(
                heap,
                (mgr.config.checkpoint_interval, next(self._seq), _CHECKPOINT, None),
            )

        sim_end = 0.0
        events = 0
        draining = False
        while heap or not draining:
            if not heap:
                # The heap is dry: give every operator a chance to flush
                # buffered output (partial tail batches).  If a flush
                # emits, keep running; a pass that emits nothing ends
                # the simulation.
                draining = not self._flush_pass(heap, ctx, sim_end)
                continue
            draining = False
            events += 1
            if events > self.max_events:
                raise RuntimeError("event budget exceeded (runaway topology?)")
            when, __, kind, data = heapq.heappop(heap)
            if kind == _SPOUT:
                name, offset, payload, origin = data
                is_retry = origin is not None
                if not is_retry:
                    origin = when
                    if not throttle:
                        # Keep the stream flowing regardless of this
                        # event's fate.  Under backpressure the next pull
                        # instead waits for this delivery's admission.
                        self._push_spout_event(
                            heap, name, spout_iters[name], spout_offsets[name]
                        )
                sim_end = max(sim_end, when)
                # In throttle mode the spout is strictly sequential: each
                # handled first-delivery pulls the next tuple, floored at
                # the current clock so admission delays propagate.
                advance = throttle and not is_retry
                if offset in delivered[name]:
                    # Offset tracking at the consumer: a redelivered copy
                    # of an already-processed tuple is dropped.
                    self.duplicates_dropped += 1
                    if advance:
                        self._push_spout_event(
                            heap,
                            name,
                            spout_iters[name],
                            spout_offsets[name],
                            floor=when,
                        )
                    continue
                if self.spout_loss_rate:
                    roll = self._loss_rng.random()
                    if roll < self.spout_loss_rate:
                        # Lost in flight: redeliver after the (backoff)
                        # timeout — unless the offset's budget ran out,
                        # in which case the tuple is dropped for good.
                        if not self._schedule_redelivery(
                            heap, when, name, offset, payload, origin
                        ):
                            self._drop_exhausted(name, offset, payload, when)
                        if advance:
                            self._push_spout_event(
                                heap,
                                name,
                                spout_iters[name],
                                spout_offsets[name],
                                floor=when,
                            )
                        continue
                    if roll < 1.5 * self.spout_loss_rate:
                        # Ack lost: the copy arrives AND a redelivery
                        # fires (skipped silently on an exhausted budget;
                        # this copy is about to be processed anyway).
                        self._schedule_redelivery(
                            heap, when, name, offset, payload, origin
                        )
                delivered[name].add(offset)
                # Latency accounting starts at the original emission, so a
                # redelivered tuple carries its redelivery delay.
                message = Message(payload, origin_time=origin)
                if self.obs is not None:
                    # Sampling is per accepted delivery (post-dedup), so
                    # the traced population is the processed tuples.
                    message.trace = self.obs.tracer.maybe_start(origin)
                if advance:
                    def resume(grant_time, name=name):
                        self._push_spout_event(
                            heap,
                            name,
                            spout_iters[name],
                            spout_offsets[name],
                            floor=grant_time,
                        )

                    if self._dispatch(
                        heap, name, None, message, when, resume=resume
                    ):
                        resume(when)
                else:
                    self._dispatch(heap, name, None, message, when)
                continue
            if kind == _FAULT:
                crash: CrashEvent = data
                pe = self._pes[crash.component][crash.index]
                if pe.down or mgr is None:
                    # Already down (overlapping schedule): the pending
                    # restart covers this crash too.
                    continue
                sim_end = max(sim_end, self._serve_queued(heap, ctx, pe))
                pe.down = True
                mgr.on_crash(pe, when, crash.restart_delay)
                # What an output-blocked PE could not serve is held.
                self._hold_queue(heap, pe, when)
                if self.obs is not None:
                    self.obs.on_event(
                        "crash",
                        when,
                        pe.name,
                        {"restart_delay_s": crash.restart_delay},
                    )
                self._records.append(
                    Record(
                        "pe_crashed",
                        {"pe": pe.name, "at": when},
                        when,
                        when,
                        {},
                    )
                )
                heapq.heappush(
                    heap,
                    (
                        when + crash.restart_delay,
                        next(self._seq),
                        _RESTART,
                        crash,
                    ),
                )
                sim_end = max(sim_end, when)
                continue
            if kind == _RESTART:
                completion = self._handle_restart(heap, ctx, data, when)
                sim_end = max(sim_end, completion)
                continue
            if kind == _CHECKPOINT:
                latest = when
                for pe in mgr.protected_pes():
                    if pe.down:
                        continue
                    latest = max(latest, self._serve_queued(heap, ctx, pe))
                    if pe.operator.checkpoint_ready():
                        latest = max(latest, self._checkpoint_pe(pe, when))
                sim_end = max(sim_end, latest)
                # Reschedule only while other work remains, so the timer
                # does not keep a drained run alive forever.
                if heap:
                    heapq.heappush(
                        heap,
                        (
                            when + mgr.config.checkpoint_interval,
                            next(self._seq),
                            _CHECKPOINT,
                            None,
                        ),
                    )
                continue
            if kind == _SERVICE:
                completion = self._flow_service(heap, ctx, data, when)
                sim_end = max(sim_end, completion)
                continue
            pe, message = data
            if self.obs is not None:
                # Leaves the in-flight set now even if held below: held
                # messages are tracked by the recovery layer, not the
                # queue-depth gauge.
                pe.pending -= 1
            st = fc.state_of(pe)
            if pe.down:
                st.queue.append((when, message))
                self._hold_queue(heap, pe, when)
                continue
            # The delivery is admitted (or shed) now and served by a
            # _SERVICE event — or at once, when that event would have
            # been the very next pop.
            completion = self._flow_arrival(heap, ctx, pe, st, message, when)
            sim_end = max(sim_end, completion)

        for instances in self._pes.values():
            for pe in instances:
                ctx.pe = pe
                pe.operator.teardown(ctx)

        wall = time.perf_counter() - wall_start  # repro: allow-wallclock
        all_pes = [pe for group in self._pes.values() for pe in group]
        fc.finalize()
        return RunResult(
            self._records,
            all_pes,
            sim_end,
            wall,
            events,
            recovery=mgr.metrics if mgr is not None else None,
            fault_plan=self.fault_plan,
            telemetry=self.obs.telemetry if self.obs is not None else None,
            obs=self.obs,
            flow=fc,
            redeliveries=self.redeliveries,
            duplicates_dropped=self.duplicates_dropped,
            redeliveries_exhausted=self.redeliveries_exhausted,
        )

    # ------------------------------------------------------------------
    def _rr_groupings_of(self, component: str) -> List[Grouping]:
        """Stateful (round-robin) out-edge groupings of a component.

        Only meaningful for parallelism-1 components: with multiple PEs
        the counter interleaves emissions from all instances, so a
        single instance's checkpoint cannot own it.  No component in the
        repo fans *out* of a multi-instance bolt through round-robin;
        returning nothing keeps such a topology on the pre-existing
        (unprotected) behavior rather than corrupting shared state.
        """
        if self.parallelism_of(component) != 1:
            return []
        groupings: List[Grouping] = []
        for bolt in self.topology.bolts.values():
            for edge in bolt.inputs:
                if (
                    edge.source == component
                    and edge.grouping.kind == Grouping.ROUND_ROBIN
                ):
                    groupings.append(edge.grouping)
        return groupings

    def _checkpoint_pe(
        self, pe: ProcessingElement, at: float, forced: bool = False
    ) -> float:
        """Snapshot a protected PE; returns the checkpoint completion time.

        The snapshot's measured wall cost is charged to the PE as
        ordinary service time, so checkpoint overhead competes with real
        work in throughput/latency metrics exactly like processing does.
        """
        t0 = time.perf_counter()  # repro: allow-wallclock
        snapshot = pe.operator.snapshot_state()
        cost = (time.perf_counter() - t0) * self.time_scale  # repro: allow-wallclock
        routing = self._rr_groupings_of(pe.component)
        if routing:
            # Round-robin out-edge counters are routing state owned by
            # the engine, not the operator; they must be restored to the
            # same cut as the operator snapshot or replayed emissions
            # would resume the rotation from the wrong position.
            snapshot = {
                "__engine__": {
                    "routing": [g.snapshot_state() for g in routing]
                },
                "operator": snapshot,
            }
        start = max(at, pe.busy_until)
        completion = start + cost
        pe.busy_until = completion
        pe.busy_time += cost
        self.recovery_manager.store_checkpoint(pe, snapshot, at, cost, forced)
        if self.obs is not None:
            self.obs.on_event(
                "checkpoint",
                at,
                pe.name,
                {"cost_s": cost, "forced": forced, "completion": completion},
            )
        return completion

    def _handle_restart(self, heap, ctx: Context, crash: CrashEvent, when: float) -> float:
        """Bring a crashed PE back: fresh operator, restore, replay, drain.

        Replayed log entries are re-served (their records are dropped by
        the dedup layer); deliveries held while the PE was down are then
        logged and served in arrival order.  Returns the simulated time
        at which the PE caught up.
        """
        mgr = self.recovery_manager
        pe = self._pes[crash.component][crash.index]
        operator = self.topology.bolts[pe.component].factory()
        pe.operator = operator
        ctx.pe = pe
        operator.setup(ctx)
        snapshot = mgr.checkpoint_of(pe)
        routing_state = None
        if isinstance(snapshot, dict) and "__engine__" in snapshot:
            routing_state = snapshot["__engine__"]["routing"]
            snapshot = snapshot["operator"]
        if snapshot is not None:
            operator.restore_state(snapshot)
        routing = self._rr_groupings_of(pe.component)
        if routing:
            if routing_state is not None:
                for grouping, state in zip(routing, routing_state):
                    grouping.restore_state(state)
            else:
                # Crash before any checkpoint: the replay log covers the
                # whole history, so the rotation restarts from zero.
                for grouping in routing:
                    grouping.restore_state({"_rr_counter": 0})
        pe.down = False
        pe.busy_until = max(pe.busy_until, when)
        st = self.flow_ctl.state_of(pe)
        completion = when
        replayed = 0
        # Replays are re-executions of already-traced deliveries; the
        # flag keeps them from appending duplicate hops to live spans.
        self._replaying = True
        self._replay_routing = bool(routing)
        try:
            for message in mgr.replay_log(pe):
                # Already logged — do not re-log; a second crash before the
                # next checkpoint replays the same prefix again.
                replayed += _payload_tuples(message.payload)
                completion = self._serve(heap, ctx, pe, st, message, completion)
        finally:
            self._replaying = False
            self._replay_routing = False
        for message in mgr.drain_held(pe):
            self._log_delivery(pe, message, completion)
            completion = self._serve(heap, ctx, pe, st, message, completion)
        mgr.on_recovered(pe, completion, replayed)
        if self.obs is not None:
            self.obs.on_event(
                "restart",
                when,
                pe.name,
                {"caught_up": completion, "replayed": replayed},
            )
        self._records.append(
            Record(
                "pe_recovered",
                {
                    "pe": pe.name,
                    "at": when,
                    "caught_up": completion,
                    "replayed": replayed,
                },
                completion,
                when,
                {},
            )
        )
        return completion

    # ------------------------------------------------------------------
    def _flush_pass(self, heap, ctx: Context, sim_end: float) -> bool:
        """Ask every PE to flush buffered output; True if anything moved.

        Flushes are charged zero service time — the buffered work was
        already paid for when the tuples were accumulated — and their
        emissions are dispatched at the later of the PE's busy horizon
        and the current simulation end.
        """
        moved = False
        for instances in self._pes.values():
            for pe in instances:
                if pe.down:
                    continue
                at = max(pe.busy_until, sim_end)
                ctx._begin(pe, at, Message(None, origin_time=at))
                pe.operator.flush(ctx)
                if ctx._records or ctx._emissions:
                    moved = True
                    self._publish(heap, ctx, pe, at)
        return moved

    def _publish(
        self, heap, ctx: Context, pe: ProcessingElement, at: float, resume=None
    ) -> int:
        """Publish one operator call's output at simulated time ``at``.

        Records (minus replay duplicates, which the recovery layer
        drops) are stamped ``at``; emissions inherit the triggering
        message's origin, marks and trace and are dispatched at ``at``.
        Returns how many emissions parked on a full ``block`` queue.
        """
        message = ctx._message
        mgr = self.recovery_manager
        dedup = mgr is not None and mgr.protects(pe)
        for name, payload in ctx._records:
            if dedup and not mgr.admit(pe, name, payload):
                # Replay duplicate: the record was already emitted before
                # the crash; dropping it keeps the result multiset
                # identical to the failure-free run.
                continue
            self._records.append(
                Record(name, payload, at, message.origin_time, dict(message.marks))
            )
        parked = 0
        for stream, payload in ctx._emissions:
            if self._replaying:
                # Replayed deliveries' emissions were all dispatched (and
                # delivered downstream) before the crash — re-dispatching
                # them would double-deliver, since dedup exists only at
                # the record layer.  Stateful routing still has to
                # advance exactly as the original dispatch did, so the
                # restored round-robin counters resume the crash-time
                # sequence.
                if self._replay_routing:
                    self.route_targets(pe.component, stream, payload)
                continue
            # A payload carrying its own origin_time (a TupleBatch whose
            # oldest tuple predates the triggering message) overrides the
            # envelope stamp, keeping batched latency conservative.
            origin = getattr(payload, "origin_time", None)
            out = Message(
                payload,
                stream,
                origin if origin is not None else message.origin_time,
                dict(message.marks),
                # Emissions inherit the trace of the message that
                # triggered them, extending the span downstream.
                trace=message.trace,
            )
            if not self._dispatch(
                heap, pe.component, pe.node, out, at, sender=pe.name, resume=resume
            ):
                parked += 1
        return parked

    # ------------------------------------------------------------------
    def _push_spout_event(
        self,
        heap,
        name: str,
        it: Iterator,
        offsets: Iterator[int],
        floor: float = 0.0,
    ) -> None:
        try:
            event_time, payload = next(it)
        except StopIteration:
            return
        # Backpressure throttling: a spout behind the source's nominal
        # schedule emits at the admission clock, never in the past.
        if event_time < floor:
            event_time = floor
        # The trailing None marks a first delivery; retries carry the
        # original emission time there instead.
        heapq.heappush(
            heap,
            (
                event_time,
                next(self._seq),
                _SPOUT,
                (name, next(offsets), payload, None),
            ),
        )

    def _schedule_redelivery(
        self, heap, when: float, name: str, offset: int, payload, origin: float
    ) -> bool:
        """Schedule an at-least-once redelivery of a source offset.

        Returns False (scheduling nothing) once the offset's budget of
        ``max_redeliveries`` is spent.  With a retry policy the delay
        follows its capped exponential backoff; without one it is the
        fixed ``redelivery_timeout``.
        """
        key = (name, offset)
        attempts = self._redelivery_attempts.get(key, 0) + 1
        if attempts > self.max_redeliveries:
            return False
        self._redelivery_attempts[key] = attempts
        delay = self.flow_ctl.retry_delay(attempts, self.redelivery_timeout)
        self.redeliveries += 1
        heapq.heappush(
            heap,
            (when + delay, next(self._seq), _SPOUT, (name, offset, payload, origin)),
        )
        return True

    def _drop_exhausted(
        self, name: str, offset: int, payload, when: float
    ) -> None:
        """A lost tuple ran out of redeliveries: it is gone for good.

        The loss is never silent — it is counted, recorded and
        dead-lettered, so completeness stays quantified.
        """
        self.redeliveries_exhausted += 1
        key = _payload_key(payload)
        self.flow_ctl.quarantine(
            f"source:{name}",
            key,
            self.max_redeliveries,
            "redelivery budget exhausted",
            when,
            payload,
            _payload_tuples(payload),
        )
        if self.obs is not None:
            self.obs.on_event(
                "redelivery_exhausted",
                when,
                None,
                {"source": name, "offset": offset, "key": key},
            )
        self._records.append(
            Record(
                "redelivery_exhausted",
                {"source": name, "offset": offset, "key": key},
                when,
                when,
                {},
            )
        )

    # ------------------------------------------------------------------
    # Flow control (bounded queues; see repro.dspe.flow)
    # ------------------------------------------------------------------
    def _schedule_service(
        self, heap, pe: ProcessingElement, st, at: float
    ) -> None:
        st.scheduled += 1
        heapq.heappush(heap, (at, next(self._seq), _SERVICE, pe))

    def _flow_arrival(
        self,
        heap,
        ctx: Context,
        pe: ProcessingElement,
        st,
        message: Message,
        when: float,
    ) -> float:
        """Admit one delivery into a PE's queue (or shed it).

        Returns the completion time when the delivery was served on the
        spot, else ``when``.
        """
        fc = self.flow_ctl
        cfg = fc.config
        cap = cfg.queue_capacity
        if cfg.policy == "shed" and cap is not None and len(st.queue) >= cap:
            if cfg.drop == "newest":
                victim = message
            else:
                __, victim = st.queue.popleft()
                st.queue.append((when, message))
            tuples = _payload_tuples(victim.payload)
            fc.metrics.record_shed(pe.name, tuples)
            if self.obs is not None:
                self.obs.on_event(
                    "shed",
                    when,
                    pe.name,
                    {
                        "drop": cfg.drop,
                        "tuples": tuples,
                        "key": _payload_key(victim.payload),
                    },
                )
            self._records.append(
                Record(
                    "shed",
                    {
                        "pe": pe.name,
                        "drop": cfg.drop,
                        "tuples": tuples,
                        "at": when,
                    },
                    when,
                    when,
                    {},
                )
            )
            if victim is message:
                return when
        else:
            st.queue.append((when, message))
        depth = len(st.queue)
        if depth > st.high_watermark:
            st.high_watermark = depth
        if cap is not None and depth >= cap and not st.pressured:
            # Rising edge of the pressure latch (cleared at the release
            # depth as the queue drains — hysteresis avoids flapping).
            st.pressured = True
            fc.metrics.record_queue_full(pe.name)
            if self.obs is not None:
                self.obs.on_event(
                    "queue_full",
                    when,
                    pe.name,
                    {"depth": depth, "capacity": cap, "policy": cfg.policy},
                )
        if st.scheduled == 0 and st.blocked == 0:
            if (
                depth == 1
                and pe.busy_until <= when
                and (not heap or heap[0][0] > when)
            ):
                # An idle PE and nothing else due at or before ``when``:
                # the _SERVICE event would be the very next pop, so
                # serving now keeps the order of operator calls exact.
                return self._serve_head(heap, ctx, pe, st, when)
            self._schedule_service(heap, pe, st, max(when, pe.busy_until))
        return when

    def _flow_service(self, heap, ctx: Context, pe: ProcessingElement, when: float) -> float:
        """A _SERVICE event: serve the head of a PE's queue."""
        st = self.flow_ctl.state_of(pe)
        st.scheduled -= 1
        if pe.down or st.blocked or not st.queue:
            # Stale tick: the queue moved to the recovery layer on a
            # crash, the PE is output-blocked (its resume reschedules),
            # or a previous tick already drained the queue.
            return when
        return self._serve_head(heap, ctx, pe, st, when)

    def _serve_head(
        self, heap, ctx: Context, pe: ProcessingElement, st, when: float
    ) -> float:
        """Pop and serve a PE's queue head; returns its completion time."""
        arrival, message = st.queue.popleft()
        cfg = self.flow_ctl.config
        if cfg.throttles:
            # The popped slot frees one credit for parked senders.
            st.outstanding -= 1
            self._flow_grant(heap, pe, st, when)
        if st.pressured and len(st.queue) <= cfg.release_depth:
            st.pressured = False
        self._log_delivery(pe, message, when)
        completion = self._serve(heap, ctx, pe, st, message, arrival)
        if st.queue and st.blocked == 0 and st.scheduled == 0:
            self._schedule_service(heap, pe, st, completion)
        return completion

    def _serve_queued(self, heap, ctx: Context, pe: ProcessingElement) -> float:
        """Serve ``pe``'s backlog (unless output-blocked) before a crash
        or checkpoint acts, so both cut its input by arrival time, not
        by how long measured services took.  Returns the last completion.
        """
        st = self.flow_ctl.state_of(pe)
        completion = 0.0
        while st.queue and st.blocked == 0:
            at = max(st.queue[0][0], pe.busy_until)
            completion = self._serve_head(heap, ctx, pe, st, at)
        return completion

    def _log_delivery(
        self, pe: ProcessingElement, message: Message, at: float
    ) -> None:
        """Append a delivery to a protected PE's replay log."""
        mgr = self.recovery_manager
        if mgr is None or not mgr.protects(pe):
            return
        if mgr.log_is_full(pe) and pe.operator.checkpoint_ready():
            # Bounded replay buffer: force a checkpoint (which truncates
            # the log) before accepting more work.  An operator
            # mid-protocol (checkpoint_ready False) defers the force; the
            # log keeps growing until the state is self-contained again.
            self._checkpoint_pe(pe, at, forced=True)
        mgr.log_delivery(pe, message)

    def _resume_service(self, heap, pe: ProcessingElement, grant_time: float) -> None:
        """One parked emission of ``pe`` was delivered (its ``resume``).

        Once all are, the PE serves its own queue again — this is how
        backpressure propagates upstream hop by hop.
        """
        st = self.flow_ctl.state_of(pe)
        st.blocked -= 1
        if st.blocked == 0 and st.queue and st.scheduled == 0 and not pe.down:
            self._schedule_service(heap, pe, st, grant_time)

    def _flow_send(
        self, heap, sender_key: str, src_node, units, idx: int, at: float, resume
    ) -> bool:
        """Deliver dispatch units in order, parking at the first full
        ``block``-policy target.  Returns True when every unit was sent;
        False parks ``(units, idx, resume)`` on the target's waiter list
        (``resume`` fires once the remaining units are all delivered).
        """
        fc = self.flow_ctl
        cfg = fc.config
        block = cfg.throttles
        while idx < len(units):
            pe, msg = units[idx]
            if block:
                st = fc.state_of(pe)
                if not pe.down and st.outstanding >= cfg.queue_capacity:
                    fc.metrics.record_block(sender_key)
                    if self.obs is not None:
                        self.obs.on_event(
                            "backpressure_on", at, pe.name, {"sender": sender_key}
                        )
                    st.waiters.append((sender_key, src_node, units, idx, resume, at))
                    return False
                st.outstanding += 1
            self._send_unit(heap, sender_key, src_node, pe, msg, at)
            idx += 1
        return True

    def _flow_grant(self, heap, pe: ProcessingElement, st, at: float) -> None:
        """Hand freed credits to parked senders (``block`` policy)."""
        fc = self.flow_ctl
        cap = fc.config.queue_capacity
        while st.waiters and st.outstanding < cap:
            sender_key, src_node, units, idx, resume, since = st.waiters.popleft()
            st.outstanding += 1
            fc.metrics.record_unblock(sender_key, at - since)
            if self.obs is not None:
                self.obs.on_event(
                    "backpressure_off",
                    at,
                    pe.name,
                    {"sender": sender_key, "stalled_s": at - since},
                )
            self._send_unit(heap, sender_key, src_node, pe, units[idx][1], at)
            if self._flow_send(heap, sender_key, src_node, units, idx + 1, at, resume):
                if resume is not None:
                    resume(at)

    def _hold_queue(self, heap, pe: ProcessingElement, when: float) -> None:
        """Move a down PE's queue to the recovery layer's held buffer.

        At-least-once delivery serves held messages once the PE is back
        up.  Under ``block`` the freed credits resume parked senders, so
        the upstream is not deadlocked on a dead PE.
        """
        fc = self.flow_ctl
        st = fc.state_of(pe)
        mgr = self.recovery_manager
        queued = len(st.queue)
        for __, message in st.queue:
            mgr.hold(pe, message)
        st.queue.clear()
        st.pressured = False
        if fc.config.throttles and queued:
            st.outstanding -= queued
            self._flow_grant(heap, pe, st, when)

    def _handle_poison(
        self, heap, pe: ProcessingElement, message: Message, at: float, exc
    ) -> None:
        """A service attempt raised: retry with backoff or quarantine."""
        fc = self.flow_ctl
        retry = fc.config.retry
        message.attempts += 1
        key = _payload_key(message.payload)
        if message.attempts >= retry.max_attempts:
            tuples = _payload_tuples(message.payload)
            fc.quarantine(
                pe.name, key, message.attempts, repr(exc), at, message.payload, tuples
            )
            if self.obs is not None:
                self.obs.on_event(
                    "quarantine",
                    at,
                    pe.name,
                    {"key": key, "attempts": message.attempts, "error": repr(exc)},
                )
            self._records.append(
                Record(
                    "quarantined",
                    {
                        "pe": pe.name,
                        "key": key,
                        "attempts": message.attempts,
                        "error": repr(exc),
                        "tuples": tuples,
                    },
                    at,
                    at,
                    {},
                )
            )
            return
        fc.metrics.retries += 1
        delay = fc.retry_delay(message.attempts, self.redelivery_timeout)
        if fc.config.throttles:
            # The retry re-enters the queue with no sender to debit, so
            # it borrows a credit (transiently exceeding capacity) that
            # is repaid when it is popped for its next attempt.
            fc.state_of(pe).outstanding += 1
        if self.obs is not None:
            pe.pending += 1
            self.obs.on_event(
                "retry",
                at,
                pe.name,
                {"key": key, "attempt": message.attempts, "delay_s": delay},
            )
        heapq.heappush(
            heap, (at + delay, next(self._seq), _DELIVERY, (pe, message))
        )

    def _send_unit(
        self,
        heap,
        sender_key: str,
        src_node: Optional[int],
        pe: ProcessingElement,
        message: Message,
        at: float,
    ) -> None:
        """Put one delivery on the wire towards ``pe`` at time ``at``."""
        arrival = at + self._delay(src_node, pe.node, at)
        link = (sender_key, pe.name)
        arrival = max(arrival, self._link_arrivals.get(link, 0.0))
        self._link_arrivals[link] = arrival
        if self.obs is not None:
            # Queue-depth gauge: dispatched but not yet served.
            # A broadcast span shares one trace across targets.
            pe.pending += 1
        heapq.heappush(
            heap,
            (arrival, next(self._seq), _DELIVERY, (pe, message)),
        )

    def _dispatch(
        self,
        heap,
        source: str,
        src_node: Optional[int],
        message: Message,
        at: float,
        sender: Optional[str] = None,
        resume=None,
    ) -> bool:
        """Route one emission to every subscribed bolt.

        Returns False when part of the fan-out parked on a full
        ``block``-policy queue — the parked units are delivered as
        credits free, and ``resume`` (if given) fires once the last one
        is on the wire.  Always True on unthrottled queues.
        """
        sender_key = sender if sender is not None else source
        units = []
        for component, target in self.route_targets(
            source, message.stream, message.payload
        ):
            pe = self._pes[component][target]
            units.append(
                (
                    pe,
                    Message(
                        message.payload,
                        "default",
                        message.origin_time,
                        dict(message.marks),
                        trace=message.trace,
                    ),
                )
            )
        return self._flow_send(heap, sender_key, src_node, units, 0, at, resume)

    def _serve(
        self,
        heap,
        ctx: Context,
        pe: ProcessingElement,
        st,
        message: Message,
        arrival: float,
    ) -> float:
        start = max(arrival, pe.busy_until)
        core_index = None
        if self.cores_per_node is not None:
            cores = self._node_cores[pe.node]
            core_index = min(range(len(cores)), key=cores.__getitem__)
            start = max(start, cores[core_index])
        ctx._begin(pe, start, message, st.pressured)

        t0 = time.perf_counter()  # repro: allow-wallclock
        # Poison hardening: with a retry policy, a raising operator must
        # not take the run (or the PE) down — the failed attempt is
        # charged like any service, its partial effects are discarded,
        # and the message is retried with backoff or quarantined.
        try:
            pe.operator.process(message.payload, ctx)
            failure = None
        except Exception as exc:
            if self.flow_ctl.config.retry is None:
                # No retry policy: the exception propagates (the caller
                # or the recovery layer deals with it).
                raise
            failure = exc
        elapsed = time.perf_counter() - t0  # repro: allow-wallclock
        if failure is not None:
            # Atomicity: a failed attempt contributes no records or
            # emissions; its measured wall time is still service.
            ctx._emissions = []
            ctx._records = []
            ctx._charged = None
        if ctx._obs_overhead:
            # Overhead isolation: time spent inside observe_* callbacks
            # is instrumentation, not operator work — never charge it.
            elapsed = max(0.0, elapsed - ctx._obs_overhead)
        measured = elapsed * self.time_scale
        service = ctx._charged if ctx._charged is not None else measured

        completion = start + service
        pe.busy_until = completion
        pe.busy_time += service
        pe.processed += 1
        wait = start - arrival
        pe.wait_time += wait
        pe.wait_max = max(pe.wait_max, wait)
        st.record_wait(wait)
        if core_index is not None:
            self._node_cores[pe.node][core_index] = completion

        obs = self.obs
        if obs is not None:
            tuples = _payload_tuples(message.payload)
            obs.telemetry.on_serve(
                pe.name, pe.component, start, service, pe.pending, tuples
            )
            trace = message.trace
            if trace is not None and not self._replaying:
                trace.add_hop(
                    pe.name, pe.component, arrival, start, completion, service, tuples
                )

        if failure is not None:
            self._handle_poison(heap, pe, message, completion, failure)
            return completion

        st.blocked += self._publish(heap, ctx, pe, completion, st.resume)
        if self._migrations:
            self._complete_migrations(heap, completion)
        return completion

    # -- adaptive-repartition state migration ---------------------------
    def _migration_deposit(self, component: str, blob: dict) -> None:
        """Collect one affected shard's export for a repartition epoch."""
        entry = self._migrations.setdefault(
            blob["epoch"],
            {
                "component": component,
                "affected": list(blob["affected"]),
                "expected": blob["expected"],
                "exports": {},
            },
        )
        entry["exports"][blob["shard"]] = blob

    def _complete_migrations(self, heap, at: float) -> None:
        """Re-slice and deliver any epoch whose exports are all in.

        Runs after the serve that deposited the final export, so the
        MigrateIn deliveries are ordinary wire messages that arrive
        after the exporting shards have finished their marker serves.
        Shards buffer everything between export and MigrateIn, so the
        relative order against in-flight batches is immaterial.
        """
        # Imported lazily: repro.parallel imports this module.
        from ..parallel.spo_shard import reslice_exports
        from ..parallel.wire import MigrateIn

        ready = [
            epoch
            for epoch, entry in self._migrations.items()
            if len(entry["exports"]) >= entry["expected"]
        ]
        for epoch in sorted(ready):
            entry = self._migrations.pop(epoch)
            assignments = reslice_exports(
                [entry["exports"][s] for s in sorted(entry["exports"])]
            )
            for shard in entry["affected"]:
                pe = self._pes[entry["component"]][shard]
                msg = Message(
                    MigrateIn(epoch, shard, assignments.get(shard, [])),
                    "default",
                    at,
                )
                self._send_unit(heap, "__migration__", None, pe, msg, at)
