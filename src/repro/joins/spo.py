"""Distributed SPO-Join topology builder (the Figure 3 system model).

Wires the operators of :mod:`repro.joins.operators` into a simulated-engine
topology::

    source -> router --(broadcast)--> pred_0, pred_1     (mutable W_M)
                 \\--(broadcast)--> pojoin PEs            (immutable W_IM)
    pred_i --(hash by probe id)--> logical PEs            (partial results)
    pred_i --(direct)--> perm PE                          (sorted runs)
    pred_i --(by merge id)--> pojoin PEs                  (offset arrays)
    perm   --(by merge id)--> pojoin PEs                  (runs + permutation)

The logical PEs see no tuples: each partial carries its own slot map (a
view of the predicate PE's arrival-tid column), so ANDing and mapping
slots to tuple ids need only the partials of one router run.  Merge
material reaches PO-Join PEs by ``merge_id % |PEs|`` — the paper's
round-robin distribution made deterministic so all parts of a merge
interval meet on the owning PE.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..dspe.engine import Engine, RunResult
from ..dspe.partitioning import Grouping
from ..dspe.router import RawTuple, RouterOperator
from ..dspe.topology import Topology
from .operators import (
    LogicalOperator,
    PermutationOperator,
    POJoinOperator,
    PredicateOperator,
    SPOConfig,
    _MergeClock,
)

__all__ = ["SPORouterOperator", "build_spo_topology", "run_spo"]

_STATE_KEY = "spo_tuple_count"


class SPORouterOperator(RouterOperator):
    """Router that also feeds the distributed cache (state strategy B).

    Under the cache strategy of Section 4.2 the window state — the global
    count of tuples that have entered the window — is pushed to the
    distributed cache for every evaluated tuple, and PO-Join PEs sync
    their local copy from it.

    With ``config.batch_size > 1`` the router cuts micro-batches at
    merge boundaries: it advances its own copy of the deterministic
    merge clock and closes the in-flight batch with the tuple that
    closes a merge interval, so no :class:`TupleBatch` ever spans a
    merge and the downstream flag-tuple protocol sees the same epochs
    it would tuple-at-a-time.
    """

    def __init__(self, config: SPOConfig) -> None:
        cut_fn = None
        if config.batch_size > 1:
            clock = _MergeClock(config.policy)
            cut_fn = clock.advance
        super().__init__(
            batch_size=config.batch_size,
            flush_timeout=config.flush_timeout,
            cut_fn=cut_fn,
        )
        self.config = config

    def _on_stamped(self, tuple_, ctx) -> None:
        if self.config.state_strategy == "dc":
            self.config.cache.put(_STATE_KEY, self._next_tid, ctx.now)


def build_spo_topology(
    source: Iterable[Tuple[float, RawTuple]],
    config: SPOConfig,
    logical_pes: int = 2,
) -> Topology:
    """Assemble the full distributed SPO-Join DAG for a two-predicate query."""
    num_preds = len(config.query.predicates)
    topo = Topology("spo-join")
    topo.add_spout("source", source)
    topo.add_bolt(
        "router",
        lambda: SPORouterOperator(config),
        parallelism=1,
        inputs=[("source", Grouping.shuffle())],
    )

    pred_names = [f"pred_{i}" for i in range(num_preds)]
    for i, name in enumerate(pred_names):
        topo.add_bolt(
            name,
            (lambda idx=i: PredicateOperator(config, idx)),
            parallelism=1,
            inputs=[("router", Grouping.broadcast())],
        )

    # Logical operator: consumes partials from every predicate PE, hash
    # partitioned by the first probe id of their run.
    topo.add_bolt(
        "logical",
        lambda: LogicalOperator(config),
        parallelism=logical_pes,
        input_streams=[
            (name, Grouping.hash_by(lambda p: p.probe_tid), "partial")
            for name in pred_names
        ],
    )

    # Dedicated permutation PE fed directly by the predicate PEs.
    topo.add_bolt(
        "perm",
        lambda: PermutationOperator(config),
        parallelism=1,
        input_streams=[
            (name, Grouping.direct(lambda m: 0), "runs") for name in pred_names
        ],
    )

    # PO-Join PEs: data tuples broadcast; merge parts routed by merge id.
    pojoin_inputs = [
        ("router", Grouping.broadcast(), "default"),
        ("perm", Grouping.direct(lambda m: m.merge_id), "merge"),
    ]
    for name in pred_names:
        pojoin_inputs.append(
            (name, Grouping.direct(lambda m: m.merge_id), "merge")
        )
    topo.add_bolt(
        "pojoin",
        lambda: POJoinOperator(config),
        parallelism=config.num_pojoin_pes,
        input_streams=pojoin_inputs,
    )
    return topo


def run_spo(
    source: Iterable[Tuple[float, RawTuple]],
    config: SPOConfig,
    logical_pes: int = 2,
    num_nodes: int = 2,
    **engine_kwargs,
) -> RunResult:
    """Build and run the distributed SPO-Join; returns the run result.

    The config's ``faults``/``recovery``/``fault_seed``/``obs``/``flow``
    are forwarded to the engine (explicit ``engine_kwargs`` win), and any
    cache-partition windows of the resulting fault plan are mirrored into
    ``config.cache.partitions`` so stale reads line up with the schedule.
    """
    topo = build_spo_topology(source, config, logical_pes)
    for knob in ("faults", "recovery", "fault_seed", "obs", "flow"):
        value = getattr(config, knob, None)
        if value is not None:
            engine_kwargs.setdefault(knob, value)
    engine = Engine(topo, num_nodes=num_nodes, **engine_kwargs)
    if engine.fault_plan is not None:
        config.cache.partitions = list(engine.fault_plan.cache_partitions)
    return engine.run()
