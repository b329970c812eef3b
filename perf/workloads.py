"""The six workloads of the benchmark of record.

Names are final: later issues cite them.  Sizes are the ``--scale 1.0``
sizes; ``--scale`` multiplies only the tuple counts of the timed passes
(``n_closed`` / ``n_open`` / ``n``), never windows, slides, rates, batch
sizes or selectivities, so a scaled run exercises the same regime for a
shorter time.  ``ref_seconds`` is how long the timed passes take at
scale 1.0 on the 2-core reference host; ``--seconds S`` picks the scale
``S / ref_seconds``, which keeps the work a fixed tuple count (so counts
such as ``matches_out`` repeat exactly) while measuring for about ``S``
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["Workload", "WORKLOADS", "SAMPLE_EVERY"]

#: Every 97th timed tuple's match set is compared with the oracle's.
SAMPLE_EVERY = 97


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``local`` (one ``SPOJoin`` in this process), ``sim`` (Figure-3
    #: topology on the simulated engine) or ``sharded`` (range-sharded
    #: topology on real worker processes).
    substrate: str
    #: Input shape (a key of ``perf.inputs.SHAPES``) and its parameters.
    shape: str
    shape_params: Dict[str, object] = field(default_factory=dict)
    #: ``q1`` cross join, ``q2`` band join, ``q3`` self join.
    predicate: str = "q3"
    band_width: float = 0.0
    #: ``(kind, length, slide)``; kind is ``count`` or ``time``.
    window: Tuple[str, float, float] = ("count", 10_000, 2_000)
    #: Event times are ``i / event_rate`` seconds.
    event_rate: float = 1000.0
    batch: int = 64
    # Local substrate: closed-loop fill, closed pass, open pass (replayed
    # as an open loop at ``rate_tps``, about half the seed's capacity).
    fill: int = 0
    n_closed: int = 0
    n_open: int = 0
    rate_tps: float = 0.0
    # Whole-run substrates: stream length.
    n: int = 0
    #: Closed merge intervals a tuple still sees (the oracle's window
    #: rule).  ``length / slide - 1`` for one operator; the Figure-3
    #: topology's three PO-Join PEs each expire only when they link a new
    #: batch of their own (every third merge), so a batch outlives the
    #: global window by two intervals and a tuple sees six.
    retained: int = 4
    ref_seconds: float = 20.0
    #: Set-ups per run; ``setup_s`` is their median.  Cheap set-ups are
    #: noisier and get more repeats.
    setup_repeats: int = 3

    def sized(self, scale: float) -> "Sizes":
        def scaled(count: int) -> int:
            # Whole batches, and at least one, so no pass is empty.
            return max(1, round(count * scale / self.batch)) * self.batch

        if self.substrate == "local":
            return Sizes(self.fill, scaled(self.n_closed), scaled(self.n_open))
        return Sizes(0, scaled(self.n), 0)


@dataclass(frozen=True)
class Sizes:
    fill: int
    n_closed: int
    n_open: int

    @property
    def total(self) -> int:
        return self.fill + self.n_closed + self.n_open


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="q3_dense_b64",
            substrate="local",
            shape="taxi_distance_fare",
            window=("count", 10_000, 2_000),
            fill=10_000,
            n_closed=50_000,
            n_open=32_000,
            rate_tps=3200.0,
            ref_seconds=11.7,
        ),
        Workload(
            name="q3_sparse_bigwin_b64",
            substrate="local",
            shape="correlated_self",
            shape_params={"correlation": 0.998},
            window=("count", 50_000, 10_000),
            fill=50_000,
            n_closed=100_000,
            n_open=50_000,
            rate_tps=5000.0,
            ref_seconds=15.1,
            setup_repeats=2,
        ),
        Workload(
            name="q1_cross_smallslide_b64",
            substrate="local",
            shape="shifted_uniform_rs",
            shape_params={"selectivities": (0.1, 0.9)},
            predicate="q1",
            window=("time", 20.0, 1.0),
            fill=20_000,
            n_closed=100_000,
            n_open=50_000,
            rate_tps=5000.0,
            retained=19,
            ref_seconds=15.1,
        ),
        Workload(
            name="q3_scalar_b1",
            substrate="local",
            shape="correlated_self",
            shape_params={"correlation": 0.99},
            window=("count", 10_000, 2_000),
            batch=1,
            fill=10_000,
            n_closed=25_000,
            n_open=13_000,
            rate_tps=1300.0,
            ref_seconds=13.9,
            setup_repeats=2,
        ),
        Workload(
            name="q2_band_dist_sim",
            substrate="sim",
            shape="taxi_pickups",
            predicate="q2",
            band_width=0.002,
            window=("count", 10_000, 2_000),
            event_rate=4000.0,
            n=100_000,
            retained=6,
            ref_seconds=11.8,
        ),
        Workload(
            name="q3_sparse_sharded_w2",
            substrate="sharded",
            shape="correlated_self",
            shape_params={"correlation": 0.998},
            window=("count", 50_000, 10_000),
            batch=256,
            n=200_000,
            ref_seconds=10.0,
        ),
    )
}
