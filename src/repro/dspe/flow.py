"""PE queues of the simulated DSPE: bounds, overload policies, retries.

The engine models every PE as a FIFO single-server queue drained by
``_SERVICE`` events; this module holds that queue's state and its
overload semantics.  ``Engine(..., flow=None)`` leaves every queue
unbounded with no retry policy, which silently assumes the source never
outruns the join — an overloaded run accumulates unbounded queue depth
instead of exhibiting the stall/shed behaviour a real Storm+Kafka
deployment would.  ``Engine(..., flow=FlowConfig(...))`` bounds the
same queues; a bound that is never reached changes no result.

Three full-queue policies, selected by :class:`FlowConfig`:

* ``block`` — credit-based backpressure.  A sender needs one credit per
  delivery; a full downstream PE grants no credits, so the send parks on
  the target's waiter list and the sender stalls (a joiner PE stops
  serving its own queue; the spout stops pulling from the source).
  Credits free as the target serves, resuming senders hop-by-hop back to
  the spout.  Nothing is ever dropped.
* ``shed`` — load shedding.  An arrival at a full queue drops either the
  arriving message (``drop="newest"``) or the oldest queued one
  (``drop="oldest"``).  Every shed is counted in tuples and surfaced as
  a ``shed`` record, so result completeness is quantified, never
  silently lost.
* ``degrade`` — graceful degradation.  Admission control works exactly
  as under ``block`` (same credit pool, same bounded queue, nothing
  dropped), and additionally a full queue raises a *pressure* signal
  (with hysteresis: released at half capacity) that operators read via
  ``ctx.pressure``.  The SPO joiner responds by deferring merges past
  the delta threshold and answering from the mutable component only —
  each queued message is served faster, so with the same queue bound
  the queueing delay is strictly tighter than ``block``'s; deferred
  work is made up in one catch-up merge when pressure releases.

Orthogonal to the policy, :class:`RetryPolicy` hardens retries: poison
tuples (an operator raising on a specific input) are retried with capped
exponential backoff plus deterministic seeded jitter, and after
``max_attempts`` failures the message is quarantined to the dead-letter
log — the PE stays alive instead of crash-looping through the recovery
layer.  The same backoff shapes spout redelivery delays.

:class:`FlowMetrics` aggregates per-PE high watermarks, shed and
quarantine accounting, backpressure stalls, and queueing-delay samples;
it rides on ``RunResult.flow`` next to the recovery metrics.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional

from .metrics import percentile
from .pe import ProcessingElement

__all__ = [
    "FlowConfig",
    "RetryPolicy",
    "FlowController",
    "FlowMetrics",
    "DeadLetter",
]

_POLICIES = ("block", "shed", "degrade")
_DROPS = ("newest", "oldest")

#: Bound on the queueing-delay samples kept per PE.
WAIT_SAMPLES = 4096


class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    Parameters
    ----------
    base:
        Delay before the first retry, in simulated seconds.  ``None``
        inherits the engine's ``redelivery_timeout``.
    factor:
        Multiplier per additional attempt (2.0 doubles every retry).
    max_delay:
        Ceiling on the backoff delay before jitter.
    jitter:
        Fraction of the delay added as seeded random jitter in
        ``[0, jitter)`` — deterministic for a fixed ``seed``, so chaos
        runs stay reproducible.  0 disables jitter entirely.
    max_attempts:
        Service attempts before a failing message is quarantined to the
        dead-letter log.  1 quarantines on the first failure.
    seed:
        Seed of the jitter RNG.  The RNG is separate from the engine's
        at-least-once loss RNG, so enabling jitter never perturbs which
        deliveries are lost.
    """

    __slots__ = ("base", "factor", "max_delay", "jitter", "max_attempts", "seed")

    def __init__(
        self,
        base: Optional[float] = None,
        factor: float = 2.0,
        max_delay: float = 1.0,
        jitter: float = 0.25,
        max_attempts: int = 4,
        seed: int = 0,
    ) -> None:
        if base is not None and base <= 0:
            raise ValueError("base must be positive (or None to inherit)")
        if factor < 1.0:
            raise ValueError("factor must be >= 1.0")
        if max_delay <= 0:
            raise ValueError("max_delay must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self.max_attempts = max_attempts
        self.seed = seed

    def delay(self, attempt: int, rng: random.Random, default_base: float) -> float:
        """Backoff before retry number ``attempt`` (1-based).

        Always consumes exactly one RNG draw when jitter is enabled, so
        the delay sequence for a fixed seed is independent of timing.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.base if self.base is not None else default_base
        delay = min(base * self.factor ** (attempt - 1), self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class FlowConfig:
    """Overload-protection knobs for one run.

    Parameters
    ----------
    queue_capacity:
        Bound on every PE's queue.  Under ``block`` and ``degrade``
        it caps *outstanding* deliveries (sent or queued, not yet
        served) — the credit pool; under ``shed`` it caps the queued
        backlog.  ``degrade`` additionally treats a full queue as the
        pressure threshold.  ``None`` disables the bound but keeps the
        retry / quarantine layer active.
    policy:
        ``"block"``, ``"shed"`` or ``"degrade"`` (see module docstring).
    drop:
        Which message a full queue sheds: the ``"newest"`` (arriving) or
        the ``"oldest"`` queued one.  Only meaningful under ``shed``.
    retry:
        The :class:`RetryPolicy` for poison tuples and spout
        redeliveries.
    """

    __slots__ = ("queue_capacity", "policy", "drop", "retry")

    def __init__(
        self,
        queue_capacity: Optional[int] = None,
        policy: str = "block",
        drop: str = "newest",
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 or None")
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        if drop not in _DROPS:
            raise ValueError(f"drop must be one of {_DROPS}")
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.drop = drop
        self.retry = retry if retry is not None else RetryPolicy()

    @property
    def throttles(self) -> bool:
        """Whether sends are credit-gated (block and degrade policies)."""
        return (
            self.policy in ("block", "degrade")
            and self.queue_capacity is not None
        )

    @property
    def release_depth(self) -> int:
        """Queue depth at which the pressure signal clears (hysteresis)."""
        if self.queue_capacity is None:
            return 0
        return self.queue_capacity // 2


class DeadLetter:
    """One quarantined message in the dead-letter log."""

    __slots__ = ("pe", "key", "attempts", "error", "at", "payload", "tuples")

    def __init__(
        self, pe: str, key, attempts: int, error: str, at: float, payload, tuples: int
    ) -> None:
        self.pe = pe
        self.key = key
        self.attempts = attempts
        self.error = error
        self.at = at
        self.payload = payload
        self.tuples = tuples

    def to_dict(self) -> Dict[str, object]:
        return {
            "pe": self.pe,
            "key": self.key,
            "attempts": self.attempts,
            "error": self.error,
            "at": self.at,
            "tuples": self.tuples,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeadLetter(pe={self.pe!r}, key={self.key!r}, "
            f"attempts={self.attempts}, error={self.error!r})"
        )


class _PEFlow:
    """Queue state of one PE (owned by the engine's event loop)."""

    __slots__ = (
        "queue",
        "scheduled",
        "blocked",
        "outstanding",
        "waiters",
        "pressured",
        "high_watermark",
        "resume",
        "waits",
        "waits_seen",
        "wait_stride",
    )

    def __init__(self) -> None:
        #: (arrival time, Message) pairs awaiting service, FIFO.
        self.queue: Deque = deque()
        #: Pending _SERVICE events in the engine heap for this PE.
        self.scheduled = 0
        #: Unresolved blocked sends out of this PE; while positive the PE
        #: stalls (does not pop its own queue) — backpressure propagation.
        self.blocked = 0
        #: Credits in use: deliveries sent to this PE but not yet served
        #: (``block`` policy only).
        self.outstanding = 0
        #: Parked sends waiting for a credit: (sender key, src node,
        #: units, index, resume, blocked-since time).
        self.waiters: Deque = deque()
        #: Hysteresis latch: raised when the queue crosses capacity,
        #: cleared once it drains to the release depth.  Read by
        #: ``ctx.pressure`` (the degrade signal) and edge-detected for
        #: ``queue_full`` events.
        self.pressured = False
        self.high_watermark = 0
        #: Called as ``resume(grant_time)`` each time one emission this PE
        #: parked on a full queue is delivered (set by the engine).
        self.resume = None
        #: Every ``wait_stride``-th queueing delay; the stride doubles
        #: each time the sample fills, keeping it bounded and even.
        self.waits: List[float] = []
        self.waits_seen = 0
        self.wait_stride = 1

    def record_wait(self, wait: float) -> None:
        if self.waits_seen % self.wait_stride == 0:
            self.waits.append(wait)
            if len(self.waits) == WAIT_SAMPLES:
                del self.waits[1::2]
                self.wait_stride *= 2
        self.waits_seen += 1


class FlowMetrics:
    """Overload accounting for one run (``RunResult.flow.metrics``).

    All counters tolerate the empty case, matching the conventions of
    :mod:`repro.dspe.metrics`.
    """

    __slots__ = (
        "shed_messages",
        "shed_tuples",
        "queue_full_events",
        "blocks",
        "blocked_s",
        "high_watermarks",
        "waits",
        "retries",
        "quarantined_messages",
        "quarantined_tuples",
    )

    def __init__(self) -> None:
        #: Per-PE shed counts (messages / tuples carried by them).
        self.shed_messages: Dict[str, int] = {}
        self.shed_tuples: Dict[str, int] = {}
        #: Rising-edge count of queues hitting capacity, per PE.
        self.queue_full_events: Dict[str, int] = {}
        #: Backpressure stalls per *sender* (episode count / stalled time).
        self.blocks: Dict[str, int] = {}
        self.blocked_s: Dict[str, float] = {}
        #: Peak queue depth per PE.
        self.high_watermarks: Dict[str, int] = {}
        #: Queueing-delay samples per PE that served anything (arrival
        #: -> service start; at most WAIT_SAMPLES each, evenly spread).
        self.waits: Dict[str, List[float]] = {}
        self.retries = 0
        self.quarantined_messages = 0
        self.quarantined_tuples = 0

    # -- recording ------------------------------------------------------
    def record_shed(self, pe: str, tuples: int) -> None:
        self.shed_messages[pe] = self.shed_messages.get(pe, 0) + 1
        self.shed_tuples[pe] = self.shed_tuples.get(pe, 0) + tuples

    def record_queue_full(self, pe: str) -> None:
        self.queue_full_events[pe] = self.queue_full_events.get(pe, 0) + 1

    def record_block(self, sender: str) -> None:
        self.blocks[sender] = self.blocks.get(sender, 0) + 1

    def record_unblock(self, sender: str, stalled_s: float) -> None:
        self.blocked_s[sender] = self.blocked_s.get(sender, 0.0) + stalled_s

    def record_quarantine(self, tuples: int) -> None:
        self.quarantined_messages += 1
        self.quarantined_tuples += tuples

    # -- reporting ------------------------------------------------------
    def total_shed_tuples(self) -> int:
        return sum(self.shed_tuples.values())

    def total_blocks(self) -> int:
        return sum(self.blocks.values())

    def total_blocked_s(self) -> float:
        return sum(self.blocked_s.values())

    def wait_percentile(self, pe: str, q: float) -> float:
        """Queueing-delay percentile for ``pe``; 0.0 with no samples."""
        values = self.waits.get(pe)
        if not values:
            return 0.0
        return percentile(values, q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowMetrics(shed={self.total_shed_tuples()}, "
            f"blocks={self.total_blocks()}, "
            f"quarantined={self.quarantined_messages})"
        )


class FlowController:
    """Per-run queue state shared with the engine.

    The controller owns configuration, per-PE queue state, metrics, the
    dead-letter log and the jitter RNG; the engine's event loop drives
    the actual mechanics (it owns the heap and the clock).

    ``config=None`` is the unbounded setting: a default
    :class:`FlowConfig` whose ``retry`` is None, so operator exceptions
    propagate and redeliveries wait the fixed timeout.
    """

    def __init__(self, config: Optional[FlowConfig] = None) -> None:
        if config is None:
            config = FlowConfig()
            config.retry = None
        self.config = config
        self.metrics = FlowMetrics()
        self.dead_letters: List[DeadLetter] = []
        self._states: Dict[ProcessingElement, _PEFlow] = {}
        self._retry_rng = (
            random.Random(config.retry.seed) if config.retry is not None else None
        )

    # -- registration ---------------------------------------------------
    def register(self, pe: ProcessingElement) -> _PEFlow:
        state = self._states[pe] = _PEFlow()
        return state

    def state_of(self, pe: ProcessingElement) -> _PEFlow:
        return self._states[pe]

    # -- retries --------------------------------------------------------
    def retry_delay(self, attempt: int, default_base: float) -> float:
        """Backoff before retry ``attempt``; ``default_base`` without a policy."""
        retry = self.config.retry
        if retry is None:
            return default_base
        return retry.delay(attempt, self._retry_rng, default_base)

    def quarantine(
        self, pe: str, key, attempts: int, error: str, at: float, payload, tuples: int
    ) -> DeadLetter:
        entry = DeadLetter(pe, key, attempts, error, at, payload, tuples)
        self.dead_letters.append(entry)
        self.metrics.record_quarantine(tuples)
        return entry

    # -- finalization ---------------------------------------------------
    def finalize(self) -> None:
        """Fold end-of-run per-PE state into the metrics."""
        for pe, state in self._states.items():
            self.metrics.high_watermarks[pe.name] = state.high_watermark
            pe.queue_peak = state.high_watermark
            if state.waits:
                self.metrics.waits[pe.name] = state.waits
