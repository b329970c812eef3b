"""The ``ImmutableBatch`` protocol: what a frozen merge interval must do.

Every immutable representation of one merge interval's tuples — the
paper's PO-Join batch (:class:`~repro.core.pojoin.POJoinBatch`), its
numpy-vectorized twin (:class:`~repro.core.pojoin_numpy.VectorPOJoinBatch`,
the default), and the CSS-tree baseline
(:class:`~repro.joins.immutable_variants.CSSImmutableBatch`) — plugs into
:class:`~repro.core.pojoin.POJoinList` and the PO-Join processing elements
through this protocol.  The batch-first execution core relies on
``probe_batch``: probing a micro-batch of tuples against one frozen
structure in a single call, so per-probe interpreter overhead is paid once
per batch instead of once per tuple.

Implementations must guarantee that the rows of the
:class:`~repro.core.matches.MatchBatch` ``probe_batch`` returns are exactly
``[probe(t, f) for t, f in zip(probes, flags)]`` — the scalar and batched
paths are interchangeable, which the equivalence property tests assert.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Protocol,
    Sequence,
    runtime_checkable,
)

from .arena import ArenaSlice
from .matches import MatchBatch
from .tuples import StreamTuple

__all__ = [
    "ImmutableBatch",
    "ImmutableBackend",
    "scalar_probe_batch",
    "register_backend",
    "get_backend",
    "backend_names",
]


@runtime_checkable
class ImmutableBatch(Protocol):
    """One probe-ready frozen merge interval."""

    @property
    def batch_id(self) -> int:
        """Provenance identifier (monotone merge-interval number)."""
        ...

    def __len__(self) -> int:
        """Number of stored tuples."""
        ...

    def memory_bits(self) -> int:
        """Total footprint: window payload plus index arrays."""
        ...

    def index_overhead_bits(self) -> int:
        """Index structures beyond the raw window payload (Equation 2)."""
        ...

    def probe(self, probe: StreamTuple, probe_is_left: bool) -> List[int]:
        """Stored tuple ids joining with one probe tuple."""
        ...

    def probe_batch(
        self, probes: ArenaSlice, flags: Sequence[bool]
    ) -> MatchBatch:
        """Matches of a micro-batch of tuples, one row per probe.

        ``flags[i]`` is ``probe_is_left`` for ``probes[i]``.  Row ``i``
        must equal the scalar ``probe(probes[i], flags[i])``.
        """
        ...


def scalar_probe_batch(
    batch, probes: Iterable[StreamTuple], flags: Sequence[bool]
) -> List[List[int]]:
    """Reference ``probe_batch`` rows: one scalar probe per tuple.

    What representations without a vectorized path build their result
    from, and the ground truth tests hold the vectorized paths to.
    """
    return [batch.probe(t, flag) for t, flag in zip(probes, flags)]


# ----------------------------------------------------------------------
# Immutable-backend registry
# ----------------------------------------------------------------------
@runtime_checkable
class ImmutableBackend(Protocol):
    """A pluggable engine for the immutable tier.

    A backend is a named factory-of-factories: ``batch_factory(**options)``
    returns the ``(query, merge_batch) -> ImmutableBatch`` callable that
    :class:`~repro.core.spojoin.SPOJoin` invokes at every merge.  Two
    implementations ship: ``"memory"`` — the paper's in-memory PO-Join
    arrays (default, and the fingerprint reference) — and ``"sql"`` — an
    embedded SQL database answering interval probes with indexed range
    queries, trading probe latency for larger-than-memory windows.
    """

    name: str

    def batch_factory(
        self, **options
    ) -> Callable[..., ImmutableBatch]:
        """Build the per-merge batch constructor for this backend."""
        ...


_BACKENDS: Dict[str, ImmutableBackend] = {}


def register_backend(backend: ImmutableBackend) -> ImmutableBackend:
    """Register (or replace) a backend under ``backend.name``."""
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> ImmutableBackend:
    """Look up a registered backend; raises ``KeyError`` with the known
    names when ``name`` is not registered."""
    _ensure_builtin_backends()
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown immutable backend {name!r}; "
            f"registered: {sorted(_BACKENDS)}"
        ) from None


def backend_names() -> List[str]:
    """Names of all registered backends."""
    _ensure_builtin_backends()
    return sorted(_BACKENDS)


class _CallableBackend:
    """Adapter turning a plain factory-of-factories into a backend."""

    __slots__ = ("name", "_make")

    def __init__(self, name: str, make: Callable[..., Callable]) -> None:
        self.name = name
        self._make = make

    def batch_factory(self, **options) -> Callable[..., ImmutableBatch]:
        return self._make(**options)


def _ensure_builtin_backends() -> None:
    """Populate the registry lazily (avoids import cycles: the concrete
    batches import this module for the protocol)."""
    if _BACKENDS:
        return

    def memory_factory(
        use_offsets: bool = True, covered_shortcut: bool = False, **__
    ):
        from .pojoin_numpy import VectorPOJoinBatch

        def factory(query, merge_batch):
            return VectorPOJoinBatch(
                query,
                merge_batch,
                use_offsets=use_offsets,
                covered_shortcut=covered_shortcut,
            )

        return factory

    def scalar_factory(use_offsets: bool = True, **__):
        from .pojoin import POJoinBatch

        def factory(query, merge_batch):
            return POJoinBatch(query, merge_batch, use_offsets=use_offsets)

        return factory

    def sql_factory(use_offsets: bool = True, **options):
        from .backend_sql import SQLImmutableBatch

        def factory(query, merge_batch):
            return SQLImmutableBatch(query, merge_batch, **options)

        return factory

    register_backend(_CallableBackend("memory", memory_factory))
    register_backend(_CallableBackend("po_scalar", scalar_factory))
    register_backend(_CallableBackend("sql", sql_factory))
