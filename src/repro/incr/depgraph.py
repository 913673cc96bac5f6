"""The cross-module dependency edge set recorded during a CMO link.

Every edge says "module *consumer* observed something about module
*producer*": an inlined routine body, a constant parameter binding, a
constant-return / mod-ref fact, a read-only global promotion, or a
dead-import elision.  The HLO driver records edges while it optimizes;
the state layer persists them next to the artifact cache.

On rebuild the graph answers the planning question -- given the set of
modules whose *summaries* changed, which modules' consumed facts might
have changed?  Propagation is transitive: if A inlined B and B inlined
C, a change to C changes B's post-inline body and hence what A
consumed.  The result is a *prediction* used for reporting and
scheduling; correctness never depends on it, because actual reuse is
decided by the exact post-inline reuse keys (see
:mod:`repro.incr.summary`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

#: Edge kinds, in the order the paper's phases produce them.
KIND_INLINE = "inline"
KIND_IPCP = "ipcp"
KIND_FACT = "fact"
KIND_GLOBAL = "global"
KIND_DFE = "dfe"


class DepEdge:
    """One observed cross-module dependency."""

    __slots__ = ("consumer", "producer", "kind", "item")

    def __init__(self, consumer: str, producer: str, kind: str,
                 item: str = "") -> None:
        self.consumer = consumer
        self.producer = producer
        self.kind = kind
        #: The symbol observed (routine or global name).
        self.item = item

    def as_tuple(self) -> Tuple[str, str, str, str]:
        return (self.consumer, self.producer, self.kind, self.item)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DepEdge):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return "<DepEdge %s -%s-> %s (%s)>" % (
            self.consumer, self.kind, self.producer, self.item
        )


class CrossModuleDeps:
    """The edge set for one build, with change propagation."""

    def __init__(self) -> None:
        self._edges: Set[DepEdge] = set()

    def add(self, consumer: str, producer: str, kind: str,
            item: str = "") -> None:
        if consumer == producer:
            return  # intra-module facts never cross a summary boundary
        self._edges.add(DepEdge(consumer, producer, kind, item))

    def edges(self) -> List[DepEdge]:
        return sorted(self._edges, key=DepEdge.as_tuple)

    def __len__(self) -> int:
        return len(self._edges)

    def edges_set(self) -> "frozenset[DepEdge]":
        """The edges, unordered (cheap to compare)."""
        return frozenset(self._edges)

    def without(self, consumers: Set[str], kinds) -> "CrossModuleDeps":
        """A copy less the ``kinds`` edges of ``consumers``."""
        deps = CrossModuleDeps()
        deps._edges = {
            edge for edge in self._edges
            if edge.consumer not in consumers or edge.kind not in kinds
        }
        return deps

    def consumers_of(self, producer: str) -> Set[str]:
        return {e.consumer for e in self._edges if e.producer == producer}

    def producers_of(self, consumer: str) -> Set[str]:
        return {e.producer for e in self._edges if e.consumer == consumer}

    def dirty_modules(self, changed: Iterable[str]) -> Set[str]:
        """Changed modules plus every transitive consumer of one.

        This is the invalidation prediction: modules outside the
        returned set consumed no fact that a changed module produced,
        so their reuse keys are expected to hold.
        """
        consumers: Dict[str, Set[str]] = {}
        for edge in self._edges:
            consumers.setdefault(edge.producer, set()).add(edge.consumer)
        dirty: Set[str] = set(changed)
        frontier = list(dirty)
        while frontier:
            producer = frontier.pop()
            for consumer in consumers.get(producer, ()):
                if consumer not in dirty:
                    dirty.add(consumer)
                    frontier.append(consumer)
        return dirty

    # -- Serialization (JSON-friendly) --------------------------------------------

    def to_list(self) -> List[List[str]]:
        return [list(edge.as_tuple()) for edge in self.edges()]

    @staticmethod
    def from_list(data: Iterable[Iterable[str]]) -> "CrossModuleDeps":
        deps = CrossModuleDeps()
        for consumer, producer, kind, item in data:
            deps._edges.add(DepEdge(consumer, producer, kind, item))
        return deps

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for edge in self._edges:
            counts[edge.kind] = counts.get(edge.kind, 0) + 1
        return counts

    def __repr__(self) -> str:
        inner = ", ".join(
            "%s=%d" % (kind, count)
            for kind, count in sorted(self.by_kind().items())
        )
        return "<CrossModuleDeps %d edges (%s)>" % (len(self._edges), inner)
