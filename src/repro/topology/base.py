"""Topology representation and routing-tree construction.

A :class:`Topology` holds node positions, explicit bidirectional links, the
identity of the data sink and (optionally) a routing tree (parent pointers
towards the sink).  Connectivity can either be declared explicitly (the
hidden-node and IoT-LAB scenarios) or derived from positions and a
propagation model, following the procedure of Kauer & Turau that the paper
uses to construct its testbed topologies.

Topologies double as shareable *construction artifacts*: building one
(positions, O(n²) link derivation, routing tree) is the expensive part of
scenario assembly, so the scenario layer caches built topologies and reuses
them across runs of a sweep.  :meth:`Topology.freeze` makes that sharing
safe: it seals the topology — further calls to mutating methods raise
:class:`FrozenTopologyError` — and makes :func:`hash` stable, so frozen
topologies are safe dictionary keys and safe to hand to concurrent runs.
Each run derives its channel wiring from the topology afresh, so nothing
downstream snapshots topology state that could go stale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.phy.propagation import PropagationModel, distance

Position = Tuple[float, float]


class FrozenTopologyError(RuntimeError):
    """Raised when a mutating method is called on a frozen topology."""


@dataclass
class Topology:
    """Node positions, links and (optional) routing tree."""

    positions: Dict[int, Position]
    links: Set[FrozenSet[int]] = field(default_factory=set)
    sink: Optional[int] = None
    parents: Dict[int, int] = field(default_factory=dict)
    name: str = "topology"
    _frozen: bool = field(default=False, init=False, compare=False, repr=False)
    _hash: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    # ------------------------------------------------------------- mutability
    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` sealed the topology."""
        return self._frozen

    def freeze(self) -> "Topology":
        """Seal the topology: mutating methods now raise, :func:`hash` is stable.

        Returns ``self`` so construction chains read naturally
        (``factory(**params).freeze()``).  Freezing is idempotent.  Note
        that only the *methods* are guarded — writing to ``topology.links``
        or ``topology.positions`` directly bypasses the guard, which is why
        all construction code goes through the methods.
        """
        self._frozen = True
        return self

    def _mutating(self) -> None:
        """Guard shared by every mutating method; drops the cached hash."""
        if self._frozen:
            raise FrozenTopologyError(
                f"topology {self.name!r} is frozen (shared as a cached construction "
                "artifact); build a fresh topology instead of mutating it"
            )
        self._hash = None

    def fingerprint(self) -> Tuple:
        """Canonical content tuple (positions, links, sink, parents)."""
        return (
            self.name,
            tuple(sorted(self.positions.items())),
            tuple(sorted(tuple(sorted(link)) for link in self.links)),
            self.sink,
            tuple(sorted(self.parents.items())),
        )

    def __hash__(self) -> int:
        # Content-based so equal frozen topologies hash equally; cached only
        # once frozen (a mutable topology's hash may still change).
        if self._frozen and self._hash is not None:
            return self._hash
        value = hash(self.fingerprint())
        if self._frozen:
            self._hash = value
        return value

    # ------------------------------------------------------------------ nodes
    @property
    def node_ids(self) -> List[int]:
        """All node identifiers in a deterministic order."""
        return sorted(self.positions)

    @property
    def num_nodes(self) -> int:
        return len(self.positions)

    def position(self, node_id: int) -> Position:
        return self.positions[node_id]

    # ------------------------------------------------------------------ links
    def add_link(self, a: int, b: int) -> None:
        """Declare a bidirectional link between two nodes."""
        if a == b:
            raise ValueError("self-links are not allowed")
        if a not in self.positions or b not in self.positions:
            raise KeyError("both endpoints must exist in the topology")
        self._mutating()
        self.links.add(frozenset((a, b)))

    def connected(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.links

    def neighbours(self, node_id: int) -> List[int]:
        """Nodes sharing a link with ``node_id``."""
        result = []
        for link in self.links:
            if node_id in link:
                (other,) = link - {node_id}
                result.append(other)
        return sorted(result)

    def derive_links(self, model: PropagationModel) -> None:
        """(Re-)derive the link set from positions using a propagation model."""
        self._mutating()
        self.links.clear()
        ids = self.node_ids
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if model.in_range(self.positions[a], self.positions[b]):
                    self.links.add(frozenset((a, b)))

    # --------------------------------------------------------------- routing
    def build_routing_tree(self, sink: Optional[int] = None) -> Dict[int, int]:
        """Compute parent pointers towards the sink via BFS (minimum hop count)."""
        root = sink if sink is not None else self.sink
        if root is None:
            raise ValueError("a sink must be given to build a routing tree")
        self._mutating()
        self.sink = root
        self.parents = build_routing_tree(self.positions, self.links, root)
        return self.parents

    def parent(self, node_id: int) -> Optional[int]:
        """The next hop towards the sink, or None for the sink itself."""
        if node_id == self.sink:
            return None
        return self.parents.get(node_id)

    def children(self, node_id: int) -> List[int]:
        return sorted(child for child, parent in self.parents.items() if parent == node_id)

    def depth(self) -> int:
        """Depth of the routing tree (number of nodes on the longest root path)."""
        if not self.parents and self.sink is not None:
            return 1 if self.positions else 0
        depths = {self.sink: 1}

        def node_depth(node: int) -> int:
            if node in depths:
                return depths[node]
            parent = self.parents.get(node)
            if parent is None:
                depths[node] = 1
            else:
                depths[node] = node_depth(parent) + 1
            return depths[node]

        return max(node_depth(n) for n in self.positions) if self.positions else 0

    def hop_count(self, node_id: int) -> int:
        """Number of hops from a node to the sink along the routing tree."""
        hops = 0
        current = node_id
        while current != self.sink:
            parent = self.parents.get(current)
            if parent is None:
                raise ValueError(f"node {node_id} has no route to the sink")
            current = parent
            hops += 1
            if hops > len(self.positions):
                raise ValueError("routing tree contains a cycle")
        return hops

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Topology({self.name!r}, nodes={self.num_nodes}, links={len(self.links)}, "
            f"sink={self.sink})"
        )


def build_routing_tree(
    positions: Dict[int, Position],
    links: Set[FrozenSet[int]],
    sink: int,
) -> Dict[int, int]:
    """Breadth-first routing tree: every node's parent lies one hop closer to the sink.

    Among equally close candidates the geographically nearest one is chosen,
    mirroring the greedy (GPSR-like) next-hop selection of the paper's
    scalability scenario.
    """
    if sink not in positions:
        raise KeyError(f"sink {sink} is not part of the topology")
    adjacency: Dict[int, List[int]] = {node: [] for node in positions}
    for link in links:
        a, b = tuple(link)
        adjacency[a].append(b)
        adjacency[b].append(a)

    hop_count: Dict[int, int] = {sink: 0}
    queue = deque([sink])
    while queue:
        current = queue.popleft()
        for neighbour in sorted(adjacency[current]):
            if neighbour not in hop_count:
                hop_count[neighbour] = hop_count[current] + 1
                queue.append(neighbour)

    parents: Dict[int, int] = {}
    for node in positions:
        if node == sink:
            continue
        if node not in hop_count:
            raise ValueError(f"node {node} is disconnected from the sink")
        candidates = [
            n for n in adjacency[node] if hop_count.get(n, float("inf")) == hop_count[node] - 1
        ]
        candidates.sort(key=lambda n: (distance(positions[node], positions[n]), n))
        parents[node] = candidates[0]
    return parents
