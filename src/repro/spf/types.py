"""Shared forest representation for the Section 5 algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.grid.coords import Node


@dataclass
class Forest:
    """An S-shortest-path forest over a set of member amoebots.

    ``parent`` maps every member except the sources to its tree parent;
    every parent chain ends at a source.  This is exactly the knowledge
    the model requires of the amoebots ("each amoebot knows its parent").

    A forest is immutable after construction: every member's root and
    depth are computed in one memoized ``O(n)`` pass on first use, so
    mutating ``parent`` afterwards would leave them stale.
    """

    sources: Set[Node]
    parent: Dict[Node, Node]
    members: Set[Node]
    _chains: Optional[Dict[Node, Tuple[Node, int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("a forest needs at least one source")
        if not self.sources <= self.members:
            raise ValueError("sources must be members")
        missing = self.members - self.sources - set(self.parent)
        if missing:
            raise ValueError(
                f"non-source members without parent: {sorted(missing)[:3]}"
            )

    @classmethod
    def chains(
        cls,
        sources: Iterable[Node],
        parent: Dict[Node, Node],
        destinations: Iterable[Node],
    ) -> "Forest":
        """The sources plus each destination's parent chain in ``parent``.

        ``parent`` may cover more than the chains (a whole BFS forest);
        what no destination hangs from is dropped, so every leaf is in
        ``S ∪ D`` (forest property 2).
        """
        source_set = set(sources)
        members = set(source_set)
        for d in destinations:
            cur = d
            while cur not in members:
                members.add(cur)
                cur = parent[cur]
        return cls(
            sources=source_set,
            parent={u: parent[u] for u in members - source_set},
            members=members,
        )

    def _chain_ends(self) -> Dict[Node, Tuple[Node, int]]:
        """``(root, depth)`` of every source and parented node, memoized.

        Each chain is walked only up to the first node already resolved,
        so the pass touches every parent pointer once.
        """
        if self._chains is None:
            parent = self.parent
            ends = {s: (s, 0) for s in self.sources}
            for start in parent:
                path = []
                cur = start
                while cur not in ends:
                    path.append(cur)
                    if len(path) > len(parent):
                        raise ValueError("parent pointers contain a cycle")
                    cur = parent[cur]
                top, depth = ends[cur]
                for u in reversed(path):
                    depth += 1
                    ends[u] = (top, depth)
            self._chains = ends
        return self._chains

    def root_of(self, node: Node) -> Node:
        """The source at the top of ``node``'s parent chain."""
        return self._chain_ends()[node][0]

    def depth_of(self, node: Node) -> int:
        """Tree depth of ``node`` (= its distance from its source)."""
        return self._chain_ends()[node][1]

    def children(self) -> Dict[Node, List[Node]]:
        """Child lists per member (sources included)."""
        result: Dict[Node, List[Node]] = {u: [] for u in self.members}
        for u, p in self.parent.items():
            result[p].append(u)
        return result

    def tree_parent_maps(self) -> Dict[Node, Dict[Node, Node]]:
        """Per-source parent maps (node-disjoint trees)."""
        trees: Dict[Node, Dict[Node, Node]] = {s: {} for s in self.sources}
        ends = self._chain_ends()
        for u, p in self.parent.items():
            trees[ends[u][0]][u] = p
        return trees

    def restricted_to(self, nodes: Set[Node]) -> "Forest":
        """The forest induced on ``nodes`` (which must be parent-closed)."""
        parent = {u: p for u, p in self.parent.items() if u in nodes}
        dangling = {p for p in parent.values() if p not in nodes}
        if dangling:
            raise ValueError("restriction cuts parent chains")
        return Forest(
            sources=self.sources & nodes,
            parent=parent,
            members=self.members & nodes,
        )

    def __iter__(self) -> Iterator[Node]:
        return iter(self.members)
