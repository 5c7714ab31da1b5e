"""Shared forest representation for the Section 5 algorithms."""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.grid.coords import Node


class Forest:
    """An S-shortest-path forest in the grid-index ids of one structure.

    Each amoebot knows its parent: ``parent_ids`` maps every member id
    but the sources' to its parent's id, and every parent chain ends at
    one of the ``source_ids`` (ascending).  ``index`` is the
    :class:`~repro.grid.compiled.GridIndex` of the structure the engine
    runs on.  The members are the sources and the parented ids, so
    per-forest work is proportional to the members.

    ``sources``, ``members``, ``parent``, :meth:`root_of` and
    :meth:`depth_of` are ``Node`` views for reports, the checker,
    routing and viz, each built once on first read.  A forest is
    immutable after construction: roots and depths are memoized.
    """

    def __init__(self, index, source_ids: Iterable[int], parent_ids: Dict[int, int]):
        self.index = index
        self.source_ids: Tuple[int, ...] = tuple(sorted(set(source_ids)))
        if not self.source_ids:
            raise ValueError("a forest needs at least one source")
        if any(s in parent_ids for s in self.source_ids):
            raise ValueError("a source must not have a parent")
        self.parent_ids = parent_ids

    @classmethod
    def from_nodes(
        cls,
        index,
        sources: Iterable[Node],
        parent: Dict[Node, Node],
        members: Optional[Iterable[Node]] = None,
    ) -> "Forest":
        """The forest of a ``Node`` parent map, one ``id_of`` per node.

        Raises :class:`ValueError` for a node outside ``index``'s
        structure, a parent edge joining non-neighbors, a parent that
        is not a member, and ``members`` (when given) other than the
        sources plus the parented nodes.
        """
        source_set = set(sources)
        id_of = index.id_of
        nbr = index.nbr
        parent_ids: Dict[int, int] = {}
        for u, p in parent.items():
            a, b = id_of(u), id_of(p)
            if a is None or b is None:
                raise ValueError(f"parent edge {u}->{p} leaves the structure")
            if b not in nbr[a * 6 : a * 6 + 6]:
                raise ValueError(f"parent edge {u}->{p} joins non-neighbors")
            parent_ids[a] = b
        source_ids = [id_of(s) for s in source_set]
        if None in source_ids:
            raise ValueError("sources must be part of the structure")
        forest = cls(index, source_ids, parent_ids)
        outside = set(parent_ids.values()).difference(forest.source_ids, parent_ids)
        if outside:
            raise ValueError(f"parent {index.nodes[outside.pop()]} is not a member")
        if members is not None and set(members) != source_set | set(parent):
            raise ValueError("members must be the sources plus the parented nodes")
        forest.sources = source_set
        forest.parent = dict(parent)
        return forest

    @classmethod
    def chains(
        cls,
        index,
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
        return cls.from_nodes(index, source_set, {u: parent[u] for u in members - source_set})

    def __len__(self) -> int:
        """Number of members."""
        return len(self.source_ids) + len(self.parent_ids)

    def member_ids(self) -> Set[int]:
        """Ids of the sources and the parented nodes."""
        return set(self.source_ids).union(self.parent_ids)

    @cached_property
    def _chain_ends(self) -> Dict[int, Tuple[int, int]]:
        """``(root id, depth)`` of every member id.

        Each chain is walked only up to the first member already
        resolved, so the pass touches every parent pointer once.
        """
        parent = self.parent_ids
        ends = {s: (s, 0) for s in self.source_ids}
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
        return ends

    def trees(self) -> Dict[int, Dict[int, int]]:
        """Per source id, the id parent map of its tree (in source order)."""
        trees: Dict[int, Dict[int, int]] = {s: {} for s in self.source_ids}
        ends = self._chain_ends
        for u, p in self.parent_ids.items():
            trees[ends[u][0]][u] = p
        return trees

    # Node views -----------------------------------------------------------
    @cached_property
    def sources(self) -> Set[Node]:
        nodes = self.index.nodes
        return {nodes[s] for s in self.source_ids}

    @cached_property
    def parent(self) -> Dict[Node, Node]:
        nodes = self.index.nodes
        return {nodes[u]: nodes[p] for u, p in self.parent_ids.items()}

    @cached_property
    def members(self) -> Set[Node]:
        return self.sources | set(self.parent)

    def root_of(self, node: Node) -> Node:
        """The source at the top of ``node``'s parent chain."""
        return self.index.nodes[self._chain_ends[self.index.id_of(node)][0]]

    def depth_of(self, node: Node) -> int:
        """Tree depth of ``node`` (= its distance from its source)."""
        return self._chain_ends[self.index.id_of(node)][1]

    def __iter__(self) -> Iterator[Node]:
        return iter(self.members)
