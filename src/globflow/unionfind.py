"""Disjoint-set forest over hashable items, with deterministic class output."""

from __future__ import annotations

from typing import Hashable, Iterable


class DisjointSets:
    """Union-find with path compression and union by size.

    Items are registered lazily; `blocks()` renders the partition with
    every class sorted and classes ordered by their smallest member, so
    callers get a stable result regardless of union order.
    """

    def __init__(self, items: Iterable[Hashable] = ()):
        self._parent: dict = {}
        self._size: dict = {}
        for item in items:
            self.add(item)

    def add(self, item) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item):
        parent = self._parent
        if item not in parent:
            self.add(item)
            return item
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def same(self, a, b) -> bool:
        if a not in self._parent or b not in self._parent:
            return a == b
        return self.find(a) == self.find(b)

    def blocks(self) -> list[tuple]:
        by_root: dict = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        out = [tuple(sorted(members)) for members in by_root.values()]
        out.sort(key=lambda block: block[0])
        return out

    def __len__(self) -> int:
        return len(self._parent)
