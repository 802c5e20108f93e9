"""The partition that pairs generate, as one class number per item.

A forest with path halving (Tarjan, "Efficiency of a good but not linear
set union algorithm", JACM 22, 1975).  Classes are numbered 0, 1, ... in
order of each class's smallest member, so the numbers do not depend on
the order of the pairs.
"""

from __future__ import annotations

from typing import Hashable, Iterable


def class_numbers(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Entry i is the class of i among 0..n-1 under the equivalence that
    `pairs` generate."""
    parent = list(range(n))
    for a, b in pairs:  # each root walk halves its path
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b
    label: dict[int, int] = {}
    numbers = []
    for r in range(n):  # r walks from each item to its root
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        numbers.append(label.setdefault(r, len(label)))
    return numbers


def class_numbers_of(items: Iterable[Hashable], pairs: Iterable[tuple]) -> dict:
    """item -> its class number under the equivalence that `pairs`
    generate, the distinct `items` taken in order; an id that only a pair
    names is added after them."""
    index = {item: i for i, item in enumerate(items)}
    # a list, so that every id is indexed before the count is read
    numbered = [
        (index.setdefault(a, len(index)), index.setdefault(b, len(index)))
        for a, b in pairs
    ]
    return dict(zip(index, class_numbers(len(index), numbered)))
