from collections import deque

from globflow import FiniteFlow
from globflow.unionfind import class_numbers, class_numbers_of


def _closure_numbers(n, pairs):
    """Class numbers by breadth-first search over the pairs as undirected
    edges, numbered in order of each class's smallest member."""
    neighbours = [[] for _ in range(n)]
    for a, b in pairs:
        neighbours[a].append(b)
        neighbours[b].append(a)
    out = [None] * n
    count = 0
    for start in range(n):
        if out[start] is not None:
            continue
        out[start] = count
        queue = deque([start])
        while queue:
            for j in neighbours[queue.popleft()]:
                if out[j] is None:
                    out[j] = count
                    queue.append(j)
        count += 1
    return out


def _random_pair_lists(rng):
    for n in range(1, 6):
        yield n, []  # no pairs: every item alone
        yield n, [(i, i) for i in range(n)]  # self-pairs join nothing
        yield n, [(i, i + 1) for i in range(n - 1)]  # a chain
        yield n, [(i + 1, i) for i in reversed(range(n - 1))]  # backwards
    yield 0, []
    for _ in range(250):
        n = rng.randint(1, 40)
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n + 5))
        ]
        if rng.random() < 0.2:  # a chain laid out in random order
            order = list(range(n))
            rng.shuffle(order)
            pairs += zip(order, order[1:])
        if rng.random() < 0.2:
            pairs += [(i, i) for i in range(n)]
        rng.shuffle(pairs)
        yield n, pairs


class TestClassNumbers:
    def test_matches_the_closure_of_the_pairs(self, rng):
        cases = list(_random_pair_lists(rng))
        assert len(cases) >= 200
        for n, pairs in cases:
            assert class_numbers(n, pairs) == _closure_numbers(n, pairs), (n, pairs)
            # the numbers do not depend on the order or direction of pairs
            flipped = [(b, a) for a, b in reversed(pairs)]
            assert class_numbers(n, flipped) == class_numbers(n, pairs)

    def test_classes_numbered_by_smallest_member(self):
        assert class_numbers(6, [(5, 1), (4, 0), (3, 5)]) == [0, 1, 2, 1, 0, 1]
        assert class_numbers(3, []) == [0, 1, 2]
        assert class_numbers(3, [(2, 0), (1, 2)]) == [0, 0, 0]
        assert class_numbers(0, []) == []

    def test_ids_named_only_by_pairs_follow_the_items(self):
        got = class_numbers_of(["b", "a"], [("x", "a"), ("y", "y")])
        assert list(got.items()) == [("b", 0), ("a", 1), ("x", 1), ("y", 2)]


class TestAdjacentStar:
    def flow(self):
        return FiniteFlow(
            skeleton=("0", "1"),
            path_ends={"a": ("0", "1"), "b": ("0", "1"), "c": ("0", "1")},
            adjacency=[("a", "b"), ("c", "z")],
        )

    def test_unknown_ids(self):
        flow = self.flow()
        assert flow.adjacent_star("a", "b")
        assert not flow.adjacent_star("a", "c")
        # an id the flow does not know is only in its own component
        assert flow.adjacent_star("x", "x")
        assert not flow.adjacent_star("x", "y")
        assert not flow.adjacent_star("a", "x")
        assert not flow.adjacent_star("x", "a")

    def test_id_named_only_by_adjacency_joins_its_partner(self):
        flow = self.flow()
        assert flow.adjacent_star("z", "c")
        assert flow.adjacent_star("c", "z")
        assert not flow.adjacent_star("z", "a")
        assert "z" in flow.adjacency_components
