import dataclasses
import random
from itertools import combinations

import pytest

import oracles
from conftest import make_chain, make_grid, make_interval, random_complex, random_pv_source
from globflow import (
    ComplexMorphism,
    Edge,
    GlobularComplex,
    InvalidComplexError,
    Square,
    UnknownIdError,
    all_exec_paths,
    complexes,
    complex_deadlocks,
    complex_morphism_violations,
    compose_complex_morphisms,
    enumerate_paths,
    glob_discrete,
    identity_complex_morphism,
    is_complex_morphism,
    parse_pv,
    path_classes,
    deadlocks,
    pv_to_complex,
    realize,
    realize_morphism,
    same_move_class,
    square_move_neighbors,
    state_name,
    subdivide_edge,
    validate_complex,
)


class TestValidateComplex:
    def test_degenerate_complex_ok(self):
        assert validate_complex(GlobularComplex(states=("s",))).ok

    def test_dangling_endpoint(self):
        c = GlobularComplex(states=("u",), edges=(Edge("e", "u", "v"),))
        report = validate_complex(c)
        assert not report.ok
        assert any("dangling endpoint" in v for v in report.violations)

    def test_two_edge_cycle_rejected(self):
        c = GlobularComplex(
            states=("u", "v"),
            edges=(Edge("a", "u", "v"), Edge("b", "v", "u")),
        )
        report = validate_complex(c)
        assert any("cyclic 1-skeleton" in v for v in report.violations)

    def test_self_loop_rejected(self):
        c = GlobularComplex(states=("u",), edges=(Edge("a", "u", "u"),))
        assert any(
            "cyclic 1-skeleton" in v for v in validate_complex(c).violations
        )

    def test_bad_square_boundary(self):
        grid = make_grid(with_square=False)
        bad = GlobularComplex(
            states=grid.states,
            edges=grid.edges,
            squares=(Square("q", ("a", "d"), ("c", "d")),),  # a, d not composable
        )
        assert any(
            "bad square boundary" in v for v in validate_complex(bad).violations
        )

    def test_square_endpoint_mismatch(self):
        grid = make_grid(with_square=False)
        bad = GlobularComplex(
            states=grid.states,
            edges=grid.edges,
            squares=(Square("q", ("a",), ("c",)),),  # 10 vs 01 targets
        )
        assert any(
            "do not share endpoints" in v for v in validate_complex(bad).violations
        )

    def test_degenerate_square_flagged_not_fatal(self):
        c = GlobularComplex(
            states=("0", "1"),
            edges=(Edge("a", "0", "1"),),
            squares=(Square("q", ("a",), ("a",)),),
        )
        report = validate_complex(c)
        assert report.ok
        assert any("degenerate square" in w for w in report.warnings)

    def test_duplicate_ids(self):
        c = GlobularComplex(
            states=("u", "u"),
            edges=(Edge("e", "u", "u"),),
        )
        assert any("duplicate state" in v for v in validate_complex(c).violations)

    def test_reserved_separator_in_edge_id(self):
        c = GlobularComplex(states=("u", "v"), edges=(Edge("a*b", "u", "v"),))
        assert any("reserved character" in v for v in validate_complex(c).violations)

    def test_unknown_final_and_init(self):
        c = GlobularComplex(states=("u",), finals=("w",), init="z")
        report = validate_complex(c)
        assert any("unknown final state" in v for v in report.violations)
        assert any("unknown initial state" in v for v in report.violations)


class TestGlobDiscrete:
    def test_singleton_is_directed_interval(self):
        c = glob_discrete(["*"])
        assert c.states == ("0", "1")
        assert len(c.edges) == 1 and c.edges[0].src == "0" and c.edges[0].tgt == "1"
        assert not c.squares

    def test_two_labels_two_parallel_edges(self):
        c = glob_discrete(["a", "b"])
        assert [(e.src, e.tgt) for e in c.edges] == [("0", "1"), ("0", "1")]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            glob_discrete([])


class TestEnumeratePaths:
    def test_interval(self):
        assert enumerate_paths(make_interval(), "0", "1") == [("e",)]

    def test_chain(self):
        assert enumerate_paths(make_chain(2), "s0", "s2") == [("e0", "e1")]

    def test_grid_corner_to_corner_matches_oracle(self):
        grid = make_grid()
        edge_dict = {e.id: (e.src, e.tgt) for e in grid.edges}
        expected = oracles.graph_paths(edge_dict, "00", "11")
        assert set(enumerate_paths(grid, "00", "11")) == expected
        assert len(expected) == 2

    def test_unknown_state(self):
        with pytest.raises(UnknownIdError):
            enumerate_paths(make_interval(), "0", "nope")

    def test_cyclic_walk_raises(self):
        c = GlobularComplex(
            states=("u", "v"), edges=(Edge("a", "u", "v"), Edge("b", "v", "u"))
        )
        with pytest.raises(InvalidComplexError):
            enumerate_paths(c, "u", "v")

    def test_random_paths_are_composable_and_nonempty(self, rng):
        for _ in range(30):
            c = random_complex(rng)
            for src in c.states:
                for tgt in c.states:
                    for path in enumerate_paths(c, src, tgt):
                        assert path
                        assert c.is_exec_path(path)
                        assert c.path_source(path) == src
                        assert c.path_target(path) == tgt


class TestMemberWalk:
    """enumerate_paths walks only the states that can reach its target."""

    def test_matches_the_oracle_in_order(self, rng):
        for _ in range(40):
            c = random_complex(rng)
            edges = {e.id: (e.src, e.tgt) for e in c.edges}
            for src in c.states:
                for tgt in c.states:
                    want = sorted(oracles.graph_paths(edges, src, tgt))
                    assert enumerate_paths(c, src, tgt) == want

    def test_pv_programs_match_the_oracle(self, rng):
        for _ in range(10):
            c = pv_to_complex(parse_pv(random_pv_source(rng)))
            edges = {e.id: (e.src, e.tgt) for e in c.edges}
            want = sorted(oracles.graph_paths(edges, c.init, c.finals[0]))
            assert enumerate_paths(c, c.init, c.finals[0]) == want

    def test_only_members_are_built(self, rng, monkeypatch):
        # the member loop looks up the steps of `src`, then of each state it
        # descends into: each must lie on a member path, once per prefix
        loop = complexes._members
        looked_up = []

        class Recorded(dict):
            def __getitem__(self, state):
                looked_up.append(state)
                return super().__getitem__(state)

            def get(self, state, default=None):
                looked_up.append(state)
                return super().get(state, default)

        def recorded(steps, *args):
            return loop(Recorded(steps), *args)

        monkeypatch.setattr(complexes, "_members", recorded)
        for _ in range(20):
            c = random_complex(rng)
            edges = {e.id: (e.src, e.tgt) for e in c.edges}
            for src in c.states:
                for tgt in c.states:
                    looked_up.clear()
                    members = oracles.graph_paths(edges, src, tgt)
                    assert enumerate_paths(c, src, tgt) == sorted(members)
                    assert looked_up[0] == src
                    descents = looked_up[1:]
                    assert set(descents) <= {edges[e][0] for p in members for e in p}
                    assert len(descents) == len(
                        {p[:i] for p in members for i in range(1, len(p))}
                    )

    def test_a_cycle_the_target_cannot_see_still_raises(self):
        # s -> t, and a cycle out of s that never comes back to t
        c = GlobularComplex(
            states=("s", "t", "u", "v"),
            edges=(
                Edge("a", "s", "t"),
                Edge("b", "s", "u"),
                Edge("c", "u", "v"),
                Edge("d", "v", "u"),
            ),
        )
        with pytest.raises(InvalidComplexError) as raised:
            enumerate_paths(c, "s", "t")
        assert raised.value.violations == list(validate_complex(c).violations)
        assert raised.value.violations == ["cyclic 1-skeleton: u -> v -> u"]

    def test_a_complex_that_does_not_validate_is_refused(self):
        c = GlobularComplex(
            states=("s", "t"),
            edges=(Edge("a", "s", "t"), Edge("b", "s", "t")),
            squares=(Square("q", ("a",), ("zz",)),),
            finals=("nowhere",),
        )
        report = validate_complex(c)
        assert not report.ok
        with pytest.raises(InvalidComplexError) as raised:
            enumerate_paths(c, "s", "t")
        assert raised.value.violations == list(report.violations)


class TestAllExecPaths:
    def test_matches_the_walk_and_the_oracle(self, rng):
        for _ in range(30):
            c = random_complex(rng)
            edges = {e.id: (e.src, e.tgt) for e in c.edges}
            assert all_exec_paths(c) == sorted(oracles.graph_all_paths(edges))

    def test_a_complex_that_does_not_validate_is_refused(self):
        c = GlobularComplex(
            states=("s", "t"),
            edges=(Edge("a", "s", "t"), Edge("b", "t", "s")),
        )
        dangling = GlobularComplex(states=("s",), edges=(Edge("a", "s", "t"),))
        for invalid in (c, dangling):
            report = validate_complex(invalid)
            assert not report.ok
            with pytest.raises(InvalidComplexError) as raised:
                all_exec_paths(invalid)
            assert raised.value.violations == list(report.violations)


class TestPathClasses:
    def test_grid_with_square_one_class(self):
        assert len(path_classes(make_grid(True), "00", "11")) == 1

    def test_grid_without_square_two_classes(self):
        assert len(path_classes(make_grid(False), "00", "11")) == 2

    def test_parallel_edges_no_square_two_classes(self):
        assert len(path_classes(glob_discrete(["a", "b"]), "0", "1")) == 2

    def test_partition_matches_bfs_oracle(self, rng):
        for _ in range(25):
            c = random_complex(rng, max_states=6, max_edges=9, max_squares=3)
            rewrites = [(q.left, q.right) for q in c.squares]
            for src in c.states:
                for tgt in c.states:
                    got = {frozenset(block) for block in path_classes(c, src, tgt)}
                    want = oracles.move_classes(
                        set(enumerate_paths(c, src, tgt)), rewrites
                    )
                    assert got == want

    def test_adding_squares_never_increases_class_count(self, rng):
        for _ in range(25):
            c = random_complex(rng, max_squares=4)
            if not c.squares:
                continue
            fewer = GlobularComplex(
                states=c.states, edges=c.edges, squares=c.squares[:-1]
            )
            for src in c.states:
                for tgt in c.states:
                    assert len(path_classes(c, src, tgt)) <= len(
                        path_classes(fewer, src, tgt)
                    )


class TestSquareMoves:
    def test_indexed_moves_match_oracle(self, rng):
        for _ in range(25):
            c = random_complex(rng, max_states=6, max_edges=9, max_squares=3, min_edges=1)
            # a degenerate square on top must move nothing
            loop = rng.choice(all_exec_paths(c))
            c = GlobularComplex(
                states=c.states, edges=c.edges, squares=c.squares + (Square("z", loop, loop),)
            )
            rewrites = [(q.left, q.right) for q in c.squares]
            for p in all_exec_paths(c):
                assert square_move_neighbors(c, p) == oracles.move_neighbors(p, rewrites)

    def test_unknown_ids_match_no_square(self):
        grid = make_grid(True)
        assert square_move_neighbors(grid, ("zz", "a", "b", "zz")) == {("zz", "c", "d", "zz")}
        assert square_move_neighbors(grid, ("a", "zz", "b")) == set()
        assert square_move_neighbors(grid, ("zz",)) == set()

    def test_invalid_complex_raises(self):
        c = GlobularComplex(
            states=("0", "1"),
            edges=(Edge("a", "0", "1"), Edge("b", "0", "1")),
            squares=(Square("q", ("a",), ()),),
        )
        with pytest.raises(InvalidComplexError) as raised:
            square_move_neighbors(c, ("a",))
        assert tuple(raised.value.violations) == validate_complex(c).violations


class TestLongChains:
    def test_walks_do_not_recurse(self):
        # 3000 edges is deeper than Python's default recursion limit
        c = make_chain(3000)
        assert validate_complex(c).ok
        assert len(enumerate_paths(c, "s0", "s3000")) == 1
        assert len(path_classes(c, "s0", "s3000")) == 1
        cyclic = GlobularComplex(
            states=c.states, edges=c.edges + (Edge("back", "s3000", "s0"),)
        )
        (violation,) = validate_complex(cyclic).violations
        assert violation.startswith("cyclic 1-skeleton: s0 -> s1 -> ")

    def test_member_lists_are_output_linear(self):
        chain = make_chain(3000)
        assert enumerate_paths(chain, "s0", "s3000") == [
            tuple(f"e{i}" for i in range(3000))
        ]
        # a 1,000-tooth comb: 1,001 paths s0 -> z, 501,501 edge ids in all
        teeth = tuple(Edge(f"t{i}", f"s{i}", "z") for i in range(1001))
        comb = make_chain(1000)
        comb = GlobularComplex(states=comb.states + ("z",), edges=comb.edges + teeth)
        want = [tuple(f"e{k}" for k in range(i)) + (f"t{i}",) for i in reversed(range(1001))]
        assert enumerate_paths(comb, "s0", "z") == want
        assert path_classes(comb, "s0", "z") == tuple((p,) for p in want)

    def test_same_move_class_does_not_recurse(self):
        c = make_chain(3000)
        path = tuple(e.id for e in c.edges)
        assert same_move_class(c, path, path)
        detour = path[:-1] + ("alt",)
        parallel = GlobularComplex(
            states=c.states, edges=c.edges + (Edge("alt", "s2999", "s3000"),)
        )
        assert not same_move_class(parallel, path, detour)
        filled = GlobularComplex(
            states=parallel.states,
            edges=parallel.edges,
            squares=(Square("q", ("e2999",), ("alt",)),),
        )
        assert same_move_class(filled, path, detour)


def _with_degenerate_square(rng, c):
    loop = rng.choice(all_exec_paths(c))
    return GlobularComplex(
        states=c.states, edges=c.edges, squares=c.squares + (Square("z", loop, loop),)
    )


def _with_square_after(c):
    """`c` with a filled square leaving its last state, so that every class
    of paths into that state meets a square."""
    t = c.states[-1]
    edges = (Edge("x1", t, "m1"), Edge("x2", t, "m2"), Edge("y1", "m1", "w"), Edge("y2", "m2", "w"))
    return GlobularComplex(
        states=c.states + ("m1", "m2", "w"),
        edges=c.edges + edges,
        squares=c.squares + (Square("after", ("x1", "y1"), ("x2", "y2")),),
    )


def _pv_oracle_input(program):
    processes = [[(step.op, step.arg) for step in p] for p in program.processes]
    return processes, dict(program.resources)


def _trace_of(path):
    """Process-index schedule of a compiled path (edge ids end in '>p<k>')."""
    return tuple(int(e.rsplit(">p", 1)[1]) for e in path)


class TestClassPropagation:
    def _check_every_pair_of_paths(self, c):
        rewrites = [(q.left, q.right) for q in c.squares]
        for src in c.states:
            for tgt in c.states:
                paths = enumerate_paths(c, src, tgt)
                block_of = {
                    p: block for block in oracles.move_classes(set(paths), rewrites) for p in block
                }
                for a, b in combinations(paths, 2):
                    assert same_move_class(c, a, b) == (b in block_of[a]), (src, tgt, a, b)

    def test_same_move_class_matches_oracle_on_random_complexes(self, rng):
        for _ in range(25):
            c = random_complex(rng, max_states=6, max_edges=9, max_squares=3, min_edges=1)
            self._check_every_pair_of_paths(_with_degenerate_square(rng, _with_square_after(c)))

    def test_random_pv_programs_match_oracles(self, rng):
        # two schedules around the mutex, then a square out of their meeting point
        sources = ["res a 1; proc: P(a).V(a).A(x) proc: P(a).V(a).A(y)"]
        sources += [random_pv_source(rng) for _ in range(10)]
        for source in sources:
            program = parse_pv(source)
            c = pv_to_complex(program)
            self._check_every_pair_of_paths(c)
            got = {
                frozenset(_trace_of(p) for p in block)
                for block in path_classes(c, c.init, c.finals[0])
            }
            assert got == oracles.pv_trace_classes(*_pv_oracle_input(program))

    def test_path_classes_keep_the_block_order(self, rng):
        for _ in range(25):
            c = _with_degenerate_square(rng, random_complex(rng, min_edges=1))
            for src in c.states:
                for tgt in c.states:
                    blocks = path_classes(c, src, tgt)
                    assert [list(b) for b in blocks] == [sorted(b) for b in blocks]
                    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
                    assert sorted(p for b in blocks for p in b) == enumerate_paths(c, src, tgt)

    def test_no_square_move_is_applied(self, monkeypatch):
        def unreachable(c, path):
            raise AssertionError("square_move_neighbors called")

        monkeypatch.setattr(complexes, "square_move_neighbors", unreachable)
        c = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        blocks = path_classes(c, c.init, c.finals[0])
        assert len(blocks) == 2
        assert same_move_class(c, blocks[0][0], blocks[0][-1])
        assert not same_move_class(c, blocks[0][0], blocks[1][0])
        assert same_move_class(make_grid(True), ("a", "b"), ("c", "d"))

    def test_topological_order(self, rng):
        for _ in range(25):
            c = random_complex(rng)
            position = {s: i for i, s in enumerate(c.topological_order)}
            assert sorted(position) == sorted(c.states)
            assert all(position[e.src] < position[e.tgt] for e in c.edges)

    def test_one_cycle_walk_per_complex(self, monkeypatch):
        calls = []
        walk = complexes._find_cycle

        def counted(c):
            calls.append(c)
            return walk(c)

        monkeypatch.setattr(complexes, "_find_cycle", counted)
        c = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        assert validate_complex(c).ok
        realize(c)
        assert len(path_classes(c, c.init, c.finals[0])) == 2
        assert complex_deadlocks(c, c.init, c.finals)
        assert calls == [c]
        cyclic = GlobularComplex(
            states=("u", "v"), edges=(Edge("a", "u", "v"), Edge("b", "v", "u"))
        )
        assert not validate_complex(cyclic).ok
        with pytest.raises(InvalidComplexError):
            cyclic.topological_order
        assert calls == [c, cyclic]

    def test_topological_order_with_isolated_states(self):
        c = GlobularComplex(
            states=("z", "s2", "y", "s0", "s1", "x"),
            edges=(Edge("b", "s1", "s2"), Edge("a", "s0", "s1"), Edge("c", "s0", "s2")),
        )
        assert c.topological_order == ("z", "y", "x", "s0", "s1", "s2")
        assert GlobularComplex(states=("b", "a")).topological_order == ("b", "a")


class TestClassTable:
    """The one-entry class table kept on a complex answers for its own
    complex and endpoints only."""

    @staticmethod
    def _check(rng, c, pairs):
        """Classes and move-class tests over `pairs`, in a random interleaving
        that starts with a same_move_class, each against the oracle."""
        edges = {e.id: (e.src, e.tgt) for e in c.edges}
        rewrites = [(q.left, q.right) for q in c.squares]
        want = {
            (src, tgt): oracles.move_classes(oracles.graph_paths(edges, src, tgt), rewrites)
            for src, tgt in pairs
        }
        calls = [(pair, "same") for pair in pairs] + [(pair, "classes") for pair in pairs]
        rng.shuffle(calls)
        first = next(i for i, (_, kind) in enumerate(calls) if kind == "same")
        calls.insert(0, calls.pop(first))
        for (src, tgt), kind in calls * 2:
            blocks = want[src, tgt]
            if kind == "classes":
                assert {frozenset(b) for b in path_classes(c, src, tgt)} == blocks
                continue
            paths = sorted(p for block in blocks for p in block)
            for a, b in [tuple(rng.choice(paths) for _ in "ab") for _ in range(4)]:
                together = any(a in block and b in block for block in blocks)
                assert same_move_class(c, a, b) == together, (src, tgt, a, b)

    @staticmethod
    def _pairs(c):
        edges = {e.id: (e.src, e.tgt) for e in c.edges}
        return [
            (src, tgt)
            for src in c.states
            for tgt in c.states
            if oracles.graph_paths(edges, src, tgt)
        ]

    def test_interleaved_endpoints_match_the_oracle(self, rng):
        for _ in range(25):
            c = random_complex(rng, max_states=6, max_edges=9, max_squares=3, min_edges=1)
            self._check(rng, c, self._pairs(c))
        for _ in range(8):
            c = pv_to_complex(parse_pv(random_pv_source(rng)))
            pairs = self._pairs(c)
            ends = [pair for pair in pairs if pair == (c.init, c.finals[0])]
            self._check(rng, c, ends + rng.sample(pairs, min(6, len(pairs))))

    def test_a_replaced_complex_has_its_own_table(self, rng):
        differ = 0
        for _ in range(40):
            c = random_complex(rng, max_states=6, max_edges=9, max_squares=3, min_edges=1)
            if not c.squares:
                continue
            pairs = self._pairs(c)
            self._check(rng, c, pairs)
            fewer = dataclasses.replace(c, squares=c.squares[:-1])
            for src, tgt in pairs:
                # each side is asked right after the other built its table
                # for the same endpoints
                path_classes(c, src, tgt)
                self._check(rng, fewer, [(src, tgt)])
                self._check(rng, c, [(src, tgt)])
                differ += len(path_classes(c, src, tgt)) != len(path_classes(fewer, src, tgt))
        assert differ > 0


class TestClassesOnBadInput:
    CYCLIC = GlobularComplex(
        states=("u", "v"), edges=(Edge("a", "u", "v"), Edge("b", "v", "u"))
    )
    BAD_SQUARE = GlobularComplex(
        states=("0", "1"),
        edges=(Edge("a", "0", "1"), Edge("b", "0", "1")),
        squares=(Square("q", ("a",), ()),),
    )

    @pytest.mark.parametrize("c", [CYCLIC, BAD_SQUARE], ids=["cyclic", "bad-square"])
    def test_invalid_complex_raises(self, c):
        (edge, *_) = c.edges
        with pytest.raises(InvalidComplexError) as raised:
            path_classes(c, edge.src, edge.tgt)
        assert tuple(raised.value.violations) == validate_complex(c).violations
        with pytest.raises(InvalidComplexError):
            same_move_class(c, (edge.id,), (edge.id,))
        with pytest.raises(InvalidComplexError):
            c.topological_order

    def test_non_paths_are_only_equal_to_themselves(self):
        grid = make_grid(True)
        assert same_move_class(grid, ("zz",), ("zz",))
        assert same_move_class(grid, (), ())
        # the square rewrites a, b into c, d, but these are not paths of the grid
        assert not same_move_class(grid, ("a", "b", "zz"), ("c", "d", "zz"))
        assert not same_move_class(grid, ("b", "a"), ("d", "c"))
        assert not same_move_class(grid, (), ("a",))

    def test_different_endpoints_are_apart(self):
        grid = make_grid(True)
        assert not same_move_class(grid, ("a",), ("c",))
        assert not same_move_class(grid, ("a", "b"), ("b",))
        assert not same_move_class(grid, ("a", "b"), ("a",))

    def test_unknown_state(self):
        with pytest.raises(UnknownIdError):
            path_classes(make_grid(True), "00", "zz")


class TestComplexDeadlocks:
    """`complex_deadlocks` answers as `flows.deadlocks` on the realization."""

    def test_matches_the_flow_route_on_random_complexes(self, rng):
        for _ in range(40):
            c = random_complex(rng)
            flow = realize(c)
            for init in c.states:
                finals = rng.sample(c.states, rng.randint(0, 2))
                assert complex_deadlocks(c, init, finals) == deadlocks(flow, init, finals)

    def test_random_pv_programs_match_the_oracle(self, rng):
        for _ in range(30):
            program = parse_pv(random_pv_source(rng))
            c = pv_to_complex(program)
            want = {state_name(t) for t in oracles.pv_deadlock_states(*_pv_oracle_input(program))}
            assert set(complex_deadlocks(c, c.init, c.finals)) == want

    def test_unknown_states_raise_the_flow_texts(self):
        c = make_chain(2)
        with pytest.raises(UnknownIdError, match="^unknown state: zz$"):
            complex_deadlocks(c, "zz")
        with pytest.raises(UnknownIdError, match="^unknown final states: x, y$"):
            complex_deadlocks(c, "s0", ["y", "s2", "x"])
        assert complex_deadlocks(c, "s0") == ("s2",)
        assert complex_deadlocks(c, "s1", ["s2"]) == ()

    def test_refuses_an_invalid_complex(self):
        c = GlobularComplex(states=("u",), edges=(Edge("e", "u", "v"),))
        with pytest.raises(InvalidComplexError):
            complex_deadlocks(c, "u")


class TestComplexMorphisms:
    def test_identity_is_morphism(self, rng):
        for _ in range(10):
            c = random_complex(rng)
            assert is_complex_morphism(identity_complex_morphism(c), c, c)

    def test_contracting_map_rejected(self):
        interval = make_interval()
        f = ComplexMorphism(state_map={"0": "0", "1": "1"}, edge_map={"e": ()})
        assert not is_complex_morphism(f, interval, interval)

    def test_subdivision_map_is_morphism(self):
        interval = make_interval()
        refined, m = subdivide_edge(interval, "e")
        assert is_complex_morphism(m, interval, refined)

    def test_endpoint_mismatch_rejected(self):
        chain = make_chain(2)
        f = ComplexMorphism(
            state_map={s: s for s in chain.states},
            edge_map={"e0": ("e1",), "e1": ("e1",)},
        )
        assert not is_complex_morphism(f, chain, chain)

    def test_square_preservation_required(self):
        # map the square's boundaries onto unrelated parallel paths
        dom = make_grid(True)
        cod = make_grid(False)
        f = ComplexMorphism(
            state_map={s: s for s in dom.states},
            edge_map={e.id: (e.id,) for e in dom.edges},
        )
        assert is_complex_morphism(f, dom, dom)
        assert not is_complex_morphism(f, dom, cod)

    def test_composition_of_morphisms_is_morphism(self):
        c0 = make_interval()
        c1, m1 = subdivide_edge(c0, "e")
        c2, m2 = subdivide_edge(c1, m1.edge_map["e"][0])
        composite = compose_complex_morphisms(m2, m1)
        assert is_complex_morphism(composite, c0, c2)
        assert composite.path_image(("e",)) == m2.path_image(m1.edge_map["e"])

    def test_a_domain_that_does_not_validate_is_refused(self):
        # the square names an edge the domain does not have
        dom = GlobularComplex(
            states=("s", "t"),
            edges=(Edge("a", "s", "t"),),
            squares=(Square("q", ("a",), ("zz",)),),
        )
        cod = make_interval()
        f = ComplexMorphism(state_map={"s": "0", "t": "1"}, edge_map={"a": ("e",)})
        report = validate_complex(dom)
        assert not report.ok
        for check in (complex_morphism_violations, is_complex_morphism, realize_morphism):
            with pytest.raises(InvalidComplexError) as raised:
                check(f, dom, cod)
            assert raised.value.violations == list(report.violations)


class TestSubdivideEdge:
    def test_interval_becomes_chain(self):
        refined, m = subdivide_edge(make_interval(), "e")
        assert len(refined.edges) == 2
        assert len(refined.states) == 3
        assert m.edge_map["e"] == tuple(e.id for e in refined.edges)
        assert validate_complex(refined).ok

    def test_unknown_edge(self):
        with pytest.raises(UnknownIdError):
            subdivide_edge(make_interval(), "zz")

    def test_square_boundary_rewritten(self):
        grid = make_grid(True)
        refined, _ = subdivide_edge(grid, "a")
        (square,) = refined.squares
        assert len(square.left) == 3  # grew by one edge
        assert validate_complex(refined).ok

    def test_class_counts_preserved(self, rng):
        for _ in range(15):
            c = random_complex(rng, min_edges=1)
            edge = rng.choice(c.edges).id
            refined, _ = subdivide_edge(c, edge)
            assert validate_complex(refined).ok
            for src in c.states:
                for tgt in c.states:
                    assert len(path_classes(c, src, tgt)) == len(
                        path_classes(refined, src, tgt)
                    )

    def test_label_kept_on_first_half(self):
        c = GlobularComplex(
            states=("u", "v"), edges=(Edge("e", "u", "v", label="act"),)
        )
        refined, _ = subdivide_edge(c, "e")
        first, second = refined.edges
        assert first.label == "act"
        assert second.label is None


def test_enumeration_terminates_quickly_on_random_complexes():
    # acyclicity bounds the walk; a second is generous for 50 complexes
    import time

    rng = random.Random(7)
    start = time.time()
    for _ in range(50):
        c = random_complex(rng)
        for src in c.states:
            for tgt in c.states:
                enumerate_paths(c, src, tgt)
    assert time.time() - start < 10.0
