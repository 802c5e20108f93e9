import dataclasses
import random
from itertools import combinations

import pytest

import oracles
from conftest import (
    make_chain, make_grid, make_interval, pv_oracle_input, random_complex, random_pv_source,
    trace_of,
)
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
    deadlocks,
    dihomotopy_classes,
    enumerate_paths,
    germs,
    glob_discrete,
    identity_complex_morphism,
    parse_pv,
    path_classes,
    dumps_complex,
    loads_complex,
    pv_to_complex,
    realize,
    realize_morphism,
    same_move_class,
    square_move_neighbors,
    subdivide_edge,
    validate_complex,
)
from globflow.complexes import exec_path_ends
from globflow.realization import count_paths_and_composites


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

    @pytest.mark.parametrize("seed", range(40))
    def test_a_cycle_is_named_by_a_closed_walk(self, seed):
        # a random complex, its declarations shuffled, and one edge back
        # from the end of one of its paths to the path's start
        rng = random.Random(2600 + seed)
        c = random_complex(rng, min_edges=1)
        path = rng.choice(all_exec_paths(c))
        src, tgt = exec_path_ends(c._edge_row, path)
        back = Edge("back", tgt, src)

        def shuffled():
            states, edges = list(c.states), [*c.edges, back]
            rng.shuffle(states)
            rng.shuffle(edges)
            return GlobularComplex(tuple(states), tuple(edges), c.squares)

        cyclic = shuffled()
        (violation,) = validate_complex(cyclic).violations
        prefix = "cyclic 1-skeleton: "
        assert violation.startswith(prefix)
        walk = violation[len(prefix):].split(" -> ")
        edges = {(e.src, e.tgt) for e in cyclic.edges}
        assert all(step in edges for step in zip(walk, walk[1:]))
        assert walk[0] == walk[-1] and len(set(walk)) == len(walk) - 1
        # an equal complex, and the same cells declared in another order
        for again in (loads_complex(dumps_complex(cyclic)), shuffled()):
            assert str(validate_complex(again)) == str(validate_complex(cyclic))

    @pytest.mark.parametrize("states, edges, violations", [
        # u has in-edges b from v and c from w: the least id, b, is walked
        ("uvw", ["auv", "bvu", "cwu", "duw"], ["cyclic 1-skeleton: u -> v -> u"]),
        # a is on no cycle: its walk back repeats x, where the loop starts
        ("axy", ["pxy", "qyx", "rxa"], ["cyclic 1-skeleton: x -> y -> x"]),
        # a repeated state is no missed one
        ("uvu", ["auv"], ["duplicate state: u"]),
        # an edge from an undeclared state is dangling, not cyclic
        ("v", ["euv"], ["dangling endpoint: source u of edge e"]),
    ], ids=["least-edge", "repeated-state", "repeated-declaration", "dangling-source"])
    def test_the_cycle_named(self, states, edges, violations):
        c = GlobularComplex(tuple(states), tuple(Edge(*e) for e in edges))
        assert list(validate_complex(c).violations) == violations

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

    @pytest.mark.parametrize(
        "side, violation",
        [((), "has empty left side"), (("zz",), "left side uses unknown edges zz")],
        ids=["empty", "unknown-edge"],
    )
    def test_malformed_square_with_equal_sides_is_not_degenerate(self, side, violation):
        c = GlobularComplex(
            states=("0", "1"),
            edges=(Edge("a", "0", "1"),),
            squares=(Square("q", side, side),),
        )
        report = validate_complex(c)
        assert any(violation in v for v in report.violations)
        assert report.warnings == ()

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
                        assert exec_path_ends(c._edge_row, path) == (src, tgt)


def _spelled(entry):
    """The paths an entry of `complexes._suffix_table` stands for."""
    out = []
    for chain in entry:
        head = []
        while isinstance(chain, tuple):
            head.append(chain[0])
            chain = chain[1]
        out += [tuple(head) + q for q in chain]
    return out


class TestMemberWalk:
    """enumerate_paths builds only suffixes of its members."""

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

    def test_the_suffix_table_builds_members_once_and_drops_them(self, rng, monkeypatch):
        # the table sets one entry per state that src reaches and that reaches
        # tgt, spelling that state's paths to tgt; src and the states read by
        # two or more edges are built, one tuple per suffix, and the others
        # read through; every entry but src's goes when its last reader takes it
        fill = complexes._suffix_table
        events = []

        class Recorded(dict):
            def __setitem__(self, state, entry):
                events.append(("set", state, entry))
                super().__setitem__(state, entry)

            def __delitem__(self, state):
                events.append(("del", state, None))
                super().__delitem__(state)

        left = []

        def recorded(c, span, table):
            table = fill(c, span, Recorded(table))
            left.append(set(table))
            return table

        monkeypatch.setattr(complexes, "_suffix_table", recorded)
        for _ in range(20):
            c = random_complex(rng)
            edges = {e.id: (e.src, e.tgt) for e in c.edges}
            for src in c.states:
                reached = {src} | {t for t in c.states if oracles.graph_paths(edges, src, t)}
                for tgt in c.states:
                    events.clear()
                    left.clear()
                    members = sorted(oracles.graph_paths(edges, src, tgt))
                    assert enumerate_paths(c, src, tgt) == members
                    if not left:  # tgt does not come after src: nothing to fill
                        assert not members and not events
                        continue
                    suffixes = {s: sorted(oracles.graph_paths(edges, s, tgt)) for s in reached}
                    readers = {
                        t: [a for a, b in edges.values() if a in reached and b == t]
                        for t in reached | {tgt}
                    }
                    at = {s: i for i, (kind, s, _) in enumerate(events) if kind == "set"}
                    dropped = [s for kind, s, _ in events if kind == "del"]
                    assert len(at) + len(dropped) == len(events)
                    assert set(at) == {s for s in reached if suffixes[s]}
                    built = 0
                    for kind, s, entry in events:
                        if kind == "set":
                            assert _spelled(entry) == suffixes[s]
                            if len(readers[s]) == 1:  # read through: nothing built
                                assert all(isinstance(chain, tuple) for chain in entry)
                            else:
                                assert len(entry) == 1 and isinstance(entry[0], list)
                                built += len(entry[0])
                    assert built == sum(len(suffixes[s]) for s in at if len(readers[s]) != 1)
                    assert len(dropped) == len(set(dropped))
                    for t in dropped:
                        last, *others = sorted(set(readers[t]), key=at.get, reverse=True)
                        gone = events.index(("del", t, None))
                        assert all(at[r] < gone for r in others) and gone < at[last]
                    assert left == [(set(at) | {tgt}) - set(dropped)]
                    assert left[0] <= {src, tgt}

    def test_the_phil_ladder_matches_the_oracle(self):
        for n in (2, 3, 4):
            c = pv_to_complex(parse_pv(oracles.dining_philosophers_source(n)))
            edges = {e.id: (e.src, e.tgt) for e in c.edges}
            final = c.finals[0]
            want = sorted(oracles.graph_paths(edges, c.init, final))
            assert enumerate_paths(c, c.init, final) == want
            if n > 3:
                continue
            for s in c.states:
                assert enumerate_paths(c, s, final) == sorted(oracles.graph_paths(edges, s, final))
            assert all_exec_paths(c) == sorted(oracles.graph_all_paths(edges))

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

    def test_the_listing_has_the_size_the_limit_counts(self, rng):
        inputs = [random_complex(rng) for _ in range(60)]
        inputs += [pv_to_complex(parse_pv(random_pv_source(rng))) for _ in range(30)]
        for c in inputs:
            assert len(all_exec_paths(c)) == count_paths_and_composites(c)[0]

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


# the resource is never contended, so every schedule is one class
ONE_CLASS_SOURCE = "res a 1; proc: P(a).V(a) proc: A(x).A(y)"


def _one_pair_cases():
    """Complexes whose states are reached by one edge from a state of one
    class, or of two, and targets of one class or of two."""
    # two parallel edges s -> t, then the chain t -> u -> v: u and v are
    # each reached by one edge, from a state of two classes; w by none
    apart = GlobularComplex(
        states=("s", "t", "u", "v", "w"),
        edges=(Edge("a", "s", "t"), Edge("b", "s", "t"), Edge("c", "t", "u"), Edge("d", "u", "v")),
    )
    return [
        apart,
        dataclasses.replace(apart, squares=(Square("q", ("a",), ("b",)),)),
        pv_to_complex(parse_pv(ONE_CLASS_SOURCE)),
        pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE)),
    ]


class TestPathClasses:
    def test_grid_with_square_one_class(self):
        assert len(path_classes(make_grid(True), "00", "11")) == 1

    def test_grid_without_square_two_classes(self):
        assert len(path_classes(make_grid(False), "00", "11")) == 2

    def test_parallel_edges_no_square_two_classes(self):
        assert len(path_classes(glob_discrete(["a", "b"]), "0", "1")) == 2

    def test_partition_matches_bfs_oracle(self, rng):
        cases = [random_complex(rng, max_states=6, max_edges=9, max_squares=3) for _ in range(25)]
        for c in cases + _one_pair_cases():
            rewrites = [(q.left, q.right) for q in c.squares]
            for src in c.states:
                for tgt in c.states:
                    blocks = path_classes(c, src, tgt)
                    paths = enumerate_paths(c, src, tgt)
                    if not paths:  # tgt unreached, or src == tgt
                        assert blocks == ()
                    got = {frozenset(block) for block in blocks}
                    assert got == oracles.move_classes(set(paths), rewrites)

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
        for c in _one_pair_cases():
            self._check_every_pair_of_paths(c)

    def test_random_pv_programs_match_oracles(self, rng):
        # two schedules around the mutex, then a square out of their meeting point
        sources = ["res a 1; proc: P(a).V(a).A(x) proc: P(a).V(a).A(y)"]
        sources += [random_pv_source(rng) for _ in range(10)]
        for source in sources:
            program = parse_pv(source)
            c = pv_to_complex(program)
            self._check_every_pair_of_paths(c)
            got = {
                frozenset(trace_of(p) for p in block)
                for block in path_classes(c, c.init, c.finals[0])
            }
            assert got == oracles.pv_trace_classes(*pv_oracle_input(program))

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

    def test_a_one_class_target_reads_no_member_class(self, monkeypatch):
        c = pv_to_complex(parse_pv(ONE_CLASS_SOURCE))
        complexes._class_steps(c, c.init, c.finals[0])  # the table, built beforehand
        calls = []
        walk = complexes._class_of

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(complexes, "_class_of", counted)
        blocks = path_classes(c, c.init, c.finals[0])
        assert calls == []
        assert blocks == (tuple(enumerate_paths(c, c.init, c.finals[0])),)
        assert len(blocks[0]) == 6

    def test_the_union_find_runs_only_where_two_pairs_meet(self, monkeypatch):
        c = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        edges = {e.id: (e.src, e.tgt) for e in c.edges}
        rewrites = [(q.left, q.right) for q in c.squares]
        order = c.topological_order
        classes = {c.init: 1}
        for s in order[order.index(c.init):order.index(c.finals[0]) + 1]:
            paths = oracles.graph_paths(edges, c.init, s)
            if paths:
                classes[s] = len(oracles.move_classes(paths, rewrites))
        pairs = {  # the pairs (edge into s, class at its source) of each state reached
            s: sum(classes[e.src] for e in c.edges if e.tgt == s and e.src in classes)
            for s in classes if s != c.init
        }
        sizes = []
        numbers = complexes.class_numbers

        def counted(n, moves):
            sizes.append(n)
            return numbers(n, moves)

        monkeypatch.setattr(complexes, "class_numbers", counted)
        assert len(path_classes(c, c.init, c.finals[0])) == 2
        assert 1 in pairs.values()
        assert sorted(sizes) == sorted(n for n in pairs.values() if n >= 2)

    def test_topological_order(self, rng):
        for _ in range(25):
            c = random_complex(rng)
            position = {s: i for i, s in enumerate(c.topological_order)}
            assert sorted(position) == sorted(c.states)
            assert all(position[e.src] < position[e.tgt] for e in c.edges)

    def test_one_cycle_walk_per_complex(self, monkeypatch):
        calls = []
        walk = complexes._kahn_order

        def counted(c):
            calls.append(c)
            return walk(c)

        monkeypatch.setattr(complexes, "_kahn_order", counted)
        compiled = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        assert validate_complex(compiled).ok
        realize(compiled)
        assert len(path_classes(compiled, compiled.init, compiled.finals[0])) == 2
        assert complex_deadlocks(compiled, compiled.init, compiled.finals)
        assert calls == []  # compiled complexes enter certified
        c = loads_complex(dumps_complex(compiled))
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
        assert c.topological_order == ("z", "y", "s0", "x", "s1", "s2")
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
    """`complex_deadlocks` answers as `flows.deadlocks` on the realization
    (`tests/test_routes.py`, the `library-complex` route), with its texts."""

    def test_unknown_states_raise_the_flow_texts(self):
        c = make_chain(2)
        with pytest.raises(UnknownIdError, match="^unknown state: zz$"):
            complex_deadlocks(c, "zz")
        with pytest.raises(UnknownIdError, match="^unknown final states: 'x', 'y'$"):
            complex_deadlocks(c, "s0", ["y", "s2", "x"])
        assert complex_deadlocks(c, "s0") == ("s2",)
        assert complex_deadlocks(c, "s1", ["s2"]) == ()

    def test_refuses_an_invalid_complex(self):
        c = GlobularComplex(states=("u",), edges=(Edge("e", "u", "v"),))
        with pytest.raises(InvalidComplexError):
            complex_deadlocks(c, "u")


class TestNamedStates:
    """Every analysis that names states refuses an unknown one with the same
    texts, on a complex and on its realization alike."""

    # s -> x -> t and s -> y -> t
    DIAMOND = GlobularComplex(
        states=("s", "x", "y", "t"),
        edges=(Edge("a", "s", "x"), Edge("b", "x", "t"), Edge("c", "s", "y"), Edge("d", "y", "t")),
    )
    TEXTS = {
        "ends": [  # (source, target): the source is checked first
            (("zz", "t"), "unknown state: zz"),
            (("s", "zz"), "unknown state: zz"),
            (("yy", "zz"), "unknown state: yy"),
        ],
        "deadlocks": [  # (init, finals): the init is checked first
            (("zz",), "unknown state: zz"),
            (("zz", ["yy"]), "unknown state: zz"),
            (("s", ["zz", "t", "a'b"]), "unknown final states: \"a'b\", 'zz'"),
        ],
        "germs": [
            (("zz", "minus"), "unknown state: zz"),
            (("zz", "plus"), "unknown state: zz"),
        ],
    }

    @pytest.mark.parametrize("analysis, on, texts", [
        (enumerate_paths, "complex", "ends"),
        (complex_deadlocks, "complex", "deadlocks"),
        (deadlocks, "flow", "deadlocks"),
        (dihomotopy_classes, "flow", "ends"),
        (germs, "flow", "germs"),
    ], ids=["enumerate_paths", "complex_deadlocks", "deadlocks", "dihomotopy_classes", "germs"])
    def test_unknown_states_raise_one_text(self, analysis, on, texts):
        subject = self.DIAMOND if on == "complex" else realize(self.DIAMOND)
        for args, text in self.TEXTS[texts]:
            with pytest.raises(UnknownIdError) as caught:
                analysis(subject, *args)
            assert str(caught.value) == text, args
        if texts == "deadlocks":
            # the finals are read once, so a generator answers as a list does
            assert analysis(subject, "s", (s for s in ["t"])) == analysis(subject, "s", ["t"]) == ()
            assert analysis(subject, "s") == ("t",)


class TestComplexMorphisms:
    def test_identity_is_morphism(self, rng):
        for _ in range(10):
            c = random_complex(rng)
            assert not complex_morphism_violations(identity_complex_morphism(c), c, c)

    def test_contracting_map_rejected(self):
        interval = make_interval()
        f = ComplexMorphism(state_map={"0": "0", "1": "1"}, edge_map={"e": ()})
        assert complex_morphism_violations(f, interval, interval)

    def test_subdivision_map_is_morphism(self):
        interval = make_interval()
        refined, m = subdivide_edge(interval, "e")
        assert not complex_morphism_violations(m, interval, refined)

    def test_endpoint_mismatch_rejected(self):
        chain = make_chain(2)
        f = ComplexMorphism(
            state_map={s: s for s in chain.states},
            edge_map={"e0": ("e1",), "e1": ("e1",)},
        )
        assert complex_morphism_violations(f, chain, chain)

    def test_square_preservation_required(self):
        # map the square's boundaries onto unrelated parallel paths
        dom = make_grid(True)
        cod = make_grid(False)
        f = ComplexMorphism(
            state_map={s: s for s in dom.states},
            edge_map={e.id: (e.id,) for e in dom.edges},
        )
        assert not complex_morphism_violations(f, dom, dom)
        assert complex_morphism_violations(f, dom, cod)

    @pytest.mark.parametrize("state_map, edge_map, violations", [
        ({"s2": None}, {}, ["state_map undefined on s2", "endpoint mismatch on edge e1"]),
        ({"s2": "zz"}, {}, ["state_map sends s2 outside the codomain: zz",
                            "endpoint mismatch on edge e1"]),
        ({}, {"e1": None}, ["edge_map undefined on e1"]),
        ({}, {"e0": ()}, ["contracted edge: e0 maps to the empty path"]),
        ({}, {"e0": ("e1", "e0")}, ["edge e0 maps to a non-path: ('e1', 'e0')"]),
        ({}, {"e0": ("e1",)}, ["endpoint mismatch on edge e0"]),
    ])
    def test_each_violation_is_named(self, state_map, edge_map, violations):
        # the identity of s0 -e0-> s1 -e1-> s2 with the entries given; None leaves one out
        chain = make_chain(2)
        identity = identity_complex_morphism(chain)
        f = ComplexMorphism(
            state_map={s: t for s, t in {**identity.state_map, **state_map}.items() if t},
            edge_map={e: p for e, p in {**identity.edge_map, **edge_map}.items() if p is not None},
        )
        assert complex_morphism_violations(f, chain, chain) == violations

    def test_unpreserved_square_is_named(self):
        dom, cod = make_grid(True), make_grid(False)
        f = identity_complex_morphism(dom)
        assert complex_morphism_violations(f, dom, cod) == [
            "square q not preserved: image boundaries in distinct classes"
        ]

    def test_composition_of_morphisms_is_morphism(self):
        c0 = make_interval()
        c1, m1 = subdivide_edge(c0, "e")
        c2, m2 = subdivide_edge(c1, m1.edge_map["e"][0])
        composite = compose_complex_morphisms(m2, m1)
        assert not complex_morphism_violations(composite, c0, c2)
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
        for check in (complex_morphism_violations, realize_morphism):
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

    def test_taken_names_get_underscores(self):
        c = GlobularComplex(
            states=("u", "v", "e_mid"),
            edges=tuple(Edge(e, "u", "v") for e in ("e", "e_a", "e_b", "e_b_")),
        )
        refined, m = subdivide_edge(c, "e")
        assert refined.states == ("u", "v", "e_mid", "e_mid_")
        assert m.edge_map["e"] == ("e_a_", "e_b__")
        assert [e.id for e in refined.edges] == ["e_a_", "e_b__", "e_a", "e_b", "e_b_"]
        assert validate_complex(refined).ok


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
