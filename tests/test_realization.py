import pickle
import random
import tracemalloc
from dataclasses import replace
from itertools import islice

import pytest

import oracles
from conftest import (
    explicit, make_chain, make_grid, make_interval, random_complex, random_pv_source, ready_order,
)
from globflow import cli, complexes, realization
from globflow.realization import count_paths_and_composites
from globflow.flows import _ConcatenativeFlow
from globflow import (
    Edge,
    GlobularComplex,
    IncrementalRealizer,
    InvalidAttachmentError,
    InvalidComplexError,
    RealizationLimitExceeded,
    Square,
    UnknownIdError,
    all_exec_paths,
    compose_complex_morphisms,
    compose_flow_morphisms,
    deadlocks,
    dihomotopy_classes,
    dumps_complex,
    dumps_flow,
    dumps_realization,
    find_flow_isomorphism,
    flow_morphism_violations,
    germs,
    glob_discrete,
    glob_flow,
    identity_complex_morphism,
    identity_flow_morphism,
    loads_flow,
    parse_pv,
    path_classes,
    path_id,
    pv_to_complex,
    realize,
    realize_morphism,
    subdivide_edge,
    validate_flow,
)


class TestRealize:
    @pytest.mark.parametrize("size", range(1, 7))
    def test_glob_realization_is_glob_flow(self, size):
        labels = [f"z{i}" for i in range(size)]
        realized = realize(glob_discrete(labels))
        direct = glob_flow(labels)
        assert not realized.composition
        assert find_flow_isomorphism(realized, direct) is not None

    def test_interval(self):
        flow = realize(make_interval())
        assert len(flow.paths) == 1
        assert not flow.composition

    def test_grid_with_square_counts(self):
        # frozen from the exhaustive enumeration oracle: 6 paths in total,
        # 2 corner-to-corner, and exactly one square-move adjacency
        grid = make_grid(True)
        flow = realize(grid)
        edge_dict = {e.id: (e.src, e.tgt) for e in grid.edges}
        assert {path_id(p) for p in oracles.graph_all_paths(edge_dict)} == flow.paths
        assert len(flow.paths) == 6
        assert len(flow.paths_between("00", "11")) == 2
        assert flow.adjacency == {("a*b", "c*d")}

    def test_skeleton_preserved_exactly(self, rng):
        for _ in range(20):
            c = random_complex(rng)
            assert realize(c).skeleton == frozenset(c.states)

    def test_path_set_matches_dfs_oracle(self, rng):
        for _ in range(15):
            c = random_complex(rng)
            edge_dict = {e.id: (e.src, e.tgt) for e in c.edges}
            want = {path_id(p) for p in oracles.graph_all_paths(edge_dict)}
            assert realize(c).paths == want

    def test_composition_is_concatenation(self):
        flow = realize(make_chain(3))
        assert flow.compose("e0", "e1") == "e0*e1"
        assert flow.compose("e0*e1", "e2") == "e0*e1*e2"
        for copy in (loads_flow(dumps_flow(flow))[0], explicit(flow)):
            assert validate_flow(copy).ok

    def test_invalid_complex_rejected(self):
        cyclic = GlobularComplex(
            states=("u", "v"), edges=(Edge("a", "u", "v"), Edge("b", "v", "u"))
        )
        with pytest.raises(InvalidComplexError):
            realize(cyclic)


class TestRealizeMorphism:
    def test_identity_realizes_to_identity(self):
        grid = make_grid(True)
        flow = realize(grid)
        f = realize_morphism(identity_complex_morphism(grid), grid, grid)
        assert f == identity_flow_morphism(flow)

    def test_subdivision_sends_edge_to_composite(self):
        interval = make_interval()
        refined, m = subdivide_edge(interval, "e")
        f = realize_morphism(m, interval, refined)
        assert f.path_map["e"] == "e_a*e_b"
        assert not flow_morphism_violations(f, realize(interval), realize(refined))

    def test_functoriality_under_successive_subdivisions(self, rng):
        for _ in range(10):
            c0 = random_complex(rng, min_edges=1)
            e0 = rng.choice(c0.edges).id
            c1, m1 = subdivide_edge(c0, e0)
            e1 = rng.choice(c1.edges).id
            c2, m2 = subdivide_edge(c1, e1)
            composite = realize_morphism(compose_complex_morphisms(m2, m1), c0, c2)
            stepwise = compose_flow_morphisms(
                realize_morphism(m2, c1, c2), realize_morphism(m1, c0, c1)
            )
            assert composite == stepwise

    def test_refuses_what_realize_refuses(self, monkeypatch):
        def unreachable(c):
            raise AssertionError("paths listed despite the limit")

        monkeypatch.setattr(realization, "all_exec_paths", unreachable)
        # chain of 30: 465 paths + 4,495 composites
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "1000")
        chain = make_chain(30)
        with pytest.raises(RealizationLimitExceeded, match="465 paths \\+ 4495 composites > limit 1000"):
            realize_morphism(identity_complex_morphism(chain), chain, chain)
        # a reserved character in an edge id: the morphism checks pass, the
        # domain does not validate
        starred = GlobularComplex(states=("0", "1"), edges=(Edge("x*y", "0", "1"),))
        with pytest.raises(InvalidComplexError):
            realize_morphism(identity_complex_morphism(starred), starred, starred)

    def test_invalid_morphism_rejected(self):
        from globflow import ComplexMorphism, InvalidMorphismError

        interval = make_interval()
        broken = ComplexMorphism(state_map={"0": "0", "1": "1"}, edge_map={"e": ()})
        with pytest.raises(InvalidMorphismError):
            realize_morphism(broken, interval, interval)


class TestIncrementalRealize:
    def test_attach_edge_to_edgeless_complex(self):
        base = GlobularComplex(states=("0", "1"))
        realizer = IncrementalRealizer(base)
        realizer.attach(Edge("e", "0", "1"))
        flow = realizer.flow
        assert flow == realize(make_interval())

    def test_attach_square_adds_exactly_the_move_pairs(self):
        base = make_grid(False)
        square = Square("q", ("a", "b"), ("c", "d"))
        realizer = IncrementalRealizer(base)
        realizer.attach(square)
        flow = realizer.flow
        full = realize(make_grid(True))
        assert flow == full
        bare = realize(base)
        assert flow.adjacency - bare.adjacency == {("a*b", "c*d")}

    def test_random_cell_by_cell_build_matches_full(self, rng):
        for _ in range(12):
            target = random_complex(rng, max_states=5, max_edges=6, max_squares=2)
            realizer = IncrementalRealizer(GlobularComplex(states=()))
            for s in target.states:
                realizer.attach(s)
            for e in target.edges:
                realizer.attach(e)
            for q in target.squares:
                realizer.attach(q)
            assert realizer.flow == realize(target)
            assert realizer.complex.states == target.states
            assert realizer.complex.edges == target.edges
            assert realizer.complex.squares == target.squares

    def test_interleaved_attachments_track_full_realization(self, rng):
        realizer = IncrementalRealizer(GlobularComplex(states=("a", "b", "c")))
        for cell in (
            Edge("x", "a", "b"),
            Edge("y", "b", "c"),
            Edge("z", "a", "c"),
            Square("q", ("x", "y"), ("z",)),
        ):
            realizer.attach(cell)
            flow = realizer.flow
            assert flow == realize(realizer.complex)

    @pytest.mark.parametrize(
        "source", [oracles.MUTEX_SOURCE, oracles.SWISS_FLAG_SOURCE], ids=["mutex", "swiss-flag"]
    )
    @pytest.mark.parametrize("interleaved", [False, True])
    def test_pv_complex_built_cell_by_cell(self, source, interleaved):
        target = pv_to_complex(parse_pv(source))
        realizer = IncrementalRealizer(GlobularComplex(states=target.states))
        waiting = list(target.squares)
        for edge in target.edges:
            realizer.attach(edge)
            if interleaved:
                present = realizer.complex.edge_map
                for q in [q for q in waiting if set(q.left + q.right) <= present.keys()]:
                    realizer.attach(q)
                    waiting.remove(q)
        for q in waiting:
            realizer.attach(q)
        assert realizer.flow == realize(target)

    def test_cyclic_attachment_rejected(self):
        realizer = IncrementalRealizer(make_chain(2))
        with pytest.raises(InvalidAttachmentError):
            realizer.attach(Edge("back", "s2", "s0"))
        with pytest.raises(InvalidAttachmentError):
            realizer.attach(Edge("loop", "s0", "s0"))

    def test_duplicate_ids_rejected(self):
        realizer = IncrementalRealizer(make_interval())
        with pytest.raises(InvalidAttachmentError):
            realizer.attach_state("0")
        with pytest.raises(InvalidAttachmentError):
            realizer.attach(Edge("e", "0", "1"))


def _views(flow):
    blocks = {}
    for p, k in flow.adjacency_components.items():
        blocks.setdefault(k, []).append(p)
    return (
        flow.sorted_paths,
        flow.by_src,
        flow.by_tgt,
        sorted(sorted(block) for block in blocks.values()),
    )


def _random_targets(rng):
    for _ in range(10):
        yield random_complex(rng)
    for _ in range(10):
        yield pv_to_complex(parse_pv(random_pv_source(rng)))
    # square-rich ones, so that edges come after squares in a ready order
    yield from _square_rich()


# edge ids that are prefixes of one another: "!" sorts below "*" and "b" above
PREFIX_IDS = ("a", "a!", "a!!", "b", "b!", "ab")


def _prefix_rich(rng, count=150):
    """Seeded `random_complex` inputs with their edges renamed to distinct
    ids of PREFIX_IDS.  The smaller ids go to the edges out of earlier
    states, and among those to the farther targets, so that a square often
    sets an edge "a" beside a longer side through "a!" or "a!!", whose
    path ids "a" is a prefix of."""
    for _ in range(count):
        c = random_complex(rng, max_states=5, max_edges=6, max_squares=6, min_edges=5)
        rank = {s: k for k, s in enumerate(c.states)}
        far_first = sorted(c.edges, key=lambda e: (rank[e.src], -rank[e.tgt]))
        ids = sorted(rng.sample(PREFIX_IDS, len(c.edges)))
        name = dict(zip((e.id for e in far_first), ids))
        yield GlobularComplex(
            states=c.states,
            edges=tuple(Edge(name[e.id], e.src, e.tgt) for e in c.edges),
            squares=tuple(
                Square(q.id, tuple(map(name.get, q.left)), tuple(map(name.get, q.right)))
                for q in c.squares
            ),
        )


def _square_rich():
    yield pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
    yield make_grid(True)
    yield _square_grid(3)
    yield pv_to_complex(parse_pv(oracles.dining_philosophers_source(2)))


class TestIncrementalRealizerTables:
    def test_random_builds_match_realize_at_every_step(self, rng):
        for target in _random_targets(rng):
            realizer = IncrementalRealizer(GlobularComplex(states=()))
            handed_out = []
            for cell in ready_order(rng, target):
                realizer.attach(cell)
                flow = realizer.flow
                want = realize(realizer.complex)
                assert flow == want
                assert _views(flow) == _views(want)
                handed_out.append((flow, want))
            assert realizer.flow == realize(target)
            # no later attach changed a flow already handed out
            for flow, want in handed_out:
                assert flow == want

    def test_handed_out_flows_never_change(self):
        target = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        realizer = IncrementalRealizer(GlobularComplex(states=target.states))
        steps = []
        for cell in target.edges + target.squares:
            realizer.attach(cell)
            steps.append((realizer.flow, realizer.complex))
        for flow, complex_at_step in steps:
            assert flow == realize(complex_at_step)

    def test_rejected_cells_leave_the_realizer_unchanged(self):
        target = make_grid(True)
        realizer = IncrementalRealizer(GlobularComplex(states=target.states))
        realizer.attach(Edge("a", "00", "10"))
        realizer.attach(Edge("b", "10", "11"))
        cell = object()
        rejected = [
            ("00", "state already present: 00"),
            (Edge("a", "00", "01"), "edge id already present: a"),
            (Edge("x*y", "00", "01"), "reserved character in edge id: x*y"),
            (Edge("x", "00", "nowhere"), "dangling endpoint: nowhere"),
            (Edge("x", "nowhere", "gone"), "dangling endpoint: nowhere"),
            (Edge("back", "11", "00"), "attaching back would close a directed cycle"),
            (Edge("loop", "10", "10"), "attaching loop would close a directed cycle"),
            (Square("bad", ("a", "c"), ("b",)), "square bad left side is not an execution path"),
            (Square("bad", ("a",), ("b", "a")), "square bad right side is not an execution path"),
            (Square("apart", ("a",), ("a", "b")), "square apart sides do not share endpoints"),
            (Square("empty", (), ("a",)), "square empty left side is not an execution path"),
            (cell, f"not an attachable cell: {cell!r}"),
        ]
        self._refuse_all(realizer, rejected)
        realizer.attach(Edge("c", "00", "01"))
        realizer.attach(Edge("d", "01", "11"))
        realizer.attach(Square("q", ("a", "b"), ("c", "d")))
        self._refuse_all(realizer, [
            (Square("q", ("c", "d"), ("a", "b")), "square id already present: q"),
            (Edge("a*b", "11", "00"), "reserved character in edge id: a*b"),
            # back through the two-edge paths a*b and c*d that q pairs
            (Edge("up", "11", "00"), "attaching up would close a directed cycle"),
        ])
        realizer.attach(Edge("e", "00", "11"))
        assert realizer.flow == realize(realizer.complex)

    @staticmethod
    def _refuse_all(realizer, rejected):
        for cell, message in rejected:
            before = realizer.flow
            with pytest.raises(InvalidAttachmentError) as raised:
                realizer.attach(cell)
            assert str(raised.value) == message
            assert realizer.flow is before
            assert realizer.flow == realize(realizer.complex)

    @pytest.mark.parametrize("cell", [42, ("e", "00", "11")], ids=["int", "tuple"])
    def test_a_value_that_is_no_cell_is_refused(self, cell):
        realizer = IncrementalRealizer(make_grid(True))
        flow, complex_ = realizer.flow, realizer.complex
        with pytest.raises(InvalidAttachmentError) as raised:
            realizer.attach(cell)
        assert str(raised.value) == f"not an attachable cell: {cell!r}"
        assert realizer.flow is flow and realizer.complex is complex_

    def test_pairs_are_made_only_when_adjacency_is_read(self, rng, monkeypatch):
        pairs = _count_calls(monkeypatch, realization, "_move_pairs")
        for target in (pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE)), _square_grid(3)):
            realizer = IncrementalRealizer(GlobularComplex(states=()))
            for cell in ready_order(rng, target):
                realizer.attach(cell)
            flow = realizer.flow
            init = target.init or target.states[0]
            deadlocks(flow, init, target.finals)
            for state in target.states:
                germs(flow, state, "minus")
                germs(flow, state, "plus")
            assert pairs == [] and "adjacency" not in vars(flow)

            assert flow.adjacency == realize(target).adjacency == _oracle_tables(target)[3]
            assert len(pairs) == 2  # the realizer's flow's and realize's
            assert flow.adjacency is vars(flow)["adjacency"]
            assert len(pairs) == 2
            del pairs[:]

            deferred = realize(target)
            assert deferred.path_ends == flow.path_ends
            assert pairs == [] and "adjacency" not in vars(deferred)

    def test_snapshot_pairs_match_realize_and_the_oracle_whenever_read(self, rng):
        for target in _random_targets(rng):
            realizer = IncrementalRealizer(GlobularComplex(states=()))
            steps = []
            for cell in ready_order(rng, target):
                realizer.attach(cell)
                steps.append((realizer.flow, realizer.complex))
                if rng.random() < 0.3:  # some read early, between attaches
                    flow, c = rng.choice(steps)
                    assert flow.adjacency == realize(c).adjacency == _oracle_tables(c)[3]
            rng.shuffle(steps)  # the rest late, out of order
            for flow, c in steps:
                assert flow.adjacency == realize(c).adjacency == _oracle_tables(c)[3]

    def test_degenerate_square_adds_no_adjacency(self):
        realizer = IncrementalRealizer(make_grid(False))
        before = realizer.flow
        realizer.attach(Square("z", ("a", "b"), ("a", "b")))
        flow = realizer.flow
        assert flow.adjacency == before.adjacency == frozenset()
        assert flow == realize(realizer.complex)

    def test_attaching_builds_no_flow_index(self):
        # the realizer answers from its own index, so no flow it hands out
        # has its sorted by-endpoint tables built unless a caller asks
        target = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        realizer = IncrementalRealizer(GlobularComplex(states=target.states))
        flows = []
        for cell in target.edges + target.squares:
            realizer.attach(cell)
            flows.append(realizer.flow)
        for flow in flows:
            assert "by_src" not in flow.__dict__
            assert "by_tgt" not in flow.__dict__

    def test_snapshots_read_late_and_out_of_order_match_realize(self, rng):
        for target in _random_targets(rng):
            realizer = IncrementalRealizer(GlobularComplex(states=()))
            steps = [(realizer.flow, realize(realizer.complex))]
            for cell in ready_order(rng, target):
                realizer.attach(cell)
                steps.append((realizer.flow, realize(realizer.complex)))
                with pytest.raises(InvalidAttachmentError):
                    realizer.attach(cell)  # its id or name is taken now
                if rng.random() < 0.3:  # an earlier flow read between attaches
                    flow, want = rng.choice(steps)
                    assert flow == want
            rng.shuffle(steps)
            half = len(steps) // 2
            for flow, want in steps[:half]:
                assert flow == want
                assert flow == want
            del realizer
            for flow, want in steps[half:]:
                assert flow == want
                assert flow == want

    def test_complex_is_built_only_when_read(self):
        target = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        c = GlobularComplex(states=target.states, finals=target.finals, init=target.init)
        realizer = IncrementalRealizer(c)
        assert realizer.complex is c
        with pytest.raises(InvalidAttachmentError):
            realizer.attach(target.states[0])
        assert realizer.complex is c
        want = c
        for cell in ("extra",) + target.edges + target.squares:
            realizer.attach(cell)
            if isinstance(cell, str):
                want = replace(want, states=want.states + (cell,))
            elif isinstance(cell, Edge):
                want = replace(want, edges=want.edges + (cell,))
            else:
                want = replace(want, squares=want.squares + (cell,))
            got = realizer.complex
            assert got == want
            assert (got.finals, got.init) == (target.finals, target.init)
            assert realizer.complex is got
        assert realizer.flow == realize(want)

    def test_realize_returns_built_tables(self):
        # composition is answered from the path ids, and its table is built
        # only when read by name
        c = make_grid(True)
        flow = realize(c)
        assert "composition" not in vars(flow)
        assert flow.composition == _oracle_tables(c)[2]

    def test_an_attach_allocates_only_what_the_cell_adds(self):
        # the parent design copied every table per attach: megabytes here
        realizer = IncrementalRealizer(_square_grid(5))
        assert len(realizer.flow.path_ends) == 3346
        tracemalloc.start()
        try:
            realizer.attach("x")
            realizer.attach("y")
            realizer.attach(Edge("xy", "x", "y"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert realizer.flow == realize(realizer.complex)


def _check_compose_by_id(flow, composition, rng):
    """`try_compose` and `compose` of `flow` against the oracle table
    `composition`: on every composable pair, and on every path paired
    either way with up to 30 sampled paths and with unknown ids."""
    for (x, y), z in composition.items():
        assert flow.try_compose(x, y) == z
        assert flow.compose(x, y) == z
    ids = sorted(flow.path_ends)
    unknown = ["ghost"] + [p + "*ghost" for p in ids[:1]]
    others = rng.sample(ids, min(30, len(ids))) + unknown
    for x in ids + unknown:
        for y in others:
            for pair in ((x, y), (y, x)):
                want = composition.get(pair)
                assert flow.try_compose(*pair) == want
                if want is None:
                    with pytest.raises(UnknownIdError):
                        flow.compose(*pair)
    assert "composition" not in vars(flow)


class TestCompositionById:
    """Concatenative flows answer composites from their ids as the
    realization's definition does, without building a table."""

    def test_realized_and_read_flows_match_the_oracle(self, rng):
        for target in _random_targets(rng):
            composition = _oracle_tables(target)[2]
            realized = realize(target)
            loaded, _ = loads_flow(dumps_flow(realized))
            for flow in (realized, loaded):
                _check_compose_by_id(flow, composition, rng)

    def test_mid_build_flows_match_the_oracle(self, rng):
        # each flow is read only after the whole build; two PV programs
        for target in islice(_random_targets(rng), 12):
            realizer = IncrementalRealizer(GlobularComplex(states=()))
            steps = []
            for cell in ready_order(rng, target):
                realizer.attach(cell)
                steps.append((realizer.flow, realizer.complex))
            for flow, c in steps:
                _check_compose_by_id(flow, _oracle_tables(c)[2], rng)


def _square_grid(n):
    """The n x n grid of states i,j with an edge right and up from each and
    a square in each cell."""
    def name(i, j):
        return f"{i},{j}"

    states = tuple(name(i, j) for i in range(n + 1) for j in range(n + 1))
    edges, squares = [], []
    for i in range(n + 1):
        for j in range(n + 1):
            if i < n:
                edges.append(Edge(f"h{i},{j}", name(i, j), name(i + 1, j)))
            if j < n:
                edges.append(Edge(f"v{i},{j}", name(i, j), name(i, j + 1)))
            if i < n and j < n:
                squares.append(
                    Square(f"q{i},{j}", (f"h{i},{j}", f"v{i + 1},{j}"), (f"v{i},{j}", f"h{i},{j + 1}"))
                )
    return GlobularComplex(states, tuple(edges), tuple(squares))


def _oracle_tables(c):
    edges = {e.id: (e.src, e.tgt) for e in c.edges}
    return oracles.realization(c.states, edges, [(q.left, q.right) for q in c.squares])


def _tables(flow):
    return flow.skeleton, flow.path_ends, flow.composition, flow.adjacency


def _with_odd_squares(c):
    """`c` plus a degenerate square and its first square again, sides swapped."""
    extra = ()
    if c.edges:
        extra += (Square("flat", (c.edges[0].id,), (c.edges[0].id,)),)
    if c.squares:
        extra += (Square("again", c.squares[0].right, c.squares[0].left),)
    return replace(c, squares=c.squares + extra)


def _build(rng, target):
    """The realizer's flow after attaching the cells of `target` in a random
    ready order, and how many edges came after some square."""
    realizer = IncrementalRealizer(GlobularComplex(states=()))
    squares_seen, late_edges = False, 0
    for cell in ready_order(rng, target):
        squares_seen = squares_seen or isinstance(cell, Square)
        late_edges += squares_seen and isinstance(cell, Edge)
        realizer.attach(cell)
    return realizer.flow, late_edges


def _ready_orders(target):
    """Every order of the cells of `target` that `ready_order` can draw."""

    def orders(states, edges, squares):
        ready = [s for s in target.states if s not in states]
        ready += [e for e in target.edges if e.id not in edges and {e.src, e.tgt} <= states]
        ready += [q for q in target.squares if q.id not in squares and set(q.left + q.right) <= edges]
        if not ready:
            yield ()
        for cell in ready:
            if isinstance(cell, str):
                rests = orders(states | {cell}, edges, squares)
            elif isinstance(cell, Edge):
                rests = orders(states, edges | {cell.id}, squares)
            else:
                rests = orders(states, edges, squares | {cell.id})
            for rest in rests:
                yield (cell,) + rest
                if isinstance(cell, Square):  # either side may come first
                    yield (Square(cell.id, cell.right, cell.left),) + rest

    return orders(frozenset(), frozenset(), frozenset())


class TestRealizationOracle:
    def test_realize_matches_oracle(self, rng):
        targets = [_with_odd_squares(random_complex(rng)) for _ in range(40)]
        targets += [pv_to_complex(parse_pv(random_pv_source(rng))) for _ in range(20)]
        targets.append(pv_to_complex(parse_pv(oracles.dining_philosophers_source(2))))
        for c in targets:
            assert _tables(realize(c)) == _oracle_tables(c)

    def test_random_order_builds_match_oracle(self, rng):
        late_edges = 0
        for target in _random_targets(rng):
            target = _with_odd_squares(target)
            flow, late = _build(rng, target)
            assert _tables(flow) == _oracle_tables(target)
            late_edges += late
        assert late_edges > 0

    def test_sides_whose_ids_are_prefixes_of_each_other(self):
        # "!" sorts below "*", so a*b < a*b! but a*b!*z < a*b*z: the order
        # of a pair depends on what follows the sides
        target = GlobularComplex(
            states=("s", "x", "t", "u"),
            edges=(Edge("a", "s", "x"), Edge("b", "x", "t"), Edge("b!", "x", "t"), Edge("z", "t", "u")),
            squares=(Square("q", ("a", "b"), ("a", "b!")),),
        )
        want = _oracle_tables(target)
        assert ("a*b!*z", "a*b*z") in want[3]
        assert _tables(realize(target)) == want
        z_after_q = set()
        for order in _ready_orders(target):
            realizer = IncrementalRealizer(GlobularComplex(states=()))
            for cell in order:
                realizer.attach(cell)
            assert realizer.flow.adjacency == want[3]
            names = [getattr(cell, "id", cell) for cell in order]
            z_after_q.add(names.index("z") > names.index("q"))
        assert z_after_q == {False, True}

    def test_prefix_rich_ids_match_the_oracle(self):
        rng = random.Random(4417)
        prefixed = 0
        for target in _prefix_rich(rng):
            assert _tables(realize(target)) == _oracle_tables(target)
            realizer = IncrementalRealizer(GlobularComplex(states=()))
            for cell in ready_order(rng, target):
                realizer.attach(cell)
                assert _tables(realizer.flow) == _oracle_tables(realizer.complex)
            for q in target.squares:
                left, right = path_id(q.left), path_id(q.right)
                prefixed += left.startswith(right) or right.startswith(left)
        assert prefixed >= 50

    def test_no_path_walk_and_no_square_moves(self, rng, monkeypatch):
        target = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))

        def unreachable(*args):
            raise AssertionError("realization walked paths or applied square moves")

        monkeypatch.setattr(complexes, "square_move_neighbors", unreachable)
        monkeypatch.setattr(realization, "all_exec_paths", unreachable)
        want = _oracle_tables(target)
        assert _tables(realize(target)) == want
        late_edges = 0
        for _ in range(5):
            flow, late = _build(rng, target)
            assert _tables(flow) == want
            late_edges += late
        assert late_edges > 0


class TestRealizationLimit:
    def test_counts_match_realized_sizes(self, rng):
        for target in _random_targets(rng):
            flow = realize(target)
            assert count_paths_and_composites(target) == (
                len(flow.path_ends),
                len(flow.composition),
            )

    def test_limit_counts_the_edges_path_ids_spell(self):
        # a path of k edges splits into exactly k - 1 composable pairs
        rng = random.Random(20261019)
        targets = [random_complex(rng) for _ in range(200)]
        targets += [pv_to_complex(parse_pv(random_pv_source(rng))) for _ in range(60)]
        for target in targets:
            edges = sum(p.count("*") + 1 for p in realize(target).path_ends)
            assert edges == sum(count_paths_and_composites(target))

    def test_long_chain_counted_without_realizing(self):
        # n(n+1)/2 paths and C(n+1, 3) composites on an n-edge chain
        assert count_paths_and_composites(make_chain(1500)) == (
            1125750,
            562499750,
        )

    def test_limit_checked_before_anything_is_built(self, monkeypatch):
        def unreachable(c):
            raise AssertionError("paths listed despite the limit")

        monkeypatch.setattr(realization, "all_exec_paths", unreachable)
        with pytest.raises(RealizationLimitExceeded) as caught:
            realize(make_chain(1500))
        assert (caught.value.paths, caught.value.composites) == (1125750, 562499750)
        assert caught.value.limit == realization.DEFAULT_REALIZE_LIMIT

    def test_limit_checked_before_any_cell_is_added(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a cell was added despite the limit")

        monkeypatch.setattr(IncrementalRealizer, "_add_edge", unreachable)
        monkeypatch.setattr(IncrementalRealizer, "_add_square", unreachable)
        with pytest.raises(RealizationLimitExceeded) as caught:
            realize(make_chain(1500))
        assert (caught.value.paths, caught.value.composites) == (1125750, 562499750)

    def test_limit_is_inclusive(self, monkeypatch):
        # chain of 3: 6 paths and 4 composites
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "10")
        assert len(realize(make_chain(3)).paths) == 6
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "9")
        with pytest.raises(RealizationLimitExceeded, match="6 paths \\+ 4 composites > limit 9"):
            realize(make_chain(3))

    def test_realizer_stops_where_realize_would(self, rng, monkeypatch):
        # the edge that takes the realization over the limit is refused
        # with the counts of the extended complex, and nothing changes
        for target in _random_targets(rng):
            paths, composites = count_paths_and_composites(target)
            if paths + composites < 2:
                continue
            limit = rng.randrange(paths + composites)
            monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", str(limit))
            realizer = IncrementalRealizer(GlobularComplex(states=()))
            for cell in ready_order(rng, target):
                if not isinstance(cell, Edge):
                    realizer.attach(cell)
                    continue
                extended = replace(realizer.complex, edges=realizer.complex.edges + (cell,))
                counts = count_paths_and_composites(extended)
                if sum(counts) <= limit:
                    realizer.attach(cell)
                    assert realizer.flow == realize(extended)
                    continue
                before = realizer.flow
                with pytest.raises(RealizationLimitExceeded) as caught:
                    realizer.attach(cell)
                assert (caught.value.paths, caught.value.composites) == counts
                assert caught.value.limit == limit
                assert realizer.flow is before
                assert realizer.flow == realize(realizer.complex)
                break
            else:
                raise AssertionError("the build never reached the limit")
            # at the full size exactly, the whole build goes through
            monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", str(paths + composites))
            realizer = IncrementalRealizer(GlobularComplex(states=()))
            for cell in ready_order(rng, target):
                realizer.attach(cell)
            assert realizer.flow == realize(target)

    def test_long_chain_built_cell_by_cell_stops_at_the_limit(self, monkeypatch):
        # chain of 17: 153 paths + 816 composites; of 18: 171 + 969
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "1000")
        chain = make_chain(1500)
        realizer = IncrementalRealizer(GlobularComplex(states=chain.states))
        for edge in chain.edges[:17]:
            realizer.attach(edge)
        with pytest.raises(RealizationLimitExceeded, match="171 paths \\+ 969 composites > limit 1000"):
            realizer.attach(chain.edges[17])
        assert realizer.complex.edges == chain.edges[:17]
        assert realizer.flow == realize(realizer.complex)
        with pytest.raises(RealizationLimitExceeded):
            IncrementalRealizer(realizer.complex).attach(chain.edges[17])

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", ""])
    def test_malformed_environment_value(self, monkeypatch, value):
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", value)
        with pytest.raises(ValueError, match="GLOBFLOW_REALIZE_LIMIT must be a non-negative integer"):
            realize(make_interval())
        with pytest.raises(ValueError, match="GLOBFLOW_REALIZE_LIMIT must be a non-negative integer"):
            IncrementalRealizer(GlobularComplex(states=()))


class TestHomotopyAgreement:
    def test_path_classes_match_flow_components(self, rng):
        for _ in range(15):
            c = random_complex(rng, max_states=6, max_edges=9, max_squares=3)
            flow = realize(c)
            for src in c.states:
                for tgt in c.states:
                    on_complex = {
                        frozenset(path_id(p) for p in block)
                        for block in path_classes(c, src, tgt)
                    }
                    on_flow = {
                        frozenset(block)
                        for block in dihomotopy_classes(flow, src, tgt)
                    }
                    assert on_complex == on_flow

    def test_realized_classes_are_the_flow_classes(self, rng):
        # prefix-rich ids ("a", "a!"; "!" sorts below "*") order the path
        # ids otherwise than their edge-id tuples
        targets = [random_complex(rng, max_states=6, max_edges=9, max_squares=3) for _ in range(15)]
        targets += _prefix_rich(random.Random(4418), count=40)
        reordered = 0
        for c in targets:
            flow = realize(c)
            for src in c.states:
                for tgt in c.states:
                    got = realization._realized_classes(c, src, tgt)
                    assert got == dihomotopy_classes(flow, src, tgt)
                    as_listed = [[path_id(p) for p in block] for block in path_classes(c, src, tgt)]
                    reordered += [list(block) for block in got] != as_listed
        assert reordered > 0

    def test_realized_classes_refuse_before_listing(self, rng, monkeypatch):
        listings = _count_calls(monkeypatch, realization, "path_classes")
        for c in _deferred_inputs(rng):
            paths, composites = count_paths_and_composites(c)
            if paths + composites == 0:
                continue
            monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", str(paths + composites - 1))
            with pytest.raises(RealizationLimitExceeded) as caught:
                _classes_of_ends(c)
            assert (caught.value.paths, caught.value.composites) == (paths, composites)
            assert listings == []
            monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", str(paths + composites))
            assert _classes_of_ends(c) == dihomotopy_classes(realize(c), c.states[0], c.states[-1])
            assert len(listings) == 1
            del listings[:]

    def test_all_paths_sorted_and_complete(self):
        grid = make_grid(True)
        paths = all_exec_paths(grid)
        assert paths == sorted(paths)
        assert len(paths) == 6


def _deferred_inputs(rng):
    """Seeded random complexes, random PV programs and the PV corpus."""
    corpus = (oracles.MUTEX_SOURCE, oracles.SWISS_FLAG_SOURCE, oracles.dining_philosophers_source(3))
    return list(_random_targets(rng)) + [pv_to_complex(parse_pv(s)) for s in corpus]


def _count_calls(monkeypatch, owner, name):
    """Replace `owner.name` by a wrapper that records each call; return
    the list of calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _classes_of_ends(c):
    """`_realized_classes` from the first state of `c` to its last."""
    return realization._realized_classes(c, c.states[0], c.states[-1])


class TestDeferredRealization:
    """`realize` refuses from the counts alone, and its flow has a realizer
    fill its paths the first time a table is read; its move pairs are made
    when `adjacency` is read.  Every realizer that builds tables goes
    through `IncrementalRealizer._fill`."""

    def test_equals_the_realizer_flow(self, rng):
        for c in _deferred_inputs(rng):
            want = IncrementalRealizer(c).flow
            # each comparison is the first read of a fresh flow
            assert realize(c) == want
            assert want == realize(c)
            assert dumps_flow(realize(c), c.init, c.finals) == dumps_flow(want, c.init, c.finals)
            assert validate_flow(realize(c)) == validate_flow(want)
            flow = realize(c)
            assert isinstance(flow, _ConcatenativeFlow)
            assert repr(flow) == repr(want)

    def test_tables_are_built_when_first_read(self, rng, monkeypatch):
        fills = _count_calls(monkeypatch, IncrementalRealizer, "_fill")
        counts = _count_calls(monkeypatch, realization, "count_paths_and_composites")
        for c in _deferred_inputs(rng):
            for first in ("path_ends", "adjacency"):
                del fills[:], counts[:]
                flow = realize(c)
                assert (len(fills), len(counts)) == (0, 1)
                for name in ("path_ends", "adjacency", "by_src", "sorted_paths", "composition"):
                    assert name not in vars(flow)
                assert flow.skeleton == frozenset(c.states)
                getattr(flow, first)
                # either read makes the paths; only a read of adjacency
                # makes the move pairs
                assert "path_ends" in vars(flow)
                assert ("adjacency" in vars(flow)) == (first == "adjacency")
                assert "composition" not in vars(flow)
                tables = flow.path_ends, flow.adjacency
                assert "adjacency" in vars(flow)
                dumps_flow(flow)
                assert validate_flow(flow).ok
                assert (flow.path_ends, flow.adjacency) == tables
                assert flow.path_ends is tables[0] and flow.adjacency is tables[1]
                # one fill, and the count is not redone on read
                assert (len(fills), len(counts)) == (1, 1)

    def test_read_paths_keep_no_per_state_lists(self, rng):
        for c in _random_targets(rng):
            flow = realize(c)
            fresh = pickle.loads(pickle.dumps(realize(c)))
            flow.path_ends
            # the paths and the squares recorded, none of the realizer's lists
            assert set(vars(flow)) == {"skeleton", "_complex", "path_ends", "_moves"}
            want = IncrementalRealizer(c).flow.adjacency
            assert flow.adjacency == want == _oracle_tables(c)[3]
            assert pickle.loads(pickle.dumps(flow)) == flow == fresh

    def test_refusals_build_nothing(self, rng, monkeypatch):
        fills = _count_calls(monkeypatch, IncrementalRealizer, "_fill")
        for c in _deferred_inputs(rng):
            paths, composites = count_paths_and_composites(c)
            if paths + composites == 0:
                continue
            monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", str(paths + composites - 1))
            for refuse in (realize, _classes_of_ends, IncrementalRealizer, all_exec_paths):
                with pytest.raises(RealizationLimitExceeded) as caught:
                    refuse(c)
                assert (caught.value.paths, caught.value.composites) == (paths, composites)
                assert caught.value.limit == paths + composites - 1
            monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", str(paths + composites))
            flow = realize(c)
            assert fills == []
            assert len(flow.path_ends) == paths
            del fills[:]

        cyclic = GlobularComplex(
            states=("u", "v"), edges=(Edge("a", "u", "v"), Edge("b", "v", "u"))
        )
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "abc")
        for refuse in (realize, _classes_of_ends, IncrementalRealizer, all_exec_paths):
            with pytest.raises(InvalidComplexError):
                refuse(cyclic)  # the complex is checked before the variable
            with pytest.raises(ValueError, match="GLOBFLOW_REALIZE_LIMIT must be a non-negative integer"):
                refuse(make_chain(3))
        assert fills == []

    def test_cli_realize_builds_no_table(self, rng, monkeypatch, tmp_path, capsys):
        fills = _count_calls(monkeypatch, IncrementalRealizer, "_fill")
        for i, c in enumerate(_deferred_inputs(rng)):
            source = tmp_path / f"c{i}.json"
            source.write_text(dumps_complex(c))
            out = tmp_path / f"c{i}.realization.json"
            assert cli.main(["realize", str(source), "-o", str(out)]) == 0
            assert out.read_text() == dumps_realization(c)
        pv = tmp_path / "swiss.pv"
        pv.write_text(oracles.SWISS_FLAG_SOURCE)
        assert cli.main(["realize", str(pv), "--pv", "-o", "-"]) == 0
        swiss = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        assert capsys.readouterr().out == dumps_realization(swiss)
        assert fills == []
