import pytest

import oracles
from conftest import make_chain, make_grid, make_interval, random_complex
from globflow import (
    Edge,
    GlobularComplex,
    IncrementalRealizer,
    InvalidAttachmentError,
    InvalidComplexError,
    Square,
    all_exec_paths,
    compose_complex_morphisms,
    compose_flow_morphisms,
    dihomotopy_classes,
    find_flow_isomorphism,
    glob_discrete,
    glob_flow,
    identity_complex_morphism,
    identity_flow_morphism,
    incremental_realize,
    is_flow_morphism,
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
        assert validate_flow(flow).ok

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
        assert is_flow_morphism(f, realize(interval), realize(refined))

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

    def test_invalid_morphism_rejected(self):
        from globflow import ComplexMorphism, InvalidMorphismError

        interval = make_interval()
        broken = ComplexMorphism(state_map={"0": "0", "1": "1"}, edge_map={"e": ()})
        with pytest.raises(InvalidMorphismError):
            realize_morphism(broken, interval, interval)


class TestIncrementalRealize:
    def test_attach_edge_to_edgeless_complex(self):
        base = GlobularComplex(states=("0", "1"))
        flow = incremental_realize(base, Edge("e", "0", "1"))
        assert flow == realize(make_interval())

    def test_attach_square_adds_exactly_the_move_pairs(self):
        base = make_grid(False)
        square = Square("q", ("a", "b"), ("c", "d"))
        flow = incremental_realize(base, square)
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
            flow = realizer.attach(cell)
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

    def test_all_paths_sorted_and_complete(self):
        grid = make_grid(True)
        paths = all_exec_paths(grid)
        assert paths == sorted(paths)
        assert len(paths) == 6
