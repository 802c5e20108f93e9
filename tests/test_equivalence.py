import inspect
import random
from collections import Counter
from itertools import islice, permutations, product
from math import factorial

import pytest

import oracles
from conftest import (
    explicit, make_chain, make_grid, make_interval, make_parallel_pair, random_complex,
)
from globflow import (
    Edge,
    FiniteFlow,
    FlowMorphism,
    GlobularComplex,
    IncrementalRealizer,
    InvalidMorphismError,
    SearchBudgetExceeded,
    Square,
    check_t_dihomotopy,
    compose_flow_morphisms,
    dumps_flow,
    enumerate_flow_morphisms,
    find_flow_isomorphism,
    flow_morphism_violations,
    germs,
    glob_discrete,
    glob_flow,
    identity_complex_morphism,
    identity_flow_morphism,
    loads_flow,
    realize,
    realize_morphism,
    restrict,
    s_equivalent,
    s_homotopic,
    subdivide_edge,
    validate_flow,
)
from globflow import equivalence
from globflow.equivalence import (
    DEFAULT_SEARCH_BUDGET,
    _Budget,
    _component_counts,
    _path_and_component_counts,
    _state_maps,
)


class TestEnumerateMorphisms:
    def test_two_paths_to_one(self):
        dom = glob_flow(["a", "b"])
        cod = glob_flow(["c"])
        found = list(enumerate_flow_morphisms(dom, cod))
        assert len(found) == 1
        assert found[0].path_map == {"a": "c", "b": "c"}

    def test_one_path_to_two(self):
        found = list(enumerate_flow_morphisms(glob_flow(["c"]), glob_flow(["a", "b"])))
        assert [f.path_map for f in found] == [{"c": "a"}, {"c": "b"}]

    def test_path_less_flows_have_one_empty_path_map(self):
        dom, cod = FiniteFlow(("u",), {}), FiniteFlow(("v",), {})
        found = list(enumerate_flow_morphisms(dom, cod))
        assert [(f.state_map, f.path_map) for f in found] == [({"u": "v"}, {})]

    def test_a_state_map_leaving_the_codomain_gives_no_morphism(self):
        flow = glob_flow(["a"])
        assert list(enumerate_flow_morphisms(flow, flow, {"0": "0", "1": "zz"})) == []

    def test_all_results_are_morphisms(self, rng):
        dom = realize(make_chain(2))
        cod = realize(make_chain(3))
        for f in enumerate_flow_morphisms(dom, cod):
            assert not flow_morphism_violations(f, dom, cod)

    def test_budget_exhaustion_raises(self, monkeypatch):
        dom = realize(make_chain(3))
        cod = realize(make_chain(3))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "3")
        with pytest.raises(SearchBudgetExceeded):
            list(enumerate_flow_morphisms(dom, cod))

    def test_budget_charges_are_pinned(self, monkeypatch):
        # the smallest budgets that let each search finish
        chain = realize(make_chain(3))
        grid = realize(make_grid(True))
        identity = {s: s for s in grid.skeleton}
        for dom, state_map, budget in ((chain, None, 262), (grid, None, 296), (grid, identity, 11)):
            monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", str(budget))
            list(enumerate_flow_morphisms(dom, dom, state_map))
            monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", str(budget - 1))
            with pytest.raises(SearchBudgetExceeded):
                list(enumerate_flow_morphisms(dom, dom, state_map))


def _morphisms_by_check(dom, cod):
    """Every map dom -> cod `flow_morphism_violations` finds no fault in, by brute force
    over all state and path maps."""
    states, paths = sorted(dom.skeleton), dom.sorted_paths
    for state_choice in product(sorted(cod.skeleton), repeat=len(states)):
        for path_choice in product(cod.sorted_paths, repeat=len(paths)):
            f = FlowMorphism(dict(zip(states, state_choice)), dict(zip(paths, path_choice)))
            if not flow_morphism_violations(f, dom, cod):
                yield _maps(f)


class TestSearchAgreesWithCheck:
    """The search constrains composition on exactly the pairs the morphism
    check looks at, the composable ones, also on flows that do not
    validate."""

    def test_an_entry_on_an_incomposable_pair_constrains_nothing(self):
        dom = FiniteFlow(
            ("0", "1", "2", "3"),
            {"a": ("0", "1"), "b": ("2", "3")},
            composition={("a", "b"): "a"},
        )
        cod = FiniteFlow(("u", "v"), {"p": ("u", "v"), "q": ("u", "v")})
        found = [_maps(f) for f in enumerate_flow_morphisms(dom, cod)]
        assert len(found) == 4
        assert found == list(_morphisms_by_check(dom, cod))

    @pytest.mark.parametrize("composition", [{}, {("a", "b"): "zz"}], ids=["none", "not-a-path"])
    def test_a_missing_composite_admits_no_map(self, composition):
        dom = FiniteFlow(("0", "1", "2"), {"a": ("0", "1"), "b": ("1", "2")}, composition)
        cod = realize(make_chain(2))
        assert list(enumerate_flow_morphisms(dom, cod)) == []
        assert list(_morphisms_by_check(dom, cod)) == []

    def test_an_adjacency_naming_a_non_path_admits_no_map(self):
        dom = FiniteFlow(("0", "1"), {"a": ("0", "1"), "b": ("0", "1")}, {}, [("a", "zz")])
        cod = glob_flow(["c"])
        assert list(enumerate_flow_morphisms(dom, cod)) == []
        assert list(_morphisms_by_check(dom, cod)) == []
        f = FlowMorphism({"0": "0", "1": "1"}, {"a": "c", "b": "c"})
        assert flow_morphism_violations(f, dom, cod) == [
            "domain adjacency names a non-path: (a, zz)"
        ]
        with pytest.raises(InvalidMorphismError):
            s_homotopic(f, f, dom, cod)
        assert s_equivalent(dom, dom) is None
        assert find_flow_isomorphism(dom, dom) is None


class TestSEquivalent:
    def test_identical_flows_yield_identity_witness(self):
        flow = glob_flow(["a"])
        witness = s_equivalent(flow, flow)
        assert witness is not None
        f, g = witness
        assert f == identity_flow_morphism(flow)
        assert g == identity_flow_morphism(flow)

    def test_squared_pair_collapses_to_single_edge(self):
        fat = realize(make_parallel_pair(with_square=True))
        thin = realize(glob_discrete(["c"]))
        witness = s_equivalent(fat, thin)
        assert witness is not None
        f, g = witness
        # deterministic: first candidate in lexicographic order
        assert f.path_map == {"a": "c", "b": "c"}
        assert g.path_map == {"c": "a"}

    def test_unsquared_pair_is_not_equivalent(self, monkeypatch):
        fat = realize(make_parallel_pair(with_square=False))
        thin = realize(glob_discrete(["c"]))
        # completes well under a 10**3 budget: the search space is tiny
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "1000")
        assert s_equivalent(fat, thin) is None

    def test_witness_passes_the_definition(self):
        fat = realize(make_parallel_pair(with_square=True))
        thin = realize(glob_discrete(["c"]))
        f, g = s_equivalent(fat, thin)
        assert s_homotopic(
            compose_flow_morphisms(f, g), identity_flow_morphism(thin), thin, thin
        )
        assert s_homotopic(
            compose_flow_morphisms(g, f), identity_flow_morphism(fat), fat, fat
        )

    def test_skeleton_size_mismatch_is_disproof(self):
        assert s_equivalent(realize(make_chain(2)), glob_flow(["a"])) is None

    def test_budget_exhaustion_raises(self, monkeypatch):
        grid = realize(make_grid(True))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "5")
        with pytest.raises(SearchBudgetExceeded):
            s_equivalent(grid, grid)

    def test_budget_charges_are_pinned(self, monkeypatch):
        # the smallest budgets that let each search finish
        grid = realize(make_grid(True))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "20")
        assert s_equivalent(grid, grid) is not None
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "19")
        with pytest.raises(SearchBudgetExceeded):
            s_equivalent(grid, grid)
        pair = realize(make_parallel_pair(with_square=False))
        edge = realize(glob_discrete(["c"]))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "0")
        assert s_equivalent(pair, edge) is None


class TestLongSearches:
    def test_searches_do_not_recurse_per_path(self):
        flow = realize(make_chain(50))
        assert len(flow.paths) == 1275
        identity = {s: s for s in flow.skeleton}
        first = next(enumerate_flow_morphisms(flow, flow, state_map=identity))
        assert first.path_map == {p: p for p in flow.paths}
        iso, inverse = find_flow_isomorphism(flow, flow)
        assert iso.state_map == identity
        assert iso.path_map == inverse.path_map == {p: p for p in flow.paths}


class TestFindFlowIsomorphism:
    def test_renamed_flow_is_isomorphic(self, rng):
        for _ in range(10):
            flow = realize(random_complex(rng, max_states=4, max_edges=5, max_squares=2))
            state_names = {s: f"S{i}" for i, s in enumerate(sorted(flow.skeleton))}
            path_names = {p: f"P{i}" for i, p in enumerate(flow.sorted_paths)}
            renamed = FiniteFlow(
                skeleton=[state_names[s] for s in flow.skeleton],
                path_ends={
                    path_names[p]: (state_names[s], state_names[t])
                    for p, (s, t) in flow.path_ends.items()
                },
                composition={
                    (path_names[x], path_names[y]): path_names[z]
                    for (x, y), z in flow.composition.items()
                },
                adjacency=[
                    (path_names[a], path_names[b]) for a, b in flow.adjacency
                ],
            )
            witness = find_flow_isomorphism(flow, renamed)
            assert witness is not None
            iso, inverse = witness
            assert not flow_morphism_violations(iso, flow, renamed)
            assert not flow_morphism_violations(inverse, renamed, flow)
            assert compose_flow_morphisms(inverse, iso) == identity_flow_morphism(flow)

    def test_no_table_built_and_size_mismatches_cost_nothing(self, monkeypatch):
        globe = realize(glob_discrete(["a", "b"]))
        other = realize(glob_discrete(["c", "d"]))
        assert find_flow_isomorphism(globe, other) is not None
        grid = realize(make_grid(True))
        assert find_flow_isomorphism(grid, realize(make_grid(True))) is not None
        assert find_flow_isomorphism(grid, realize(make_grid(False))) is None
        for flow in (globe, other, grid):
            assert "composition" not in vars(flow)
        # the state colours refuse these before any candidate is charged
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "0")
        for x, y in (
            (glob_flow(["a"]), glob_flow(["a", "b"])),
            (realize(make_grid(True)), realize(make_grid(False))),
        ):
            assert s_equivalent(x, y) is None
            assert find_flow_isomorphism(x, y) is None

    def test_budget_is_enough(self, monkeypatch):
        grid = realize(make_grid(True))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "10")
        assert find_flow_isomorphism(grid, grid) is not None

    def test_path_count_mismatch(self):
        assert find_flow_isomorphism(glob_flow(["a"]), glob_flow(["a", "b"])) is None

    def test_adjacency_structure_matters(self):
        plain = realize(make_parallel_pair(with_square=False))
        squared = realize(make_parallel_pair(with_square=True))
        assert find_flow_isomorphism(plain, squared) is None
        assert find_flow_isomorphism(squared, plain) is None

    def test_composition_structure_matters(self):
        chain = realize(make_chain(2))
        # same shape but the composite is swapped with a parallel path
        twisted = FiniteFlow(
            skeleton=chain.skeleton,
            path_ends=dict(chain.path_ends) | {"extra": ("s0", "s2")},
            composition={("e0", "e1"): "extra"},
        )
        widened = FiniteFlow(
            skeleton=chain.skeleton,
            path_ends=dict(chain.path_ends) | {"extra": ("s0", "s2")},
            composition=dict(chain.composition),
        )
        assert validate_flow(twisted).ok and validate_flow(widened).ok
        witness = find_flow_isomorphism(twisted, widened)
        assert witness is not None
        # the iso must send the actual composite to the actual composite
        iso, _ = witness
        assert iso.path_map["extra"] == "e0*e1"


class TestTDihomotopy:
    def test_identity_on_valid_flows(self, rng):
        for flow in (glob_flow(["a", "b"]), realize(make_grid(True))):
            report = check_t_dihomotopy(identity_flow_morphism(flow), flow, flow)
            assert report.holds
            assert report.restriction_isomorphism
            assert report.singleton_germs
            assert report.image_extension

    def test_subdivision_is_t_dihomotopy(self):
        interval = make_interval()
        refined, m = subdivide_edge(interval, "e")
        f = realize_morphism(m, interval, refined)
        report = check_t_dihomotopy(f, realize(interval), realize(refined))
        assert (
            report.restriction_isomorphism,
            report.singleton_germs,
            report.image_extension,
        ) == (True, True, True)

    def test_inclusion_into_wider_glob_fails(self):
        small = glob_flow(["a"])
        wide = glob_flow(["a", "b"])
        f = FlowMorphism(state_map={"0": "0", "1": "1"}, path_map={"a": "a"})
        report = check_t_dihomotopy(f, small, wide)
        assert not report.holds
        # the un-extendable path b is reported
        assert not report.image_extension
        assert any("b" in d for d in report.details)

    def test_truth_is_holds(self):
        small, wide = glob_flow(["a"]), glob_flow(["a", "b"])
        f = FlowMorphism(state_map={"0": "0", "1": "1"}, path_map={"a": "a"})
        assert check_t_dihomotopy(f, small, small)
        assert not check_t_dihomotopy(f, small, wide)

    def test_isolated_new_state_fails_germ_condition(self):
        small = glob_flow(["a"])
        padded = FiniteFlow(
            skeleton=("0", "1", "w"),
            path_ends={"a": ("0", "1")},
        )
        f = FlowMorphism(state_map={"0": "0", "1": "1"}, path_map={"a": "a"})
        report = check_t_dihomotopy(f, small, padded)
        assert report.restriction_isomorphism
        assert not report.singleton_germs
        assert report.image_extension
        assert not report.holds

    def test_non_injective_state_map_fails_restriction(self):
        dom = glob_flow(["a"])
        cod = FiniteFlow(skeleton=("u",), path_ends={"l": ("u", "u")})
        # l is a loop path; flows allow it even though complexes do not
        f = FlowMorphism(state_map={"0": "u", "1": "u"}, path_map={"a": "l"})
        assert not flow_morphism_violations(f, dom, cod)
        report = check_t_dihomotopy(f, dom, cod)
        assert not report.restriction_isomorphism

    def test_random_subdivisions_hold(self, rng):
        for _ in range(10):
            c = random_complex(rng, min_edges=1, max_states=5, max_edges=7)
            edge = rng.choice(c.edges).id
            refined, m = subdivide_edge(c, edge)
            report = check_t_dihomotopy(
                realize_morphism(m, c, refined), realize(c), realize(refined)
            )
            assert report.holds, report.details


def _plain_flow(c):
    """The realization of `c` by the oracle, as plain tables."""
    return oracles.realization(
        c.states,
        {e.id: (e.src, e.tgt) for e in c.edges},
        [(q.left, q.right) for q in c.squares],
    )


def _renamed(flow, rng):
    """A copy of a plain flow with states and paths renamed in shuffled order."""
    skeleton, path_ends, composition, adjacency = flow
    states = sorted(skeleton)
    paths = sorted(path_ends)
    rng.shuffle(states)
    rng.shuffle(paths)
    s_name = {s: f"S{i}" for i, s in enumerate(states)}
    p_name = {p: f"P{i}" for i, p in enumerate(paths)}
    return (
        {s_name[s] for s in skeleton},
        {p_name[p]: (s_name[s], s_name[t]) for p, (s, t) in path_ends.items()},
        {(p_name[x], p_name[y]): p_name[z] for (x, y), z in composition.items()},
        {tuple(sorted((p_name[a], p_name[b]))) for a, b in adjacency},
    )


def _library_flow(flow):
    skeleton, path_ends, composition, adjacency = flow
    return FiniteFlow(skeleton, path_ends, composition, adjacency)


def _maps(f):
    return dict(f.state_map), dict(f.path_map)


class TestSearchOracle:
    """The three searches against brute force over plain tables, on seeded
    small pairs: a flow with itself, with a renamed copy, with another
    flow, and with a renamed copy of its complex with one edge doubled
    and the two copies joined by a square (S-equivalent, not isomorphic)."""

    def test_searches_match_brute_force(self):
        rng = random.Random(20261018)
        isomorphic = equivalent = 0
        for i in range(240):
            c = random_complex(rng, min_edges=1, max_states=4, max_edges=5, max_squares=2)
            x = _plain_flow(c)
            if i % 4 == 0:
                y = x
            elif i % 4 == 1:
                y = _renamed(x, rng)
            elif i % 4 == 2:
                y = _plain_flow(random_complex(rng, max_states=4, max_edges=5, max_squares=2))
            else:
                edge = rng.choice(c.edges)
                twin = Edge(edge.id + "_twin", edge.src, edge.tgt)
                doubled = GlobularComplex(
                    states=c.states,
                    edges=c.edges + (twin,),
                    squares=c.squares + (Square("twin", (edge.id,), (twin.id,)),),
                )
                y = _renamed(_plain_flow(doubled), rng)
            fx, fy = _library_flow(x), _library_flow(y)

            found = [_maps(f) for f in enumerate_flow_morphisms(fx, fy)]
            assert found == list(oracles.flow_morphisms(x, y))

            witness = find_flow_isomorphism(fx, fy)
            expected = oracles.first_flow_isomorphism(x, y)
            if expected is None:
                assert witness is None
            else:
                isomorphic += 1
                iso, inverse = witness
                assert _maps(iso) == expected
                state_map, path_map = expected
                assert _maps(inverse) == (
                    {b: a for a, b in state_map.items()},
                    {b: a for a, b in path_map.items()},
                )

            witness = s_equivalent(fx, fy)
            expected = oracles.first_s_equivalence(x, y)
            if expected is None:
                assert witness is None
            else:
                equivalent += 1
                assert tuple(_maps(f) for f in witness) == expected
        # every self pair and renamed copy is isomorphic, every doubled
        # edge S-equivalent
        assert isomorphic >= 120 and equivalent >= 180


def _with_twin(c, edge, squared):
    """`c` plus a parallel copy of `edge`, joined to it by a square or not."""
    twin = Edge(edge.id + "_twin", edge.src, edge.tgt)
    square = (Square("twin", (edge.id,), (twin.id,)),) if squared else ()
    return GlobularComplex(states=c.states, edges=c.edges + (twin,), squares=c.squares + square)


def _equiv_cli_bases(rng, count):
    """`count` complexes of the benchmark's equiv-cli shape: 5-6 states and
    at most 11 paths, drawn by size alone."""
    bases = []
    while len(bases) < count:
        c = random_complex(rng, max_states=6, max_edges=8, min_edges=4)
        if len(c.states) >= 5 and len(_plain_flow(c)[1]) <= 11:
            bases.append(c)
    return bases


def _equiv_cli_pairs(rng, bases):
    """Plain flow pairs (X, Y) as equiv-cli draws them, four per base: X
    with itself, with a renamed copy, with one edge doubled and no square
    (not S-equivalent), and with a renamed copy of one edge doubled and
    the copies joined by a square (S-equivalent, not isomorphic)."""
    for c in bases:
        x = _plain_flow(c)
        edge = rng.choice(c.edges)
        yield x, x
        yield x, _renamed(x, rng)
        yield x, _plain_flow(_with_twin(c, edge, squared=False))
        yield x, _renamed(_plain_flow(_with_twin(c, edge, squared=True)), rng)


def _pair_table(flow, with_paths):
    """(s, t) -> the number of adj*-components of the paths from s to t,
    or (number of paths, number of components) when `with_paths`; pairs
    without paths are left out."""
    _, path_ends, _, adjacency = flow
    component = oracles.adj_star_components(path_ends, adjacency)
    members = {}
    for p, ends in path_ends.items():
        members.setdefault(ends, []).append(p)
    table = {}
    for ends, ps in members.items():
        components = len({component[p] for p in ps})
        table[ends] = (len(ps), components) if with_paths else components
    return table


def _kept_state_maps(x, y, with_paths):
    """The bijections of `permutations` order under which the pair tables
    of x and y agree on every pair of states."""
    x_table, y_table = _pair_table(x, with_paths), _pair_table(y, with_paths)
    xs = sorted(x[0])
    kept = []
    for ys in permutations(sorted(y[0])):
        sigma = dict(zip(xs, ys))
        if all(
            x_table.get((s, t), 0) == y_table.get((sigma[s], sigma[t]), 0)
            for s in xs
            for t in xs
        ):
            kept.append(sigma)
    return kept


def _witness_state_maps(x, y):
    """Every bijection of states that carries an S-equivalence witness,
    by the oracle's path maps."""
    x_components = oracles.adj_star_components(x[1], x[3])
    y_components = oracles.adj_star_components(y[1], y[3])
    xs = sorted(x[0])
    found = []
    for ys in permutations(sorted(y[0])):
        sigma = dict(zip(xs, ys))
        forward = oracles.flow_path_maps(x, y, sigma)
        backward = oracles.flow_path_maps(y, x, dict(zip(ys, xs))) if forward else []
        if any(
            all(x_components[g[f[p]]] == x_components[p] for p in x[1])
            and all(y_components[f[g[q]]] == y_components[q] for q in y[1])
            for f in forward
            for g in backward
        ):
            found.append(sigma)
    return found


class TestStateMaps:
    """The state search against brute force over `permutations`, on pairs
    of the equiv-cli shapes."""

    def test_refinement_is_exact(self):
        rng = random.Random(20261019)
        pruned = witnesses = 0
        for x, y in _equiv_cli_pairs(rng, _equiv_cli_bases(rng, 30)):
            fx, fy = _library_flow(x), _library_flow(y)
            kept = list(_state_maps(fx, fy, _component_counts, _Budget()))
            assert kept == _kept_state_maps(x, y, with_paths=False)
            for sigma in _witness_state_maps(x, y):
                witnesses += 1
                assert sigma in kept
            iso_kept = list(_state_maps(fx, fy, _path_and_component_counts, _Budget()))
            assert iso_kept == _kept_state_maps(x, y, with_paths=True)
            pruned += len(kept) < factorial(len(x[0]))
        # three pairs of four have a witness; most pairs lose state maps
        assert witnesses >= 90 and pruned >= 90


class TestSearchOracleOnEquivCliShapes:
    """The three searches against brute force over plain tables, witnesses
    included, on pairs of the equiv-cli shapes and on X against an edge
    subdivision of X."""

    def test_searches_match_brute_force(self):
        rng = random.Random(20261020)
        bases = _equiv_cli_bases(rng, 8)
        pairs = list(_equiv_cli_pairs(rng, bases))
        for _ in range(12):
            c = random_complex(rng, min_edges=1, max_states=4, max_edges=5, max_squares=2)
            refined, _ = subdivide_edge(c, rng.choice(c.edges).id)
            pairs += [(_plain_flow(c), _plain_flow(refined)), (_plain_flow(refined), _plain_flow(c))]
        isomorphic = equivalent = 0
        for x, y in pairs:
            fx, fy = _library_flow(x), _library_flow(y)
            # the brute-force searches try all |Y|^|X| state maps
            if len(y[0]) ** len(x[0]) <= 5**5:
                found = [_maps(f) for f in enumerate_flow_morphisms(fx, fy)]
                assert found == list(oracles.flow_morphisms(x, y))

            witness = find_flow_isomorphism(fx, fy)
            if len(x[1]) != len(y[1]):
                assert witness is None
            elif (expected := oracles.first_flow_isomorphism(x, y)) is None:
                assert witness is None
            else:
                isomorphic += 1
                assert tuple(_maps(f) for f in witness) == (
                    expected,
                    tuple({b: a for a, b in m.items()} for m in expected),
                )

            witness = s_equivalent(fx, fy)
            expected = oracles.first_s_equivalence(x, y)
            if expected is None:
                assert witness is None
            else:
                equivalent += 1
                assert tuple(_maps(f) for f in witness) == expected
        # per base: itself and the renamed copy are isomorphic, and with
        # the squared twin they are S-equivalent; a subdivision has one
        # more state
        assert isomorphic == 2 * len(bases) and equivalent == 3 * len(bases)

    def test_a_missing_square_is_refused_before_any_candidate(self, monkeypatch):
        squared = realize(make_grid(True))
        plain = realize(make_grid(False))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "0")
        for x, y in ((squared, plain), (plain, squared)):
            assert s_equivalent(x, y) is None
            assert find_flow_isomorphism(x, y) is None


def _twin_pair(seed):
    """The first complex of 18-20 paths that `random_complex` draws from
    `seed`, and its copy with a random edge doubled, the copies joined by
    a square, both realized."""
    rng = random.Random(seed)
    while True:
        c = random_complex(rng, max_states=6, max_edges=10, min_edges=5)
        if 18 <= len(realize(c).paths) <= 20:
            return realize(c), realize(_with_twin(c, rng.choice(c.edges), squared=True))


class TestRoundTripFilter:
    """The round trips filter the options of g, so no g that fails them
    is tried: on these pairs that keeps the search within the default
    budget."""

    @pytest.mark.parametrize("seed", [9, 22, 23])
    def test_doubled_edge_is_found_within_the_default_budget(self, seed):
        x, y = _twin_pair(seed)
        f, g = s_equivalent(x, y)
        assert s_homotopic(compose_flow_morphisms(f, g), identity_flow_morphism(y), y, y)
        assert s_homotopic(compose_flow_morphisms(g, f), identity_flow_morphism(x), x, x)


def _corestriction_by_restriction(f, x, y):
    """Condition 1 of the T-check by the definition: build the restricted
    flow, then check f into it and its inverse back with
    `flow_morphism_violations`.  Returns the verdict and its details."""
    image_states = {f.state_map[s] for s in x.skeleton}
    restricted = restrict(y, image_states)
    details = []
    if len(image_states) != len(x.skeleton):
        details.append("corestriction: state map not injective")
    images = set(f.path_map.values())
    if len(images) != len(x.paths):
        details.append("corestriction: path map not injective")
    if images != restricted.paths:
        details.append("corestriction: path map not onto the restricted flow")
    if details:
        return False, details
    if flow_morphism_violations(f, x, restricted):
        return False, ["corestriction: not a morphism into the restricted flow"]
    inverse = FlowMorphism(
        state_map={f.state_map[s]: s for s in x.skeleton},
        path_map={v: k for k, v in f.path_map.items()},
    )
    if flow_morphism_violations(inverse, restricted, x):
        return False, ["corestriction: inverse is not a morphism"]
    return True, []


def _t_check_cases(c, rng):
    """(f, x, y) for morphisms out of and into the realization of `c`."""
    x = realize(c)
    refined, m = subdivide_edge(c, rng.choice(c.edges).id)
    subdivision = realize_morphism(m, c, refined)
    yield subdivision, x, realize(refined)
    # a path_map key outside x's paths, losing and then winning an image
    image = subdivision.path_map[rng.choice(x.sorted_paths)]
    for path_map in ({"stray": image, **subdivision.path_map},
                     {**subdivision.path_map, "stray": image}):
        yield FlowMorphism(subdivision.state_map, path_map), x, realize(refined)
    twin = rng.choice(c.edges)
    doubled = GlobularComplex(c.states, c.edges + (Edge("extra", twin.src, twin.tgt),), c.squares)
    yield realize_morphism(identity_complex_morphism(c), c, doubled), x, realize(doubled)
    bare = GlobularComplex(c.states, c.edges)
    yield realize_morphism(identity_complex_morphism(bare), bare, c), realize(bare), x
    for y in (x, realize(refined)):
        for f in islice(enumerate_flow_morphisms(x, y), 3):
            yield f, x, y


class TestCorestrictionByRestriction:
    """Condition 1 of `check_t_dihomotopy` against the definition's route
    through the restricted flow, on realized flows and their explicit
    copies: subdivisions (also with a path_map key outside the domain),
    inclusions into a copy with a parallel edge, identities from the
    complex without its squares, and the first maps the morphism search
    finds."""

    def test_reports_match(self):
        rng = random.Random(20261021)
        outcomes = Counter()
        for _ in range(30):
            c = random_complex(rng, min_edges=1, max_states=5, max_edges=7, max_squares=3)
            for f, x, y in _t_check_cases(c, rng):
                for fx, fy in ((x, y), (explicit(x), explicit(y))):
                    report = check_t_dihomotopy(f, fx, fy)
                    holds, details = _corestriction_by_restriction(f, fx, fy)
                    assert report.restriction_isomorphism == holds
                    later = [d for d in report.details if not d.startswith("corestriction:")]
                    assert list(report.details) == details + later
                    outcomes[details[0] if details else "holds"] += 1
        assert set(outcomes) == {
            "holds",
            "corestriction: state map not injective",
            "corestriction: path map not injective",
            "corestriction: path map not onto the restricted flow",
            "corestriction: inverse is not a morphism",
        }, outcomes



class _Meter(_Budget):
    """A budget that keeps the last one made, to read its charges."""

    last = None

    def __init__(self):
        super().__init__()
        _Meter.last = self


def _search(search, x, y):
    """The outcome of one search x -> y, the morphisms listed in full."""
    found = search(x, y)
    return list(found) if search is enumerate_flow_morphisms else found


class TestBudgetFromTheEnvironment:
    """Every search reads GLOBFLOW_SEARCH_BUDGET when it starts, and takes
    no budget of its own."""

    SEARCHES = [s_equivalent, find_flow_isomorphism, enumerate_flow_morphisms]

    @pytest.mark.parametrize("search", SEARCHES, ids=lambda f: f.__name__)
    def test_the_budget_is_read_when_the_search_starts(self, search, monkeypatch):
        assert "budget" not in inspect.signature(search).parameters
        grid = realize(make_grid(True))
        monkeypatch.setattr(equivalence, "_Budget", _Meter)
        monkeypatch.delenv("GLOBFLOW_SEARCH_BUDGET", raising=False)
        answer = _search(search, grid, grid)
        assert _Meter.last.limit == DEFAULT_SEARCH_BUDGET
        needed = _Meter.last.used
        assert needed > 0
        # set after import and changed between calls: each call reads it
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", str(needed))
        assert _search(search, grid, grid) == answer
        assert _Meter.last.limit == _Meter.last.used == needed
        for limit in (needed - 1, 0):
            monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", str(limit))
            with pytest.raises(SearchBudgetExceeded) as refused:
                _search(search, grid, grid)
            assert refused.value.budget == limit

    @pytest.mark.parametrize("search", SEARCHES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", ["-1", "abc", ""])
    def test_a_malformed_budget_is_refused_before_any_charge(self, search, value, monkeypatch):
        charges = []
        monkeypatch.setattr(_Budget, "charge", lambda meter: charges.append(meter))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", value)
        grid = realize(make_grid(True))
        with pytest.raises(ValueError, match="^GLOBFLOW_SEARCH_BUDGET must be a non-negative integer$"):
            _search(search, grid, grid)
        assert charges == []


def _concatenative_cases(rng, count):
    """(c, f, ys) for seeded small complexes c: f the flow morphism of a
    subdivision of c, and ys the subdivision's flow three ways, realized,
    read back from its compact document and built by a realizer."""
    for _ in range(count):
        c = random_complex(rng, min_edges=1, max_states=5, max_edges=6, max_squares=2)
        refined, m = subdivide_edge(c, rng.choice(c.edges).id)
        realizer = IncrementalRealizer(GlobularComplex(states=refined.states))
        for cell in refined.edges + refined.squares:
            realizer.attach(cell)
        realized = realize(refined)
        loaded, _ = loads_flow(dumps_flow(realized))
        yield c, realize_morphism(m, c, refined), (realized, loaded, realizer.flow)


class TestConcatenativeFlows:
    """Analyses ask a concatenative flow for composites pair by pair: they
    build no composition table, and they answer as on the explicit flow
    holding that table."""

    def test_analyses_build_no_table(self, rng):
        for c, f, ys in _concatenative_cases(rng, 20):
            x = realize(c)
            for y in ys:
                for state in sorted(y.skeleton):
                    germs(y, state, "minus")
                    germs(y, state, "plus")
                assert check_t_dihomotopy(f, x, y).holds
                assert s_equivalent(y, y) is not None
                for a, b in y.composable_pairs():
                    y.compose(a, b)
            assert ys[0] == ys[1] == ys[2] == ys[0]
            for flow in (x,) + ys:
                assert "composition" not in vars(flow)

    def test_explicit_copies_answer_alike(self, rng, monkeypatch):
        monkeypatch.setattr(equivalence, "_Budget", _Meter)
        for c, f, ys in _concatenative_cases(rng, 15):
            x, y = realize(c), rng.choice(ys)
            twin = realize(_with_twin(c, rng.choice(c.edges), squared=True))
            for flow in (x, y):
                copy = explicit(flow)
                for state in sorted(flow.skeleton):
                    for sign in ("minus", "plus"):
                        assert germs(flow, state, sign) == germs(copy, state, sign)
            for dom, cod in ((x, x), (x, y), (y, x), (x, twin), (twin, x)):
                answers = []
                for a, b in ((dom, cod), (explicit(dom), explicit(cod))):
                    maps = [_maps(g) for g in islice(enumerate_flow_morphisms(a, b), 40)]
                    charged = _Meter.last.used
                    witness = s_equivalent(a, b)
                    witness = witness and tuple(_maps(g) for g in witness)
                    answers.append((maps, charged, witness, _Meter.last.used))
                assert answers[0] == answers[1]

    def test_equality_with_explicit_flows_compares_composition(self, rng):
        for _, _, ys in _concatenative_cases(rng, 10):
            for y in ys:
                copy = explicit(y)
                assert y == copy and copy == y
                pair = next(iter(copy.composition))
                for composition in (
                    {k: v for k, v in copy.composition.items() if k != pair},
                    copy.composition | {pair: pair[0]},
                ):
                    other = FiniteFlow(y.skeleton, y.path_ends, composition, y.adjacency)
                    assert y != other and other != y


def _count_pool(rng, bases):
    """Valid flows for the count checks: for each of `bases` complexes, its
    realization, an explicit copy, a renamed copy, and the realization of
    the complex with one edge doubled, the two copies squared or not."""
    pool = []
    for _ in range(bases):
        c = random_complex(rng, min_edges=1)
        flow = realize(c)
        tables = (flow.skeleton, flow.path_ends, flow.composition, flow.adjacency)
        twin = _with_twin(c, rng.choice(c.edges), squared=rng.random() < 0.5)
        pool += [flow, explicit(flow), _library_flow(_renamed(tables, rng)), realize(twin)]
    return pool


class TestCountsDecidedByColours:
    """The state colours alone refuse what count checks would: flows whose
    states differ in number from both searches, and flows whose paths or
    composites do from the isomorphism search, each answering None with no
    unit charged."""

    def test_count_mismatches_cost_nothing(self, monkeypatch):
        monkeypatch.setattr(equivalence, "_Budget", _Meter)
        rng = random.Random(20261020)
        pool = _count_pool(rng, 40)
        counts = [
            (len(f.skeleton), len(f.paths), sum(1 for _ in f.composable_pairs()))
            for f in pool
        ]
        assert all(validate_flow(f).ok for f in pool)
        refused = Counter()
        for _ in range(2400):
            i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
            if counts[i] == counts[j]:
                continue
            states, paths, _ = (a != b for a, b in zip(counts[i], counts[j]))
            refused["states" if states else "paths" if paths else "composites"] += 1
            # S-equivalence may collapse paths, so only a state count refuses it
            for search in (find_flow_isomorphism, s_equivalent)[: 1 + states]:
                assert search(pool[i], pool[j]) is None
                assert _Meter.last.used == 0
        assert refused["states"] >= 1500 and refused["paths"] >= 300, refused
        assert refused["composites"] >= 1, refused
