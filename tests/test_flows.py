import json
import random

import pytest

import oracles
from conftest import (
    explicit, make_chain, pv_oracle_input, random_complex, random_pv_source, trace_of,
)
from globflow import flows
from globflow import (
    FiniteFlow,
    FlowMorphism,
    GlobularComplex,
    IncrementalRealizer,
    InvalidMorphismError,
    UnknownIdError,
    ValidationReport,
    compose_flow_morphisms,
    deadlocks,
    dihomotopy_classes,
    dumps_flow,
    flow_morphism_violations,
    germs,
    glob_flow,
    identity_flow_morphism,
    loads_flow,
    parse_pv,
    pv_to_complex,
    realize,
    restrict,
    s_homotopic,
    validate_flow,
)


def chain_flow(n=2):
    return realize(make_chain(n))


def adj_glob(labels, pairs):
    """A globe flow with explicit adjacency between parallel paths."""
    return FiniteFlow(
        skeleton=("0", "1"),
        path_ends={name: ("0", "1") for name in labels},
        adjacency=pairs,
    )


class TestValidateFlow:
    def test_glob_flow_ok(self):
        report = validate_flow(glob_flow(["a"]))
        assert report.ok and str(report) == "ok"

    def test_source_axiom_violation(self):
        flow = FiniteFlow(
            skeleton=("u", "v", "w"),
            path_ends={"x": ("u", "v"), "y": ("v", "w"), "z": ("v", "w")},
            composition={("x", "y"): "z"},  # s(z) = v != u = s(x)
        )
        report = validate_flow(flow)
        assert any("source axiom" in v for v in report.violations)

    def test_target_axiom_violation(self):
        flow = FiniteFlow(
            skeleton=("u", "v", "w"),
            path_ends={"x": ("u", "v"), "y": ("v", "w"), "z": ("u", "v")},
            composition={("x", "y"): "z"},
        )
        assert any("target axiom" in v for v in validate_flow(flow).violations)

    def test_totality_violation(self):
        flow = FiniteFlow(
            skeleton=("u", "v", "w"),
            path_ends={"x": ("u", "v"), "y": ("v", "w")},
        )
        assert any(
            "composition not total" in v for v in validate_flow(flow).violations
        )

    def test_undefined_composites_are_reported_once(self):
        # z*b is undefined: the associativity walk skips the pair and the
        # congruence walk the left extension of a ~ b by z, so totality
        # alone reports it
        flow = FiniteFlow(
            skeleton=("w", "u", "v"),
            path_ends={"z": ("w", "u"), "a": ("u", "v"), "b": ("u", "v"), "za": ("w", "v")},
            composition={("z", "a"): "za"},
            adjacency=[("a", "b")],
        )
        violations = ("composition not total: (z, b) undefined",)
        assert validate_flow(flow).violations == violations == _oracle_violations(flow)

    def test_equality_with_a_non_flow_is_not_implemented(self):
        flow = glob_flow(["a"])
        assert flow.__eq__(flow.path_ends) is NotImplemented
        assert flow != flow.path_ends

    def test_unknown_path_in_composition_entry(self):
        flow = FiniteFlow(
            skeleton=("u", "v"),
            path_ends={"x": ("u", "v")},
            composition={("x", "zz"): "x"},
        )
        assert validate_flow(flow).violations == ("unknown path in composition entry: (x, zz)",)

    def test_spurious_composition(self):
        flow = FiniteFlow(
            skeleton=("u", "v"),
            path_ends={"x": ("u", "v"), "y": ("u", "v")},
            composition={("x", "y"): "x"},
        )
        assert any("spurious composition" in v for v in validate_flow(flow).violations)

    def test_associativity_violation(self):
        # chain of three edges with a deliberately wrong triple product
        flow = FiniteFlow(
            skeleton=("0", "1", "2", "3"),
            path_ends={
                "a": ("0", "1"), "b": ("1", "2"), "c": ("2", "3"),
                "ab": ("0", "2"), "bc": ("1", "3"),
                "abc1": ("0", "3"), "abc2": ("0", "3"),
            },
            composition={
                ("a", "b"): "ab", ("b", "c"): "bc",
                ("ab", "c"): "abc1", ("a", "bc"): "abc2",  # differ
            },
        )
        assert any("associativity" in v for v in validate_flow(flow).violations)

    def test_adjacency_endpoint_violation(self):
        flow = FiniteFlow(
            skeleton=("u", "v", "w"),
            path_ends={"x": ("u", "v"), "y": ("u", "w")},
            adjacency=[("x", "y")],
        )
        assert any(
            "adjacency endpoints" in v for v in validate_flow(flow).violations
        )

    def test_congruence_violation(self):
        # x ~ x' but x*y and x'*y are not connected
        flow = FiniteFlow(
            skeleton=("u", "v", "w"),
            path_ends={
                "x": ("u", "v"), "x2": ("u", "v"), "y": ("v", "w"),
                "xy": ("u", "w"), "x2y": ("u", "w"),
            },
            composition={("x", "y"): "xy", ("x2", "y"): "x2y"},
            adjacency=[("x", "x2")],
        )
        assert any(
            "adjacency congruence" in v for v in validate_flow(flow).violations
        )

    def test_realized_random_complexes_validate(self, rng):
        for _ in range(20):
            flow = realize(random_complex(rng))
            for copy in (loads_flow(dumps_flow(flow))[0], explicit(flow)):
                assert validate_flow(copy).ok


def _sample_flows(rng):
    """Realized flows: seeded random complexes, then small PV programs (the
    largest, two philosophers, has 128 paths)."""
    for _ in range(40):
        yield realize(random_complex(rng))
    for source in (
        oracles.MUTEX_SOURCE,
        oracles.SWISS_FLAG_SOURCE,
        oracles.dining_philosophers_source(2),
    ):
        yield realize(pv_to_complex(parse_pv(source)))


def _oracle_violations(flow):
    return tuple(
        oracles.flow_violations(
            flow.skeleton, flow.path_ends, flow.composition, flow.adjacency
        )
    )


def _count_walks(monkeypatch):
    """Count the runs of the exhaustive associativity walk."""
    calls = []
    walk = flows._associativity_violations

    def counted(flow):
        calls.append(flow)
        return walk(flow)

    monkeypatch.setattr(flows, "_associativity_violations", counted)
    return calls


class TestValidationCertificate:
    """validate_flow walks the composable triples of every flow built from
    explicit tables and of no concatenative flow; these compare it with
    the walk and with the brute-force oracle."""

    def test_realized_flows_need_no_walk(self, rng, monkeypatch):
        walks = _count_walks(monkeypatch)
        for flow in _sample_flows(rng):
            assert validate_flow(flow).ok
            assert walks == []
            assert flows._associativity_violations(flow) == []
            walks.clear()

    def test_a_flow_is_walked_once_and_a_realized_flow_never(self, rng, monkeypatch):
        walks = []
        walk = flows._validation_report

        def counted(flow):
            walks.append(flow)
            return walk(flow)

        monkeypatch.setattr(flows, "_validation_report", counted)
        for _ in range(30):
            c = random_complex(rng)
            for flow in (realize(c), IncrementalRealizer(c).flow):
                assert validate_flow(flow) == ValidationReport()
            assert walks == []
            compact = loads_flow(dumps_flow(realize(c)))[0]
            # without its table the copy fails totality where paths compose
            for flow in (compact, explicit(compact), FiniteFlow(c.states, compact.path_ends)):
                report = validate_flow(flow)
                assert validate_flow(flow) is report
                assert len(walks) == 1 and walks.pop() is flow

    def test_renamed_flows_take_the_walk_and_validate(self, rng, monkeypatch):
        walks = _count_walks(monkeypatch)
        checked = 0
        for flow in _sample_flows(rng):
            if not flow.composition:
                continue
            fresh = [f"p{k}" for k in range(len(flow.path_ends))]
            rng.shuffle(fresh)
            name = dict(zip(flow.sorted_paths, fresh))
            renamed = FiniteFlow(
                skeleton=flow.skeleton,
                path_ends={name[p]: ends for p, ends in flow.path_ends.items()},
                composition={
                    (name[x], name[y]): name[z] for (x, y), z in flow.composition.items()
                },
                adjacency={(name[a], name[b]) for a, b in flow.adjacency},
            )
            before = len(walks)
            assert validate_flow(renamed).ok
            assert len(walks) == before + 1
            checked += 1
        assert checked >= 20

    def test_explicit_copies_take_one_walk(self, rng, monkeypatch):
        # every composite of a realized flow is the "*"-join of its
        # operands, and its explicit copy is still walked
        walks = _count_walks(monkeypatch)
        for flow in _sample_flows(rng):
            copy = explicit(flow)
            report = validate_flow(copy)
            assert report.ok and report.violations == _oracle_violations(copy)
            assert walks == [copy]
            walks.clear()

    def test_failing_compact_flows_take_no_walk(self, rng, monkeypatch):
        walks = _count_walks(monkeypatch)
        # the congruence walk runs exactly when a certificate fails
        fallbacks = []
        congruence = flows._congruence_violations

        def counted(flow, matched):
            fallbacks.append(flow)
            return congruence(flow, matched)

        monkeypatch.setattr(flows, "_congruence_violations", counted)
        for flow in _sample_flows(rng):
            doc = json.loads(dumps_flow(flow))
            for _, mutant in _mutants(doc, rng):
                compact, _ = loads_flow(json.dumps(mutant))
                report = validate_flow(compact)
                assert report.violations == _oracle_violations(compact)
                assert walks == []
        assert len(fallbacks) >= 150

    def test_perturbed_flows_match_the_oracle(self, rng):
        seen = set()
        for flow in _sample_flows(rng):
            if not flow.composition:
                continue
            ends = flow.path_ends
            for kind in ("redirect", "remove", "unknown", "unlink"):
                composition = dict(flow.composition)
                adjacency = set(flow.adjacency)
                key = rng.choice(sorted(composition))
                if kind == "redirect":
                    z = composition[key]
                    others = [p for p in flow.sorted_paths if ends[p] == ends[z] and p != z]
                    if not others:
                        continue
                    composition[key] = rng.choice(others)
                elif kind == "remove":
                    del composition[key]
                elif kind == "unknown":
                    composition[key] = "ghost"
                elif adjacency:
                    adjacency.discard(rng.choice(sorted(adjacency)))
                perturbed = FiniteFlow(flow.skeleton, ends, composition, adjacency)
                report = validate_flow(perturbed)
                assert report.violations == _oracle_violations(perturbed)
                walked = flows._associativity_violations(perturbed)
                assert [
                    v for v in report.violations if v.startswith("associativity")
                ] == walked
                seen.update(v.split(":")[0] for v in report.violations)
        # the perturbations reach every axiom the certificate and the
        # root comparison stand in for
        assert {
            "associativity",
            "composition not total",
            "composite not a path",
            "adjacency congruence",
        } <= seen


def _mutants(doc, rng):
    """(kind, document) for mutations of a concatenation document `doc`."""
    paths, adjacency, states = doc["paths"], doc["adjacency"], doc["skeleton"]
    ids = [p["id"] for p in paths]
    ends = {p["id"]: (p["src"], p["tgt"]) for p in paths}
    single = [p for p in ids if "*" not in p]
    multi = [p for p in ids if "*" in p]
    extended = {p.rpartition("*")[0] for p in multi}

    def changed(drop_path=None, add_paths=(), drop_pair=None, add_pairs=(), rename=None):
        out = dict(doc)
        out["paths"] = [
            {**p, "id": rename.get(p["id"], p["id"])} if rename else p
            for p in paths
            if p["id"] != drop_path
        ] + [{"id": i, "src": s, "tgt": t} for i, s, t in add_paths]
        out["adjacency"] = [pair for pair in adjacency if pair != drop_pair] + list(add_pairs)
        return out

    if ids:
        yield "drop", changed(drop_path=rng.choice(ids))
        p = rng.choice(ids)
        s, t = ends[p]
        field = rng.choice(["src", "tgt"])
        moved = rng.choice([x for x in states if x != (s if field == "src" else t)])
        yield "ends", {**doc, "paths": [
            {**q, field: moved} if q["id"] == p else q for q in paths
        ]}
    # only the path count can tell a path no other path extends is missing
    maximal = [p for p in multi if p not in extended]
    if maximal:
        yield "drop unextended", changed(drop_path=rng.choice(maximal))
    if adjacency:
        yield "drop pair", changed(drop_pair=rng.choice(adjacency))
    if single:
        e = rng.choice(single)
        yield "starred", changed(rename={e: f"{e}*{e}"})
    u, v = rng.sample(states, 2)
    yield "2-cycle", changed(add_paths=[("loop1", u, v), ("loop2", v, u)])
    yield "dangling", changed(add_paths=[("dangle", u, "nowhere")])
    # a path swapped for an incomposable join with the right ends, which
    # keeps the path count
    joins = [
        (e, f) for e in single for f in single
        if ends[e][1] != ends[f][0] and f"{e}*{f}" not in ends
    ]
    if joins and multi:
        e, f = rng.choice(joins)
        yield "incomposable", changed(
            drop_path=rng.choice(multi), add_paths=[(f"{e}*{f}", ends[e][0], ends[f][1])]
        )
    if ids:
        unpaired = [["ghost", rng.choice(ids)]]
        apart = [(p, q) for p in ids for q in ids if p < q and ends[p] != ends[q]]
        if apart:
            unpaired.append(list(rng.choice(apart)))
        yield "unpaired", changed(add_pairs=unpaired)


class TestConcatenationCertificates:
    """A concatenative flow is validated by two certificates, and by the
    exact checks on its concatenation table when one fails; either way its
    report is that of the explicit flow holding that table."""

    def test_certificates_match_the_exact_checks(self):
        rng = random.Random(90210)
        failing = set()
        for _ in range(200):
            doc = json.loads(dumps_flow(realize(random_complex(rng))))
            for kind, mutant in _mutants(doc, rng):
                flow, _ = loads_flow(json.dumps(mutant))
                report = validate_flow(flow)
                assert report.violations == validate_flow(explicit(flow)).violations, kind
                if not report.ok:
                    failing.add(kind)
        assert failing == {
            "drop", "ends", "drop unextended", "drop pair", "starred", "2-cycle",
            "dangling", "incomposable", "unpaired",
        }

    def test_an_incomposable_join_is_refused(self):
        doc = {
            "skeleton": ["u", "v", "w", "x", "y"],
            "paths": [
                {"id": "a", "src": "u", "tgt": "v"},
                {"id": "b", "src": "v", "tgt": "w"},
                {"id": "c", "src": "x", "tgt": "y"},
                {"id": "a*c", "src": "u", "tgt": "y"},
            ],
            "composition": "concatenation",
        }
        flow, _ = loads_flow(json.dumps(doc))
        assert validate_flow(flow).violations == (
            "composite not a path: a * b = a*b",
        )

    def test_valid_flows_take_no_walk(self, rng, monkeypatch):
        def walked(*args):
            raise AssertionError("the exact checks ran")

        monkeypatch.setattr(flows, "_associativity_violations", walked)
        monkeypatch.setattr(flows, "_congruence_violations", walked)
        for _ in range(200):
            c = random_complex(rng)
            realized = realize(c)
            loaded, _ = loads_flow(dumps_flow(realized))
            realizer = IncrementalRealizer(GlobularComplex(states=c.states))
            for cell in c.edges + c.squares:
                realizer.attach(cell)
            for flow in (realized, loaded, realizer.flow):
                assert validate_flow(flow).ok
            assert "composition" not in vars(loaded)
            assert "composition" not in vars(realizer.flow)

    def test_the_cli_path_builds_no_table(self):
        c = pv_to_complex(parse_pv(oracles.dining_philosophers_source(3)))
        realized = realize(c)
        flow, _ = loads_flow(dumps_flow(realized, init=c.init, finals=c.finals))
        assert validate_flow(flow).ok
        assert deadlocks(flow, c.init, c.finals) == deadlocks(realized, c.init, c.finals)
        final = c.finals[0]
        assert dihomotopy_classes(flow, c.init, final) == dihomotopy_classes(
            realized, c.init, final
        )
        assert "composition" not in vars(flow)
        assert flow.composition == realized.composition

    def test_repr_builds_no_table(self):
        c = pv_to_complex(parse_pv(oracles.dining_philosophers_source(3)))
        flow = realize(c)
        assert repr(flow) == (
            f"FiniteFlow(states={len(c.states)}, paths={len(flow.path_ends)}, "
            f"adjacency={len(flow.adjacency)})"
        )
        assert "composition" not in vars(flow)


class TestGlobFlow:
    def test_singleton(self):
        flow = glob_flow(["a"])
        assert flow.skeleton == {"0", "1"}
        assert flow.paths == {"a"}
        assert not flow.composition

    @pytest.mark.parametrize("size", range(1, 7))
    def test_no_composable_pairs(self, size):
        flow = glob_flow([f"z{i}" for i in range(size)])
        assert len(flow.paths) == size
        assert list(flow.composable_pairs()) == []
        assert validate_flow(flow).ok

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            glob_flow([])


class TestRestrict:
    def test_drop_target_leaves_no_paths(self):
        flow = restrict(glob_flow(["a"]), {"0"})
        assert flow.skeleton == {"0"}
        assert not flow.paths

    def test_full_restriction_is_identity(self):
        flow = glob_flow(["a", "b"])
        assert restrict(flow, flow.skeleton) == flow

    def test_chain_restricted_to_endpoints(self):
        flow = restrict(chain_flow(2), {"s0", "s2"})
        assert set(flow.paths) == {"e0*e1"}
        assert validate_flow(flow).ok

    def test_not_a_subset(self):
        with pytest.raises(ValueError):
            restrict(glob_flow(["a"]), {"0", "zz"})

    def test_nested_restriction_collapses(self, rng):
        for _ in range(15):
            c = random_complex(rng)
            flow = realize(c)
            states = sorted(flow.skeleton)
            outer = set(states[: max(1, len(states) * 2 // 3)])
            inner = set(sorted(outer)[: max(1, len(outer) // 2)])
            assert restrict(restrict(flow, outer), inner) == restrict(flow, inner)
            assert validate_flow(restrict(flow, outer)).ok


class TestGerms:
    def test_glob_two_labels_minus(self):
        assert germs(glob_flow(["a", "b"]), "0", "minus") == (("a",), ("b",))

    def test_chain_minus_at_start(self):
        assert germs(chain_flow(2), "s0", "minus") == (("e0", "e0*e1"),)

    def test_chain_plus_at_middle(self):
        assert germs(chain_flow(2), "s1", "plus") == (("e0",),)

    def test_unknown_state(self):
        with pytest.raises(UnknownIdError):
            germs(glob_flow(["a"]), "zz", "minus")

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            germs(glob_flow(["a"]), "0", "sideways")

    @pytest.mark.parametrize("length", range(1, 7))
    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_chains_match_bruteforce_closure(self, length, sign):
        flow = chain_flow(length)
        for state in flow.skeleton:
            got = {frozenset(block) for block in germs(flow, state, sign)}
            want = oracles.germ_classes(flow.path_ends, flow.composition, state, sign)
            assert got == want

    def test_renaming_invariance(self):
        flow = chain_flow(3)
        rename = {p: f"P{i}" for i, p in enumerate(flow.sorted_paths)}
        renamed = FiniteFlow(
            skeleton=flow.skeleton,
            path_ends={rename[p]: ends for p, ends in flow.path_ends.items()},
            composition={
                (rename[x], rename[y]): rename[z]
                for (x, y), z in flow.composition.items()
            },
            adjacency=[(rename[a], rename[b]) for a, b in flow.adjacency],
        )
        for state in flow.skeleton:
            for sign in ("minus", "plus"):
                original = {
                    frozenset(rename[p] for p in block)
                    for block in germs(flow, state, sign)
                }
                relabeled = {
                    frozenset(block) for block in germs(renamed, state, sign)
                }
                assert original == relabeled


class TestFlowMorphisms:
    def test_identity(self):
        flow = chain_flow(2)
        assert not flow_morphism_violations(identity_flow_morphism(flow), flow, flow)

    def test_endpoint_mismatch_rejected(self):
        flow = chain_flow(2)
        f = FlowMorphism(
            state_map={s: s for s in flow.skeleton},
            path_map={"e0": "e1", "e1": "e1", "e0*e1": "e0*e1"},
        )
        assert flow_morphism_violations(f, flow, flow)

    def test_composition_preservation_required(self):
        dom = chain_flow(2)
        # swap the composite for a fresh parallel path in the codomain
        cod = FiniteFlow(
            skeleton=dom.skeleton,
            path_ends=dict(dom.path_ends) | {"other": ("s0", "s2")},
            composition=dom.composition,
            adjacency=dom.adjacency,
        )
        f = FlowMorphism(
            state_map={s: s for s in dom.skeleton},
            path_map={"e0": "e0", "e1": "e1", "e0*e1": "other"},
        )
        assert flow_morphism_violations(f, dom, cod)

    @pytest.mark.parametrize("state_map, path_map, violations", [
        ({"s2": "zz"}, {}, ["state_map sends s2 outside the codomain: zz",
                            "endpoint mismatch on path e0*e1", "endpoint mismatch on path e1"]),
        ({}, {"e0": "zz"}, ["path_map sends e0 outside the codomain: zz"]),
    ])
    def test_images_outside_the_codomain_are_named(self, state_map, path_map, violations):
        flow = chain_flow(2)
        identity = identity_flow_morphism(flow)
        f = FlowMorphism(state_map={**identity.state_map, **state_map},
                         path_map={**identity.path_map, **path_map})
        assert flow_morphism_violations(f, flow, flow) == violations

    def test_undefined_codomain_composite_is_named(self):
        dom = chain_flow(2)
        # the same paths, with no composition entry
        cod = FiniteFlow(skeleton=dom.skeleton, path_ends=dict(dom.path_ends))
        f = identity_flow_morphism(dom)
        assert flow_morphism_violations(f, dom, cod) == [
            "codomain composite undefined for images of (e0, e1)"
        ]

    def test_compose_flow_morphisms(self):
        flow = glob_flow(["a", "b"])
        swap = FlowMorphism(
            state_map={"0": "0", "1": "1"}, path_map={"a": "b", "b": "a"}
        )
        assert not flow_morphism_violations(swap, flow, flow)
        double = compose_flow_morphisms(swap, swap)
        assert double == identity_flow_morphism(flow)


class TestSHomotopic:
    def test_equal_morphisms(self):
        flow = glob_flow(["a"])
        ident = identity_flow_morphism(flow)
        assert s_homotopic(ident, ident, flow, flow)

    def test_states_must_agree(self):
        flow = adj_glob(["a", "b"], [("a", "b")])
        # swap source and target states; paths reversed endpoints do not exist,
        # so use two maps into a symmetric codomain differing on states
        dom = glob_flow(["z"])
        f = FlowMorphism(state_map={"0": "0", "1": "1"}, path_map={"z": "a"})
        flipped = FiniteFlow(
            skeleton=("0", "1"),
            path_ends={"a": ("0", "1"), "r": ("1", "0")},
        )
        g = FlowMorphism(state_map={"0": "1", "1": "0"}, path_map={"z": "r"})
        assert not flow_morphism_violations(f, dom, flipped)
        assert not flow_morphism_violations(g, dom, flipped)
        assert not s_homotopic(f, g, dom, flipped)

    def test_one_step_adjacency(self):
        dom = glob_flow(["z"])
        cod = adj_glob(["a", "b"], [("a", "b")])
        f = FlowMorphism(state_map={"0": "0", "1": "1"}, path_map={"z": "a"})
        g = FlowMorphism(state_map={"0": "0", "1": "1"}, path_map={"z": "b"})
        assert s_homotopic(f, g, dom, cod)

    def test_without_adjacency_not_homotopic(self):
        dom = glob_flow(["z"])
        cod = adj_glob(["a", "b"], [])
        f = FlowMorphism(state_map={"0": "0", "1": "1"}, path_map={"z": "a"})
        g = FlowMorphism(state_map={"0": "0", "1": "1"}, path_map={"z": "b"})
        assert not s_homotopic(f, g, dom, cod)

    def test_invalid_morphism_rejected(self):
        flow = glob_flow(["a"])
        broken = FlowMorphism(state_map={}, path_map={})
        with pytest.raises(InvalidMorphismError):
            s_homotopic(broken, identity_flow_morphism(flow), flow, flow)

    def test_equivalence_relation_on_small_morphism_set(self):
        dom = adj_glob(["a", "b"], [("a", "b")])
        cod = adj_glob(["c", "d", "e"], [("c", "d")])
        ident = {"0": "0", "1": "1"}
        morphisms = [
            FlowMorphism(state_map=ident, path_map={"a": x, "b": y})
            for x in ("c", "d", "e")
            for y in ("c", "d", "e")
            if cod.adjacent_star(x, y)  # image of the (a, b) adjacency
        ]
        assert len(morphisms) > 2
        for f in morphisms:
            assert s_homotopic(f, f, dom, cod)
            for g in morphisms:
                assert s_homotopic(f, g, dom, cod) == s_homotopic(g, f, dom, cod)
                for h in morphisms:
                    if s_homotopic(f, g, dom, cod) and s_homotopic(g, h, dom, cod):
                        assert s_homotopic(f, h, dom, cod)


class TestDeadlocks:
    def test_glob_has_none(self):
        assert deadlocks(glob_flow(["a"]), "0", {"1"}) == ()

    def test_sink_without_final_mark(self):
        assert deadlocks(glob_flow(["a"]), "0", ()) == ("1",)

    def test_unreachable_sink_ignored(self):
        flow = FiniteFlow(
            skeleton=("u", "v", "w"),
            path_ends={"x": ("u", "v")},
        )
        assert deadlocks(flow, "u", ()) == ("v",)  # w unreachable

    def test_unknown_ids(self):
        with pytest.raises(UnknownIdError):
            deadlocks(glob_flow(["a"]), "zz", ())
        with pytest.raises(UnknownIdError):
            deadlocks(glob_flow(["a"]), "0", {"zz"})

    def test_builds_no_flow_index(self):
        c = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        flow = realize(c)
        assert len(deadlocks(flow, c.init, c.finals)) == 1
        assert "by_src" not in flow.__dict__
        assert "sorted_paths" not in flow.__dict__

    def test_random_complexes_match_graph_oracle(self, rng):
        for _ in range(40):
            c = random_complex(rng)
            flow = realize(c)
            edges = {e.id: (e.src, e.tgt) for e in c.edges}
            init = rng.choice(c.states)
            finals = rng.sample(c.states, rng.randint(0, 2))
            reached = {init} | {
                t for t in c.states if oracles.graph_paths(edges, init, t)
            }
            departing = {s for s, _ in edges.values()}
            want = tuple(sorted(reached - departing - set(finals)))
            assert deadlocks(flow, init, finals) == want


class TestDihomotopyClasses:
    def test_parallel_paths_without_adjacency(self):
        assert dihomotopy_classes(glob_flow(["a", "b"]), "0", "1") == (("a",), ("b",))

    def test_adjacent_paths_merge(self):
        flow = adj_glob(["a", "b"], [("a", "b")])
        assert dihomotopy_classes(flow, "0", "1") == (("a", "b"),)

    def test_unknown_state(self):
        with pytest.raises(UnknownIdError):
            dihomotopy_classes(glob_flow(["a"]), "0", "zz")

    def test_blocks_are_the_adj_star_components(self, rng):
        complexes = [random_complex(rng) for _ in range(30)]
        programs = [parse_pv(random_pv_source(rng)) for _ in range(15)]
        complexes += [pv_to_complex(program) for program in programs]
        for c in complexes:
            flow, reference = realize(c), realize(c)
            for src in c.states:
                for tgt in c.states:
                    by_root = {}
                    for p in reference.paths_between(src, tgt):
                        root = reference.adjacency_components[p]
                        by_root.setdefault(root, []).append(p)
                    want = tuple(sorted(tuple(sorted(b)) for b in by_root.values()))
                    assert dihomotopy_classes(flow, src, tgt) == want
            # only the member paths were grouped
            assert "adjacency_components" not in vars(flow)
        for program, c in zip(programs, complexes[30:]):
            got = {
                frozenset(trace_of(path.split("*")) for path in block)
                for block in dihomotopy_classes(realize(c), c.init, c.finals[0])
            }
            assert got == oracles.pv_trace_classes(*pv_oracle_input(program))
