from itertools import combinations, product

import pytest

import oracles
from conftest import explicit, pv_oracle_input, random_pv_source, run, trace_of
from globflow import (
    Edge,
    GlobularComplex,
    PvError,
    PvSyntaxError,
    Square,
    deadlocks,
    dihomotopy_classes,
    dumps_complex,
    dumps_flow,
    loads_flow,
    parse_pv,
    path_classes,
    pv_to_complex,
    realize,
    state_name,
    validate_complex,
    validate_flow,
)


def oracle_grid(processes, capacities):
    """The compiled complex, built from the oracles' permitted tuples and
    successors: states in `product` order, each state's edges by process
    index, each state's squares by process pair (k, l) with k < l."""

    def name(t):
        return ",".join(f"p{k}:{i}" for k, i in enumerate(t))

    grid = product(*[range(len(p) + 1) for p in processes])
    states = [t for t in grid if oracles.pv_permitted(processes, capacities, t)]
    succ = {t: dict(oracles.pv_successors(processes, capacities, t)) for t in states}
    edges, squares = [], []
    for t in states:
        for k, nxt in succ[t].items():
            op, arg = processes[k][t[k]]
            edges.append(Edge(f"{name(t)}>p{k}", name(t), name(nxt), f"{op}({arg})"))
        for k, l in combinations(succ[t], 2):
            t_k, t_l = succ[t][k], succ[t][l]
            if l in succ[t_k] and k in succ[t_l]:
                squares.append(
                    Square(
                        f"{name(t)}#p{k}p{l}",
                        (f"{name(t)}>p{k}", f"{name(t_k)}>p{l}"),
                        (f"{name(t)}>p{l}", f"{name(t_l)}>p{k}"),
                    )
                )
    final = tuple(len(p) for p in processes)
    return GlobularComplex(
        states=tuple(name(t) for t in states),
        edges=tuple(edges),
        squares=tuple(squares),
        finals=(name(final),) if final in succ else (),
        init=name(tuple(0 for _ in processes)),
    )


class TestParse:
    def test_mutex(self):
        program = parse_pv(oracles.MUTEX_SOURCE)
        assert program.resources == (("a", 1),)
        assert len(program.processes) == 2
        assert [str(s) for s in program.processes[0]] == ["P(a)", "V(a)"]

    def test_swiss_flag_round_trip(self):
        program = parse_pv(oracles.SWISS_FLAG_SOURCE)
        assert len(program.processes) == 2
        assert all(len(p) == 4 for p in program.processes)
        rebuilt = "res a 1; res b 1; " + " ".join(
            "proc: " + ".".join(str(s) for s in p) for p in program.processes
        )
        assert parse_pv(rebuilt) == program

    def test_action_steps(self):
        program = parse_pv("proc: A(x).A(y)")
        assert [s.op for s in program.processes[0]] == ["A", "A"]

    def test_unknown_resource(self):
        with pytest.raises(PvError, match="unknown resource"):
            parse_pv("proc: V(a)")

    def test_release_without_hold(self):
        with pytest.raises(PvError, match="releases a without holding it"):
            parse_pv("res a 1; proc: V(a).P(a)")

    def test_syntax_error_has_position(self):
        with pytest.raises(PvSyntaxError) as info:
            parse_pv("res a 1;\nproc: P(a).!")
        assert info.value.line == 2
        assert info.value.column == 12

    def test_missing_paren(self):
        with pytest.raises(PvSyntaxError):
            parse_pv("res a 1; proc: P a")

    @pytest.mark.parametrize("source, message", [
        ("res a", "1:6: unexpected end of input, expected a capacity"),
        ("res 1 1;", "1:5: expected a resource name, found '1'"),
        ("res a x;", "1:7: expected a capacity, found 'x'"),
        ("res a 1; proc: P(1)", "1:18: expected a name, found '1'"),
    ])
    def test_malformed_declaration_or_step(self, source, message):
        with pytest.raises(PvSyntaxError) as info:
            parse_pv(source)
        assert str(info.value) == message
        assert run("realize", "-", "--pv", stdin=source) == (1, "", f"error: {message}\n")

    def test_capacity_must_be_positive(self):
        with pytest.raises(PvError, match="capacity"):
            parse_pv("res a 0; proc: P(a).V(a)")

    def test_duplicate_resource(self):
        with pytest.raises(PvError, match="declared twice"):
            parse_pv("res a 1; res a 2; proc: P(a).V(a)")

    def test_program_needs_processes(self):
        with pytest.raises(PvSyntaxError, match="no processes"):
            parse_pv("res a 1;")

    def test_holds_tracking(self):
        program = parse_pv("res a 2; proc: P(a).P(a).V(a).V(a)")
        assert program.holds(0, 0) == {}
        assert program.holds(0, 2) == {"a": 2}
        assert program.holds(0, 4) == {}

    @pytest.mark.parametrize("process_index, position", [(0, -1), (0, 4), (-1, 0), (1, 0)])
    def test_holds_refuses_out_of_range_indices(self, process_index, position):
        program = parse_pv("res a 1; proc: P(a).V(a).A(x)")
        assert program.holds(0, 3) == {}
        with pytest.raises(ValueError):
            program.holds(process_index, position)


class TestCompile:
    def test_single_process_actions_make_a_chain(self):
        c = pv_to_complex(parse_pv("proc: A(x).A(y)"))
        assert len(c.states) == 3
        assert len(c.edges) == 2
        assert not c.squares
        assert validate_complex(c).ok
        assert deadlocks(realize(c), c.init, c.finals) == ()

    def test_edges_carry_step_labels(self):
        c = pv_to_complex(parse_pv("proc: A(x).A(y)"))
        assert [e.label for e in c.edges] == ["A(x)", "A(y)"]

    def test_mutex_grid(self):
        procs, caps = oracles.MUTEX
        c = pv_to_complex(parse_pv(oracles.MUTEX_SOURCE))
        report = validate_complex(c)
        assert report.ok and not report.warnings
        permitted = {
            t
            for t in [(i, j) for i in range(3) for j in range(3)]
            if oracles.pv_permitted(procs, caps, t)
        }
        assert set(c.states) == {state_name(t) for t in permitted}
        assert c.init == state_name((0, 0))
        assert c.finals == (state_name((2, 2)),)

    def test_mutex_classes_match_interleaving_oracle(self):
        procs, caps = oracles.MUTEX
        c = pv_to_complex(parse_pv(oracles.MUTEX_SOURCE))
        got = {
            frozenset(trace_of(p) for p in block)
            for block in path_classes(c, c.init, c.finals[0])
        }
        assert got == oracles.pv_trace_classes(procs, caps)
        assert len(got) == 2

    def test_swiss_flag_deadlock_matches_oracle(self):
        procs, caps = oracles.SWISS_FLAG
        c = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        flow = realize(c)
        want = {state_name(t) for t in oracles.pv_deadlock_states(procs, caps)}
        assert set(deadlocks(flow, c.init, c.finals)) == want
        assert len(want) == 1

    def test_forbidden_states_absent(self):
        c = pv_to_complex(parse_pv(oracles.MUTEX_SOURCE))
        assert state_name((1, 1)) not in c.states  # both inside the mutex

    def test_compiled_complexes_validate(self):
        sources = [
            oracles.MUTEX_SOURCE,
            oracles.SWISS_FLAG_SOURCE,
            oracles.dining_philosophers_source(3),
            "res a 2; proc: P(a).V(a) proc: P(a).V(a) proc: A(z)",
        ]
        for source in sources:
            c = pv_to_complex(parse_pv(source))
            assert validate_complex(c).ok

    def test_independent_processes_have_one_class(self):
        c = pv_to_complex(parse_pv("proc: A(x).A(y) proc: A(z) proc: A(w)"))
        blocks = path_classes(c, c.init, c.finals[0])
        assert len(blocks) == 1

    def test_three_process_commutation_matches_oracle(self):
        # pairwise squares must generate all trace commutations; probe a
        # 3-process program with real contention against the oracle
        source = "res a 1; proc: P(a).V(a) proc: P(a).V(a) proc: P(a).V(a)"
        procs = [[("P", "a"), ("V", "a")]] * 3
        caps = {"a": 1}
        c = pv_to_complex(parse_pv(source))
        got = {
            frozenset(trace_of(p) for p in block)
            for block in path_classes(c, c.init, c.finals[0])
        }
        assert got == oracles.pv_trace_classes(procs, caps)

    def test_philosophers_classes_match_oracle(self):
        procs, caps = oracles.dining_philosophers(3)
        c = pv_to_complex(parse_pv(oracles.dining_philosophers_source(3)))
        flow = realize(c)
        got = {
            frozenset(trace_of(tuple(p.split("*"))) for p in block)
            for block in dihomotopy_classes(flow, c.init, c.finals[0])
        }
        assert got == oracles.pv_trace_classes(procs, caps)
        assert len(got) == 6

    def test_process_permutation_gives_isomorphic_complex(self):
        base = "res a 1; proc: P(a).V(a) proc: A(x).A(y).A(z)"
        swapped = "res a 1; proc: A(x).A(y).A(z) proc: P(a).V(a)"
        c1 = pv_to_complex(parse_pv(base))
        c2 = pv_to_complex(parse_pv(swapped))

        def transpose(name):
            parts = dict(p.split(":") for p in name.split(","))
            return state_name((int(parts["p1"]), int(parts["p0"])))

        assert {transpose(s) for s in c2.states} == set(c1.states)
        edges1 = {(e.src, e.tgt): e for e in c1.edges}
        edge_rename = {}
        for e in c2.edges:
            match = edges1[(transpose(e.src), transpose(e.tgt))]
            assert match.label == e.label
            edge_rename[e.id] = match.id
        squares1 = {
            frozenset((q.left, q.right)) for q in c1.squares
        }
        squares2 = {
            frozenset(
                (
                    tuple(edge_rename[e] for e in q.left),
                    tuple(edge_rename[e] for e in q.right),
                )
            )
            for q in c2.squares
        }
        assert squares1 == squares2
        assert transpose(c2.init) == c1.init
        assert {transpose(s) for s in c2.finals} == set(c1.finals)

    def test_grid_matches_the_oracles(self, rng):
        # pins every state, edge and square with its id, label and order
        corpus = [
            (oracles.MUTEX_SOURCE, oracles.MUTEX),
            (oracles.SWISS_FLAG_SOURCE, oracles.SWISS_FLAG),
        ] + [
            (oracles.dining_philosophers_source(n), oracles.dining_philosophers(n))
            for n in (2, 3, 4)
        ]
        programs = [(parse_pv(source), semantics) for source, semantics in corpus]
        for _ in range(200):
            program = parse_pv(random_pv_source(rng))
            programs.append((program, pv_oracle_input(program)))
        for program, (processes, capacities) in programs:
            want = oracle_grid(processes, capacities)
            assert dumps_complex(pv_to_complex(program)) == dumps_complex(want)

    def test_realized_grid_flows_validate(self):
        flow = realize(pv_to_complex(parse_pv(oracles.MUTEX_SOURCE)))
        for copy in (loads_flow(dumps_flow(flow))[0], explicit(flow)):
            assert validate_flow(copy).ok

    def test_self_blocking_program_compiles(self):
        # a process that overfills a capacity loses the states in between;
        # the final state survives but is unreachable, so the process
        # deadlocks right after its first acquire
        c = pv_to_complex(parse_pv("res a 1; proc: P(a).P(a).V(a).V(a)"))
        assert validate_complex(c).ok
        assert state_name((2,)) not in c.states
        assert c.finals == (state_name((4,)),)
        assert deadlocks(realize(c), c.init, c.finals) == (state_name((1,)),)
