"""Seeded input generation and the DP size guard.

Everything here is a pure function of the `random.Random` it is given, so
the same seeds always yield byte-identical inputs.
"""

from __future__ import annotations

import random

from globflow import Edge, GlobularComplex, Square


# ---------------------------------------------------------------------------
# PV programs


def _block(rng: random.Random, resources, depth: int, budget: list[int]):
    """A well-nested step sequence: A(x) steps and P(r) ... V(r) brackets."""
    steps = []
    while budget[0] > 0 and (not steps or rng.random() < 0.6):
        budget[0] -= 1
        if depth < 2 and budget[0] > 0 and rng.random() < 0.6:
            budget[0] -= 1
            r = rng.choice(resources)
            steps += [("P", r)] + _block(rng, resources, depth + 1, budget) + [("V", r)]
        else:
            steps.append(("A", f"x{rng.randrange(3)}"))
    return steps


def random_pv(rng: random.Random):
    """(processes, capacities): 2-3 processes over 1-3 resources of capacity 1-2."""
    names = [f"r{i}" for i in range(rng.randint(1, 3))]
    capacities = {r: rng.randint(1, 2) for r in names}
    processes = [
        _block(rng, names, 0, [rng.randint(2, 7)]) for _ in range(rng.randint(2, 3))
    ]
    return processes, capacities


def relabel_pv(program, rng: random.Random):
    """A copy of a program with its resources and actions renamed.

    Processes and declarations keep their order: the compiled complex
    lists states, edges and squares in that order, and the cost of some
    analyses (incremental realization above all) depends on it."""
    processes, capacities = program
    actions = sorted({arg for steps in processes for op, arg in steps if op == "A"})
    res_name = dict(zip(capacities, rng.sample([f"r{i}" for i in range(len(capacities))], len(capacities))))
    act_name = dict(zip(actions, rng.sample([f"x{i}" for i in range(len(actions))], len(actions))))
    renamed = [
        [(op, act_name[arg] if op == "A" else res_name[arg]) for op, arg in steps]
        for steps in processes
    ]
    return renamed, {res_name[r]: n for r, n in capacities.items()}


def pv_source(processes, capacities) -> str:
    decls = " ".join(f"res {r} {n};" for r, n in capacities.items())
    procs = " ".join(
        "proc: " + ".".join(f"{op}({arg})" for op, arg in steps) for steps in processes
    )
    return f"{decls} {procs}\n"


def position_name(positions) -> str:
    """The compiled state id of a position tuple (the PV compiler's naming)."""
    return ",".join(f"p{k}:{i}" for k, i in enumerate(positions))


# ---------------------------------------------------------------------------
# DP size guard


def predict_sizes(c) -> dict[str, int]:
    """Exact path, composite and init->final path counts, by one DP pass.

    paths out of s = sum over out-edges e of 1 + paths out of tgt(e);
    composites = sum over s of (paths into s) * (paths out of s).
    O(V + E) with Python ints, so it is safe on complexes far too large
    to realize.
    """
    succ = {s: [] for s in c.states}
    pred = {s: [] for s in c.states}
    for e in c.edges:
        succ[e.src].append(e.tgt)
        pred[e.tgt].append(e.src)
    indegree = {s: len(pred[s]) for s in c.states}
    order = [s for s in c.states if indegree[s] == 0]
    for s in order:  # grows while iterating: Kahn's algorithm
        for t in succ[s]:
            indegree[t] -= 1
            if indegree[t] == 0:
                order.append(t)
    out_paths, in_paths, to_final = {}, {}, {}
    final = c.finals[0] if len(c.finals) == 1 else None
    for s in reversed(order):
        out_paths[s] = sum(1 + out_paths[t] for t in succ[s])
        to_final[s] = (s == final) + sum(to_final[t] for t in succ[s])
    for s in order:
        in_paths[s] = sum(1 + in_paths[p] for p in pred[s])
    return {
        "paths": sum(out_paths.values()),
        "composites": sum(in_paths[s] * out_paths[s] for s in c.states),
        "init_final": to_final[c.init] if c.init is not None and final else 0,
    }


# ---------------------------------------------------------------------------
# small random complexes for the equivalence searches


def _paths_between(edges, src, tgt):
    """All edge-id paths src -> tgt in a DAG given as (id, src, tgt) triples."""
    out = {}
    for eid, a, b in edges:
        out.setdefault(a, []).append((eid, b))
    found, stack = [], [(src, ())]
    while stack:
        state, prefix = stack.pop()
        if state == tgt and prefix:
            found.append(prefix)
        stack.extend((b, prefix + (eid,)) for eid, b in out.get(state, ()))
    return sorted(found)


def random_complex(rng: random.Random):
    """5-6 states in index order (so acyclic), 0-4 squares on parallel paths."""
    n = rng.randint(5, 6)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(slots)
    m = rng.randint(n - 1, min(10, len(slots)))
    edges = [(f"e{k}", f"s{i}", f"s{j}") for k, (i, j) in enumerate(sorted(slots[:m]))]
    parallel = []
    for a in range(n):
        for b in range(a + 1, n):
            paths = _paths_between(edges, f"s{a}", f"s{b}")
            parallel += [(p, q) for i, p in enumerate(paths) for q in paths[i + 1:]]
    rng.shuffle(parallel)
    return GlobularComplex(
        states=tuple(f"s{i}" for i in range(n)),
        edges=tuple(Edge(*e) for e in edges),
        squares=tuple(
            Square(f"q{k}", p, q) for k, (p, q) in enumerate(parallel[: rng.randint(0, 4)])
        ),
    )


def rename_complex(c, rng: random.Random):
    """An isomorphic copy: states and edges renamed, declarations reordered."""
    order = list(range(len(c.states)))
    rng.shuffle(order)
    state = {s: f"u{k}" for s, k in zip(c.states, order)}
    ids = list(range(len(c.edges)))
    rng.shuffle(ids)
    edge = {e.id: f"d{k}" for e, k in zip(c.edges, ids)}
    edges = [Edge(edge[e.id], state[e.src], state[e.tgt]) for e in c.edges]
    rng.shuffle(edges)
    return GlobularComplex(
        states=tuple(sorted(state.values())),
        edges=tuple(edges),
        squares=tuple(
            Square(q.id, tuple(edge[e] for e in q.left), tuple(edge[e] for e in q.right))
            for q in c.squares
        ),
    )


def with_parallel_edge(c, rng: random.Random):
    """`c` plus a copy of one of its edges that no square mentions."""
    twin = rng.choice(c.edges)
    return GlobularComplex(
        states=c.states,
        edges=c.edges + (Edge("extra", twin.src, twin.tgt),),
        squares=c.squares,
    )
