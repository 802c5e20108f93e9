"""Independent brute-force oracles used to pin expected values in the test suite.

Everything in this file is deliberately written against primitive data
(dicts, tuples, lists) and never imports the library under test.  The
implementations favor the dumbest correct algorithm available:

- path enumeration is a plain recursive DFS over an edge dict,
- realization composes every pair of those paths and applies every
  rewrite at every position of every path,
- rewrite-move classes are a BFS flood fill over explicit path sets,
- germ classes are a pairwise relation enumeration followed by a
  transitive-closure fixpoint (no union-find),
- flow morphisms are every candidate map from `itertools.product`,
  filtered by the axioms, with adj*-components by BFS flood fill,
- PV analyses are a BFS over position tuples with resource counting
  done from scratch at every state.

Expected values asserted by the tests were computed with these oracles
and then frozen.
"""

from collections import deque
from itertools import permutations, product


# ---------------------------------------------------------------------------
# graph paths


def graph_paths(edges, src, tgt):
    """All nonempty edge-id sequences from src to tgt.

    edges: dict edge_id -> (source, target).  Assumes the graph is acyclic;
    recursion depth is bounded by the number of edges.
    """
    out = {}
    for eid, (a, b) in edges.items():
        out.setdefault(a, []).append((eid, b))
    found = set()

    def walk(state, prefix):
        if state == tgt and prefix:
            found.add(tuple(prefix))
        for eid, nxt in out.get(state, ()):
            prefix.append(eid)
            walk(nxt, prefix)
            prefix.pop()

    walk(src, [])
    return found


def graph_all_paths(edges):
    """Every nonempty path in the edge dict, over all endpoint pairs."""
    states = set()
    for a, b in edges.values():
        states.add(a)
        states.add(b)
    found = set()
    for s in states:
        for t in states:
            found |= graph_paths(edges, s, t)
    return found


# ---------------------------------------------------------------------------
# rewrite-move classes (square moves on explicit path sets)


def move_neighbors(path, rewrites):
    """Paths reachable from `path` by one contiguous rewrite.

    rewrites: iterable of (lhs, rhs) tuples; each is applied in both
    directions at every occurrence.
    """
    neighbors = set()
    for lhs, rhs in rewrites:
        for a, b in ((tuple(lhs), tuple(rhs)), (tuple(rhs), tuple(lhs))):
            n = len(a)
            for i in range(len(path) - n + 1):
                if path[i:i + n] == a:
                    cand = path[:i] + b + path[i + n:]
                    if cand != path:
                        neighbors.add(cand)
    return neighbors


def move_classes(paths, rewrites):
    """Partition of `paths` under the move relation, as a set of frozensets.

    BFS flood fill; moves leading outside `paths` are ignored (they cannot
    occur when `paths` is endpoint-complete, but the guard keeps the oracle
    total).
    """
    paths = set(paths)
    seen = set()
    classes = set()
    for start in paths:
        if start in seen:
            continue
        block = set()
        queue = deque([start])
        while queue:
            p = queue.popleft()
            if p in block:
                continue
            block.add(p)
            for q in move_neighbors(p, rewrites):
                if q in paths and q not in block:
                    queue.append(q)
        seen |= block
        classes.add(frozenset(block))
    return classes


# ---------------------------------------------------------------------------
# realization


def realization(states, edges, squares):
    """The realization of a complex, from its definition.

    edges: dict edge_id -> (source, target); squares: iterable of (left,
    right) edge-id sequences.  Returns (skeleton, path_ends, composition,
    adjacency) over path ids joined with "*": every path of
    `graph_all_paths`, x*y for every pair of paths with tgt(x) = src(y),
    and the pairs (a, b), a < b, one `move_neighbors` step apart.
    """
    paths = graph_all_paths(edges)
    ends = {p: (edges[p[0]][0], edges[p[-1]][1]) for p in paths}
    composition = {
        ("*".join(x), "*".join(y)): "*".join(x + y)
        for x in paths
        for y in paths
        if ends[x][1] == ends[y][0]
    }
    adjacency = set()
    for p in paths:
        for q in move_neighbors(p, squares):
            a, b = sorted(("*".join(p), "*".join(q)))
            adjacency.add((a, b))
    path_ends = {"*".join(p): e for p, e in ends.items()}
    return frozenset(states), path_ends, composition, frozenset(adjacency)


# ---------------------------------------------------------------------------
# flow morphisms and the searches over them
#
# A flow is (skeleton, path_ends, composition, adjacency), as `realization`
# returns it; a morphism is a pair (state_map, path_map) of dicts.


def adj_star_components(path_ends, adjacency):
    """path -> the first path of its adj*-component met, by BFS flood fill."""
    neighbours = {p: [] for p in path_ends}
    for a, b in adjacency:
        neighbours[a].append(b)
        neighbours[b].append(a)
    component = {}
    for start in sorted(neighbours):
        queue = deque([start])
        while queue:
            p = queue.popleft()
            if p not in component:
                component[p] = start
                queue.extend(neighbours[p])
    return component


def flow_path_maps(dom, cod, state_map):
    """Every path map dom -> cod over `state_map` that keeps endpoints,
    sends each composite to the composite of the images and each adjacency
    pair into one adj*-component: every choice of an endpoint-matching
    image per path, paths in sorted order and images in sorted order,
    filtered after the fact."""
    _, dom_ends, dom_composition, dom_adjacency = dom
    _, cod_ends, cod_composition, cod_adjacency = cod
    component = adj_star_components(cod_ends, cod_adjacency)
    paths = sorted(dom_ends)
    candidates = []
    for p in paths:
        s, t = dom_ends[p]
        ends = (state_map[s], state_map[t])
        candidates.append(sorted(q for q, e in cod_ends.items() if e == ends))
    out = []
    for choice in product(*candidates):
        f = dict(zip(paths, choice))
        if all(
            cod_composition.get((f[x], f[y])) == f[z]
            for (x, y), z in dom_composition.items()
        ) and all(component[f[a]] == component[f[b]] for a, b in dom_adjacency):
            out.append(f)
    return out


def flow_morphisms(dom, cod):
    """Every flow morphism dom -> cod: state maps by `product` over the
    sorted codomain states (domain states sorted), then `flow_path_maps`."""
    states = sorted(dom[0])
    for choice in product(sorted(cod[0]), repeat=len(states)):
        state_map = dict(zip(states, choice))
        for path_map in flow_path_maps(dom, cod, state_map):
            yield state_map, path_map


def first_flow_isomorphism(x, y):
    """The first morphism of `flow_morphisms(x, y)` that is bijective on
    states and on paths and whose inverse is a morphism y -> x, or None."""
    components = adj_star_components(x[1], x[3])
    for state_map, path_map in flow_morphisms(x, y):
        if sorted(state_map.values()) != sorted(y[0]):
            continue
        if sorted(path_map.values()) != sorted(y[1]):
            continue
        inverse = {q: p for p, q in path_map.items()}
        if all(
            x[2].get((inverse[u], inverse[v])) == inverse[w]
            for (u, v), w in y[2].items()
        ) and all(components[inverse[u]] == components[inverse[v]] for u, v in y[3]):
            return state_map, path_map
    return None


def first_s_equivalence(x, y):
    """The first pair of morphisms f: x -> y and g: y -> x, each as
    (state_map, path_map), with g(f(p)) adj* p for every path of x and
    f(g(q)) adj* q for every path of y, or None.  State maps are the
    bijections of sorted states to `permutations` of the other's sorted
    states; for each, f runs over `flow_path_maps` and, for each f, so
    does g."""
    if len(x[0]) != len(y[0]):
        return None
    x_components = adj_star_components(x[1], x[3])
    y_components = adj_star_components(y[1], y[3])
    xs = sorted(x[0])
    for ys in permutations(sorted(y[0])):
        sigma = dict(zip(xs, ys))
        tau = dict(zip(ys, xs))
        for f in flow_path_maps(x, y, sigma):
            for g in flow_path_maps(y, x, tau):
                if all(x_components[g[f[p]]] == x_components[p] for p in x[1]) and all(
                    y_components[f[g[q]]] == y_components[q] for q in y[1]
                ):
                    return (sigma, f), (tau, g)
    return None


# ---------------------------------------------------------------------------
# germ classes


def germ_classes(path_ends, compose, state, sign):
    """Classes of paths starting (minus) or ending (plus) at `state`.

    path_ends: dict path_id -> (src, tgt); compose: dict (x, y) -> xy.
    Enumerates the generating pairs of the identification, then closes
    transitively by fixpoint passes over an explicit relation set.
    """
    if sign == "minus":
        members = {p for p, (a, _) in path_ends.items() if a == state}
        pairs = {(x, z) for (x, _y), z in compose.items() if path_ends[x][0] == state}
    elif sign == "plus":
        members = {p for p, (_, b) in path_ends.items() if b == state}
        pairs = {(y, z) for (_x, y), z in compose.items() if path_ends[y][1] == state}
    else:
        raise ValueError(sign)

    # reflexive-symmetric-transitive closure, dumbest possible way
    related = {p: {p} for p in members}
    for a, b in pairs:
        related[a].add(b)
        related[b].add(a)
    changed = True
    while changed:
        changed = False
        for p in members:
            merged = set(related[p])
            for q in related[p]:
                merged |= related[q]
            if merged != related[p]:
                related[p] = merged
                changed = True
    return {frozenset(related[p]) for p in members}


# ---------------------------------------------------------------------------
# flow axioms


def flow_violations(skeleton, path_ends, composition, adjacency):
    """Every violated flow axiom, worded and ordered as `validate_flow` reports.

    skeleton: set of states; path_ends: dict path_id -> (src, tgt);
    composition: dict (x, y) -> xy; adjacency: set of pairs (a, b) with
    a < b.  Walks every composable pair and triple with no shortcut, and
    compares adj*-components found by BFS flood fill; an id outside the
    adjacency graph is its own component.
    """
    out = []
    paths = set(path_ends)

    starts, ends = {}, {}  # state -> sorted paths leaving / entering it
    for p in sorted(paths):
        starts.setdefault(path_ends[p][0], []).append(p)
        ends.setdefault(path_ends[p][1], []).append(p)

    def starting(state):
        return starts.get(state, [])

    def ending(state):
        return ends.get(state, [])

    for p in sorted(paths):
        s, t = path_ends[p]
        if s not in skeleton:
            out.append(f"dangling path endpoint: source {s} of path {p}")
        if t not in skeleton:
            out.append(f"dangling path endpoint: target {t} of path {p}")

    for (x, y), z in sorted(composition.items()):
        if x not in paths or y not in paths:
            out.append(f"unknown path in composition entry: ({x}, {y})")
        elif path_ends[x][1] != path_ends[y][0]:
            out.append(f"spurious composition: ({x}, {y}) is not composable")
        elif z not in paths:
            out.append(f"composite not a path: {x} * {y} = {z}")
        else:
            if path_ends[z][0] != path_ends[x][0]:
                out.append(f"source axiom: s({x} * {y}) != s({x})")
            if path_ends[z][1] != path_ends[y][1]:
                out.append(f"target axiom: t({x} * {y}) != t({y})")

    pairs = [(x, y) for s in sorted(skeleton) for x in ending(s) for y in starting(s)]
    for x, y in pairs:
        if (x, y) not in composition:
            out.append(f"composition not total: ({x}, {y}) undefined")
    for x, y in pairs:
        xy = composition.get((x, y))
        if xy is None:
            continue
        for z in starting(path_ends[y][1]):
            yz = composition.get((y, z))
            left = composition.get((xy, z)) if xy in paths else None
            right = composition.get((x, yz)) if yz in paths else None
            if left is not None and right is not None and left != right:
                out.append(
                    f"associativity: ({x} * {y}) * {z} = {left} but {x} * ({y} * {z}) = {right}"
                )

    for a, b in sorted(adjacency):
        if a not in paths or b not in paths:
            out.append(f"unknown path in adjacency: ({a}, {b})")
        elif path_ends[a] != path_ends[b]:
            out.append(f"adjacency endpoints: {a} and {b} do not share endpoints")

    neighbours = {p: set() for p in paths}
    for a, b in adjacency:
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    component = {}
    for start in neighbours:
        if start in component:
            continue
        queue = deque([start])
        while queue:
            p = queue.popleft()
            if p not in component:
                component[p] = start
                queue.extend(neighbours[p])

    def same(p, q):
        if p not in component or q not in component:
            return p == q
        return component[p] == component[q]

    for a, b in sorted(adjacency):
        if a not in paths or b not in paths or path_ends[a] != path_ends[b]:
            continue
        s, t = path_ends[a]
        for y in starting(t):
            ay, by = composition.get((a, y)), composition.get((b, y))
            if ay is not None and by is not None and not same(ay, by):
                out.append(
                    f"adjacency congruence: {a} ~ {b} but {a} * {y} and {b} * {y} "
                    "are in distinct components"
                )
        for z in ending(s):
            za, zb = composition.get((z, a)), composition.get((z, b))
            if za is not None and zb is not None and not same(za, zb):
                out.append(
                    f"adjacency congruence: {a} ~ {b} but {z} * {a} and {z} * {b} "
                    "are in distinct components"
                )
    return out


# ---------------------------------------------------------------------------
# PV program semantics (positions + resource counting, no geometry)


def pv_holds(process, pos):
    """Resource multiset held by one process after its first `pos` steps."""
    held = {}
    for op, arg in process[:pos]:
        if op == "P":
            held[arg] = held.get(arg, 0) + 1
        elif op == "V":
            held[arg] = held.get(arg, 0) - 1
    return held


def pv_permitted(processes, capacities, positions):
    usage = {}
    for proc, pos in zip(processes, positions):
        for res, n in pv_holds(proc, pos).items():
            usage[res] = usage.get(res, 0) + n
    return all(n <= capacities[res] for res, n in usage.items())


def pv_successors(processes, capacities, positions):
    """Pairs (process index, next position tuple) of permitted single steps."""
    succ = []
    for i, proc in enumerate(processes):
        if positions[i] < len(proc):
            nxt = positions[:i] + (positions[i] + 1,) + positions[i + 1:]
            if pv_permitted(processes, capacities, nxt):
                succ.append((i, nxt))
    return succ


def pv_reachable(processes, capacities):
    """BFS over permitted position tuples from the all-zero start."""
    start = tuple(0 for _ in processes)
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for _, nxt in pv_successors(processes, capacities, state):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def pv_deadlock_states(processes, capacities):
    """Reachable, non-final position tuples with no permitted step."""
    final = tuple(len(p) for p in processes)
    return {
        state
        for state in pv_reachable(processes, capacities)
        if state != final and not pv_successors(processes, capacities, state)
    }


def pv_traces(processes, capacities):
    """Complete runs start -> final, as tuples of process indices."""
    final = tuple(len(p) for p in processes)
    start = tuple(0 for _ in processes)
    traces = set()

    def walk(state, sched):
        if state == final:
            traces.add(tuple(sched))
            return
        for i, nxt in pv_successors(processes, capacities, state):
            sched.append(i)
            walk(nxt, sched)
            sched.pop()

    walk(start, [])
    return traces


def pv_trace_classes(processes, capacities):
    """Partition of complete runs under adjacent-step commutation.

    Two runs are adjacent when they differ by swapping two consecutive
    steps of distinct processes and the alternative intermediate state is
    permitted (the four states around the swap then form a commuting
    square).  Returns a set of frozensets of traces.
    """
    traces = pv_traces(processes, capacities)

    def states_along(trace):
        state = tuple(0 for _ in processes)
        yield state
        for i in trace:
            state = state[:i] + (state[i] + 1,) + state[i + 1:]
            yield state

    def neighbors(trace):
        states = list(states_along(trace))
        for k in range(len(trace) - 1):
            p, q = trace[k], trace[k + 1]
            if p == q:
                continue
            mid = states[k][:q] + (states[k][q] + 1,) + states[k][q + 1:]
            if pv_permitted(processes, capacities, mid):
                yield trace[:k] + (q, p) + trace[k + 2:]

    seen = set()
    classes = set()
    for start in traces:
        if start in seen:
            continue
        block = set()
        queue = deque([start])
        while queue:
            t = queue.popleft()
            if t in block:
                continue
            block.add(t)
            for u in neighbors(t):
                if u not in block:
                    queue.append(u)
        seen |= block
        classes.add(frozenset(block))
    return classes


# ---------------------------------------------------------------------------
# canned programs (shared by tests)

MUTEX = (
    [[("P", "a"), ("V", "a")], [("P", "a"), ("V", "a")]],
    {"a": 1},
)

SWISS_FLAG = (
    [
        [("P", "a"), ("P", "b"), ("V", "b"), ("V", "a")],
        [("P", "b"), ("P", "a"), ("V", "a"), ("V", "b")],
    ],
    {"a": 1, "b": 1},
)


def dining_philosophers(n=3):
    processes = []
    for i in range(n):
        left, right = f"f{i}", f"f{(i + 1) % n}"
        processes.append([("P", left), ("P", right), ("V", right), ("V", left)])
    return processes, {f"f{i}": 1 for i in range(n)}


MUTEX_SOURCE = "res a 1; proc: P(a).V(a) proc: P(a).V(a)"

SWISS_FLAG_SOURCE = (
    "res a 1; res b 1; "
    "proc: P(a).P(b).V(b).V(a) proc: P(b).P(a).V(a).V(b)"
)


def dining_philosophers_source(n=3):
    decls = " ".join(f"res f{i} 1;" for i in range(n))
    procs = " ".join(
        f"proc: P(f{i}).P(f{(i + 1) % n}).V(f{(i + 1) % n}).V(f{i})"
        for i in range(n)
    )
    return f"{decls} {procs}"


if __name__ == "__main__":
    # print the frozen corpus facts
    for name, (procs, caps) in [
        ("mutex", MUTEX),
        ("swiss flag", SWISS_FLAG),
        ("philosophers-3", dining_philosophers(3)),
    ]:
        reach = pv_reachable(procs, caps)
        dead = pv_deadlock_states(procs, caps)
        classes = pv_trace_classes(procs, caps)
        print(
            f"{name}: reachable={len(reach)} deadlocks={sorted(dead)} "
            f"traces={len(pv_traces(procs, caps))} classes={len(classes)}"
        )
