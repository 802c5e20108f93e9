"""Finite combinatorial globular complexes of dimension at most two.

A complex is presented by a finite set of named states (the 0-skeleton),
directed edges between states (attached directed intervals), and squares:
2-cells whose boundary is a pair of parallel edge paths sharing both
endpoints.  The directed graph of states and edges must be acyclic, which
keeps every path set finite.

Execution paths are nonempty composable edge-id sequences, represented as
plain tuples of edge ids.  A square induces a *move* on paths: replacing
one contiguous occurrence of its left boundary by its right boundary (or
vice versa), leaving the rest of the path fixed.  Connected components
under moves are the homotopy classes of paths at this truncation.

The classes are found without applying a single move: one pass over a
topological order from the base state gives, at each state s, the classes
of paths into s as the quotient of the pairs (edge e into s, class at the
source of e) by the squares that end at s.  Moves further back in a path
are already accounted for at the earlier states, because extending by an
edge is well defined on classes.  The last such table is kept on the
complex, keyed by its two endpoints, so `same_move_class` on the members
that `path_classes` has just listed propagates no second time.

Paths are listed by one depth-first loop (`_members`), over the edges
into states that can reach the target.  Every path listing refuses a
complex that does not validate, with InvalidComplexError carrying its
validation report, so the loop keeps no cycle bookkeeping: validation has
proved the 1-skeleton acyclic.  It needs no sort either: out-edges are
taken in edge-id order and no member is a prefix of another, so the order
is lexicographic by construction.

The deadlocks of the realization are read off the edges the same way,
without listing a path (`complex_deadlocks`).

Morphisms map states to states and edges to nonempty paths, preserving
endpoints and sending the two boundaries of every square into the same
move class of the codomain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, Optional

from .errors import InvalidComplexError, UnknownIdError

StateId = str
ExecPath = tuple[str, ...]

# realized path ids join edge ids with this; validation rejects it in edge ids
PATH_SEPARATOR = "*"


@dataclass(frozen=True)
class Edge:
    """A directed interval attached between two states."""

    id: str
    src: StateId
    tgt: StateId
    label: Optional[str] = None


@dataclass(frozen=True)
class Square:
    """A 2-cell: two parallel edge paths with common source and target."""

    id: str
    left: ExecPath
    right: ExecPath


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok and not self.warnings:
            return "ok"
        lines = [f"violation: {v}" for v in self.violations]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


@dataclass(frozen=True)
class GlobularComplex:
    """Finite presentation of a globular complex (dimension <= 2).

    `finals` and `init` are analysis annotations used by deadlock checks;
    they carry no geometric meaning.  Declaration order is preserved so
    documents round-trip; all operations iterate in sorted order.
    """

    states: tuple[StateId, ...]
    edges: tuple[Edge, ...] = ()
    squares: tuple[Square, ...] = ()
    finals: tuple[StateId, ...] = ()
    init: Optional[StateId] = None

    @cached_property
    def state_set(self) -> frozenset[str]:
        return frozenset(self.states)

    @cached_property
    def edge_map(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        by_src: dict[str, list[Edge]] = {s: [] for s in self.states}
        for e in sorted(self.edges, key=attrgetter("id")):
            if e.src in by_src:
                by_src[e.src].append(e)
        return {s: tuple(es) for s, es in by_src.items()}

    @cached_property
    def topological_order(self) -> tuple[StateId, ...]:
        """Every state, each before the targets of its out-edges: the states
        no edge touches, in declaration order, then the depth-first finishing
        order of the acyclicity check (`_find_cycle`) reversed.  Raises
        InvalidComplexError if the complex does not validate."""
        require_valid(self)
        _, finished = self._cycle_walk
        del self.__dict__["_cycle_walk"]  # validation has read it already
        return tuple(s for s in self.states if s not in finished) + tuple(
            reversed(finished)
        )

    @cached_property
    def squares_into(self) -> dict[str, tuple[tuple[ExecPath, ExecPath], ...]]:
        """Non-degenerate squares as (left, right), keyed by the state both
        sides end at.  Raises InvalidComplexError if the complex does not
        validate."""
        require_valid(self)
        index: dict[str, list[tuple[ExecPath, ExecPath]]] = {}
        for q in self.squares:
            left, right = tuple(q.left), tuple(q.right)
            if left != right:
                index.setdefault(self.path_target(left), []).append((left, right))
        return {s: tuple(squares) for s, squares in index.items()}

    @cached_property
    def _cycle_walk(self) -> tuple[Optional[list[str]], dict[str, None]]:
        """`_find_cycle` on this complex, walked once: validation reads its
        cycle, then `topological_order` its finishing order, and lets it go."""
        return _find_cycle(self)

    @cached_property
    def validation(self) -> ValidationReport:
        """The `validate_complex` report, worked out once per complex."""
        return _validation_report(self)

    def path_source(self, path: ExecPath) -> StateId:
        return self.edge_map[path[0]].src

    def path_target(self, path: ExecPath) -> StateId:
        return self.edge_map[path[-1]].tgt

    def is_exec_path(self, path: Iterable[str]) -> bool:
        """Nonempty, every id resolves, consecutive edges composable."""
        return exec_path_ends(self.edge_map, path) is not None


def exec_path_ends(
    edge_map: Mapping[str, Edge], path: Iterable[str]
) -> Optional[tuple[StateId, StateId]]:
    """(source, target) of `path` as an execution path over `edge_map`, or
    None when it is not one: it must be nonempty, every id must resolve and
    consecutive edges must be composable."""
    try:
        edges = [edge_map[e] for e in path]
    except KeyError:
        return None
    if not edges or any(a.tgt != b.src for a, b in zip(edges, edges[1:])):
        return None
    return edges[0].src, edges[-1].tgt


def validate_complex(c: GlobularComplex) -> ValidationReport:
    """Report-style well-formedness check; never raises.

    The report is cached on the complex, so validating the same complex
    again (as `realize` does after the CLI has printed its warnings) costs
    nothing.
    """
    return c.validation


def _validation_report(c: GlobularComplex) -> ValidationReport:
    violations: list[str] = []
    warnings: list[str] = []

    seen_states = set()
    for s in c.states:
        if s in seen_states:
            violations.append(f"duplicate state: {s}")
        seen_states.add(s)

    seen_edges = set()
    for e in c.edges:
        if e.id in seen_edges:
            violations.append(f"duplicate edge id: {e.id}")
        seen_edges.add(e.id)
        if PATH_SEPARATOR in e.id:
            violations.append(f"reserved character '{PATH_SEPARATOR}' in edge id: {e.id}")
        for endpoint, role in ((e.src, "source"), (e.tgt, "target")):
            if endpoint not in seen_states:
                violations.append(f"dangling endpoint: {role} {endpoint} of edge {e.id}")

    cycle, _ = c._cycle_walk
    if cycle is not None:
        violations.append("cyclic 1-skeleton: " + " -> ".join(cycle))

    seen_squares = set()
    for q in c.squares:
        if q.id in seen_squares:
            violations.append(f"duplicate square id: {q.id}")
        seen_squares.add(q.id)
        violations.extend(_square_violations(c, q))
        if tuple(q.left) == tuple(q.right):
            warnings.append(f"degenerate square (no-op): {q.id}")

    for s in c.finals:
        if s not in c.state_set:
            violations.append(f"unknown final state: {s}")
    if c.init is not None and c.init not in c.state_set:
        violations.append(f"unknown initial state: {c.init}")

    return ValidationReport(tuple(violations), tuple(warnings))


def _square_violations(c: GlobularComplex, q: Square) -> list[str]:
    edge_map = c.edge_map
    out = []
    ends = []
    for name, side in (("left", q.left), ("right", q.right)):
        if not side:
            out.append(f"bad square boundary: square {q.id} has empty {name} side")
        elif any(e not in edge_map for e in side):
            missing = sorted(e for e in side if e not in edge_map)
            out.append(
                f"bad square boundary: square {q.id} {name} side uses unknown edges "
                + ", ".join(missing)
            )
        else:
            side_ends = exec_path_ends(edge_map, side)
            if side_ends is None:
                out.append(f"bad square boundary: square {q.id} {name} side is not composable")
            ends.append(side_ends)
    if not out and ends[0] != ends[1]:
        out.append(f"bad square boundary: square {q.id} sides do not share endpoints")
    return out


def _find_cycle(c: GlobularComplex) -> tuple[Optional[list[str]], dict[str, None]]:
    """A directed cycle through the edge graph, or None, and the states the
    depth-first walk finished, in finishing order.  Roots and targets are
    taken in sorted order, and the first cycle met is returned.  Tolerates
    dangling ids.  When there is no cycle, every edge's target finishes
    before its source."""
    adjacent: dict[str, list[str]] = {}
    for e in c.edges:
        adjacent.setdefault(e.src, []).append(e.tgt)
    finished: dict[str, None] = {}  # insertion-ordered
    for root in sorted(adjacent):
        if root in finished:
            continue
        # depth-first, with the states on the current path in `trail`
        trail = [root]
        on_trail = {root}
        pending = [iter(sorted(adjacent[root]))]
        while pending:
            v = next(pending[-1], None)
            if v is None:
                pending.pop()
                u = trail.pop()
                on_trail.discard(u)
                finished[u] = None
            elif v in on_trail:
                return trail[trail.index(v):] + [v], finished
            elif v not in finished:
                trail.append(v)
                on_trail.add(v)
                pending.append(iter(sorted(adjacent.get(v, ()))))
    return None, finished


def require_valid(c: GlobularComplex) -> None:
    report = validate_complex(c)
    if not report.ok:
        raise InvalidComplexError(report.violations)


def glob_discrete(labels: Iterable[str]) -> GlobularComplex:
    """The globe on a finite label set: states 0, 1 and one edge per label.

    The one-label case is the directed interval.  The empty set is
    rejected; a globe needs something to cone over.
    """
    names = sorted(set(labels))
    if not names:
        raise ValueError("glob_discrete: label set must be nonempty")
    return GlobularComplex(
        states=("0", "1"),
        edges=tuple(Edge(id=name, src="0", tgt="1") for name in names),
    )


def _members(
    steps: Mapping[str, list[tuple[str, StateId]]],
    src: StateId,
    tgt: Optional[StateId] = None,
) -> list[ExecPath]:
    """The paths out of `src` along `steps`, depth first: every prefix, or
    with `tgt` given only the paths ending there, which are not walked
    further.  `steps` maps each state the walk reaches, other than `tgt`,
    to its (edge id, target) steps in edge-id order.  Its callers have
    validated the complex, so the 1-skeleton is acyclic and nothing guards
    against a cycle.  With `tgt` given, no member is then a prefix of
    another, and the list comes out in lexicographic edge-id order.
    """
    out: list[ExecPath] = []
    prefix: list[str] = []
    stack = [iter(steps.get(src, ()))]
    while stack:
        for e_id, t in stack[-1]:
            if t == tgt:
                out.append((*prefix, e_id))
                continue
            prefix.append(e_id)
            if tgt is None:
                out.append(tuple(prefix))
            stack.append(iter(steps[t]))
            break
        else:  # every step out of the state reached by `prefix` is taken
            stack.pop()
            del prefix[-1:]
    return out


def enumerate_paths(c: GlobularComplex, src: StateId, tgt: StateId) -> list[ExecPath]:
    """All execution paths from src to tgt, in lexicographic edge-id order.

    One loop (`_members`) walks only the edges into states that can reach
    tgt, found backwards over the states between src and tgt in
    `GlobularComplex.topological_order`.  The order comes by construction:
    out-edges are taken in edge-id order, and no path to tgt is a prefix of
    another, the 1-skeleton being acyclic.  Raises UnknownIdError for an
    unknown endpoint, and otherwise InvalidComplexError if the complex does
    not validate.
    """
    for s in (src, tgt):
        if s not in c.state_set:
            raise UnknownIdError(f"unknown state: {s}")
    order = c.topological_order
    ahead = {tgt}
    steps = {}
    for s in reversed(order[order.index(src):order.index(tgt)]):
        onward = [(e.id, e.tgt) for e in c.out_edges[s] if e.tgt in ahead]
        if onward:
            ahead.add(s)
            steps[s] = onward
    return _members(steps, src, tgt)


def all_exec_paths(c: GlobularComplex) -> list[ExecPath]:
    """Every execution path of the complex, over all endpoint pairs, sorted.
    Raises InvalidComplexError if the complex does not validate."""
    require_valid(c)
    steps = {s: [(e.id, e.tgt) for e in es] for s, es in c.out_edges.items()}
    return sorted(p for state in c.states for p in _members(steps, state))


def count_paths_and_composites(c: GlobularComplex) -> tuple[int, int]:
    """The number of execution paths of a valid complex and the number of
    composable pairs of them: the path and composition table sizes of its
    realization, worked out without listing a single path.

    One pass over a topological order, O(V + E) with Python ints:
    paths out of s = sum over out-edges e of 1 + paths out of tgt(e),
    likewise into s, and composites = sum over s of in(s) * out(s).
    Raises InvalidComplexError if the complex does not validate.
    """
    order = c.topological_order
    into = dict.fromkeys(c.states, 0)
    for s in order:  # every edge into s is counted before s is reached
        for e in c.out_edges[s]:
            into[e.tgt] += 1 + into[s]
    out = dict.fromkeys(c.states, 0)
    for s in reversed(order):
        out[s] = sum(1 + out[e.tgt] for e in c.out_edges[s])
    return sum(out.values()), sum(into[s] * out[s] for s in c.states)


def complex_deadlocks(
    c: GlobularComplex, init: StateId, finals: Iterable[StateId] = ()
) -> tuple[StateId, ...]:
    """Reachable, non-final states that no edge leaves: `flows.deadlocks`
    on the realization of `c`, without realizing it.

    A path leaves a state exactly when an edge does, and the targets of the
    paths out of `init` are the states its edges reach, so one search over
    the edges from `init` finds them, O(V + E).  Raises InvalidComplexError
    if the complex does not validate, and otherwise UnknownIdError for an
    unknown `init` or final state, with the texts of `flows.deadlocks`.
    """
    require_valid(c)
    finals = frozenset(finals)
    if init not in c.state_set:
        raise UnknownIdError(f"unknown state: {init}")
    stray = finals - c.state_set
    if stray:
        raise UnknownIdError("unknown final states: " + ", ".join(sorted(stray)))
    out = c.out_edges
    reached = {init}
    frontier = [init]
    while frontier:
        for e in out[frontier.pop()]:
            if e.tgt not in reached:
                reached.add(e.tgt)
                frontier.append(e.tgt)
    return tuple(sorted(s for s in reached if not out[s] and s not in finals))


def square_move_neighbors(c: GlobularComplex, path: ExecPath) -> set[ExecPath]:
    """Paths one square move away: one contiguous boundary occurrence swapped.

    Each end position of `path` is tried against both orientations of every
    non-degenerate square ending at the state reached there
    (`GlobularComplex.squares_into`); ids the complex does not have match
    no square.  Raises InvalidComplexError if the complex does not
    validate.  Realization does not use it: move pairs come from the
    squares there."""
    path = tuple(path)
    squares_into = c.squares_into
    neighbors: set[ExecPath] = set()
    for end, e_id in enumerate(path, 1):
        edge = c.edge_map.get(e_id)
        if edge is None:
            continue
        for left, right in squares_into.get(edge.tgt, ()):
            for lhs, rhs in ((left, right), (right, left)):
                start = end - len(lhs)
                if start >= 0 and path[start:end] == lhs:
                    neighbors.add(path[:start] + rhs + path[end:])
    return neighbors


def _class_steps(c: GlobularComplex, src: StateId, tgt: StateId) -> dict[str, list[int]]:
    """Move classes of the paths out of `src`, up to `tgt`, by propagation.

    The classes at each state are numbered 0, 1, ...; the empty path is
    class 0 at `src`.  The result maps each edge e reached from `src` to
    the list whose entry k is the class at e.tgt of the paths of class k
    at e.src extended by e, so a path's class is read off edge by edge
    (`_class_of`).  Works over the states between `src` and `tgt` in
    topological order, each once: at s, the pairs (e into s, class k at
    e.src) are merged by every square ending at s, for each class at the
    square's source.

    The last result is kept on the complex, keyed by (src, tgt): one entry
    in the instance `__dict__`, where the cached properties live too, so
    `path_classes` followed by `same_move_class` on the same endpoints
    propagates once.  Callers only read the table.
    """
    cached = c.__dict__.get("_class_table")
    if cached is not None and cached[0] == (src, tgt):
        return cached[1]
    order = c.topological_order
    classes = {src: 1}  # number of classes at each state reached so far
    arrivals: dict[str, list[Edge]] = {}  # edges out of reached states, by target
    for e in c.out_edges[src]:
        arrivals.setdefault(e.tgt, []).append(e)
    step: dict[str, list[int]] = {}
    for s in order[order.index(src) + 1:order.index(tgt) + 1]:
        edges = arrivals.pop(s, None)
        if edges is None:
            continue
        first = {}  # edge id -> index of its first pair
        pairs = 0
        for e in edges:
            first[e.id] = pairs
            pairs += classes[e.src]
        parent = list(range(pairs))  # a union-find forest over the pairs
        for left, right in c.squares_into.get(s, ()):
            for k in range(classes.get(c.path_source(left), 0)):
                a = _root(parent, first[left[-1]] + _class_of(step, left[:-1], k))
                parent[a] = _root(parent, first[right[-1]] + _class_of(step, right[:-1], k))
        label: dict[int, int] = {}
        klass = [label.setdefault(_root(parent, i), len(label)) for i in range(pairs)]
        for e in edges:
            step[e.id] = klass[first[e.id]:first[e.id] + classes[e.src]]
        classes[s] = len(label)
        for e in c.out_edges[s]:
            arrivals.setdefault(e.tgt, []).append(e)
    c.__dict__["_class_table"] = ((src, tgt), step)
    return step


def _root(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]  # path halving
    return i


def _class_of(step: dict[str, list[int]], path: ExecPath, k: int = 0) -> int:
    """The class of the paths of class k at the source of `path` extended
    by `path`; class 0 at the base state is the empty path, so the default
    gives the class of `path` itself."""
    for e_id in path:
        k = step[e_id][k]
    return k


def path_classes(
    c: GlobularComplex, src: StateId, tgt: StateId
) -> tuple[tuple[ExecPath, ...], ...]:
    """Partition of enumerate_paths(c, src, tgt) under square moves.

    Moves preserve endpoints, so the partition is well defined on each
    endpoint pair.  Each path's class is read from one propagation over
    the complex from `src` to `tgt` (see the module docstring); no move is
    applied to any path.  The propagation's table stays on the complex as
    its one cached class table, for a later call on the same endpoints.
    Members are taken in the lexicographic order `enumerate_paths` lists
    them in, so blocks are ordered by their first member and each block is
    sorted, with no sort.  Raises InvalidComplexError if the complex does
    not validate, and UnknownIdError for an unknown endpoint.
    """
    require_valid(c)
    paths = enumerate_paths(c, src, tgt)
    step = _class_steps(c, src, tgt)
    blocks: dict[int, list[ExecPath]] = {}
    for p in paths:
        blocks.setdefault(_class_of(step, p), []).append(p)
    return tuple(tuple(block) for block in blocks.values())


def same_move_class(c: GlobularComplex, a: ExecPath, b: ExecPath) -> bool:
    """Whether two paths are connected by square moves.

    Equal tuples always are.  Otherwise both must be execution paths of
    `c` with the same endpoints, and their classes are compared after one
    propagation from their common source up to their common target (see
    the module docstring).  That propagation is skipped when the complex's
    cached class table is for the same endpoints, as it is right after
    `path_classes` on them; another pair replaces the table.  Raises
    InvalidComplexError if the complex does not validate.
    """
    require_valid(c)
    a, b = tuple(a), tuple(b)
    if a == b:
        return True
    if not (c.is_exec_path(a) and c.is_exec_path(b)):
        return False
    src, tgt = c.path_source(a), c.path_target(a)
    if (c.path_source(b), c.path_target(b)) != (src, tgt):
        return False
    step = _class_steps(c, src, tgt)
    return _class_of(step, a) == _class_of(step, b)


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class ComplexMorphism:
    """state_map sends states to states; edge_map sends edges to nonempty paths."""

    state_map: Mapping[str, str] = field(default_factory=dict)
    edge_map: Mapping[str, ExecPath] = field(default_factory=dict)

    def path_image(self, path: Iterable[str]) -> ExecPath:
        out: list[str] = []
        for e in path:
            out.extend(self.edge_map[e])
        return tuple(out)


def identity_complex_morphism(c: GlobularComplex) -> ComplexMorphism:
    return ComplexMorphism(
        state_map={s: s for s in c.states},
        edge_map={e.id: (e.id,) for e in c.edges},
    )


def compose_complex_morphisms(
    outer: ComplexMorphism, inner: ComplexMorphism
) -> ComplexMorphism:
    """outer after inner: edges map through inner first, then edgewise through outer."""
    return ComplexMorphism(
        state_map={s: outer.state_map[t] for s, t in inner.state_map.items()},
        edge_map={e: outer.path_image(p) for e, p in inner.edge_map.items()},
    )


def complex_morphism_violations(
    f: ComplexMorphism, dom: GlobularComplex, cod: GlobularComplex
) -> list[str]:
    """Why f fails to be a morphism dom -> cod; empty when it is one.

    Raises InvalidComplexError if `dom` does not validate.  Square
    preservation is checked with `same_move_class` on `cod`, so a codomain
    that does not validate raises InvalidComplexError once the state and
    edge checks pass.
    """
    require_valid(dom)
    out: list[str] = []
    for s in dom.states:
        image = f.state_map.get(s)
        if image is None:
            out.append(f"state_map undefined on {s}")
        elif image not in cod.state_set:
            out.append(f"state_map sends {s} outside the codomain: {image}")
    for e in dom.edges:
        image = f.edge_map.get(e.id)
        if image is None:
            out.append(f"edge_map undefined on {e.id}")
            continue
        image = tuple(image)
        if not image:
            out.append(f"contracted edge: {e.id} maps to the empty path")
            continue
        if not cod.is_exec_path(image):
            out.append(f"edge {e.id} maps to a non-path: {image}")
            continue
        if f.state_map.get(e.src) != cod.path_source(image) or (
            f.state_map.get(e.tgt) != cod.path_target(image)
        ):
            out.append(f"endpoint mismatch on edge {e.id}")
    if out:
        return out
    for q in dom.squares:
        left = f.path_image(q.left)
        right = f.path_image(q.right)
        if not same_move_class(cod, left, right):
            out.append(f"square {q.id} not preserved: image boundaries in distinct classes")
    return out


def is_complex_morphism(
    f: ComplexMorphism, dom: GlobularComplex, cod: GlobularComplex
) -> bool:
    """True iff endpoint compatibility, non-contraction, and square preservation hold."""
    return not complex_morphism_violations(f, dom, cod)


# ---------------------------------------------------------------------------
# subdivision


def subdivide_edge(
    c: GlobularComplex, edge_id: str
) -> tuple[GlobularComplex, ComplexMorphism]:
    """Split one edge in two across a fresh state.

    Returns the refined complex and the canonical morphism into it, which
    sends the split edge to the two-edge chain and fixes everything else.
    Square boundaries mentioning the edge are rewritten in place.
    """
    edge = c.edge_map.get(edge_id)
    if edge is None:
        raise UnknownIdError(f"unknown edge: {edge_id}")

    mid = _fresh(f"{edge_id}_mid", c.state_set)
    taken = set(c.edge_map)
    first = _fresh(f"{edge_id}_a", taken)
    taken.add(first)
    second = _fresh(f"{edge_id}_b", taken)

    def rewrite(path: ExecPath) -> ExecPath:
        out: list[str] = []
        for e in path:
            out.extend((first, second) if e == edge_id else (e,))
        return tuple(out)

    edges: list[Edge] = []
    for e in c.edges:
        if e.id == edge_id:
            edges.append(Edge(id=first, src=edge.src, tgt=mid, label=edge.label))
            edges.append(Edge(id=second, src=mid, tgt=edge.tgt))
        else:
            edges.append(e)

    refined = GlobularComplex(
        states=c.states + (mid,),
        edges=tuple(edges),
        squares=tuple(
            Square(id=q.id, left=rewrite(q.left), right=rewrite(q.right))
            for q in c.squares
        ),
        finals=c.finals,
        init=c.init,
    )
    morphism = ComplexMorphism(
        state_map={s: s for s in c.states},
        edge_map={
            e.id: ((first, second) if e.id == edge_id else (e.id,)) for e in c.edges
        },
    )
    return refined, morphism


def _fresh(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name
