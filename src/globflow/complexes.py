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
edge is well defined on classes.  A state with one pair runs no
union-find, and a target of one class has its listing as one block, no
member's class read.  The last such table is kept on the complex, keyed
by its two endpoints, so `same_move_class` on the members that
`path_classes` has just listed propagates no second time.

The paths between two states are listed backwards over a topological
order (`_suffix_table`, behind `enumerate_paths`): each out-edge of a
state, in edge-id order, goes before the paths out of its target, so the
list is lexicographic with no stack.  `enumerate_paths` refuses a complex
that does not validate, with InvalidComplexError carrying its validation
report.  Every path of a complex is listed by its realizer alone.  One
function (`_require_states`) checks the states that an analysis names, on
a complex or a flow, and words its refusals.

A complex keeps its cells as rows: an edge is (id, src, tgt, label) and a
square (id, left, right).  Two indexes are read off the edge rows and
hold the rows themselves: id -> row, which every walk along a side uses
(`exec_path_ends`, which gives a path's two ends), and the rows of each
state's out-edges in edge-id order.  The document reader
(`formats.complex_from_doc`), the compiler (`pv.pv_to_complex`),
`subdivide_edge`, `glob_discrete` and the realizer's
`complex` fill the rows directly, and the `edges`, `squares` and
`edge_map` of such a complex are built as `Edge` and `Square` values only
when a caller reads them.  A complex built from those values derives its
rows the first time they are needed.  The library reads only the rows:
validation, `topological_order`, `squares_into`, the path listings,
`complex_deadlocks`, the class propagation, the morphism checks,
subdivision, the realizer and its path counts, and
`formats.complex_to_doc` and `export_dot`.
So no route from a document or PV source to an answer builds a cell
object.

A complex is validated where it enters the engine; compiler output enters
certified (`pv.pv_to_complex` seeds `validation` and `topological_order`).
One pass of Kahn's algorithm (`_kahn_order`) settles acyclicity and order:
a cycle is reported exactly when the order misses a state, and named by the
walk back from the least missed state along in-edges, least edge id first,
read forward from the first state it repeats (`_cycle`).  One forward pass
over a run of the order (`_reach`) gives the states its first one reaches,
with their in-edges, to the path listings, class propagation and deadlocks.

Morphisms map states to states and edges to nonempty paths, preserving
endpoints and sending the two boundaries of every square into the same
move class of the codomain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from operator import itemgetter
from typing import Iterable, Mapping, Optional

from .errors import InvalidComplexError, UnknownIdError
from .unionfind import class_numbers

StateId = str
ExecPath = tuple[str, ...]
EdgeRow = tuple[str, StateId, StateId, Optional[str]]  # (id, src, tgt, label)
SquareRow = tuple[str, ExecPath, ExecPath]  # (id, left, right)

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


class _cached_property:
    """`functools.cached_property` without its lock: the value is worked
    out by `build` on the first read and kept in the instance `__dict__`,
    where later reads find it first.  Python 3.11 takes a lock on every
    first read, which costs about as much as indexing a small complex."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, c, owner=None):
        if c is None:
            return self
        value = c.__dict__[self.name] = self.build(c)
        return value


class _Cells(_cached_property):
    """The `edges` or `squares` field of `GlobularComplex`.  A complex made
    from rows (`GlobularComplex._from_rows`) has no value for the field in
    its instance `__dict__`, so the first read builds one from the rows;
    `__init__` puts the value of any other complex there.  Read off the
    class, it is the field's default, ()."""

    def __get__(self, c, owner=None):
        return () if c is None else super().__get__(c, owner)


@dataclass(frozen=True)
class GlobularComplex:
    """Finite presentation of a globular complex (dimension <= 2).

    `finals` and `init` are analysis annotations used by deadlock checks;
    they carry no geometric meaning.  Declaration order is preserved so
    documents round-trip; all operations iterate in sorted order.

    The cells are kept as rows (see the module docstring).  A complex the
    library makes (read, compiled, subdivided, a globe or a realizer's)
    holds only the rows, and builds `edges` and `squares` from them on
    first read; one built from `Edge` and `Square` values derives the rows
    on first use.  Equality, hashing, `repr` and `dataclasses.replace` read
    the fields, so both kinds compare, hash and copy as the same values.
    """

    states: tuple[StateId, ...]
    edges: tuple[Edge, ...] = _Cells(lambda c: tuple(starmap(Edge, c._edge_rows)))
    squares: tuple[Square, ...] = _Cells(lambda c: tuple(starmap(Square, c._square_rows)))
    finals: tuple[StateId, ...] = ()
    init: Optional[StateId] = None

    @classmethod
    def _from_rows(
        cls,
        states: tuple[StateId, ...],
        edge_rows: tuple[EdgeRow, ...],
        square_rows: tuple[SquareRow, ...],
        finals: tuple[StateId, ...] = (),
        init: Optional[StateId] = None,
    ) -> GlobularComplex:
        """The complex of these rows, its `edges` and `squares` not built;
        square sides must be tuples."""
        c = cls.__new__(cls)
        c.__dict__.update(
            states=states, finals=finals, init=init,
            _edge_rows=edge_rows, _square_rows=square_rows,
        )
        return c

    @_cached_property
    def _edge_rows(self) -> tuple[EdgeRow, ...]:
        return tuple((e.id, e.src, e.tgt, e.label) for e in self.edges)

    @_cached_property
    def _square_rows(self) -> tuple[SquareRow, ...]:
        return tuple((q.id, tuple(q.left), tuple(q.right)) for q in self.squares)

    @_cached_property
    def _edge_row(self) -> dict[str, EdgeRow]:
        """Edge id -> its row; the last row of a repeated id wins, as in
        `edge_map`."""
        return {row[0]: row for row in self._edge_rows}

    @_cached_property
    def _out(self) -> dict[StateId, tuple[EdgeRow, ...]]:
        """The rows of the edges between states out of each, in edge-id order."""
        by_src: dict[str, list[EdgeRow]] = {s: [] for s in self.states}
        for row in sorted(self._edge_rows, key=itemgetter(0)):
            if row[1] in by_src and row[2] in by_src:
                by_src[row[1]].append(row)
        return {s: tuple(rows) for s, rows in by_src.items()}

    @_cached_property
    def state_set(self) -> frozenset[str]:
        return frozenset(self.states)

    @_cached_property
    def edge_map(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @_cached_property
    def topological_order(self) -> tuple[StateId, ...]:
        """Every state, each before the targets of its out-edges, in Kahn's
        order: the states no edge enters, in declaration order, then each
        state once every edge into it is taken, out-edges in edge-id order.
        A compiled PV complex carries its states instead (`pv.pv_to_complex`).
        Raises InvalidComplexError if the complex does not validate."""
        require_valid(self)
        return self._kahn_order

    @_cached_property
    def squares_into(self) -> dict[str, list[SquareRow]]:
        """The rows of the non-degenerate squares, keyed by the state both
        sides end at.  Raises InvalidComplexError if the complex does not
        validate."""
        require_valid(self)
        edge_row = self._edge_row
        index: dict[str, list[SquareRow]] = {}
        for row in self._square_rows:
            if row[1] != row[2]:
                index.setdefault(edge_row[row[1][-1]][2], []).append(row)
        return index

    @_cached_property
    def _kahn_order(self) -> tuple[StateId, ...]:
        return _kahn_order(self)  # one walk, for validation and the order

    @_cached_property
    def validation(self) -> ValidationReport:
        """The `validate_complex` report, worked out once per complex."""
        return _validation_report(self)

    def is_exec_path(self, path: Iterable[str]) -> bool:
        """Nonempty, every id resolves, consecutive edges composable."""
        return exec_path_ends(self._edge_row, path) is not None


def exec_path_ends(
    edge_row: Mapping[str, EdgeRow], path: Iterable[str]
) -> Optional[tuple[StateId, StateId]]:
    """(source, target) of `path` as an execution path over `edge_row`,
    which maps each edge id to its row, or None when it is not one: it must
    be nonempty, every id must resolve and consecutive edges must be
    composable."""
    walk = iter(path)
    try:
        _, src, tgt, _ = edge_row[next(walk)]
        for e in walk:
            _, e_src, e_tgt, _ = edge_row[e]
            if e_src != tgt:
                return None
            tgt = e_tgt
    except (StopIteration, KeyError):
        return None
    return src, tgt


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

    states = c.state_set
    if len(states) < len(c.states):
        seen_states = set()
        for s in c.states:
            if s in seen_states:
                violations.append(f"duplicate state: {s}")
            seen_states.add(s)

    rows, edge_row = c._edge_rows, c._edge_row
    if (  # some edge is at fault: name each fault, edge by edge
        len(edge_row) < len(rows)
        or PATH_SEPARATOR in "".join(edge_row)
        or not states.issuperset(map(itemgetter(1), rows))
        or not states.issuperset(map(itemgetter(2), rows))
    ):
        seen_edges = set()
        for eid, src, tgt, _ in rows:
            if eid in seen_edges:
                violations.append(f"duplicate edge id: {eid}")
            seen_edges.add(eid)
            if PATH_SEPARATOR in eid:
                violations.append(f"reserved character '{PATH_SEPARATOR}' in edge id: {eid}")
            if src not in states:
                violations.append(f"dangling endpoint: source {src} of edge {eid}")
            if tgt not in states:
                violations.append(f"dangling endpoint: target {tgt} of edge {eid}")

    order = c._kahn_order
    if len(order) < len(c._out):
        violations.append("cyclic 1-skeleton: " + " -> ".join(_cycle(c, order)))

    seen_squares = set()
    for qid, left, right in c._square_rows:
        if qid in seen_squares:
            violations.append(f"duplicate square id: {qid}")
        seen_squares.add(qid)
        side_ends = exec_path_ends(edge_row, left)
        if side_ends is None or side_ends != exec_path_ends(edge_row, right):
            violations.extend(_square_violations(edge_row, qid, left, right))
        elif left == right:  # a no-op only of a square that is well formed
            warnings.append(f"degenerate square (no-op): {qid}")

    for s in c.finals:
        if s not in states:
            violations.append(f"unknown final state: {s}")
    if c.init is not None and c.init not in states:
        violations.append(f"unknown initial state: {c.init}")

    if not (violations or warnings):
        return _VALID
    return ValidationReport(tuple(violations), tuple(warnings))


_VALID = ValidationReport()


def _square_violations(
    edge_row: Mapping[str, EdgeRow], qid: str, left: ExecPath, right: ExecPath
) -> list[str]:
    """What is wrong with the boundary of a square whose sides are not two
    execution paths with the same ends."""
    out = []
    sides = []
    for name, side in (("left", left), ("right", right)):
        if not side:
            out.append(f"bad square boundary: square {qid} has empty {name} side")
        elif any(e not in edge_row for e in side):
            missing = sorted(e for e in side if e not in edge_row)
            out.append(
                f"bad square boundary: square {qid} {name} side uses unknown edges "
                + ", ".join(missing)
            )
        else:
            side_ends = exec_path_ends(edge_row, side)
            if side_ends is None:
                out.append(f"bad square boundary: square {qid} {name} side is not composable")
            sides.append(side_ends)
    if not out and sides[0] != sides[1]:
        out.append(f"bad square boundary: square {qid} sides do not share endpoints")
    return out


def _kahn_order(c: GlobularComplex) -> tuple[StateId, ...]:
    """Kahn's order of the states (`GlobularComplex.topological_order`);
    it holds every state exactly when the edges close no directed cycle."""
    out = c._out
    waiting = dict.fromkeys(out, 0)  # the edges into each state not yet taken
    for rows in out.values():
        for _, _, tgt, _ in rows:
            waiting[tgt] += 1
    order = [s for s, n in waiting.items() if not n]
    for s in order:  # the order grows as states are freed
        for _, _, tgt, _ in out[s]:
            waiting[tgt] -= 1
            if not waiting[tgt]:
                order.append(tgt)
    return tuple(order)


def _cycle(c: GlobularComplex, order: tuple[StateId, ...]) -> list[StateId]:
    """A directed cycle among the states Kahn's `order` misses, each of
    which an edge from another enters: the loop of the walk back from the
    least of them, forward from the state it repeats, named at both ends."""
    missed = c._out.keys() - set(order)
    back = {}  # missed state -> source of its least in-edge from one, written last
    for _, src, tgt, _ in sorted(c._edge_rows, key=itemgetter(0, 1), reverse=True):
        if src in missed and tgt in missed:
            back[tgt] = src
    s, walk = min(missed), {}
    while s not in walk:
        walk[s] = None
        s = back[s]
    loop = list(walk)
    return [s, *reversed(loop[loop.index(s):])]


def _require_states(known: frozenset, names: Iterable[StateId], finals=()) -> frozenset:
    """The `finals`, read once, as a set; UnknownIdError for the first of
    `names` not `known`, else for every final not known, sorted in `repr`."""
    finals = frozenset(finals)
    for s in names:
        if s not in known:
            raise UnknownIdError(f"unknown state: {s}")
    stray = finals - known
    if stray:
        raise UnknownIdError("unknown final states: " + ", ".join(map(repr, sorted(stray))))
    return finals


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
    return GlobularComplex._from_rows(
        ("0", "1"), tuple((name, "0", "1", None) for name in names), ()
    )


def enumerate_paths(c: GlobularComplex, src: StateId, tgt: StateId) -> list[ExecPath]:
    """All execution paths from src to tgt, in lexicographic edge-id order,
    from the suffix table over the states between them in topological order.
    Raises UnknownIdError for an unknown endpoint, and otherwise
    InvalidComplexError if the complex does not validate."""
    _require_states(c.state_set, (src, tgt))
    order = c.topological_order
    span = order[order.index(src):order.index(tgt)]
    table = _suffix_table(c, span, {tgt: [[()]]}) if span else {}
    return table[src][0] if src in table else []


def _reach(c: GlobularComplex, span: tuple[StateId, ...]) -> dict[StateId, list[EdgeRow]]:
    """The states span[0] reaches by edges out of `span`, a run of a
    topological order, each with the rows of those edges into it, by source
    as in `span`, then by edge id.  An empty span reaches nothing."""
    out = c._out
    into: dict[StateId, list[EdgeRow]] = {s: [] for s in span[:1]}
    for s in span:
        if s in into:
            for row in out[s]:
                into.setdefault(row[2], []).append(row)
    return into


def _suffix_table(c: GlobularComplex, span: tuple[StateId, ...], table: dict) -> dict:
    """The paths to the target from the states span[0] reaches, filled into
    `table`, which holds the target's entry `[[()]]`.  An entry is a list of
    chains: a list of paths, or (edge id, chain) for the edge before each.

    Backwards over `span`, the entry of s is, for each out-edge e in edge-id
    order, `(e.id, chain)` for each chain of e.tgt's.  A state with one
    reader, an in-edge from a reached state (`_reach`), keeps that for its
    reader to read through; any other is built into one list, each chain
    let go once read.  An entry goes once its last reader has taken it."""
    out = c._out
    readers = _reach(c, span)
    for s in reversed(span):
        chains = []
        for eid, _, tgt, _ in out[s] if s in readers else ():
            if tgt in table:
                for chain in table[tgt]:
                    chains.append((eid, chain))
                readers[tgt].pop()
                if not readers[tgt]:
                    del table[tgt]
        if chains and len(readers[s]) != 1:  # built, not read through
            chains.reverse()
            paths = []
            while chains:
                chain, ids = chains.pop(), []
                while type(chain) is tuple:
                    ids.append(chain[0])
                    chain = chain[1]
                head = tuple(ids)
                paths += [head + q for q in chain]
            chains = [paths]
        if chains:
            table[s] = chains
    return table


def complex_deadlocks(
    c: GlobularComplex, init: StateId, finals: Iterable[StateId] = ()
) -> tuple[StateId, ...]:
    """Reachable, non-final states that no edge leaves: `flows.deadlocks`
    on the realization of `c`, without realizing it.

    A path leaves a state exactly when an edge does, and the targets of the
    paths out of `init` are the states its edges reach, which one forward
    pass over the topological order finds (`_reach`), O(V + E).  Raises
    InvalidComplexError if the complex does not validate, and otherwise
    UnknownIdError for an unknown `init` or final state, as `flows.deadlocks`
    does.
    """
    order = c.topological_order  # raises InvalidComplexError first
    finals = _require_states(c.state_set, (init,), finals)
    out = c._out
    reached = _reach(c, order[order.index(init):])
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
        edge = c._edge_row.get(e_id)
        if edge is None:
            continue
        for _, left, right in squares_into.get(edge[2], ()):
            for lhs, rhs in ((left, right), (right, left)):
                start = end - len(lhs)
                if start >= 0 and path[start:end] == lhs:
                    neighbors.add(path[:start] + rhs + path[end:])
    return neighbors


def _class_steps(c: GlobularComplex, src: StateId, tgt: StateId) -> tuple[dict, int]:
    """Move classes of the paths out of `src`, up to `tgt`, by propagation,
    and the number of classes at `tgt` (0 if unreached, 1 if it is `src`).

    The classes at each state are numbered 0, 1, ...; the empty path is
    class 0 at `src`.  The table maps each edge e reached from `src` to
    the list whose entry k is the class at e.tgt of the paths of class k
    at e.src extended by e, so a path's class is read off edge by edge
    (`_class_of`).  Works over the states between `src` and `tgt` in
    topological order, each once: at s, the pairs (e into s, class k at
    e.src) are numbered 0, 1, ... and each square ending at s joins two of
    them for each class at the square's source; the classes at s are the
    blocks of the partition those joins generate (`class_numbers`), in
    order of each block's first pair.  A state with one pair has one class,
    with no union-find: any square into it joins that pair with itself.

    The last result is kept on the complex, keyed by (src, tgt): one entry
    in the instance `__dict__`, where the cached properties live too, so
    `path_classes` followed by `same_move_class` on the same endpoints
    propagates once.  Callers only read the table.
    """
    cached = c.__dict__.get("_class_table")
    if cached is not None and cached[0] == (src, tgt):
        return cached[1]
    order, edge_row = c.topological_order, c._edge_row
    span = order[order.index(src):order.index(tgt) + 1]
    arrivals = _reach(c, span)  # each list let go once read
    classes = {src: 1}  # number of classes at each state reached so far
    step: dict[str, list[int]] = {}
    for s in span[1:]:
        edges = arrivals.pop(s, None)
        if edges is None:
            continue
        if len(edges) == 1 and classes[edges[0][1]] == 1:  # one pair
            step[edges[0][0]], classes[s] = [0], 1
            continue
        first = {}  # edge id -> index of its first pair
        pairs = 0
        for eid, e_src, _, _ in edges:
            first[eid] = pairs
            pairs += classes[e_src]
        moves = (  # the two pairs that a square into s joins, per class at its source
            (first[left[-1]] + _class_of(step, left[:-1], k),
             first[right[-1]] + _class_of(step, right[:-1], k))
            for _, left, right in c.squares_into.get(s, ())
            for k in range(classes.get(edge_row[left[0]][1], 0))
        )
        klass = class_numbers(pairs, moves)
        for eid, e_src, _, _ in edges:
            step[eid] = klass[first[eid]:first[eid] + classes[e_src]]
        classes[s] = max(klass) + 1
    cached = c.__dict__["_class_table"] = ((src, tgt), (step, classes.get(tgt, 0)))
    return cached[1]


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
    sorted, with no sort; when `tgt` has one class they are one block, and
    no member's class is read.  Raises InvalidComplexError if the complex
    does not validate, and UnknownIdError for an unknown endpoint.
    """
    require_valid(c)
    paths = enumerate_paths(c, src, tgt)
    step, count = _class_steps(c, src, tgt)
    if count == 1 and paths:
        return (tuple(paths),)
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
    ends = exec_path_ends(c._edge_row, a)
    if ends is None or exec_path_ends(c._edge_row, b) != ends:
        return False
    step, _ = _class_steps(c, *ends)
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
        edge_map={row[0]: (row[0],) for row in c._edge_rows},
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
    for eid, src, tgt, _ in dom._edge_rows:
        image = f.edge_map.get(eid)
        if image is None:
            out.append(f"edge_map undefined on {eid}")
            continue
        image = tuple(image)
        if not image:
            out.append(f"contracted edge: {eid} maps to the empty path")
            continue
        ends = exec_path_ends(cod._edge_row, image)
        if ends is None:
            out.append(f"edge {eid} maps to a non-path: {image}")
        elif (f.state_map.get(src), f.state_map.get(tgt)) != ends:
            out.append(f"endpoint mismatch on edge {eid}")
    if out:
        return out
    for qid, left, right in dom._square_rows:
        if not same_move_class(cod, f.path_image(left), f.path_image(right)):
            out.append(f"square {qid} not preserved: image boundaries in distinct classes")
    return out


# ---------------------------------------------------------------------------
# subdivision


def subdivide_edge(
    c: GlobularComplex, edge_id: str
) -> tuple[GlobularComplex, ComplexMorphism]:
    """Split one edge in two across a fresh state.

    Returns the refined complex and the canonical morphism into it, which
    sends the split edge to the two-edge chain and fixes everything else.
    Each square side of the refined complex is its image under that
    morphism, so a side naming an edge `c` lacks raises KeyError.  The
    refined complex holds rows only, read off the rows of `c`.
    """
    if edge_id not in c._edge_row:
        raise UnknownIdError(f"unknown edge: {edge_id}")
    _, src, tgt, label = c._edge_row[edge_id]

    mid = _fresh(f"{edge_id}_mid", c.state_set)
    taken = set(c._edge_row)
    first = _fresh(f"{edge_id}_a", taken)
    taken.add(first)
    second = _fresh(f"{edge_id}_b", taken)
    identity = identity_complex_morphism(c)
    morphism = ComplexMorphism(identity.state_map, {**identity.edge_map, edge_id: (first, second)})

    edges: list[EdgeRow] = []
    for row in c._edge_rows:
        if row[0] == edge_id:
            edges.append((first, src, mid, label))
            edges.append((second, mid, tgt, None))
        else:
            edges.append(row)

    image = morphism.path_image
    refined = GlobularComplex._from_rows(
        c.states + (mid,),
        tuple(edges),
        tuple((qid, image(left), image(right)) for qid, left, right in c._square_rows),
        c.finals,
        c.init,
    )
    return refined, morphism


def _fresh(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name
