"""From globular complexes to flows.

The realization of a complex keeps the same 0-skeleton and takes *all*
execution paths as its path set, with composition given by concatenation of
edge sequences and adjacency given by single square moves.  A composite's
path id is its edge-id sequence joined with "*", so associativity holds by
construction and never depends on table bookkeeping.  Every flow made here
is concatenative (see `flows`): it is written without its composition
table and validated from its ids (`formats.dumps_flow`,
`flows.validate_flow`), and in memory it answers composites from its ids.
No realizer builds a composition table.

The path and composite counts grow much faster than the complex, so
`realize` counts them exactly first (a pass over the complex, no path
listed) and refuses, with RealizationLimitExceeded, a realization holding
more of them together than GLOBFLOW_REALIZE_LIMIT (default 10^6), as do
`check_realize_limit`, `realize_morphism` and `IncrementalRealizer`.  The
sum is the number of edge ids all path ids spell out
(`count_paths_and_composites`); adjacency pairs are outside the limit.

There is one construction, `IncrementalRealizer`: it builds a realization
cell by cell and keeps its tables current while a complex is built, and
makes its flow from copies of them when the flow is read.  `realize(c)`
refuses what the realizer refuses and then returns a flow that holds `c`
and has a realizer build its tables the first time one is read, so a
caller that only needs the refusal pays only the count.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Iterable, Optional, Union

from .complexes import (
    PATH_SEPARATOR,
    ComplexMorphism,
    Edge,
    GlobularComplex,
    Square,
    all_exec_paths,
    complex_morphism_violations,
    count_paths_and_composites,
    exec_path_ends,
)
from .errors import (
    InvalidAttachmentError,
    InvalidMorphismError,
    RealizationLimitExceeded,
)
from .flows import FiniteFlow, FlowMorphism, _ConcatenativeFlow
from .settings import env_count

# the most paths and composites together that `realize` builds by default
DEFAULT_REALIZE_LIMIT = 10**6

# overrides DEFAULT_REALIZE_LIMIT when set
REALIZE_LIMIT_ENV_VAR = "GLOBFLOW_REALIZE_LIMIT"


def path_id(seq: Iterable[str]) -> str:
    """The canonical flow path id of an edge-id sequence."""
    return PATH_SEPARATOR.join(seq)


def realize(c: GlobularComplex) -> FiniteFlow:
    """The flow of a complex: same states, all execution paths, square moves.

    The complex must validate; acyclicity keeps the path set finite.
    First the exact numbers of paths and composites are worked out
    (`count_paths_and_composites`), and whatever `check_realize_limit(c)`
    raises is raised here, before anything is built.  The flow returned
    holds `c` and equals the flow of an `IncrementalRealizer` made from
    `c`: the first read of its `path_ends` or `adjacency` has such a
    realizer build both tables, without counting again, and the flow
    keeps them.  It answers composites from its path ids.
    """
    _admit(c)
    return _RealizedFlow(c)


def check_realize_limit(c: GlobularComplex) -> None:
    """Raise what `realize(c)` raises before it builds anything:
    InvalidComplexError if `c` does not validate, RealizationLimitExceeded
    if its realization would hold more paths and composites together than
    GLOBFLOW_REALIZE_LIMIT (default DEFAULT_REALIZE_LIMIT), ValueError if
    that variable does not hold a non-negative integer.  An analysis that
    answers on the complex calls it to refuse the inputs the flow route
    would."""
    _admit(c)


def _admit(c: GlobularComplex) -> tuple[int, int]:
    """Refuse `c` as `check_realize_limit` does; else return the number of
    composites of its realization and the limit read."""
    paths, composites = count_paths_and_composites(c)  # validates c first
    limit = env_count(REALIZE_LIMIT_ENV_VAR, DEFAULT_REALIZE_LIMIT)
    _check_limit(paths, composites, limit)
    return composites, limit


def _check_limit(paths: int, composites: int, limit: int) -> None:
    if paths + composites > limit:
        raise RealizationLimitExceeded(paths, composites, limit)


def realize_morphism(
    m: ComplexMorphism, dom: GlobularComplex, cod: GlobularComplex
) -> FlowMorphism:
    """The flow morphism induced on realizations: substitute edgewise, concatenate.

    Refuses, before listing a path, whatever `realize(dom)` refuses."""
    violations = complex_morphism_violations(m, dom, cod)
    if violations:
        raise InvalidMorphismError("not a complex morphism: " + "; ".join(violations))
    check_realize_limit(dom)
    return FlowMorphism(
        state_map=dict(m.state_map),
        path_map={
            path_id(seq): path_id(m.path_image(seq)) for seq in all_exec_paths(dom)
        },
    )


# ---------------------------------------------------------------------------
# incremental realization

Cell = Union[str, Edge, Square]


class IncrementalRealizer:
    """Builds the realization of a complex one cell at a time.

    The realizer owns the realization's tables and changes them in place:
    the states, edges and squares attached so far, path endpoints, the
    normalized adjacency pairs, the paths out of and into each state, and
    the non-degenerate squares by source and by target state.  It keeps no
    composition table, only the number of composable pairs, which the
    limit bounds.  Attaching a state grows the skeleton.  Attaching an edge
    creates exactly the paths through it (old path into its source, the
    edge, old path out of its target) and their move pairs from the
    squares already attached that end at their source or start at their
    target.  Attaching a square pairs pre·left·suf with pre·right·suf over
    the paths into its source and out of its target.  So each move pair is
    made once, from a square, and no path is listed or rewritten.  Every
    check runs against the realizer's own cells before any table changes,
    so a rejected cell leaves the realizer as it was.  An edge that would take the realization over
    GLOBFLOW_REALIZE_LIMIT, as read when the realizer was made, raises
    RealizationLimitExceeded, as `realize` of the extended complex would.

    Making a realizer refuses `c` as `realize` does, then adds every edge
    of `c` and then every square to empty tables.  The attach
    methods return nothing.  `flow` is made when read, from copies of the
    tables, so no later attach changes a flow already read, and it is kept
    until the next attach goes through.  `complex` is `c` until the first
    attach, and is otherwise built from the realizer's cells, in attach
    order, when read.  So an attach costs what the cell adds, and the
    first read of `flow` after it costs a copy of the tables.
    """

    def __init__(self, c: GlobularComplex):
        self._composites, self._limit = _admit(c)
        self._fill(c)

    def _fill(self, c: GlobularComplex) -> None:
        """Set up the tables of `c` from empty: every edge, then every
        square.  A realizer a `realize` flow fills this way, without
        `__init__`, has not counted `c` and is read once, never attached to."""
        self._base = c
        # the states in attach order (a dict with None values is an ordered
        # set), as `complex` lists them
        self._states: dict[str, None] = dict.fromkeys(c.states)
        self._edges: dict[str, Edge] = {}
        self._squares: dict[str, Square] = {}
        self._path_ends: dict[str, tuple[str, str]] = {}
        self._adjacency: set[tuple[str, str]] = set()
        self._out: dict[str, list[str]] = {s: [] for s in c.states}
        self._into: dict[str, list[str]] = {s: [] for s in c.states}
        # (left id, right id, other end) of each non-degenerate square
        self._squares_from: dict[str, list[tuple[str, str, str]]] = {}
        self._squares_into: dict[str, list[tuple[str, str, str]]] = {}
        for edge in c.edges:
            self._add_edge(edge)
        for q in c.squares:
            self._add_square(q, c.path_source(q.left), c.path_target(q.left))
        self._flow: Optional[FiniteFlow] = None
        self._complex: Optional[GlobularComplex] = c

    @property
    def complex(self) -> GlobularComplex:
        if self._complex is None:
            self._complex = replace(
                self._base,
                states=tuple(self._states),
                edges=tuple(self._edges.values()),
                squares=tuple(self._squares.values()),
            )
        return self._complex

    @property
    def flow(self) -> FiniteFlow:
        if self._flow is None:
            self._flow = _ConcatenativeFlow(
                frozenset(self._states),
                dict(self._path_ends),
                frozenset(self._adjacency),
            )
        return self._flow

    def attach(self, cell: Cell) -> None:
        if isinstance(cell, str):
            self.attach_state(cell)
        elif isinstance(cell, Edge):
            self.attach_edge(cell)
        elif isinstance(cell, Square):
            self.attach_square(cell)
        else:
            raise InvalidAttachmentError(f"not an attachable cell: {cell!r}")

    def attach_state(self, name: str) -> None:
        if name in self._states:
            raise InvalidAttachmentError(f"state already present: {name}")
        self._states[name] = None
        self._out[name] = []
        self._into[name] = []
        self._changed()

    def attach_edge(self, edge: Edge) -> None:
        ends, out, into = self._path_ends, self._out, self._into
        if edge.id in self._edges:
            raise InvalidAttachmentError(f"edge id already present: {edge.id}")
        if PATH_SEPARATOR in edge.id:
            raise InvalidAttachmentError(f"reserved character in edge id: {edge.id}")
        for endpoint in (edge.src, edge.tgt):
            if endpoint not in self._states:
                raise InvalidAttachmentError(f"dangling endpoint: {endpoint}")
        if edge.src == edge.tgt or any(ends[p][1] == edge.src for p in out[edge.tgt]):
            raise InvalidAttachmentError(
                f"attaching {edge.id} would close a directed cycle"
            )

        # a new path s -> t composes with the old paths into s and out of t
        # only: two new paths would both hold the edge, and the 1-skeleton
        # is acyclic
        sources = [edge.src] + [ends[pre][0] for pre in into[edge.src]]
        targets = [edge.tgt] + [ends[suf][1] for suf in out[edge.tgt]]
        composites = (
            self._composites
            + len(targets) * sum([len(into[s]) for s in sources])
            + len(sources) * sum([len(out[t]) for t in targets])
        )
        _check_limit(len(ends) + len(sources) * len(targets), composites, self._limit)
        self._add_edge(edge)
        self._composites = composites
        self._changed()

    def attach_square(self, square: Square) -> None:
        if square.id in self._squares:
            raise InvalidAttachmentError(f"square id already present: {square.id}")
        endpoints = []
        for name, side in (("left", square.left), ("right", square.right)):
            side_ends = exec_path_ends(self._edges, side)
            if side_ends is None:
                raise InvalidAttachmentError(
                    f"square {square.id} {name} side is not an execution path"
                )
            endpoints.append(side_ends)
        if endpoints[0] != endpoints[1]:
            raise InvalidAttachmentError(
                f"square {square.id} sides do not share endpoints"
            )
        self._add_square(square, *endpoints[0])
        self._changed()

    def _add_edge(self, edge: Edge) -> None:
        """Enter an edge, its new paths and their move pairs."""
        self._edges[edge.id] = edge
        ends, out, into = self._path_ends, self._out, self._into
        heads = [(edge.src, edge.id)]
        heads += [(ends[pre][0], pre + PATH_SEPARATOR + edge.id) for pre in into[edge.src]]
        tails = [(edge.tgt, "")]
        tails += [(ends[suf][1], PATH_SEPARATOR + suf) for suf in out[edge.tgt]]
        for s, head in heads:
            for t, tail in tails:
                new = head + tail
                ends[new] = (s, t)
                out[s].append(new)
                into[t].append(new)

        # no square attached so far holds the edge, so a side in a new path
        # lies wholly before the edge, followed by a new path out of the
        # square's target, or wholly after it, after a new path into its source
        for s, head in heads:
            for left, right, q_src in self._squares_into.get(s, ()):
                after = [PATH_SEPARATOR + head + tail for _, tail in tails]
                self._add_moves(left, right, self._heads(q_src), after)
        for t, tail in tails:
            for left, right, q_tgt in self._squares_from.get(t, ()):
                before = [head + tail + PATH_SEPARATOR for _, head in heads]
                self._add_moves(left, right, before, self._tails(q_tgt))

    def _add_square(self, square: Square, src: str, tgt: str) -> None:
        """Index a square from `src` to `tgt` and enter its move pairs; a
        degenerate square moves nothing."""
        self._squares[square.id] = square
        left, right = path_id(square.left), path_id(square.right)
        if left == right:
            return
        self._squares_from.setdefault(src, []).append((left, right, tgt))
        self._squares_into.setdefault(tgt, []).append((left, right, src))
        self._add_moves(left, right, self._heads(src), self._tails(tgt))

    def _heads(self, state: str) -> list[str]:
        return [""] + [pre + PATH_SEPARATOR for pre in self._into[state]]

    def _tails(self, state: str) -> list[str]:
        return [""] + [PATH_SEPARATOR + suf for suf in self._out[state]]

    def _add_moves(self, left: str, right: str, heads: list[str], tails: list[str]) -> None:
        """Pair head + left + tail with head + right + tail.  The 1-skeleton is
        acyclic, so a path holds a side in at most one way."""
        adjacency = self._adjacency
        for head in heads:
            for tail in tails:
                a, b = head + left + tail, head + right + tail
                adjacency.add((a, b) if a < b else (b, a))

    def _changed(self) -> None:
        """Drop the flow and the complex built for the cells before."""
        self._flow = self._complex = None


class _RealizedFlow(_ConcatenativeFlow):
    """The flow `realize` returns for a complex it has admitted.  It holds
    the complex and its states; the first read of `path_ends` or
    `adjacency` has a realizer fill both tables from the complex, without
    counting it again, and the flow keeps them.  Everything else is
    `_ConcatenativeFlow`'s."""

    def __init__(self, c: GlobularComplex):
        self.skeleton = frozenset(c.states)
        self._complex = c

    @cached_property
    def path_ends(self) -> dict[str, tuple[str, str]]:
        self._build()
        return self.path_ends

    @cached_property
    def adjacency(self) -> frozenset[tuple[str, str]]:
        self._build()
        return self.adjacency

    def _build(self) -> None:
        """Keep the realizer's tables as the instance's own, where the
        cached properties would put them."""
        realizer = IncrementalRealizer.__new__(IncrementalRealizer)
        realizer._fill(self._complex)
        self.path_ends = realizer._path_ends
        self.adjacency = frozenset(realizer._adjacency)
