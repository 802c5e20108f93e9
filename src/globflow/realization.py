"""From globular complexes to flows.

The realization of a complex keeps the same 0-skeleton and takes *all*
execution paths as its path set, with composition given by concatenation of
edge sequences and adjacency given by single square moves.  A composite's
path id is its edge-id sequence joined with "*", so associativity holds by
construction and never depends on table bookkeeping.  Every flow made here
is concatenative (see `flows`): it is written without its composition
table (`formats.dumps_flow`) and answers composites from its ids.  It is
born with the empty validation report, its complex validated or each cell
checked when attached, so `flows.validate_flow` walks nothing.
No realizer builds a composition table.

The path and composite counts grow much faster than the complex, so this
module alone counts them exactly (`count_paths_and_composites`, a pass
over the complex, no path listed) and refuses, with
RealizationLimitExceeded, a realization holding more of them together
than GLOBFLOW_REALIZE_LIMIT (default 10^6): `realize`,
`IncrementalRealizer`, `all_exec_paths`, `realize_morphism`, and
`_realized_classes`, the classes of `realize(c)` read off `c`.  The sum
is the edge ids all path ids spell out; adjacency pairs are outside it.

There is one construction, `IncrementalRealizer`, the one lister of a
complex's paths: it builds a realization cell by cell and keeps its paths
current while a complex is built.  It keeps the cells as rows, as a
complex does (see `complexes`), so it builds no `Edge` or `Square` value;
it takes them only from a caller that attaches them.  There is one
realized flow, `_RealizedFlow`, holding the complex it realizes: a
realizer's `flow` is handed copies of its paths and squares, and the one
`realize(c)` returns, once `c` is refused as the realizer refuses it, has
a realizer make them the first time a table is read, so a caller that
only needs the refusal pays only the count.  One function (`_move_pairs`)
makes every move pair, each ordered by comparing its two ids.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from .complexes import (
    PATH_SEPARATOR,
    ComplexMorphism,
    Edge,
    EdgeRow,
    ExecPath,
    GlobularComplex,
    Square,
    SquareRow,
    ValidationReport,
    _cached_property,
    complex_morphism_violations,
    exec_path_ends,
    path_classes,
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

    The complex must validate (else InvalidComplexError); acyclicity keeps
    the path set finite.  Before anything is built, the exact numbers of
    paths and composites are worked out (`count_paths_and_composites`)
    and RealizationLimitExceeded raised if they are more together than
    GLOBFLOW_REALIZE_LIMIT (ValueError if it is not a non-negative integer).
    The flow returned holds `c` and equals the flow of an
    `IncrementalRealizer` made from `c`: the first read of its `path_ends`
    or `adjacency` has such a realizer make the paths, without counting
    again; the move pairs are made when `adjacency` is first read.  The
    flow keeps both tables, and answers composites from its path ids.
    """
    _admit(c)
    return _RealizedFlow(c)


def count_paths_and_composites(c: GlobularComplex) -> tuple[int, int]:
    """The number of execution paths of a valid complex and the number of
    composable pairs of them: the path and composition table sizes of its
    realization, worked out without listing a single path.

    One pass over a topological order, O(V + E) with Python ints:
    paths out of s = sum over out-edges e of 1 + paths out of tgt(e),
    likewise into s, and composites = sum over s of in(s) * out(s).
    A path of k edges is k - 1 composable pairs, so the sum is the number
    of edge ids all path ids spell out; adjacency pairs are not counted.
    Raises InvalidComplexError if the complex does not validate.
    """
    order = c.topological_order
    edges = c._out
    into = dict.fromkeys(order, 0)
    for s in order:  # every edge into s is counted before s is reached
        n = 1 + into[s]
        for row in edges[s]:
            into[row[2]] += n
    out = {}
    paths = composites = 0
    for s in reversed(order):  # likewise every edge out of s
        n = 0
        for row in edges[s]:
            n += 1 + out[row[2]]
        out[s] = n
        paths += n
        composites += into[s] * n
    return paths, composites


def _admit(c: GlobularComplex) -> tuple[int, int]:
    """Refuse `c` as `realize` does; else return the number of composites
    of its realization and the limit read."""
    paths, composites = count_paths_and_composites(c)  # validates c first
    limit = env_count(REALIZE_LIMIT_ENV_VAR, DEFAULT_REALIZE_LIMIT)
    _check_limit(paths, composites, limit)
    return composites, limit


def _check_limit(paths: int, composites: int, limit: int) -> None:
    if paths + composites > limit:
        raise RealizationLimitExceeded(paths, composites, limit)


def _realized_classes(c: GlobularComplex, src: str, tgt: str) -> tuple[tuple[str, ...], ...]:
    """`flows.dihomotopy_classes(realize(c), src, tgt)` without realizing:
    after refusing what `realize` refuses, `path_classes` with each member
    as its path id, members and blocks in string order.  That order is not
    the edge-id tuple order of `path_classes` when an edge id holds a
    character below "*", as "a" and "a!" do."""
    _admit(c)
    return tuple(sorted(tuple(sorted(map(path_id, block))) for block in path_classes(c, src, tgt)))


def all_exec_paths(c: GlobularComplex) -> list[ExecPath]:
    """Every execution path of `c`, sorted: `realize(c)`'s path ids split at
    PATH_SEPARATOR, so what `realize` refuses is refused before any is listed."""
    return sorted(tuple(p.split(PATH_SEPARATOR)) for p in realize(c).path_ends)


def realize_morphism(
    m: ComplexMorphism, dom: GlobularComplex, cod: GlobularComplex
) -> FlowMorphism:
    """The flow morphism induced on realizations: substitute edgewise, concatenate.

    Refuses, before listing a path, whatever `realize(dom)` refuses."""
    violations = complex_morphism_violations(m, dom, cod)
    if violations:
        raise InvalidMorphismError("not a complex morphism: " + "; ".join(violations))
    return FlowMorphism(
        state_map=dict(m.state_map),
        path_map={
            p: path_id(m.path_image(p.split(PATH_SEPARATOR)))
            for p in realize(dom).path_ends
        },
    )


# ---------------------------------------------------------------------------
# incremental realization

Cell = Union[str, Edge, Square]


class IncrementalRealizer:
    """Builds the realization of a complex one cell at a time.

    The realizer owns the realization's tables and changes them in place:
    the rows of the edges and squares (an attached `Edge` or `Square` is
    kept as its row), path endpoints, the paths out of and into each state
    (the states attached so far, in attach order, are the keys of the
    first), and the (left id, right id, source, target) of each
    non-degenerate square.  It keeps no composition table, only the
    number of composable pairs, which the limit bounds, and no adjacency:
    its flows make their move pairs when `adjacency` is read.
    Attaching a state grows the skeleton.  Attaching an edge creates
    exactly the paths through it (old path into its source, the edge, old
    path out of its target), from heads and tails built once for its
    checks, its limit and its paths; no path is listed or rewritten.
    Attaching a square checks it and records it.  Every check runs against
    the realizer's own cells before any table changes, so a rejected cell
    leaves the realizer as it was.  An edge that would take the realization
    over GLOBFLOW_REALIZE_LIMIT, as read when the realizer was made, raises
    RealizationLimitExceeded, as `realize` of the extended complex would.

    Making a realizer refuses `c` as `realize` does, then adds every edge
    row of `c` and then every square row to empty tables.  The attach
    methods return nothing.  `flow` is made when read, a `_RealizedFlow` of
    `complex` handed copies of the paths and the squares recorded, so no
    later attach changes a flow already read, whenever its adjacency is
    read, and it is kept until the next attach goes through.  `complex`
    is `c` until the first attach, and is otherwise built from the
    realizer's rows, in attach order, with the finals and init of `c`,
    when read; a square attached with list sides comes back with tuple
    sides.  So an attach costs what the cell adds, and the first read of
    `flow` after it copies the paths and the rows.
    """

    def __init__(self, c: GlobularComplex):
        self._composites, self._limit = _admit(c)
        self._fill(c)

    def _fill(self, c: GlobularComplex) -> None:
        """Set up the tables of `c` from empty: every edge, then every
        square.  A realizer a `realize` flow fills this way, without
        `__init__`, has not counted `c` and is read once, never attached to."""
        self._finals, self._init = c.finals, c.init
        self._edge_row: dict[str, EdgeRow] = {}
        self._square_row: dict[str, SquareRow] = {}
        self._path_ends: dict[str, tuple[str, str]] = {}
        self._out: dict[str, list[str]] = {s: [] for s in c.states}
        self._into: dict[str, list[str]] = {s: [] for s in c.states}
        self._moves: list[tuple[str, str, str, str]] = []
        for row in c._edge_rows:
            self._add_edge(row, *self._edge_paths(row))
        for row in c._square_rows:
            self._add_square(row, *exec_path_ends(c._edge_row, row[1]))
        self._flow: Optional[FiniteFlow] = None
        self._complex: Optional[GlobularComplex] = c

    @property
    def complex(self) -> GlobularComplex:
        if self._complex is None:
            self._complex = GlobularComplex._from_rows(
                tuple(self._out), tuple(self._edge_row.values()),
                tuple(self._square_row.values()), self._finals, self._init,
            )
        return self._complex

    @property
    def flow(self) -> FiniteFlow:
        if self._flow is None:
            flow = self._flow = _RealizedFlow(self.complex)
            flow.path_ends, flow._moves = dict(self._path_ends), tuple(self._moves)
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
        if name in self._out:
            raise InvalidAttachmentError(f"state already present: {name}")
        self._out[name] = []
        self._into[name] = []
        self._changed()

    def attach_edge(self, edge: Edge) -> None:
        into, out = self._into, self._out
        row = eid, src, tgt, _ = (edge.id, edge.src, edge.tgt, edge.label)
        if eid in self._edge_row:
            raise InvalidAttachmentError(f"edge id already present: {eid}")
        if PATH_SEPARATOR in eid:
            raise InvalidAttachmentError(f"reserved character in edge id: {eid}")
        for endpoint in (src, tgt):
            if endpoint not in out:
                raise InvalidAttachmentError(f"dangling endpoint: {endpoint}")
        heads, tails = self._edge_paths(row)
        targets = [t for t, _ in tails]
        if src in targets:
            raise InvalidAttachmentError(f"attaching {eid} would close a directed cycle")

        # a new path s -> t composes with the old paths into s and out of t
        # only: two new paths would both hold the edge, and the 1-skeleton
        # is acyclic
        composites = (
            self._composites
            + len(tails) * sum([len(into[s]) for s, _ in heads])
            + len(heads) * sum([len(out[t]) for t in targets])
        )
        _check_limit(len(self._path_ends) + len(heads) * len(tails), composites, self._limit)
        self._add_edge(row, heads, tails)
        self._composites = composites
        self._changed()

    def attach_square(self, square: Square) -> None:
        if square.id in self._square_row:
            raise InvalidAttachmentError(f"square id already present: {square.id}")
        row = qid, left, right = (square.id, tuple(square.left), tuple(square.right))
        endpoints = []
        for name, side in (("left", left), ("right", right)):
            side_ends = exec_path_ends(self._edge_row, side)
            if side_ends is None:
                raise InvalidAttachmentError(
                    f"square {qid} {name} side is not an execution path"
                )
            endpoints.append(side_ends)
        if endpoints[0] != endpoints[1]:
            raise InvalidAttachmentError(f"square {qid} sides do not share endpoints")
        self._add_square(row, *endpoints[0])
        self._changed()

    def _edge_paths(self, row: EdgeRow) -> tuple[list, list]:
        """The heads of the paths through an edge, (source, id) of the edge and
        of each path into its source extended by it, and their tails,
        (target, suffix) of the empty tail and of each path out of its target."""
        eid, src, tgt, _ = row
        ends = self._path_ends
        heads = [(src, eid)]
        heads += [(ends[pre][0], pre + PATH_SEPARATOR + eid) for pre in self._into[src]]
        tails = [(tgt, "")]
        tails += [(ends[suf][1], PATH_SEPARATOR + suf) for suf in self._out[tgt]]
        return heads, tails

    def _add_edge(self, row: EdgeRow, heads: list, tails: list) -> None:
        """Enter an edge row and its paths head + tail (`_edge_paths`)."""
        self._edge_row[row[0]] = row
        ends, out = self._path_ends, self._out
        for t, tail in tails:
            into_t = self._into[t]
            for s, head in heads:
                new = head + tail
                ends[new] = (s, t)
                out[s].append(new)
                into_t.append(new)

    def _add_square(self, row: SquareRow, src: str, tgt: str) -> None:
        """Enter a square's row and, unless it is degenerate, record it from
        `src` to `tgt` for `_move_pairs`."""
        self._square_row[row[0]] = row
        left, right = path_id(row[1]), path_id(row[2])
        if left != right:
            self._moves.append((left, right, src, tgt))

    def _changed(self) -> None:
        """Drop the flow and the complex built for the cells before."""
        self._flow = self._complex = None


def _move_pairs(moves: Iterable, into: dict, out: dict) -> Iterator[tuple[str, str]]:
    """Yield the normalized move pairs of a realization: head + left + tail
    with head + right + tail, as (a, b) with a < b, for each square (left
    id, right id, source, target) in `moves`, the empty head and each path
    `into` its source, and the empty tail and each path `out` of its
    target.  A path holds a side in at most one way, the 1-skeleton being
    acyclic."""
    for left, right, src, tgt in moves:
        heads = [""] + [pre + PATH_SEPARATOR for pre in into[src]]
        tails = [""] + [PATH_SEPARATOR + suf for suf in out[tgt]]
        for head in heads:
            for tail in tails:
                a, b = head + left + tail, head + right + tail
                yield (a, b) if a < b else (b, a)


class _RealizedFlow(_ConcatenativeFlow):
    """The flow of a complex it holds: its states, its path endpoints and the
    (left id, right id, source, target) of each non-degenerate square,
    which a realizer hands it or, on its first read of `path_ends`, fills
    without counting again.  Its move pairs are made when `adjacency` is
    first read, by `_move_pairs` over `by_tgt` and `by_src`.  Everything
    else is `_ConcatenativeFlow`'s."""

    # its complex validated or its attaches checked, as for `pv_to_complex`'s
    validation = ValidationReport()

    def __init__(self, c: GlobularComplex):
        self.skeleton = frozenset(c.states)
        self._complex = c

    @_cached_property
    def adjacency(self) -> frozenset[tuple[str, str]]:
        into = self.by_tgt  # the first read of `path_ends` sets _moves
        return frozenset(_move_pairs(self._moves, into, self.by_src))

    @_cached_property
    def path_ends(self) -> dict[str, tuple[str, str]]:
        realizer = IncrementalRealizer.__new__(IncrementalRealizer)
        realizer._fill(self._complex)
        self._moves = realizer._moves
        return realizer._path_ends
