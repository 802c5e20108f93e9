"""From globular complexes to flows.

The realization of a complex keeps the same 0-skeleton and takes *all*
execution paths as its path set, with composition given by concatenation of
edge sequences and adjacency given by single square moves.  A composite's
path id is its edge-id sequence joined with "*", so associativity holds by
construction and never depends on table bookkeeping.

The path and composite counts grow much faster than the complex, so
`realize` counts them exactly first (a pass over the complex, no path
listed) and refuses, with RealizationLimitExceeded, a realization holding
more of them together than GLOBFLOW_REALIZE_LIMIT (default 10^6).

Realization extends cell by cell: attaching an edge only creates the paths
running through it, attaching a square only contributes its move pairs.
`IncrementalRealizer` keeps a realization current while a complex is being
built.  It owns the realization's tables and an index of paths by endpoint,
changes them in place, and hands out each step's flow as a copy that later
steps leave alone, so an attach costs what the cell adds plus one copy of
each table.  It checks the same limit before each edge it attaches, from
the counts the edge would add.  `incremental_realize` checks a single step.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Union

from .complexes import (
    PATH_SEPARATOR,
    ComplexMorphism,
    Edge,
    GlobularComplex,
    Square,
    all_exec_paths,
    complex_morphism_violations,
    count_paths_and_composites,
    square_move_neighbors,
)
from .errors import (
    InvalidAttachmentError,
    InvalidMorphismError,
    RealizationLimitExceeded,
)
from .flows import FiniteFlow, FlowMorphism
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

    The complex must validate; acyclicity keeps the path set finite.  Before
    anything is built, the exact numbers of paths and composites are worked
    out (`count_paths_and_composites`), and a complex whose realization
    would hold more of them together than GLOBFLOW_REALIZE_LIMIT (default
    DEFAULT_REALIZE_LIMIT) raises RealizationLimitExceeded; a variable that
    does not hold a non-negative integer raises ValueError.
    """
    paths, composites = count_paths_and_composites(c)  # validates c first
    _check_limit(paths, composites, _realize_limit())

    seqs = all_exec_paths(c)
    ids = [path_id(seq) for seq in seqs]
    path_ends = {}
    by_src: dict[str, list[str]] = {}
    by_tgt: dict[str, list[str]] = {}
    for p, seq in zip(ids, seqs):
        s, t = c.path_source(seq), c.path_target(seq)
        path_ends[p] = (s, t)
        by_src.setdefault(s, []).append(p)
        by_tgt.setdefault(t, []).append(p)

    composition: dict[tuple[str, str], str] = {}
    for state in c.states:
        _compose_all(composition, by_tgt.get(state, ()), by_src.get(state, ()))

    adjacency = {
        (p, path_id(other))
        for p, seq in zip(ids, seqs)
        for other in square_move_neighbors(c, seq)
    }

    return FiniteFlow(
        skeleton=c.states,
        path_ends=path_ends,
        composition=composition,
        adjacency=adjacency,
    )


def _realize_limit() -> int:
    """GLOBFLOW_REALIZE_LIMIT, or DEFAULT_REALIZE_LIMIT when it is unset."""
    return env_count(REALIZE_LIMIT_ENV_VAR, DEFAULT_REALIZE_LIMIT)


def _check_limit(paths: int, composites: int, limit: int) -> None:
    if paths + composites > limit:
        raise RealizationLimitExceeded(paths, composites, limit)


def _compose_all(composition: dict, xs: Iterable[str], ys: Iterable[str]) -> None:
    """Enter x * y for every x in xs and y in ys.  The composite's id is
    "x*y": path ids are edge-id sequences joined with the separator, so
    this is the id of the concatenated sequence."""
    for x in xs:
        head = x + PATH_SEPARATOR
        for y in ys:
            composition[(x, y)] = head + y


def realize_morphism(
    m: ComplexMorphism, dom: GlobularComplex, cod: GlobularComplex
) -> FlowMorphism:
    """The flow morphism induced on realizations: substitute edgewise, concatenate."""
    violations = complex_morphism_violations(m, dom, cod)
    if violations:
        raise InvalidMorphismError("not a complex morphism: " + "; ".join(violations))
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
    """Keeps a complex and its realization in sync while cells are attached.

    The realizer owns the realization's tables and changes them in place:
    path endpoints, composition, the normalized adjacency pairs, and for
    each state the paths out of it and into it.  Attaching a state only
    grows the skeleton.  Attaching an edge creates exactly the paths
    factoring through it (old path into its source, the edge, old path out
    of its target), their composites with old paths and their square moves,
    all found from the realizer's own index.  Attaching a square leaves the
    path set alone and adds the move pairs of its two boundaries.  Every
    check runs before any table changes, so a rejected cell leaves the
    realizer as it was.  One of these checks is the realization limit: an
    edge whose new paths and composites would take the realization over
    GLOBFLOW_REALIZE_LIMIT, as read when the realizer was made, raises
    RealizationLimitExceeded, as `realize` of the extended complex would.

    Each attach returns a new flow that later attaches never change: one
    C-level copy of each table, with the flow's sorted indexes left to be
    built only if something asks for them.  An attach therefore costs the
    paths, composites and move pairs it adds plus those copies, never a
    re-index of the whole flow.
    """

    def __init__(self, c: GlobularComplex):
        self._limit = _realize_limit()
        flow = realize(c)
        self._complex = c
        self._flow = flow
        self._path_ends = dict(flow.path_ends)
        self._composition = dict(flow.composition)
        self._adjacency = set(flow.adjacency)
        self._out: dict[str, list[str]] = {s: [] for s in flow.skeleton}
        self._into: dict[str, list[str]] = {s: [] for s in flow.skeleton}
        for p, (s, t) in flow.path_ends.items():
            self._out[s].append(p)
            self._into[t].append(p)

    @property
    def complex(self) -> GlobularComplex:
        return self._complex

    @property
    def flow(self) -> FiniteFlow:
        return self._flow

    def attach(self, cell: Cell) -> FiniteFlow:
        if isinstance(cell, str):
            return self.attach_state(cell)
        if isinstance(cell, Edge):
            return self.attach_edge(cell)
        if isinstance(cell, Square):
            return self.attach_square(cell)
        raise InvalidAttachmentError(f"not an attachable cell: {cell!r}")

    def attach_state(self, name: str) -> FiniteFlow:
        if name in self._complex.state_set:
            raise InvalidAttachmentError(f"state already present: {name}")
        self._complex = replace(self._complex, states=self._complex.states + (name,))
        self._out[name] = []
        self._into[name] = []
        return self._hand_out(self._flow.skeleton | {name})

    def attach_edge(self, edge: Edge) -> FiniteFlow:
        c = self._complex
        ends, out, into = self._path_ends, self._out, self._into
        if edge.id in c.edge_map:
            raise InvalidAttachmentError(f"edge id already present: {edge.id}")
        if PATH_SEPARATOR in edge.id:
            raise InvalidAttachmentError(f"reserved character in edge id: {edge.id}")
        for endpoint in (edge.src, edge.tgt):
            if endpoint not in c.state_set:
                raise InvalidAttachmentError(f"dangling endpoint: {endpoint}")
        if edge.src == edge.tgt or any(ends[p][1] == edge.src for p in out[edge.tgt]):
            raise InvalidAttachmentError(
                f"attaching {edge.id} would close a directed cycle"
            )

        composition, adjacency = self._composition, self._adjacency
        heads = [(edge.src, edge.id)]
        heads += [(ends[pre][0], pre + PATH_SEPARATOR + edge.id) for pre in into[edge.src]]
        tails = [(edge.tgt, "")]
        tails += [(ends[suf][1], PATH_SEPARATOR + suf) for suf in out[edge.tgt]]
        # each new path s -> t composes with the old paths into s and out of t
        _check_limit(
            len(ends) + len(heads) * len(tails),
            len(composition)
            + len(tails) * sum([len(into[s]) for s, _ in heads])
            + len(heads) * sum([len(out[t]) for t, _ in tails]),
            self._limit,
        )
        c = replace(c, edges=c.edges + (edge,))
        for s, head in heads:
            for t, tail in tails:
                new = head + tail
                # a new path composes with old paths only: two new paths
                # would both hold the edge, and the 1-skeleton is acyclic.
                # For the same reason no new path is ever listed out of t
                # or into s, so the lists read here hold old paths only.
                _compose_all(composition, (new,), out[t])
                _compose_all(composition, into[s], (new,))
                ends[new] = (s, t)
                out[s].append(new)
                into[t].append(new)
                # edge ids never contain the separator, so splitting the
                # id gives back the edge sequence
                for other in square_move_neighbors(c, new.split(PATH_SEPARATOR)):
                    other_id = path_id(other)
                    adjacency.add((new, other_id) if new < other_id else (other_id, new))

        self._complex = c
        return self._hand_out(self._flow.skeleton)

    def attach_square(self, square: Square) -> FiniteFlow:
        c = self._complex
        if square.id in c.square_map:
            raise InvalidAttachmentError(f"square id already present: {square.id}")
        left, right = tuple(square.left), tuple(square.right)
        for name, side in (("left", left), ("right", right)):
            if not side or not c.is_exec_path(side):
                raise InvalidAttachmentError(
                    f"square {square.id} {name} side is not an execution path"
                )
        src, tgt = c.path_source(left), c.path_target(left)
        if src != c.path_source(right) or tgt != c.path_target(right):
            raise InvalidAttachmentError(
                f"square {square.id} sides do not share endpoints"
            )

        # a path passes through src at most once (the 1-skeleton is
        # acyclic), so each one holding a boundary is pre + side + suf in
        # exactly one way; a degenerate square moves nothing
        left_id, right_id = path_id(left), path_id(right)
        if left_id != right_id:
            adjacency = self._adjacency
            heads = [""] + [pre + PATH_SEPARATOR for pre in self._into[src]]
            tails = [""] + [PATH_SEPARATOR + suf for suf in self._out[tgt]]
            for head in heads:
                for tail in tails:
                    a, b = head + left_id + tail, head + right_id + tail
                    adjacency.add((a, b) if a < b else (b, a))

        self._complex = replace(c, squares=c.squares + (square,))
        return self._hand_out(self._flow.skeleton)

    def _hand_out(self, skeleton: frozenset[str]) -> FiniteFlow:
        """Snapshot the owned tables as the current flow."""
        self._flow = FiniteFlow._adopt(
            skeleton, self._path_ends, self._composition, self._adjacency
        )
        return self._flow


def incremental_realize(c: GlobularComplex, cell: Cell) -> FiniteFlow:
    """Realize `c` with `cell` attached by extending the realization of `c`."""
    realizer = IncrementalRealizer(c)
    return realizer.attach(cell)
