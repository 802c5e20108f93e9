"""From globular complexes to flows.

The realization of a complex keeps the same 0-skeleton and takes *all*
execution paths as its path set, with composition given by concatenation of
edge sequences and adjacency given by single square moves.  A composite's
path id is its edge-id sequence joined with "*", so associativity holds by
construction and never depends on table bookkeeping.

Realization extends cell by cell: attaching an edge only creates the paths
running through it, attaching a square only contributes its move pairs.
`IncrementalRealizer` exploits that to keep a realization current while a
complex is being built, and `incremental_realize` checks a single step.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Union

from .complexes import (
    PATH_SEPARATOR,
    ComplexMorphism,
    Edge,
    ExecPath,
    GlobularComplex,
    Square,
    all_exec_paths,
    complex_morphism_violations,
    require_valid,
    square_move_neighbors,
)
from .errors import InvalidAttachmentError, InvalidMorphismError
from .flows import FiniteFlow, FlowMorphism


def path_id(seq: Iterable[str]) -> str:
    """The canonical flow path id of an edge-id sequence."""
    return PATH_SEPARATOR.join(seq)


def realize(c: GlobularComplex) -> FiniteFlow:
    """The flow of a complex: same states, all execution paths, square moves.

    The complex must validate; acyclicity keeps the path set finite.
    """
    require_valid(c)
    seqs = all_exec_paths(c)
    path_ends = {
        path_id(seq): (c.path_source(seq), c.path_target(seq)) for seq in seqs
    }

    by_src: dict[str, list[ExecPath]] = {}
    by_tgt: dict[str, list[ExecPath]] = {}
    for seq in seqs:
        by_src.setdefault(c.path_source(seq), []).append(seq)
        by_tgt.setdefault(c.path_target(seq), []).append(seq)

    composition = {}
    for state in c.states:
        for x in by_tgt.get(state, ()):
            for y in by_src.get(state, ()):
                composition[(path_id(x), path_id(y))] = path_id(x + y)

    adjacency = {
        (path_id(seq), path_id(other))
        for seq in seqs
        for other in square_move_neighbors(c, seq)
    }

    return FiniteFlow(
        skeleton=c.states,
        path_ends=path_ends,
        composition=composition,
        adjacency=adjacency,
    )


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

    Attaching a state only grows the skeleton.  Attaching an edge creates
    exactly the paths factoring through it (old path into its source, the
    edge, old path out of its target) and the composites and moves they
    take part in.  Attaching a square leaves the path set alone and adds
    the move pairs for its two boundaries.  The cost of an attach is the
    new paths, composites and move pairs it builds, plus a copy of the
    flow's tables, since a flow once handed out is never changed.
    """

    def __init__(self, c: GlobularComplex):
        self._complex = c
        self._flow = realize(c)

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
        self._flow = FiniteFlow(
            skeleton=self._flow.skeleton | {name},
            path_ends=self._flow.path_ends,
            composition=self._flow.composition,
            adjacency=self._flow.adjacency,
        )
        return self._flow

    def attach_edge(self, edge: Edge) -> FiniteFlow:
        c, flow = self._complex, self._flow
        if edge.id in c.edge_map:
            raise InvalidAttachmentError(f"edge id already present: {edge.id}")
        if PATH_SEPARATOR in edge.id:
            raise InvalidAttachmentError(f"reserved character in edge id: {edge.id}")
        for endpoint in (edge.src, edge.tgt):
            if endpoint not in c.state_set:
                raise InvalidAttachmentError(f"dangling endpoint: {endpoint}")
        if edge.src == edge.tgt or flow.paths_between(edge.tgt, edge.src):
            raise InvalidAttachmentError(
                f"attaching {edge.id} would close a directed cycle"
            )
        c = replace(c, edges=c.edges + (edge,))

        path_ends = dict(flow.path_ends)
        composition = dict(flow.composition)
        adjacency = set(flow.adjacency)
        for pre in (None, *flow.paths_into(edge.src)):
            s = edge.src if pre is None else flow.path_ends[pre][0]
            for suf in (None, *flow.paths_from(edge.tgt)):
                t = edge.tgt if suf is None else flow.path_ends[suf][1]
                new = _join(pre, edge.id, suf)
                path_ends[new] = (s, t)
                # a new path composes with old paths only: two new paths
                # would both hold the edge, and the 1-skeleton is acyclic
                for y in flow.paths_from(t):
                    composition[(new, y)] = _join(new, y)
                for x in flow.paths_into(s):
                    composition[(x, new)] = _join(x, new)
                # edge ids never contain the separator, so splitting
                # the id gives back the edge sequence
                for other in square_move_neighbors(c, new.split(PATH_SEPARATOR)):
                    adjacency.add((new, path_id(other)))

        self._complex = c
        self._flow = FiniteFlow(
            skeleton=flow.skeleton,
            path_ends=path_ends,
            composition=composition,
            adjacency=adjacency,
        )
        return self._flow

    def attach_square(self, square: Square) -> FiniteFlow:
        c, flow = self._complex, self._flow
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
        # exactly one way
        adjacency = set(flow.adjacency)
        left_id, right_id = path_id(left), path_id(right)
        for pre in (None, *flow.paths_into(src)):
            for suf in (None, *flow.paths_from(tgt)):
                adjacency.add((_join(pre, left_id, suf), _join(pre, right_id, suf)))

        self._complex = replace(c, squares=c.squares + (square,))
        self._flow = FiniteFlow(
            skeleton=flow.skeleton,
            path_ends=flow.path_ends,
            composition=flow.composition,
            adjacency=adjacency,
        )
        return self._flow


def _join(*parts: "str | None") -> str:
    """The path id of consecutive path ids, skipping absent (None) parts."""
    return path_id(p for p in parts if p is not None)


def incremental_realize(c: GlobularComplex, cell: Cell) -> FiniteFlow:
    """Realize `c` with `cell` attached by extending the realization of `c`."""
    realizer = IncrementalRealizer(c)
    return realizer.attach(cell)
