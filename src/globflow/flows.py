"""Finite flows: a 0-skeleton, a path set with endpoints, an associative
partial composition, and an adjacency relation standing in for the topology
of the path space.

Composition is a table on composable pairs (target of the first equals
source of the second).  Adjacency relates paths sharing both endpoints; its
reflexive-transitive closure (written adj* throughout) models which paths sit
in the same connected component of the path space.  Validation checks the
axioms exhaustively: endpoint laws and totality on every composable pair,
associativity on every composable triple, plus adjacency being a congruence
for composition.

A flow made by realization, or read from a document that says so, is
*concatenative*: its paths are the "*"-joins of sequences of length-1 paths
(the ids without "*"), and x*y is the id `x + "*" + y` exactly when
tgt(x) = src(y).  Such a flow's composition table says nothing its ids do
not, so it answers `try_compose` and `compose` from its ids, and builds the
table only when `composition` is read by name.  Analyses ask for
composites pair by pair and never read the table; `restrict` and the
fallback of `validate_flow` do.  Validation certifies a concatenative flow
from its ids and its adjacency alone (see `validate_flow`), and walks the
table only when a certificate fails.  A flow built from explicit tables is never
concatenative, whatever its table holds.

Morphisms preserve endpoints and composition on the nose, and adjacency up
to adj*-components.  Two morphisms with equal state maps are S-homotopic
when each path's two images land in the same adj*-component; deformations
can only slide path values along the path space's connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Optional

from .complexes import PATH_SEPARATOR, ValidationReport
from .errors import InvalidFlowError, InvalidMorphismError, UnknownIdError
from .unionfind import class_numbers_of

PathId = str

def _normalize_adjacency(pairs) -> frozenset[tuple[str, str]]:
    """Each unordered pair of distinct paths once, as (a, b) with a < b."""
    return frozenset((a, b) if a < b else (b, a) for a, b in pairs if a != b)


class FiniteFlow:
    """Immutable-by-convention container for a finite flow.

    skeleton: state ids; path_ends: path id -> (source, target);
    composition: (x, y) -> x*y for composable pairs; adjacency: unordered
    pairs of paths with equal source and equal target.
    """

    # whether composition is concatenation of ids (see the module docstring)
    _concatenative = False

    def __init__(
        self,
        skeleton: Iterable[str],
        path_ends: Mapping[str, tuple[str, str]],
        composition: Mapping[tuple[str, str], str] = (),
        adjacency: Iterable[tuple[str, str]] = (),
    ):
        self.skeleton = frozenset(skeleton)
        self.path_ends = {p: (s, t) for p, (s, t) in dict(path_ends).items()}
        self.composition = dict(composition)
        self.adjacency = _normalize_adjacency(adjacency)

    # -- structure access ---------------------------------------------------

    @cached_property
    def paths(self) -> frozenset[str]:
        return frozenset(self.path_ends)

    @cached_property
    def sorted_paths(self) -> tuple[str, ...]:
        return tuple(sorted(self.path_ends))

    @cached_property
    def by_src(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {s: [] for s in self.skeleton}
        for p in self.sorted_paths:
            table.setdefault(self.path_ends[p][0], []).append(p)
        return {s: tuple(ps) for s, ps in table.items()}

    @cached_property
    def by_tgt(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {s: [] for s in self.skeleton}
        for p in self.sorted_paths:
            table.setdefault(self.path_ends[p][1], []).append(p)
        return {s: tuple(ps) for s, ps in table.items()}

    def paths_from(self, state: str) -> tuple[str, ...]:
        return self.by_src.get(state, ())

    def paths_into(self, state: str) -> tuple[str, ...]:
        return self.by_tgt.get(state, ())

    def paths_between(self, src: str, tgt: str) -> tuple[str, ...]:
        return tuple(p for p in self.paths_from(src) if self.path_ends[p][1] == tgt)

    def composable_pairs(self):
        """All (x, y) with tgt(x) = src(y), in sorted order."""
        for state in sorted(self.skeleton):
            for x in self.paths_into(state):
                for y in self.paths_from(state):
                    yield x, y

    def compose(self, x: PathId, y: PathId) -> PathId:
        z = self.try_compose(x, y)
        if z is None:
            raise UnknownIdError(f"composite undefined: ({x}, {y})")
        return z

    def try_compose(self, x: PathId, y: PathId) -> Optional[PathId]:
        return self.composition.get((x, y))

    # -- adjacency ----------------------------------------------------------

    @cached_property
    def adjacency_components(self) -> dict[PathId, int]:
        """path id -> the number of its adj*-component, for every path and
        every id that an adjacency pair names."""
        return class_numbers_of(self.path_ends, self.adjacency)

    def adjacent_star(self, a: PathId, b: PathId) -> bool:
        """Whether a and b lie in the same adj*-component; an id the
        components do not know is only in its own."""
        component = self.adjacency_components
        return component.get(a, a) == component.get(b, b)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteFlow):
            return NotImplemented
        return (
            self.skeleton == other.skeleton
            and self.path_ends == other.path_ends
            # a concatenative flow's composition follows from its path ends
            and (
                self._concatenative and other._concatenative
                or self.composition == other.composition
            )
            and self.adjacency == other.adjacency
        )

    __hash__ = None  # mutable containers inside

    def __repr__(self) -> str:
        return (
            f"FiniteFlow(states={len(self.skeleton)}, paths={len(self.path_ends)}, "
            f"adjacency={len(self.adjacency)})"
        )


class _ConcatenativeFlow(FiniteFlow):
    """A concatenative flow (see the module docstring), made from finished
    tables that it keeps as given: the states, the path endpoints
    ((source, target) tuples) and the normalized adjacency pairs (each
    unordered pair once, as (a, b) with a < b).  Only realization and the
    reader of compact flow documents make one, and each hands over tables
    of the flow's own, which nothing changes afterwards.  The flow
    `realization.realize` returns holds its complex instead and builds
    those tables from it when one is first read.

    Composition is answered from the path ids: x*y is "x" + "*" + "y" when
    tgt(x) = src(y).  The table {(x, y): x*y for every composable pair} is
    built only when `composition` is read.
    """

    _concatenative = True

    def __init__(
        self,
        skeleton: frozenset[str],
        path_ends: dict[str, tuple[str, str]],
        adjacency: frozenset[tuple[str, str]],
    ):
        self.skeleton = skeleton
        self.path_ends = path_ends
        self.adjacency = adjacency

    @cached_property
    def composition(self) -> dict[tuple[str, str], str]:
        by_src = self.by_src
        return {
            (x, y): f"{x}{PATH_SEPARATOR}{y}"
            for x, (_, t) in self.path_ends.items()
            for y in by_src.get(t, ())
        }

    def try_compose(self, x: PathId, y: PathId) -> Optional[PathId]:
        ends = self.path_ends
        x_ends, y_ends = ends.get(x), ends.get(y)
        if x_ends is None or y_ends is None or x_ends[1] != y_ends[0]:
            return None
        return f"{x}{PATH_SEPARATOR}{y}"


# ---------------------------------------------------------------------------
# validation


def validate_flow(flow: FiniteFlow) -> ValidationReport:
    """Exhaustive axiom check; reports every violation found.

    Every axiom is checked on the whole flow, but some checks take a
    shortcut that cannot change the outcome.  Totality walks the
    composable pairs only when fewer composable entries exist than
    composable pairs.  Associativity is certified without the walk over
    composable triples when every composition entry (x, y) -> z has
    z = "x*y": string concatenation is associative, so (x*y)*z and
    x*(y*z) are the same string; any other flow gets the full walk
    (`_associativity_violations`).

    A concatenative flow (see the module docstring) has no table to check
    unless one is asked for: two exact certificates stand in for the walk
    over its composition, and its table is not read.
      - Closure (`_closed_under_concatenation`): every id splits on "*"
        into length-1 paths that compose in order, its ends are the first
        piece's source and the last piece's target, and every path
        extended by a length-1 path leaving its target is a path (shown by
        counting).  Joining is injective, so the paths are then exactly
        the composable sequences of length-1 paths, and the endpoint laws,
        totality and associativity of concatenation hold.
      - Congruence (`_adjacency_extends`): each adjacency pair (a, b)
        extended by any length-1 path on either side is again an adjacency
        pair; by induction on the extension, composing with any path keeps
        adjacent paths adjacent.
    If both hold, the only violations left are those of the endpoint
    checks, which run as for any flow.  If either fails, the flow is
    checked as the explicit flow holding its concatenation table, with the
    same violations in the same order.
    """
    skeleton, ends = flow.skeleton, flow.path_ends

    dangling: list[str] = []
    for p in flow.sorted_paths:
        s, t = ends[p]
        if s not in skeleton:
            dangling.append(f"dangling path endpoint: source {s} of path {p}")
        if t not in skeleton:
            dangling.append(f"dangling path endpoint: target {t} of path {p}")

    unpaired: list[str] = []
    matched: list[tuple[str, str]] = []  # pairs of known paths with equal ends
    for a, b in sorted(flow.adjacency):
        if a not in ends or b not in ends:
            unpaired.append(f"unknown path in adjacency: ({a}, {b})")
        elif ends[a] != ends[b]:
            unpaired.append(f"adjacency endpoints: {a} and {b} do not share endpoints")
        else:
            matched.append((a, b))

    if flow._concatenative:
        length_one = {p: st for p, st in ends.items() if PATH_SEPARATOR not in p}
        if _closed_under_concatenation(flow, length_one) and _adjacency_extends(
            flow, length_one, matched
        ):
            return ValidationReport(tuple(dangling + unpaired))

    violations = dangling

    # entries are checked in table order and reported in key order
    entry_violations: list[tuple[tuple[str, str], str]] = []
    composable = 0
    for key, z in flow.composition.items():
        x, y = key
        x_ends, y_ends = ends.get(x), ends.get(y)
        if x_ends is None or y_ends is None:
            entry_violations.append((key, f"unknown path in composition entry: ({x}, {y})"))
            continue
        if x_ends[1] != y_ends[0]:
            entry_violations.append((key, f"spurious composition: ({x}, {y}) is not composable"))
            continue
        if x_ends[1] in skeleton:
            composable += 1
        z_ends = ends.get(z)
        if z_ends is None:
            entry_violations.append((key, f"composite not a path: {x} * {y} = {z}"))
            continue
        if z_ends[0] != x_ends[0]:
            entry_violations.append((key, f"source axiom: s({x} * {y}) != s({x})"))
        if z_ends[1] != y_ends[1]:
            entry_violations.append((key, f"target axiom: t({x} * {y}) != t({y})"))
    entry_violations.sort(key=itemgetter(0))
    violations.extend(message for _, message in entry_violations)

    # each composable pair has at most one entry, so equal counts mean total
    pairs = sum(len(flow.paths_into(s)) * len(flow.paths_from(s)) for s in skeleton)
    if composable != pairs:
        for x, y in flow.composable_pairs():
            if (x, y) not in flow.composition:
                violations.append(f"composition not total: ({x}, {y}) undefined")

    if not all(
        z == f"{x}{PATH_SEPARATOR}{y}" for (x, y), z in flow.composition.items()
    ):
        violations.extend(_associativity_violations(flow))

    violations.extend(unpaired)
    violations.extend(_congruence_violations(flow, matched))

    return ValidationReport(tuple(violations))


def _closed_under_concatenation(flow: FiniteFlow, length_one: dict) -> bool:
    """The closure certificate of `validate_flow`; `length_one` holds the
    length-1 paths with their ends.

    An id x*e, with e the piece after its last "*", splits into composable
    length-1 paths with the right ends when e is a length-1 path, x is a
    path that splits so and ends where e starts, and the id's ends are
    x's source and e's target; every id is checked so, which proves it
    for all by induction on length.

    Then every path of two or more pieces is a path x extended by a
    length-1 path e leaving x's target, and no two are the same extension.
    So the paths are all composable sequences of length-1 paths exactly
    when there are as many of them as such pairs (x, e): every extension
    is then a path, and by induction on length so is every sequence.  A
    cycle among the length-1 paths would make the sequences endless, so
    it never passes.
    """
    ends = flow.path_ends
    for p, p_ends in ends.items():
        head, separator, e = p.rpartition(PATH_SEPARATOR)
        if not separator:
            continue  # a length-1 path
        head_ends, e_ends = ends.get(head), length_one.get(e)
        if (
            head_ends is None
            or e_ends is None
            or head_ends[1] != e_ends[0]
            or p_ends != (head_ends[0], e_ends[1])
        ):
            return False
    leaving: dict[str, int] = {}  # state -> length-1 paths out of it
    for s, _ in length_one.values():
        leaving[s] = leaving.get(s, 0) + 1
    extensions = sum(leaving.get(t, 0) for _, t in ends.values())
    return extensions == len(ends) - len(length_one)


def _adjacency_extends(flow: FiniteFlow, length_one: dict, matched) -> bool:
    """The congruence certificate of `validate_flow`, for a flow closed
    under concatenation; `length_one` holds the length-1 paths with their
    ends.  Only the `matched` adjacency pairs, of known paths with equal
    ends, are extended: the others are left to the endpoint checks, as the
    congruence check leaves them."""
    if not matched:
        return True
    ends, adjacency = flow.path_ends, flow.adjacency
    tails: dict[str, list[str]] = {}  # state -> "*e" for each e out of it
    heads: dict[str, list[str]] = {}  # state -> "e*" for each e into it
    for e, (s, t) in length_one.items():
        tails.setdefault(s, []).append(PATH_SEPARATOR + e)
        heads.setdefault(t, []).append(e + PATH_SEPARATOR)
    for a, b in matched:
        s, t = ends[a]
        for tail in tails.get(t, ()):
            x, y = a + tail, b + tail
            if ((x, y) if x < y else (y, x)) not in adjacency:
                return False
        # a < b, so the pair extended on the left is ordered already
        for head in heads.get(s, ()):
            if (head + a, head + b) not in adjacency:
                return False
    return True


def _associativity_violations(flow: FiniteFlow) -> list[str]:
    """Associativity on every composable triple, exactly."""
    out = []
    for x, y in flow.composable_pairs():
        xy = flow.try_compose(x, y)
        if xy is None:
            continue
        for z in flow.paths_from(flow.path_ends[y][1]):
            yz = flow.try_compose(y, z)
            left = flow.try_compose(xy, z) if xy in flow.paths else None
            right = flow.try_compose(x, yz) if yz in flow.paths else None
            if left is None or right is None:
                continue  # totality violations already reported
            if left != right:
                out.append(
                    f"associativity: ({x} * {y}) * {z} = {left} but {x} * ({y} * {z}) = {right}"
                )
    return out


def _congruence_violations(flow: FiniteFlow, matched) -> list[str]:
    """Adjacency must be a congruence: composing with an adjacent path on
    either side lands in the same adj*-component.

    `matched` holds the pairs of the sorted adjacency whose paths are
    known and share both ends; `validate_flow` reports the others.
    Components are compared by number; an id the components do not know
    is only in its own, as in `adjacent_star`.
    """
    ends, compose = flow.path_ends, flow.composition.get
    component = flow.adjacency_components.get
    out = []
    for a, b in matched:
        s, t = ends[a]
        for y in flow.paths_from(t):
            ay, by = compose((a, y)), compose((b, y))
            if ay is None or by is None:
                continue
            if component(ay, ay) != component(by, by):
                out.append(
                    f"adjacency congruence: {a} ~ {b} but {a} * {y} and {b} * {y} "
                    "are in distinct components"
                )
        for z in flow.paths_into(s):
            za, zb = compose((z, a)), compose((z, b))
            if za is None or zb is None:
                continue
            if component(za, za) != component(zb, zb):
                out.append(
                    f"adjacency congruence: {a} ~ {b} but {z} * {a} and {z} * {b} "
                    "are in distinct components"
                )
    return out


def require_valid_flow(flow: FiniteFlow) -> None:
    report = validate_flow(flow)
    if not report.ok:
        raise InvalidFlowError(report.violations)


# ---------------------------------------------------------------------------
# constructions


def glob_flow(labels: Iterable[str]) -> FiniteFlow:
    """The flow of a globe: states 0 and 1, one path 0 -> 1 per label.

    No two paths are composable, so the composition table is empty.
    """
    names = sorted(set(labels))
    if not names:
        raise ValueError("glob_flow: label set must be nonempty")
    return FiniteFlow(
        skeleton=("0", "1"),
        path_ends={name: ("0", "1") for name in names},
    )


def restrict(flow: FiniteFlow, keep: Iterable[str]) -> FiniteFlow:
    """The flow over a sub-0-skeleton: keep paths with both endpoints kept.

    Paths may still pass through dropped states; only endpoints matter,
    so a composite across a dropped state survives while its two halves
    do not.  Composition and adjacency are inherited.
    """
    keep = frozenset(keep)
    stray = keep - flow.skeleton
    if stray:
        raise ValueError(
            "restrict: not a subset of the 0-skeleton: " + ", ".join(sorted(stray))
        )
    path_ends = {
        p: ends
        for p, ends in flow.path_ends.items()
        if ends[0] in keep and ends[1] in keep
    }
    return FiniteFlow(
        skeleton=keep,
        path_ends=path_ends,
        composition={
            (x, y): z
            for (x, y), z in flow.composition.items()
            if x in path_ends and y in path_ends and z in path_ends
        },
        adjacency={
            (a, b) for a, b in flow.adjacency if a in path_ends and b in path_ends
        },
    )


# ---------------------------------------------------------------------------
# germs


@dataclass(frozen=True)
class GermSet:
    """Classes of paths that begin (minus) or end (plus) the same way at a state."""

    state: str
    sign: str
    classes: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(self.classes)


def germs(flow: FiniteFlow, state: str, sign: str) -> GermSet:
    """Quotient of the paths leaving (minus) or entering (plus) `state`.

    Minus identifies a path with every right extension (gamma with
    gamma * gamma'), plus with every left extension.  The classes are
    those of the partition generated by joining each member with its
    composites: with the paths out of its target (minus) or into its
    source (plus).  Each class is sorted, and classes are ordered by their
    first member.
    """
    if sign not in ("minus", "plus"):
        raise ValueError(f"germs: sign must be 'minus' or 'plus', got {sign!r}")
    if state not in flow.skeleton:
        raise UnknownIdError(f"unknown state: {state}")

    minus = sign == "minus"
    members = flow.paths_from(state) if minus else flow.paths_into(state)
    member_set, compose = set(members), flow.try_compose
    joins = []
    for p in members:
        s, t = flow.path_ends[p]
        for q in flow.paths_from(t) if minus else flow.paths_into(s):
            z = compose(p, q) if minus else compose(q, p)
            if z in member_set:
                joins.append((p, z))
    return GermSet(state=state, sign=sign, classes=_blocks(members, joins))


def dihomotopy_classes(
    flow: FiniteFlow, src: str, tgt: str
) -> tuple[tuple[str, ...], ...]:
    """adj*-components of the paths from src to tgt, sorted."""
    for s in (src, tgt):
        if s not in flow.skeleton:
            raise UnknownIdError(f"unknown state: {s}")
    # adjacency preserves endpoints, so the components of the member paths
    # under the pairs among them are their adj*-components in the flow
    ends, pair = flow.path_ends, (src, tgt)
    joins = [
        (a, b) for a, b in flow.adjacency if ends.get(a) == pair and ends.get(b) == pair
    ]
    return _blocks(flow.paths_between(src, tgt), joins)


def _blocks(members: tuple[str, ...], joins) -> tuple[tuple[str, ...], ...]:
    """The classes of the sorted `members` under the equivalence that
    `joins`, pairs of members, generate: each sorted, ordered by first
    member."""
    blocks: dict[int, list[str]] = {}
    for p, k in class_numbers_of(members, joins).items():
        blocks.setdefault(k, []).append(p)
    return tuple(map(tuple, blocks.values()))


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class FlowMorphism:
    state_map: Mapping[str, str] = field(default_factory=dict)
    path_map: Mapping[str, str] = field(default_factory=dict)


def identity_flow_morphism(flow: FiniteFlow) -> FlowMorphism:
    return FlowMorphism(
        state_map={s: s for s in flow.skeleton},
        path_map={p: p for p in flow.paths},
    )


def compose_flow_morphisms(outer: FlowMorphism, inner: FlowMorphism) -> FlowMorphism:
    return FlowMorphism(
        state_map={s: outer.state_map[t] for s, t in inner.state_map.items()},
        path_map={p: outer.path_map[q] for p, q in inner.path_map.items()},
    )


def flow_morphism_violations(
    f: FlowMorphism, dom: FiniteFlow, cod: FiniteFlow
) -> list[str]:
    """Why f fails to be a flow morphism dom -> cod; empty when it is one."""
    out: list[str] = []
    for s in sorted(dom.skeleton):
        image = f.state_map.get(s)
        if image is None:
            out.append(f"state_map undefined on {s}")
        elif image not in cod.skeleton:
            out.append(f"state_map sends {s} outside the codomain: {image}")
    for p in dom.sorted_paths:
        image = f.path_map.get(p)
        if image is None:
            out.append(f"path_map undefined on {p}")
            continue
        if image not in cod.paths:
            out.append(f"path_map sends {p} outside the codomain: {image}")
            continue
        ps, pt = dom.path_ends[p]
        if cod.path_ends[image] != (f.state_map.get(ps), f.state_map.get(pt)):
            out.append(f"endpoint mismatch on path {p}")
    if out:
        return out
    for x, y in dom.composable_pairs():
        xy = dom.try_compose(x, y)
        if xy is None:
            out.append(f"domain composition not total at ({x}, {y})")
            continue
        if xy not in dom.path_ends:
            out.append(f"domain composite not a path: {x} * {y} = {xy}")
            continue
        image = cod.try_compose(f.path_map[x], f.path_map[y])
        if image is None:
            out.append(f"codomain composite undefined for images of ({x}, {y})")
        elif image != f.path_map[xy]:
            out.append(f"composition not preserved on ({x}, {y})")
    for a, b in sorted(dom.adjacency):
        if a not in dom.path_ends or b not in dom.path_ends:
            out.append(f"domain adjacency names a non-path: ({a}, {b})")
        elif not cod.adjacent_star(f.path_map[a], f.path_map[b]):
            out.append(f"adjacency not preserved on ({a}, {b})")
    return out


def is_flow_morphism(f: FlowMorphism, dom: FiniteFlow, cod: FiniteFlow) -> bool:
    return not flow_morphism_violations(f, dom, cod)


def require_flow_morphism(f: FlowMorphism, dom: FiniteFlow, cod: FiniteFlow) -> None:
    violations = flow_morphism_violations(f, dom, cod)
    if violations:
        raise InvalidMorphismError("not a flow morphism: " + "; ".join(violations))


def s_homotopic(
    f: FlowMorphism, g: FlowMorphism, dom: FiniteFlow, cod: FiniteFlow
) -> bool:
    """Whether two morphisms dom -> cod are S-homotopic.

    They must agree on the 0-skeleton; each path's two images must lie in
    the same adj*-component of the codomain, since a deformation through
    morphisms moves path values only along path-space adjacency.
    """
    require_flow_morphism(f, dom, cod)
    require_flow_morphism(g, dom, cod)
    if any(f.state_map[s] != g.state_map[s] for s in dom.skeleton):
        return False
    return all(
        cod.adjacent_star(f.path_map[p], g.path_map[p]) for p in dom.paths
    )


# ---------------------------------------------------------------------------
# deadlocks


def deadlocks(
    flow: FiniteFlow, init: str, finals: Iterable[str] = ()
) -> tuple[str, ...]:
    """Reachable, non-final states that no path leaves.

    A state counts as reachable when it is `init` itself or the target of
    some path out of `init`; since flows are composition-closed, one-path
    reachability coincides with iterated reachability.  One pass over the
    path endpoints finds both the states some path leaves and the targets
    of the paths out of `init`; no index of the flow is built.
    """
    finals = frozenset(finals)
    if init not in flow.skeleton:
        raise UnknownIdError(f"unknown state: {init}")
    stray = finals - flow.skeleton
    if stray:
        raise UnknownIdError("unknown final states: " + ", ".join(sorted(stray)))
    reachable = {init}
    departing = set()
    for s, t in flow.path_ends.values():
        departing.add(s)
        if s == init:
            reachable.add(t)
    return tuple(
        sorted(s for s in reachable if s not in finals and s not in departing)
    )
