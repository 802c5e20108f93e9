"""Exhaustive equivalence checks on finite flows.

Everything here is a bounded search over finitely many structure maps,
and every search over maps runs the one depth-first search `_depth_first`:
it assigns keys in order, tries each key's options in order, backtracks
with an explicit stack, and charges one budget unit per option it tries.
An injective search skips options already in use without charging them.

- `enumerate_flow_morphisms` tries every state map and backtracks over
  path images compatible with it, pruning on endpoints, on composition
  preservation as soon as all three participants of a composable pair are
  assigned, and on adjacency as soon as both paths of a pair are.
- `s_equivalent` looks for a pair of morphisms whose two round trips are
  S-homotopic to the identities.  Since S-homotopic morphisms agree on
  states, only mutually inverse skeleton bijections can work, and of
  those only the ones `_state_maps` yields (below).
- `find_flow_isomorphism` searches for an invertible morphism over the
  state maps `_state_maps` yields, after checking skeleton, path and
  composite counts, then runs the path search injectively.
- `check_t_dihomotopy` evaluates the three refinement conditions for a
  morphism between flows that validate: the corestriction onto the image
  skeleton is an isomorphism, germs at the remaining states are singletons
  both ways, and every path outside the image extends into it.  The first
  builds no restricted flow: past the counts, only the inverse's
  adjacency can fail, checked by the loop `find_flow_isomorphism` runs.

The state search `_state_maps` assigns the domain's sorted states in
order (VF2-style) and offers each only the codomain states that agree on
a per-state-pair invariant.  For S-equivalence the invariant is K(s, t),
the number of adj*-components of the paths from s to t (0 when there are
none).  It is exact, not a heuristic: a witness f sends P(s, t) into
P(sigma s, sigma t) and keeps adj*, so it induces a map on components, and
g f adj* id and f g adj* id make that map a bijection.  So every state map
that carries a witness keeps K, the has-a-path relation included.  An
isomorphism keeps both the path count and K of every pair, and its search
uses that pair as the invariant.  Only the state maps that cannot carry a
witness are left out, in the order of `permutations`, so the first witness
is the one an unpruned search finds.

Searches are deterministic: candidates are generated in lexicographic
order and the first witness wins.  A budget caps the number of candidates
examined; exhausting it raises SearchBudgetExceeded so "none found" always
means a completed search.  One candidate, one budget unit, is an option
the depth-first search tries (a state of a state map or a path image), a
state map handed to the path search, or a pair (f, g) of morphisms that
`s_equivalent` checks.  Building the invariant tables costs nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .errors import SearchBudgetExceeded
from .flows import FiniteFlow, FlowMorphism, germs, require_flow_morphism

DEFAULT_SEARCH_BUDGET = 10**6

# consulted by the CLI; the library itself only takes explicit budgets
BUDGET_ENV_VAR = "GLOBFLOW_SEARCH_BUDGET"


class _Budget:
    def __init__(self, limit: Optional[int]):
        self.limit = DEFAULT_SEARCH_BUDGET if limit is None else limit
        self.used = 0

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise SearchBudgetExceeded(self.limit)


def enumerate_flow_morphisms(
    dom: FiniteFlow,
    cod: FiniteFlow,
    state_map: Optional[dict[str, str]] = None,
    budget: Optional[int] = None,
) -> Iterator[FlowMorphism]:
    """All flow morphisms dom -> cod, lexicographically by candidate choice.

    With `state_map` given, only path assignments are searched.  The budget
    is charged once per candidate considered (state maps and partial path
    assignments alike).
    """
    yield from _morphisms(dom, cod, state_map, _Budget(budget))


def _morphisms(dom, cod, state_map, budget: _Budget) -> Iterator[FlowMorphism]:
    """enumerate_flow_morphisms charging a meter the caller may share."""
    if state_map is not None:
        state_maps = [state_map]
    else:
        states = sorted(dom.skeleton)
        targets = sorted(cod.skeleton)
        state_maps = (
            dict(zip(states, choice)) for choice in product(targets, repeat=len(states))
        )
    for sigma in state_maps:
        budget.charge()
        if any(sigma.get(s) not in cod.skeleton for s in dom.skeleton):
            continue
        for path_map in _path_assignments(dom, cod, sigma, budget):
            yield FlowMorphism(state_map=dict(sigma), path_map=path_map)


def _path_assignments(dom, cod, sigma, budget, injective=False) -> Iterator[dict]:
    """Every path map over `sigma` that preserves endpoints, composition
    and adjacency (into adj*), in sorted path order; with `injective`,
    only the one-to-one ones."""
    order = dom.sorted_paths
    candidates = []
    for p in order:
        s, t = dom.path_ends[p]
        options = cod.paths_between(sigma[s], sigma[t])
        if not options:
            return
        candidates.append(options)

    # each constraint fires once its last participant is assigned
    position = {p: k for k, p in enumerate(order)}
    comp_at: list[list[tuple[str, str, str]]] = [[] for _ in order]
    for x, y in dom.composable_pairs():
        z = dom.try_compose(x, y)
        if z not in position:  # no path map keeps a composite dom lacks
            return
        comp_at[max(position[x], position[y], position[z])].append((x, y, z))
    adj_at: list[list[tuple[str, str]]] = [[] for _ in order]
    for a, b in dom.adjacency:
        adj_at[max(position[a], position[b])].append((a, b))

    def fits(k, image):
        return all(
            cod.try_compose(image[x], image[y]) == image[z] for x, y, z in comp_at[k]
        ) and all(cod.adjacent_star(image[a], image[b]) for a, b in adj_at[k])

    yield from _depth_first(order, candidates, fits, budget, injective)


def _depth_first(keys, options, fits, budget: _Budget, injective=False) -> Iterator[dict]:
    """Every complete assignment of `keys`, each as a new dict, depth first
    in key order and, at keys[k], in the order of options[k].

    fits(k, assignment) says whether the value just given to keys[k] agrees
    with those of keys[:k].  Each option tried costs one budget unit; with
    `injective`, an option already given to an earlier key is skipped
    without a charge.
    """
    if not keys:
        yield {}
        return
    # an explicit stack: pending[k] holds the untried options of keys[k],
    # and assignment[keys[k]] its current choice
    assignment: dict = {}
    used: set = set()
    pending = [iter(options[0])]
    while pending:
        k = len(pending) - 1
        key = keys[k]
        used.discard(assignment.pop(key, None))
        for option in pending[k]:
            if injective and option in used:
                continue
            budget.charge()
            assignment[key] = option
            if fits(k, assignment):
                break
            del assignment[key]
        else:
            pending.pop()
            continue
        if injective:
            used.add(option)
        if k + 1 < len(keys):
            pending.append(iter(options[k + 1]))
        else:
            yield dict(assignment)


# ---------------------------------------------------------------------------
# state maps


def _state_maps(x: FiniteFlow, y: FiniteFlow, table, meter: _Budget) -> Iterator[dict]:
    """Every bijection sigma of x's states onto y's that keeps the
    per-state-pair invariant `table`: table(x)[s, t] equals
    table(y)[sigma s, sigma t] for all states s, t, an absent pair reading
    as 0.  They come in the order of `permutations` of y's sorted states.

    One depth-first search assigns x's sorted states in order.  The options
    of a state are the y states of its colour, in sorted order, and `fits`
    checks the new state against every state assigned so far, itself
    included, both ways round.
    """
    x_table, y_table = table(x), table(y)
    x_colours, y_colours = _colours(x, x_table), _colours(y, y_table)
    if sorted(x_colours.values()) != sorted(y_colours.values()):
        return
    keys = sorted(x.skeleton)
    targets = sorted(y.skeleton)
    options = [[b for b in targets if y_colours[b] == x_colours[a]] for a in keys]

    def fits(k, sigma):
        s = keys[k]
        image = sigma[s]
        return all(
            x_table.get((s, r), 0) == y_table.get((image, sigma[r]), 0)
            and x_table.get((r, s), 0) == y_table.get((sigma[r], image), 0)
            for r in keys[: k + 1]
        )

    yield from _depth_first(keys, options, fits, meter, injective=True)


def _colours(flow: FiniteFlow, table: dict) -> dict:
    """state -> (sorted values of its row, sorted values of its column) of
    `table`, absent pairs left out."""
    rows: dict = {s: [] for s in flow.skeleton}
    columns: dict = {s: [] for s in flow.skeleton}
    for (s, t), value in table.items():
        rows[s].append(value)
        columns[t].append(value)
    return {s: (sorted(rows[s]), sorted(columns[s])) for s in rows}


def _component_counts(flow: FiniteFlow) -> dict[tuple[str, str], int]:
    """(s, t) -> the number of adj*-components of P(s, t), for every
    nonempty P(s, t)."""
    find = flow.adjacency_components.find
    roots: dict[tuple[str, str], set] = {}
    for p, ends in flow.path_ends.items():
        roots.setdefault(ends, set()).add(find(p))
    return {ends: len(r) for ends, r in roots.items()}


def _path_and_component_counts(flow: FiniteFlow) -> dict[tuple[str, str], tuple[int, int]]:
    """(s, t) -> (|P(s, t)|, its number of adj*-components), for every
    nonempty P(s, t)."""
    paths = Counter(flow.path_ends.values())
    return {ends: (paths[ends], k) for ends, k in _component_counts(flow).items()}


# ---------------------------------------------------------------------------
# S-equivalence


def s_equivalent(
    x: FiniteFlow, y: FiniteFlow, budget: Optional[int] = None
) -> Optional[tuple[FlowMorphism, FlowMorphism]]:
    """Search for morphisms f: x -> y and g: y -> x with both round trips
    S-homotopic to the identity.

    The state maps tried are the bijections that keep the number of
    adj*-components between every pair of states, which every witness
    does (see the module docstring).  For each, the forward morphisms are
    streamed; the backward ones are listed once the first forward one is
    found, and each pair (f, g) is checked in turn.

    Returns the first witness pair in lexicographic candidate order, or
    None when the exhaustive search completes empty.  Raises
    SearchBudgetExceeded when the candidate budget (default 10**6) runs
    out first, so the two negative outcomes cannot be confused.  The
    budget counts the states and path images tried, the state maps handed
    to the path search and the pairs checked.
    """
    meter = _Budget(budget)
    if len(x.skeleton) != len(y.skeleton):
        return None

    for sigma in _state_maps(x, y, _component_counts, meter):
        tau = {b: a for a, b in sigma.items()}
        backward = None
        for f in _morphisms(x, y, sigma, meter):
            if backward is None:
                backward = list(_morphisms(y, x, tau, meter))
            for g in backward:
                meter.charge()
                if _round_trip_is_deformable(f, g, y) and _round_trip_is_deformable(
                    g, f, x
                ):
                    return f, g
    return None


def _round_trip_is_deformable(f: FlowMorphism, g: FlowMorphism, flow: FiniteFlow) -> bool:
    """Whether f∘g moves every path of `flow` only within its adj*-component."""
    return all(
        flow.adjacent_star(f.path_map[g.path_map[p]], p) for p in flow.paths
    )


# ---------------------------------------------------------------------------
# isomorphism


def find_flow_isomorphism(
    x: FiniteFlow, y: FiniteFlow, budget: Optional[int] = None
) -> Optional[tuple[FlowMorphism, FlowMorphism]]:
    """Search for an invertible morphism x -> y; returns (iso, inverse) or None.

    Exhaustive backtracking over skeleton bijections and path bijections,
    pruned early on cardinalities.  The state maps tried are the
    bijections that keep, for every pair of states, the number of paths
    between them and the number of their adj*-components; an isomorphism
    keeps both.  Composition and adjacency (into adj*) are checked forward
    during assignment, as in any morphism search; adjacency is checked
    backward once a bijection is complete, which is what invertibility of
    morphisms requires.
    """
    meter = _Budget(budget)
    if (
        len(x.skeleton) != len(y.skeleton)
        or len(x.paths) != len(y.paths)
        or _composite_count(x) != _composite_count(y)
    ):
        return None

    for sigma in _state_maps(x, y, _path_and_component_counts, meter):
        # injective over all of x's paths into y's, as many: a bijection
        for path_map in _path_assignments(x, y, sigma, meter, injective=True):
            inverse_paths = {v: k for k, v in path_map.items()}
            if _inverse_keeps_adjacency(x, y, inverse_paths):
                iso = FlowMorphism(state_map=sigma, path_map=path_map)
                inverse = FlowMorphism(
                    state_map={b: a for a, b in sigma.items()}, path_map=inverse_paths
                )
                return iso, inverse
    return None


def _composite_count(flow: FiniteFlow) -> int:
    """`len(flow.composition)`, without building a concatenative flow's
    table: there, every composable pair has its composite, so the count is
    the sum over states s of |paths into s| * |paths out of s|."""
    if not flow._concatenative:
        return len(flow.composition)
    by_src = flow.by_src
    return sum(len(into) * len(by_src.get(s, ())) for s, into in flow.by_tgt.items())


def _inverse_keeps_adjacency(x: FiniteFlow, y: FiniteFlow, inverse_paths: dict) -> bool:
    """Whether `inverse_paths` sends every adjacency pair of y among its
    keys into one adj*-component of x."""
    return all(
        x.adjacent_star(inverse_paths[u], inverse_paths[v])
        for u, v in y.adjacency
        if u in inverse_paths and v in inverse_paths
    )


# ---------------------------------------------------------------------------
# T-dihomotopy


@dataclass(frozen=True)
class TDihomotopyReport:
    """Outcome of the three refinement conditions, with failure notes."""

    restriction_isomorphism: bool
    singleton_germs: bool
    image_extension: bool
    details: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return (
            self.restriction_isomorphism
            and self.singleton_germs
            and self.image_extension
        )

    def __bool__(self) -> bool:
        return self.holds


def check_t_dihomotopy(
    f: FlowMorphism, x: FiniteFlow, y: FiniteFlow
) -> TDihomotopyReport:
    """Decide whether a morphism x -> y is a refinement equivalence.

    x and y must validate, which is not checked here.  Raises
    InvalidMorphismError if f is not a morphism x -> y.

    Condition 1: corestricting f onto its image skeleton gives an
    isomorphism onto the restricted flow, the paths of y between image
    states.  Condition 2: at every state the image skeleton misses, the
    backward and forward germ sets are both singletons.  Condition 3: every
    path outside the image becomes an image path after composing with some
    path (or nothing) on each side.
    """
    require_flow_morphism(f, x, y)
    details: list[str] = []

    image_states = {f.state_map[s] for s in x.skeleton}
    cond1 = _corestriction_is_isomorphism(f, x, y, image_states, details)

    cond2 = True
    for state in sorted(y.skeleton - image_states):
        backward = len(germs(y, state, "minus"))
        forward = len(germs(y, state, "plus"))
        if backward != 1 or forward != 1:
            cond2 = False
            details.append(
                f"germs at {state} not singletons: {backward} backward, {forward} forward"
            )

    image_paths = set(f.path_map.values())
    cond3 = True
    for path in sorted(y.paths - image_paths):
        if not _extends_into(y, path, image_paths):
            cond3 = False
            details.append(f"path {path} does not extend into the image")

    return TDihomotopyReport(cond1, cond2, cond3, tuple(details))


def _corestriction_is_isomorphism(f, x, y, image_states, details) -> bool:
    """Condition 1 for a morphism f: x -> y of valid flows.  f into the
    restricted flow is then a morphism too, since adjacency pairs are
    parallel and the paths between image states are all kept.  If f is
    one-to-one on states and paths and onto those paths, its inverse keeps
    endpoints and composition, so it is a morphism exactly when it keeps
    adjacency."""
    ok = True
    if len(image_states) != len(x.skeleton):
        details.append("corestriction: state map not injective")
        ok = False
    images = set(f.path_map.values())
    if len(images) != len(x.paths):
        details.append("corestriction: path map not injective")
        ok = False
    restricted_paths = {
        p for p, (s, t) in y.path_ends.items() if s in image_states and t in image_states
    }
    if images != restricted_paths:
        details.append("corestriction: path map not onto the restricted flow")
        ok = False
    if not ok:
        return False
    # a path_map key outside x's paths can win an image; the inverse then leaves x
    inverse_paths = {v: k for k, v in f.path_map.items()}
    if not (
        x.paths.issuperset(inverse_paths.values())
        and _inverse_keeps_adjacency(x, y, inverse_paths)
    ):
        details.append("corestriction: inverse is not a morphism")
        return False
    return True


def _extends_into(flow: FiniteFlow, path: str, image_paths: set[str]) -> bool:
    s, t = flow.path_ends[path]
    befores: list[Optional[str]] = [None] + list(flow.paths_into(s))
    afters: list[Optional[str]] = [None] + list(flow.paths_from(t))
    for u in befores:
        middle = path if u is None else flow.try_compose(u, path)
        if middle is None:
            continue
        for v in afters:
            whole = middle if v is None else flow.try_compose(middle, v)
            if whole is not None and whole in image_paths:
                return True
    return False
