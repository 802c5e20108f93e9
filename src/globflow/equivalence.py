"""Exhaustive equivalence checks on finite flows.

Everything here is a bounded search over finitely many structure maps:

- `enumerate_flow_morphisms` backtracks over path images compatible with a
  state map, pruning on endpoints and on composition preservation as soon
  as all three participants of a composable pair are assigned.
- `s_equivalent` looks for a pair of morphisms whose two round trips are
  S-homotopic to the identities.  Since S-homotopic morphisms agree on
  states, only mutually inverse skeleton bijections can work, which cuts
  the search space drastically.
- `find_flow_isomorphism` searches for an invertible morphism, pruning on
  skeleton/path cardinalities and per-state endpoint fingerprints.
- `check_t_dihomotopy` evaluates the three refinement conditions for a
  morphism: the corestriction onto the image skeleton is an isomorphism,
  germs at the remaining states are singletons both ways, and every path
  outside the image extends into it.

Searches are deterministic: candidates are generated in lexicographic
order and the first witness wins.  A budget caps the number of candidates
examined; exhausting it raises SearchBudgetExceeded so "none found" always
means a completed search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator, Optional

from .errors import SearchBudgetExceeded
from .flows import (
    FiniteFlow,
    FlowMorphism,
    germs,
    is_flow_morphism,
    require_flow_morphism,
    restrict,
)

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
        yield from _path_assignments(dom, cod, sigma, budget)


def _path_assignments(dom, cod, sigma, budget) -> Iterator[FlowMorphism]:
    order = list(dom.sorted_paths)
    position = {p: k for k, p in enumerate(order)}

    candidates = []
    for p in order:
        s, t = dom.path_ends[p]
        options = cod.paths_between(sigma[s], sigma[t])
        if not options:
            return
        candidates.append(options)

    # composition constraints fire once their last participant is assigned
    comp_at: list[list[tuple[str, str, str]]] = [[] for _ in order]
    for (x, y), z in dom.composition.items():
        comp_at[max(position[x], position[y], position[z])].append((x, y, z))
    adj_at: list[list[tuple[str, str]]] = [[] for _ in order]
    for a, b in dom.adjacency:
        adj_at[max(position[a], position[b])].append((a, b))

    if not order:
        yield FlowMorphism(state_map=dict(sigma), path_map={})
        return
    # depth first with an explicit stack: pending[k] holds the untried
    # options of position k, and image[order[k]] its current choice
    image: dict[str, str] = {}
    pending = [iter(candidates[0])]
    while pending:
        k = len(pending) - 1
        p = order[k]
        image.pop(p, None)
        for option in pending[k]:
            budget.charge()
            image[p] = option
            if all(
                cod.try_compose(image[x], image[y]) == image[z]
                for x, y, z in comp_at[k]
            ) and all(
                cod.adjacent_star(image[a], image[b]) for a, b in adj_at[k]
            ):
                break
            del image[p]
        else:
            pending.pop()
            continue
        if k + 1 < len(order):
            pending.append(iter(candidates[k + 1]))
        else:
            yield FlowMorphism(state_map=dict(sigma), path_map=dict(image))


# ---------------------------------------------------------------------------
# S-equivalence


def s_equivalent(
    x: FiniteFlow, y: FiniteFlow, budget: Optional[int] = None
) -> Optional[tuple[FlowMorphism, FlowMorphism]]:
    """Search for morphisms f: x -> y and g: y -> x with both round trips
    S-homotopic to the identity.

    Returns the first witness pair in lexicographic candidate order, or
    None when the exhaustive search completes empty.  Raises
    SearchBudgetExceeded when the candidate budget (default 10**6) runs
    out first, so the two negative outcomes cannot be confused.
    """
    meter = _Budget(budget)
    if len(x.skeleton) != len(y.skeleton):
        return None

    xs = sorted(x.skeleton)
    for ys in permutations(sorted(y.skeleton)):
        meter.charge()
        sigma = dict(zip(xs, ys))
        tau = {b: a for a, b in sigma.items()}
        forward = list(_morphisms(x, y, sigma, meter))
        if not forward:
            continue
        backward = list(_morphisms(y, x, tau, meter))
        for f in forward:
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
    pruned early on cardinalities and on per-state endpoint fingerprints
    (outgoing and incoming path counts).  Composition preservation is
    enforced during assignment; adjacency is compared at the component
    level in both directions, which is what invertibility of morphisms
    requires.
    """
    meter = _Budget(budget)
    if (
        len(x.skeleton) != len(y.skeleton)
        or len(x.paths) != len(y.paths)
        or len(x.composition) != len(y.composition)
    ):
        return None

    def fingerprint(flow, state):
        return len(flow.paths_from(state)), len(flow.paths_into(state))

    x_states = sorted(x.skeleton)
    groups: dict[tuple[int, int], list[str]] = {}
    for s in sorted(y.skeleton):
        groups.setdefault(fingerprint(y, s), []).append(s)
    x_prints = sorted(fingerprint(x, s) for s in x_states)
    y_prints = sorted(fp for fp, members in groups.items() for _ in members)
    if x_prints != y_prints:
        return None

    if not x_states:
        return _bijective_path_match(x, y, {}, meter)
    # depth first with an explicit stack, as in _path_assignments
    used_states: set[str] = set()
    sigma: dict[str, str] = {}
    pending = [iter(groups.get(fingerprint(x, x_states[0]), ()))]
    while pending:
        k = len(pending) - 1
        s = x_states[k]
        used_states.discard(sigma.pop(s, None))
        for t in pending[k]:
            if t not in used_states:
                break
        else:
            pending.pop()
            continue
        meter.charge()
        sigma[s] = t
        used_states.add(t)
        if k + 1 < len(x_states):
            pending.append(iter(groups.get(fingerprint(x, x_states[k + 1]), ())))
        else:
            found = _bijective_path_match(x, y, dict(sigma), meter)
            if found:
                return found
    return None


def _bijective_path_match(x, y, sigma, meter):
    order = list(x.sorted_paths)
    position = {p: k for k, p in enumerate(order)}
    comp_at: list[list[tuple[str, str, str]]] = [[] for _ in order]
    for (a, b), c in x.composition.items():
        comp_at[max(position[a], position[b], position[c])].append((a, b, c))

    def options(k: int):
        s, t = x.path_ends[order[k]]
        return iter(y.paths_between(sigma[s], sigma[t]))

    if not order:
        return _finish_isomorphism(x, y, sigma, {})
    # depth first with an explicit stack, as in _path_assignments
    image: dict[str, str] = {}
    used: set[str] = set()
    pending = [options(0)]
    while pending:
        k = len(pending) - 1
        p = order[k]
        used.discard(image.pop(p, None))
        for option in pending[k]:
            if option in used:
                continue
            meter.charge()
            image[p] = option
            if all(
                y.try_compose(image[a], image[b]) == image[c] for a, b, c in comp_at[k]
            ):
                break
            del image[p]
        else:
            pending.pop()
            continue
        used.add(image[p])
        if k + 1 < len(order):
            pending.append(options(k + 1))
        else:
            found = _finish_isomorphism(x, y, sigma, dict(image))
            if found:
                return found
    return None


def _finish_isomorphism(x, y, sigma, path_map):
    if len(set(path_map.values())) != len(y.paths):
        return None
    for a, b in x.adjacency:
        if not y.adjacent_star(path_map[a], path_map[b]):
            return None
    inverse_paths = {v: k for k, v in path_map.items()}
    for u, v in y.adjacency:
        if not x.adjacent_star(inverse_paths[u], inverse_paths[v]):
            return None
    iso = FlowMorphism(state_map=sigma, path_map=path_map)
    inverse = FlowMorphism(
        state_map={b: a for a, b in sigma.items()}, path_map=inverse_paths
    )
    return iso, inverse


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

    Condition 1: corestricting f onto its image skeleton gives an
    isomorphism onto the restricted flow.  Condition 2: at every state the
    image skeleton misses, the backward and forward germ sets are both
    singletons.  Condition 3: every path outside the image becomes an image
    path after composing with some path (or nothing) on each side.
    """
    require_flow_morphism(f, x, y)
    details: list[str] = []

    image_states = {f.state_map[s] for s in x.skeleton}
    restricted = restrict(y, image_states)
    cond1 = _corestriction_is_isomorphism(f, x, restricted, details)

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


def _corestriction_is_isomorphism(f, x, restricted, details) -> bool:
    ok = True
    if len({f.state_map[s] for s in x.skeleton}) != len(x.skeleton):
        details.append("corestriction: state map not injective")
        ok = False
    images = set(f.path_map.values())
    if len(images) != len(x.paths):
        details.append("corestriction: path map not injective")
        ok = False
    if images != restricted.paths:
        details.append("corestriction: path map not onto the restricted flow")
        ok = False
    if not ok:
        return False
    if not is_flow_morphism(f, x, restricted):
        details.append("corestriction: not a morphism into the restricted flow")
        return False
    inverse = FlowMorphism(
        state_map={f.state_map[s]: s for s in x.skeleton},
        path_map={v: k for k, v in f.path_map.items()},
    )
    if not is_flow_morphism(inverse, restricted, x):
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
