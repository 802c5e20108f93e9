"""A small PV-style process language and its compilation to a complex.

Programs declare capacity-bounded resources and sequential processes built
from acquire/release/act steps:

    res a 1; res b 1;
    proc: P(a).P(b).V(b).V(a)
    proc: P(b).P(a).V(a).V(b)

Grammar (EBNF):

    program   = { resource } process { process } ;
    resource  = "res" NAME INTEGER ";" ;
    process   = "proc" ":" step { "." step } ;
    step      = ( "P" | "V" | "A" ) "(" NAME ")" ;
    NAME      = letter-or-underscore { letter-or-digit-or-underscore } ;
    INTEGER   = digit { digit } ;

P and V take a declared resource; A takes a free-form action label.
Whitespace separates tokens and is otherwise ignored.

Compilation walks only the permitted position tuples, the complement of
the program's forbidden region: it extends tuples process by process and
drops a prefix as soon as its combined resource usage exceeds a capacity,
which no later process can undo, since what a process holds is never
negative.  Single-process steps between permitted tuples are the edges,
and every pair of steps of distinct processes whose four corners are
permitted is a square.  Before it builds anything, the compiler refuses a
grid of more states, edges and squares together than
GLOBFLOW_COMPILE_LIMIT (default 10^6), counted exactly.  The result is
valid by construction (positions only increase, so it is acyclic), and
it enters the engine certified: it carries its empty validation report
and a topological order, so nothing checks it again.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from math import prod
from operator import add, le

from .complexes import GlobularComplex, ValidationReport, _cached_property
from .errors import CompileLimitExceeded, PvError, PvSyntaxError
from .settings import env_count

STEP_OPS = ("P", "V", "A")

# the most states, edges and squares together that `pv_to_complex` builds
# by default
DEFAULT_COMPILE_LIMIT = 10**6

# overrides DEFAULT_COMPILE_LIMIT when set
COMPILE_LIMIT_ENV_VAR = "GLOBFLOW_COMPILE_LIMIT"


@dataclass(frozen=True)
class PvStep:
    op: str  # "P" acquire, "V" release, "A" internal action
    arg: str  # resource name for P/V, action label for A

    def __str__(self) -> str:
        return f"{self.op}({self.arg})"


@dataclass(frozen=True)
class PvProgram:
    """Declared resources (name, capacity) and sequential processes."""

    resources: tuple[tuple[str, int], ...]
    processes: tuple[tuple[PvStep, ...], ...]

    @_cached_property
    def capacities(self) -> dict[str, int]:
        return dict(self.resources)

    @_cached_property
    def _held(self) -> tuple[tuple[dict[str, int], ...], ...]:
        """Running resource counts: `_held[k][pos]` is what process k holds
        after its first `pos` steps, zero counts left out."""
        table = []
        for process in self.processes:
            held: dict[str, int] = {}
            rows = [{}]
            for step in process:
                if step.op in ("P", "V"):
                    held[step.arg] = held.get(step.arg, 0) + (1 if step.op == "P" else -1)
                rows.append({r: n for r, n in held.items() if n})
            table.append(tuple(rows))
        return tuple(table)

    def holds(self, process_index: int, position: int) -> dict[str, int]:
        """Resources held by one process after its first `position` steps;
        ValueError for a process or a position the program does not have."""
        held = self._held
        if not (0 <= process_index < len(held) and 0 <= position < len(held[process_index])):
            raise ValueError(f"process {process_index} has no position {position}")
        return dict(held[process_index][position])


# ---------------------------------------------------------------------------
# parsing

# One scan per line: a token, or (group 1) a character no token starts
# with.  Whitespace matches nothing and is skipped; `\s` is the test of
# str.isspace.
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[;:.()]|(\S)")

# (text, line, column), both counted from 1
_Token = tuple[str, int, int]


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(line):
            if m.lastindex:
                raise PvSyntaxError(
                    f"unexpected character {m.group()!r}", lineno, m.start() + 1
                )
            tokens.append((m.group(), lineno, m.start() + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self, expected: str | None = None, what: str = "") -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise PvSyntaxError(
                f"unexpected end of input, expected {what or expected}",
                last[1] if last else 1,
                (last[2] + len(last[0])) if last else 1,
            )
        if expected is not None and tok[0] != expected:
            raise PvSyntaxError(f"expected {what or expected!r}, found {tok[0]!r}", *tok[1:])
        self.index += 1
        return tok


def parse_pv(text: str) -> PvProgram:
    """Parse PV source, or raise a positioned PvSyntaxError / PvError.

    Beyond the grammar this enforces that capacities are positive, resource
    names are declared once, P/V reference declared resources, and no
    process releases a resource it does not hold at that step.
    """
    stream = _TokenStream(_tokenize(text))

    resources: list[tuple[str, int]] = []
    declared: set[str] = set()
    while (tok := stream.peek()) is not None and tok[0] == "res":
        stream.next()
        name, *name_at = stream.next(what="a resource name")
        if not name[0].isalpha() and name[0] != "_":
            raise PvSyntaxError(f"expected a resource name, found {name!r}", *name_at)
        capacity, *capacity_at = stream.next(what="a capacity")
        if not capacity.isdigit():
            raise PvSyntaxError(f"expected a capacity, found {capacity!r}", *capacity_at)
        stream.next(";")
        _check_capacity(int(capacity), *capacity_at)
        _check_new_resource(name, declared, *name_at)
        declared.add(name)
        resources.append((name, int(capacity)))

    processes: list[tuple[PvStep, ...]] = []
    while stream.peek() is not None:
        stream.next("proc", what="'proc'")
        stream.next(":")
        steps = [_parse_step(stream, declared)]
        while (tok := stream.peek()) is not None and tok[0] == ".":
            stream.next()
            steps.append(_parse_step(stream, declared))
        processes.append(tuple(steps))
    if not processes:
        tok = stream.tokens[-1] if stream.tokens else None
        raise PvSyntaxError(
            "program declares no processes",
            tok[1] if tok else 1,
            tok[2] if tok else 1,
        )

    program = PvProgram(resources=tuple(resources), processes=tuple(processes))
    _check_releases(program)
    return program


def _parse_step(stream: _TokenStream, declared: set[str]) -> PvStep:
    op, *op_at = stream.next(what="a step (P, V, or A)")
    _check_op(op, *op_at)
    stream.next("(")
    arg, *arg_at = stream.next(what="a name")
    if not (arg[0].isalpha() or arg[0] == "_"):
        raise PvSyntaxError(f"expected a name, found {arg!r}", *arg_at)
    stream.next(")")
    _check_resource(op, arg, declared, *arg_at)
    return PvStep(op=op, arg=arg)


# The checks below raise what `parse_pv` raises for each fault, at the
# position it passes; `_check_program` runs them all, without a position,
# on a program that was built directly.


def _check_capacity(capacity: int, *at: int) -> None:
    if capacity < 1:
        raise PvError("capacity must be positive", *at)


def _check_new_resource(name: str, declared: set[str], *at: int) -> None:
    if name in declared:
        raise PvError(f"resource declared twice: {name}", *at)


def _check_op(op: str, *at: int) -> None:
    if op not in STEP_OPS:
        raise PvSyntaxError(f"expected a step (P, V, or A), found {op!r}", *at)


def _check_resource(op: str, arg: str, declared: set[str], *at: int) -> None:
    if op in ("P", "V") and arg not in declared:
        raise PvError(f"unknown resource: {arg}", *at)


def _check_releases(program: PvProgram) -> None:
    for k, process in enumerate(program.processes):
        for step, held in zip(process, program._held[k]):
            if step.op == "V" and held.get(step.arg, 0) < 1:
                raise PvError(f"process {k} releases {step.arg} without holding it")


def _check_program(program: PvProgram) -> None:
    """Raise the PvError `parse_pv` raises on the source of `program`, if
    any, without its position, or "process k has no steps" for a process
    no source can write.  So every count a process holds is >= 0."""
    declared: set[str] = set()
    for name, capacity in program.resources:
        _check_capacity(capacity)
        _check_new_resource(name, declared)
        declared.add(name)
    if not program.processes:
        raise PvSyntaxError("program declares no processes")
    for k, process in enumerate(program.processes):
        if not process:
            raise PvError(f"process {k} has no steps")
        for step in process:
            _check_op(step.op)
            _check_resource(step.op, step.arg, declared)
    _check_releases(program)


# ---------------------------------------------------------------------------
# compilation


def state_name(positions: tuple[int, ...]) -> str:
    """Stable id for a position tuple: "p0:i,p1:j,..."."""
    return ",".join(f"p{k}:{i}" for k, i in enumerate(positions))


def _usage(program: PvProgram) -> tuple[tuple[int, ...], list[list[tuple[int, ...] | None]]]:
    """The capacities of the resources some process holds, in declaration
    order, and per process the usage vector over them of each position,
    None where the position holds nothing."""
    held = program._held
    used = [r for r, _ in program.resources if any(r in row for rows in held for row in rows)]
    capacities = tuple(program.capacities[r] for r in used)
    rows = [[tuple(row.get(r, 0) for r in used) if row else None for row in rows] for rows in held]
    return capacities, rows


def _grid_counts(
    capacities: tuple[int, ...], rows: list[list[tuple[int, ...] | None]]
) -> tuple[int, int, int]:
    """The exact numbers of states, edges and squares of the compiled grid.

    One pass over the processes, with a table keyed by (usage vector,
    marks).  Each process adds a position i (its usage, no mark) or a step
    i -> i+1 (the componentwise max of the usage at both ends, one mark),
    and an entry over some capacity is dropped.  An edge needs both ends
    permitted and a square all four corners, which, with usage >= 0, comes
    down to the sum with the maxes fitting; so entries with 0, 1 and 2
    marks count the states, edges and squares.  A resource no later process
    holds is zeroed in the keys, so the table stays as small as the
    resources shared across the processes not yet added.
    """
    zero = (0,) * len(capacities)
    rows = [[v or zero for v in usage] for usage in rows]
    last_holder = [
        max(k for k, usage in enumerate(rows) if any(v[j] for v in usage))
        for j in range(len(capacities))
    ]
    table = {(zero, 0): 1}
    for k, usage in enumerate(rows):
        options = Counter((v, 0) for v in usage)
        options.update((tuple(map(max, a, b)), 1) for a, b in zip(usage, usage[1:]))
        live = [holder > k for holder in last_holder]
        grown: dict[tuple[tuple[int, ...], int], int] = {}
        for (total, marks), count in table.items():
            for (v, mark), times in options.items():
                if marks + mark <= 2:
                    held = tuple(map(add, total, v))
                    if all(map(le, held, capacities)):
                        held = tuple(h if alive else 0 for h, alive in zip(held, live))
                        key = (held, marks + mark)
                        grown[key] = grown.get(key, 0) + count * times
        table = grown
    counts = [0, 0, 0]
    for (_, marks), count in table.items():
        counts[marks] += count
    return counts[0], counts[1], counts[2]


def pv_to_complex(program: PvProgram) -> GlobularComplex:
    """Compile to the grid complex over permitted position tuples.

    States are position tuples whose summed resource usage respects every
    capacity; edges advance one process by one step; squares witness the
    commutation of two steps of distinct processes when all four corners
    are permitted.  The initial state is all-zeros; the final state is the
    all-finished tuple when it is permitted.

    The program is checked first, as `parse_pv` checks its source, and a
    fault raises PvError.  Then, before any tuple is built, a grid of more
    states, edges and squares together than GLOBFLOW_COMPILE_LIMIT
    (default DEFAULT_COMPILE_LIMIT) raises CompileLimitExceeded, with the
    exact counts; a variable that does not hold a non-negative integer
    raises ValueError.  The counts are worked out only when the crude
    bound prod(len + 1) * (1 + n + n(n-1)/2) is over the limit.

    Each tuple is keyed by its index in the product grid, in mixed radix,
    so a step of process k adds the stride of k.  Two tables carry the
    grid.  `names` maps the index of each permitted tuple to its state
    name, in `product` order: the tuples are extended process by process,
    each prefix by positions 0, 1, ... in turn, and a prefix over some
    capacity is dropped with all its extensions.  `after` maps each
    permitted tuple t to its steps k, in order, each to the tuple it leads
    to and its edge id.  Its entries are the edges, in (t, k) order, and
    steps k < l of t make a square when step l of after[t][k] is an entry;
    then so is step k of after[t][l], the other route to the same tuple.
    Each state name and edge id is one string, shared by every edge and
    square that names it.  The cells are written as rows, so the complex
    builds its `edges` and `squares` only when they are read.

    The complex is returned certified: its `validation` is the empty
    report and its `topological_order` its states, which are in `product`
    order, where every edge raises one coordinate.  Both sit in the
    instance `__dict__`, where the cached properties live, so a copy made
    with `dataclasses.replace` inherits neither.
    """
    _check_program(program)
    limit = env_count(COMPILE_LIMIT_ENV_VAR, DEFAULT_COMPILE_LIMIT)
    capacities, rows = _usage(program)
    n = len(rows)
    sizes = [len(usage) for usage in rows]
    if prod(sizes) * (1 + n + n * (n - 1) // 2) > limit:
        states, edges, squares = _grid_counts(capacities, rows)
        if states + edges + squares > limit:
            raise CompileLimitExceeded(states, edges, squares, limit)

    # (index, positions, usage, state name) of each permitted prefix
    prefixes = [(0, (), (0,) * len(capacities), "")]
    for k, usage in enumerate(rows):
        pieces = [(i, v, f"{',' if k else ''}p{k}:{i}") for i, v in enumerate(usage)]
        grown = []
        for index, t, total, name in prefixes:
            index *= sizes[k]
            for i, v, piece in pieces:
                if v is None:
                    grown.append((index + i, t + (i,), total, name + piece))
                else:
                    held = tuple(map(add, total, v))
                    if all(map(le, held, capacities)):
                        grown.append((index + i, t + (i,), held, name + piece))
        prefixes = grown
    names = {index: name for index, _, _, name in prefixes}

    # (k, last position, stride, edge id suffix) of each process
    processes = [(k, sizes[k] - 1, prod(sizes[k + 1:]), f">p{k}") for k in range(n)]
    after: dict[int, dict[int, tuple[int, str]]] = {}
    for index, t, _, name in prefixes:
        after[index] = steps = {}
        for k, last, stride, suffix in processes:
            if t[k] < last and index + stride in names:
                steps[k] = (index + stride, name + suffix)

    labels = [[str(step) for step in process] for process in program.processes]
    edges = tuple(
        (eid, name, names[nxt], labels[k][t[k]])
        for index, t, _, name in prefixes
        for k, (nxt, eid) in after[index].items()
    )
    squares = []
    for index, steps in after.items():
        for k, (t_k, e_k) in steps.items():
            further = after[t_k]
            for l, (t_l, e_l) in steps.items():
                if l > k and l in further:
                    squares.append((
                        f"{names[index]}#p{k}p{l}",
                        (e_k, further[l][1]),
                        (e_l, after[t_l][k][1]),
                    ))

    final = prod(sizes) - 1
    c = GlobularComplex._from_rows(
        tuple(names.values()),
        edges,
        tuple(squares),
        (names[final],) if final in names else (),
        names[0],
    )
    # distinct states, edge ids and square ids, no "*" in an edge id, every
    # square well formed with distinct sides: the report is empty
    c.__dict__["validation"] = ValidationReport()
    c.__dict__["topological_order"] = c.states
    return c
