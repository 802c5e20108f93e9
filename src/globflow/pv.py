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

Compilation builds the product grid of per-process positions, drops every
position tuple whose combined resource usage exceeds some capacity (such
states never exist), keeps single-process steps between surviving states
as edges, and fills in a square for every pair of steps of distinct
processes whose four corner states all survive.  The result is acyclic by
construction since positions only increase.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .complexes import Edge, GlobularComplex, Square
from .errors import PvError, PvSyntaxError

STEP_OPS = ("P", "V", "A")


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

    @cached_property
    def capacities(self) -> dict[str, int]:
        return dict(self.resources)

    @cached_property
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

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[;:.()]")


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(line, pos)
            if not m:
                raise PvSyntaxError(
                    f"unexpected character {line[pos]!r}", lineno, pos + 1
                )
            tokens.append(_Token(m.group(), lineno, pos + 1))
            pos = m.end()
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
                last.line if last else 1,
                (last.column + len(last.text)) if last else 1,
            )
        if expected is not None and tok.text != expected:
            raise PvSyntaxError(
                f"expected {what or expected!r}, found {tok.text!r}",
                tok.line,
                tok.column,
            )
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
    while (tok := stream.peek()) is not None and tok.text == "res":
        stream.next()
        name = stream.next(what="a resource name")
        if not name.text[0].isalpha() and name.text[0] != "_":
            raise PvSyntaxError(
                f"expected a resource name, found {name.text!r}", name.line, name.column
            )
        capacity = stream.next(what="a capacity")
        if not capacity.text.isdigit():
            raise PvSyntaxError(
                f"expected a capacity, found {capacity.text!r}",
                capacity.line,
                capacity.column,
            )
        stream.next(";")
        if int(capacity.text) < 1:
            raise PvError("capacity must be positive", capacity.line, capacity.column)
        if name.text in declared:
            raise PvError(f"resource declared twice: {name.text}", name.line, name.column)
        declared.add(name.text)
        resources.append((name.text, int(capacity.text)))

    processes: list[tuple[PvStep, ...]] = []
    while stream.peek() is not None:
        stream.next("proc", what="'proc'")
        stream.next(":")
        steps = [_parse_step(stream, declared)]
        while (tok := stream.peek()) is not None and tok.text == ".":
            stream.next()
            steps.append(_parse_step(stream, declared))
        processes.append(tuple(steps))
    if not processes:
        tok = stream.tokens[-1] if stream.tokens else None
        raise PvSyntaxError(
            "program declares no processes",
            tok.line if tok else 1,
            tok.column if tok else 1,
        )

    program = PvProgram(resources=tuple(resources), processes=tuple(processes))
    _check_releases(program)
    return program


def _parse_step(stream: _TokenStream, declared: set[str]) -> PvStep:
    op = stream.next(what="a step (P, V, or A)")
    if op.text not in STEP_OPS:
        raise PvSyntaxError(
            f"expected a step (P, V, or A), found {op.text!r}", op.line, op.column
        )
    stream.next("(")
    arg = stream.next(what="a name")
    if not (arg.text[0].isalpha() or arg.text[0] == "_"):
        raise PvSyntaxError(f"expected a name, found {arg.text!r}", arg.line, arg.column)
    stream.next(")")
    if op.text in ("P", "V") and arg.text not in declared:
        raise PvError(f"unknown resource: {arg.text}", arg.line, arg.column)
    return PvStep(op=op.text, arg=arg.text)


def _check_releases(program: PvProgram) -> None:
    for k, process in enumerate(program.processes):
        for step, held in zip(process, program._held[k]):
            if step.op == "V" and held.get(step.arg, 0) < 1:
                raise PvError(f"process {k} releases {step.arg} without holding it")


# ---------------------------------------------------------------------------
# compilation


def state_name(positions: tuple[int, ...]) -> str:
    """Stable id for a position tuple: "p0:i,p1:j,..."."""
    return ",".join(f"p{k}:{i}" for k, i in enumerate(positions))


def pv_to_complex(program: PvProgram) -> GlobularComplex:
    """Compile to the grid complex over permitted position tuples.

    States are position tuples whose summed resource usage respects every
    capacity; edges advance one process by one step; squares witness the
    commutation of two steps of distinct processes when all four corners
    are permitted.  The initial state is all-zeros; the final state is the
    all-finished tuple when it is permitted.

    Two tables carry the grid.  `names` maps each permitted tuple to its
    state name, in `product` order.  `after` maps each step (t, k) between
    permitted tuples to the tuple it leads to and its edge id, in (t, k)
    order.  Its entries are the edges, and entries (t, k), (t, l) with
    k < l make a square when both routes, (after[t, k], l) and
    (after[t, l], k), are entries.  Each state name and edge id is one
    string, shared by every edge and square that names it.
    """
    lengths = [len(p) for p in program.processes]
    holds_table = program._held
    capacities = program.capacities

    def permitted(positions: tuple[int, ...]) -> bool:
        usage: dict[str, int] = {}
        for k, pos in enumerate(positions):
            for res, n in holds_table[k][pos].items():
                usage[res] = usage.get(res, 0) + n
        return all(n <= capacities[res] for res, n in usage.items())

    names = {
        t: state_name(t)
        for t in product(*[range(n + 1) for n in lengths])
        if permitted(t)
    }
    after: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], str]] = {}
    for t, name in names.items():
        for k in range(len(lengths)):
            nxt = t[:k] + (t[k] + 1,) + t[k + 1:]
            if nxt in names:
                after[t, k] = (nxt, f"{name}>p{k}")

    edges = tuple(
        Edge(id=eid, src=names[t], tgt=names[nxt], label=str(program.processes[k][t[k]]))
        for (t, k), (nxt, eid) in after.items()
    )
    squares = []
    for (t, k), (t_k, e_k) in after.items():
        for l in range(k + 1, len(lengths)):
            # both routes leave a permitted tuple for t with steps k and l
            # taken, so one is an entry exactly when the other is
            if (t, l) in after and (t_k, l) in after:
                t_l, e_l = after[t, l]
                squares.append(
                    Square(
                        id=f"{names[t]}#p{k}p{l}",
                        left=(e_k, after[t_k, l][1]),
                        right=(e_l, after[t_l, k][1]),
                    )
                )

    final = tuple(lengths)
    return GlobularComplex(
        states=tuple(names.values()),
        edges=edges,
        squares=tuple(squares),
        finals=(names[final],) if final in names else (),
        init=names[tuple(0 for _ in lengths)],
    )
