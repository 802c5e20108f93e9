"""Shared builders and helpers for the test suite.

Random complexes are generated over an index-ordered state set, so
acyclicity holds by construction; squares are sampled from actual pairs of
parallel paths, so every generated complex validates.
"""

import io
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from globflow import (
    Edge,
    FiniteFlow,
    GlobularComplex,
    Square,
    cli,
    enumerate_paths,
)


def pytest_configure(config):
    """Let interpreters that tests start import this checkout's package, as
    the test process does through the `pythonpath` setting."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def make_interval():
    return GlobularComplex(states=("0", "1"), edges=(Edge("e", "0", "1"),))


def make_chain(n=2):
    """A line of n edges: s0 -> s1 -> ... -> sn."""
    return GlobularComplex(
        states=tuple(f"s{i}" for i in range(n + 1)),
        edges=tuple(Edge(f"e{i}", f"s{i}", f"s{i+1}") for i in range(n)),
    )


def make_grid(with_square=True):
    """The commuting 2x2 grid: two edge paths 00 -> 11, optionally one square."""
    edges = (
        Edge("a", "00", "10"),
        Edge("b", "10", "11"),
        Edge("c", "00", "01"),
        Edge("d", "01", "11"),
    )
    squares = (Square("q", ("a", "b"), ("c", "d")),) if with_square else ()
    return GlobularComplex(states=("00", "01", "10", "11"), edges=edges, squares=squares)


def make_parallel_pair(with_square=True):
    """Two parallel edges 0 -> 1, optionally connected by a square."""
    edges = (Edge("a", "0", "1"), Edge("b", "0", "1"))
    squares = (Square("q", ("a",), ("b",)),) if with_square else ()
    return GlobularComplex(states=("0", "1"), edges=edges, squares=squares)


def random_complex(
    rng: random.Random,
    max_states=8,
    max_edges=12,
    max_squares=4,
    min_edges=0,
):
    """A random valid complex within the given size bounds."""
    n = rng.randint(2, max_states)
    states = tuple(f"s{i}" for i in range(n))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(slots)
    m = rng.randint(min(min_edges, len(slots)), min(max_edges, len(slots)))
    edges = tuple(
        Edge(f"e{k}", f"s{i}", f"s{j}") for k, (i, j) in enumerate(sorted(slots[:m]))
    )
    skeleton = GlobularComplex(states=states, edges=edges)

    parallel = []
    for a in range(n):
        for b in range(a + 1, n):
            paths = enumerate_paths(skeleton, f"s{a}", f"s{b}")
            if len(paths) >= 2:
                parallel.extend(combinations(paths, 2))
                if len(parallel) > 64:
                    break
        if len(parallel) > 64:
            break
    rng.shuffle(parallel)
    squares = tuple(
        Square(f"q{k}", left, right)
        for k, (left, right) in enumerate(parallel[: rng.randint(0, max_squares)])
    )
    return GlobularComplex(states=states, edges=edges, squares=squares)


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_pv_source(rng: random.Random):
    """A random well-formed PV program, small enough to realize in full.

    Two processes of up to three steps or three of one, over two
    resources: each step acquires, releases something held, or acts, and
    whatever is still held is released at the end.
    """
    capacities = {"a": rng.randint(1, 2), "b": 1}
    count = rng.randint(2, 3)
    processes = []
    for _ in range(count):
        steps, held = [], []
        for _ in range(rng.randint(1, 3 if count == 2 else 1)):
            roll = rng.random()
            if held and roll < 0.35:
                steps.append(f"V({held.pop(rng.randrange(len(held)))})")
            elif roll < 0.8:
                held.append(rng.choice(sorted(capacities)))
                steps.append(f"P({held[-1]})")
            else:
                steps.append("A(x)")
        steps += [f"V({r})" for r in reversed(held)]
        processes.append("proc: " + ".".join(steps))
    resources = " ".join(f"res {r} {n};" for r, n in sorted(capacities.items()))
    return resources + "\n" + "\n".join(processes) + "\n"


def ready_order(rng: random.Random, target: GlobularComplex):
    """The cells of `target` in a random order in which each can be
    attached: a state any time, an edge once both endpoints are there, a
    square once all its edges are, with its sides in either order."""
    states, edges, squares = list(target.states), list(target.edges), list(target.squares)
    present_states, present_edges = set(), set()
    while states or edges or squares:
        ready = states + [e for e in edges if {e.src, e.tgt} <= present_states]
        ready += [q for q in squares if set(q.left + q.right) <= present_edges]
        cell = rng.choice(ready)
        if isinstance(cell, str):
            states.remove(cell)
            present_states.add(cell)
        elif isinstance(cell, Edge):
            edges.remove(cell)
            present_edges.add(cell.id)
        else:
            squares.remove(cell)
            if rng.random() < 0.5:  # either side may come first
                cell = Square(cell.id, cell.right, cell.left)
        yield cell


def pv_oracle_input(program):
    """`program` as `oracles` take PV programs: (processes, capacities)."""
    processes = [[(step.op, step.arg) for step in p] for p in program.processes]
    return processes, dict(program.resources)


def trace_of(path):
    """Process-index schedule of a compiled path (edge ids end in '>p<k>')."""
    return tuple(int(e.rsplit(">p", 1)[1]) for e in path)


def explicit(flow):
    """The explicit flow holding `flow`'s composition table."""
    return FiniteFlow(flow.skeleton, flow.path_ends, flow.composition, flow.adjacency)


def run(*argv, stdin=""):
    """`globflow *argv` in-process, reading `stdin`: (exit code, stdout, stderr)."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()
