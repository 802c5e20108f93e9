"""The four workloads: how each builds its job pool, runs a job, reads the
verdict off the result, and works out the known answer independently.

A job pool has a fixed make-up: its input shapes are drawn from POOL_SEED
along a *ladder*, size bins of the DP-predicted count that the workload's
size guard bounds, with the same number of jobs in every bin.  Candidates
are admitted by size alone, never by what the program answers on them.
The run's `--seed` then picks an isomorphic copy of every input (names and
declaration order) and the order of the jobs.  Regression checks compare
runs made with different seeds; a seed that chose the shapes as well would
move the latency quantiles by itself (see README.md, "Why a fixed make-up").

`run(job)` is the timed part.  `verdict(job, raw)` and `expected(job)` run
outside the timed phase; the oracles come from `tests/oracles.py` and from
how each equivalence input was constructed.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles
from gen import (
    pv_source,
    position_name,
    predict_sizes,
    random_complex,
    random_pv,
    relabel_pv,
    rename_complex,
    with_parallel_edge,
)
from globflow import (
    ComplexMorphism,
    GlobularComplex,
    IncrementalRealizer,
    deadlocks,
    dumps_flow,
    dumps_morphism,
    parse_pv,
    path_classes,
    pv_to_complex,
    realize,
    realize_morphism,
    same_move_class,
    subdivide_edge,
)
from globflow import cli

CORPUS = {
    "mutex": oracles.MUTEX,
    "swiss-flag": oracles.SWISS_FLAG,
    "philosophers-3": oracles.dining_philosophers(3),
}

POOL_SEED = "perfbench-pool-1"
MAX_DRAWS = 50_000


class JobFailed(Exception):
    """The program did not complete the verdict (non-zero CLI exit)."""


@dataclass
class Job:
    name: str
    payload: dict
    sizes: dict = field(default_factory=dict)


def fill_ladder(rng, ladder, draw, size_of):
    """Draw until every (lo, hi, count) bin holds `count` candidates whose
    size is in [lo, hi); returns them bin by bin."""
    bins = [[] for _ in ladder]
    need = sum(count for _, _, count in ladder)
    for _ in range(MAX_DRAWS):
        if not need:
            return [candidate for found in bins for candidate in found]
        candidate = draw(rng)
        size = size_of(candidate)
        for found, (lo, hi, count) in zip(bins, ladder):
            if lo <= size < hi and len(found) < count:
                found.append(candidate)
                need -= 1
                break
    raise RuntimeError(f"ladder not filled after {MAX_DRAWS} draws")


def _cli(*argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))  # looked up per call, so a traced run sees its span
    if code != 0:
        raise JobFailed(f"globflow {' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _pv_oracle_deadlocks(job) -> tuple[str, ...]:
    procs, caps = job.payload["program"]
    return tuple(sorted(position_name(t) for t in oracles.pv_deadlock_states(procs, caps)))


def octaves(first: int, guard: int, per: int) -> tuple:
    """Ladder bins [2**k, 2**(k+1)) for first <= k < guard, `per` jobs in each."""
    return tuple((2**k, 2 ** (k + 1), per) for k in range(first, guard))


class PvWorkload:
    """Shared by the three workloads that start from PV programs.

    `size` names the DP-predicted count the size guard bounds; random
    programs drawn from POOL_SEED fill `ladder`, equal counts per octave of
    that count up to the guard.  The corpus programs under the guard join
    the pool.  The run's seed renames resources and actions.
    """

    size: str
    ladder: tuple
    pass_seconds: float  # about how long one uncalibrated pass takes on a 2-vCPU VM

    def setup(self, seed: int, workdir: Path) -> list[Job]:
        guard = self.ladder[-1][1]

        def size_of(program):
            return predict_sizes(pv_to_complex(parse_pv(pv_source(*program))))[self.size]

        shapes = random.Random(f"{self.name}:{POOL_SEED}")
        admitted = fill_ladder(shapes, self.ladder, random_pv, size_of)
        programs = [(name, p) for name, p in CORPUS.items() if size_of(p) < guard]
        programs += [(f"r{i:03d}", program) for i, program in enumerate(admitted)]
        rng = random.Random(f"{self.name}:{seed}")
        jobs = []
        for name, program in programs:
            program = relabel_pv(program, rng)
            source = pv_source(*program)
            c = pv_to_complex(parse_pv(source))
            payload = {"program": program, "source": source, "complex": c}
            jobs.append(Job(name, payload, predict_sizes(c)))
        self.write_inputs(jobs, workdir)
        rng.shuffle(jobs)
        return jobs

    def write_inputs(self, jobs, workdir: Path) -> None:
        pass


# ---------------------------------------------------------------------------
# pv-cli


class PvCli(PvWorkload):
    """realize --pv, then analyze --deadlocks and --classes init final."""

    name = "pv-cli"
    size = "composites"
    ladder = octaves(1, 14, 7)
    pass_seconds = 6.0

    def write_inputs(self, jobs, workdir):
        for job in jobs:
            job.payload["pv"] = str(workdir / f"{job.name}.pv")
            job.payload["flow"] = str(workdir / f"{job.name}.flow.json")
            Path(job.payload["pv"]).write_text(job.payload["source"])

    def run(self, job):
        p = job.payload
        _cli("realize", "--pv", p["pv"], "-o", p["flow"])
        return _cli("analyze", p["flow"], "--deadlocks"), _cli(
            "analyze", p["flow"], "--classes", "init", "final"
        )

    def verdict(self, job, raw):
        dead_text, classes_text = raw
        return (
            tuple(line.strip() for line in dead_text.splitlines()[1:]),
            int(classes_text.split()[0]),
        )

    def expected(self, job):
        procs, caps = job.payload["program"]
        return _pv_oracle_deadlocks(job), len(oracles.pv_trace_classes(procs, caps))

    def size_mismatches(self, job, delta, verdict):
        return _compare(job, delta, {"paths": "realization.paths", "composites": "realization.composites"})


# ---------------------------------------------------------------------------
# schedules-lib


def _trace_of(c, path) -> tuple[int, ...]:
    """The process schedule of a compiled path: which coordinate each edge advances."""
    out = []
    for e in path:
        edge = c.edge_map[e]
        src, tgt = edge.src.split(","), edge.tgt.split(",")
        out.append(next(k for k, (a, b) in enumerate(zip(src, tgt)) if a != b))
    return tuple(out)


class SchedulesLib(PvWorkload):
    """path_classes(init, final) plus same_move_class between representatives."""

    name = "schedules-lib"
    size = "init_final"
    ladder = octaves(1, 9, 12)
    pass_seconds = 4.0

    def run(self, job):
        c = job.payload["complex"]
        blocks = path_classes(c, c.init, c.finals[0])
        reps = [block[0] for block in blocks]
        apart = [same_move_class(c, a, b) for a, b in zip(reps, reps[1:])]
        together = same_move_class(c, blocks[0][0], blocks[0][-1])
        return blocks, apart, together

    def verdict(self, job, raw):
        blocks, apart, together = raw
        c = job.payload["complex"]
        classes = frozenset(frozenset(_trace_of(c, p) for p in block) for block in blocks)
        return classes, tuple(apart), together

    def expected(self, job):
        procs, caps = job.payload["program"]
        classes = frozenset(oracles.pv_trace_classes(procs, caps))
        return classes, (False,) * (len(classes) - 1), True

    def size_mismatches(self, job, delta, verdict):
        return _compare(job, delta, {"init_final": "complexes.class_paths"})


# ---------------------------------------------------------------------------
# incremental-lib


def flow_digest(flow) -> tuple:
    """Order-free fingerprint of a flow, so the built flow need not be kept."""
    return (
        hash(flow.skeleton),
        len(flow.path_ends),
        hash(frozenset(flow.path_ends.items())),
        len(flow.composition),
        hash(frozenset(flow.composition.items())),
        len(flow.adjacency),
        hash(flow.adjacency),
    )


class IncrementalLib(PvWorkload):
    """0-skeleton, then attach every edge and every square, then deadlocks."""

    name = "incremental-lib"
    size = "composites"
    ladder = octaves(1, 14, 7)
    pass_seconds = 4.0

    def run(self, job):
        c = job.payload["complex"]
        realizer = IncrementalRealizer(GlobularComplex(states=c.states, finals=c.finals, init=c.init))
        for edge in c.edges:
            realizer.attach(edge)
        for square in c.squares:
            realizer.attach(square)
        return realizer.flow, deadlocks(realizer.flow, c.init, c.finals)

    def verdict(self, job, raw):
        flow, dead = raw
        return dead, flow_digest(flow)

    def expected(self, job):
        return _pv_oracle_deadlocks(job), flow_digest(realize(job.payload["complex"]))

    def size_mismatches(self, job, delta, verdict):
        digest = verdict[1]
        got = {"realization.paths": digest[1], "realization.composites": digest[3]}
        return _compare(job, got, {"paths": "realization.paths", "composites": "realization.composites"})


def _compare(job, observed, pairs):
    return [
        f"{job.name}: predicted {key} {job.sizes[key]} but {counter} {observed.get(counter, 0)}"
        for key, counter in pairs.items()
        if job.sizes[key] != observed.get(counter, 0)
    ]


# ---------------------------------------------------------------------------
# equiv-cli


class EquivCli:
    """analyze X --s-equiv Y and analyze X --t-check M, answers known by construction.

    From each random base complex X: a renamed copy (S-equivalent: yes), X
    plus one parallel edge with no square (S-equivalent: no), an edge
    subdivision morphism (T-dihomotopy: yes), and the inclusion of X into
    the added-edge complex (T-dihomotopy: no).
    """

    name = "equiv-cli"
    # bins over the path count of X; above 11 paths a few S-equivalence
    # searches take 10x the mean, and above 13 some exhaust the default budget
    ladder = tuple((n, n + 1, 40) for n in range(4, 12))
    pass_seconds = 4.5

    def setup(self, seed: int, workdir: Path) -> list[Job]:
        shapes = random.Random(f"{self.name}:{POOL_SEED}")
        admitted = fill_ladder(shapes, self.ladder, random_complex,
                               lambda c: predict_sizes(c)["paths"])
        rng = random.Random(f"{self.name}:{seed}")
        jobs = []
        for i, x in enumerate(admitted):
            base = f"b{i:03d}"
            same = rename_complex(x, rng)
            extra = with_parallel_edge(x, shapes)
            refined, subdivision = subdivide_edge(x, shapes.choice(x.edges).id)
            inclusion = ComplexMorphism(
                state_map={s: s for s in x.states}, edge_map={e.id: (e.id,) for e in x.edges}
            )
            files = {
                "x": dumps_flow(realize(x)),
                "same": dumps_flow(realize(same)),
                "extra": dumps_flow(realize(extra)),
                "subdiv": dumps_morphism(realize_morphism(subdivision, x, refined), realize(refined)),
                "incl": dumps_morphism(realize_morphism(inclusion, x, extra), realize(extra)),
            }
            paths = {}
            for key, text in files.items():
                paths[key] = str(workdir / f"{base}.{key}.json")
                Path(paths[key]).write_text(text)
            for kind, flag, other, answer, cod in (
                ("s-yes", "--s-equiv", "same", True, same),
                ("s-no", "--s-equiv", "extra", False, extra),
                ("t-yes", "--t-check", "subdiv", True, refined),
                ("t-no", "--t-check", "incl", False, extra),
            ):
                payload = {"argv": ("analyze", paths["x"], flag, paths[other]),
                           "kind": kind, "answer": answer, "x": x, "other": cod}
                jobs.append(Job(f"{base}.{kind}", payload))
        rng.shuffle(jobs)
        return jobs

    def run(self, job):
        return _cli(*job.payload["argv"])

    def verdict(self, job, raw):
        head = raw.split("\n", 1)[0]
        return head.split(":")[1].split()[0] == "yes"

    def expected(self, job):
        """The constructed answer, after checking the benchmark's own invariants.

        S-equivalent flows have, under the state bijection, the same number
        of adj*-components between each pair of states, so differing
        component profiles prove "no".  A T-dihomotopy's corestriction is
        an isomorphism, so the codomain must have exactly as many paths
        between image states as the domain has paths.
        """
        p = job.payload
        x, other = p["x"], p["other"]
        if p["kind"] in ("s-yes", "s-no"):
            holds = component_profile(x) == component_profile(other)
        else:
            image = set(x.states)
            restricted = sum(
                1 for path in oracles.graph_all_paths(_edge_dict(other))
                if other.edge_map[path[0]].src in image and other.edge_map[path[-1]].tgt in image
            )
            holds = restricted == len(oracles.graph_all_paths(_edge_dict(x)))
        if holds != p["answer"]:
            raise AssertionError(f"{job.name}: construction and invariant disagree")
        return p["answer"]

    def size_mismatches(self, job, delta, verdict):
        return []


def _edge_dict(c) -> dict:
    return {e.id: (e.src, e.tgt) for e in c.edges}


def component_profile(c) -> tuple[int, ...]:
    """Sorted per-state-pair counts of square-move classes of paths."""
    edges = _edge_dict(c)
    rewrites = [(q.left, q.right) for q in c.squares]
    counts = []
    for s in c.states:
        for t in c.states:
            paths = oracles.graph_paths(edges, s, t)
            if paths:
                counts.append(len(oracles.move_classes(paths, rewrites)))
    return tuple(sorted(counts))


WORKLOADS = {w.name: w for w in (PvCli(), EquivCli(), SchedulesLib(), IncrementalLib())}
