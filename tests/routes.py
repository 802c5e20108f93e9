"""The routes that answer an analysis question, and the inputs they are asked on.

By the paper's theorem a complex and its flow answer every analysis alike,
so globflow answers one question along several routes.  A route is a
function `route(inp, argv)` from an `Input` and a question, written as
`globflow` arguments without the input file (`("analyze", "--classes",
"init", "final")`, `("dot",)`), to `(stdout, exit code)`, or to None for a
question it does not answer.  `ROUTES` lists them; `ROUTES[REFERENCE]` is
`realize` and the `flows` analyses, rendered by the `cli` report functions.
An input family is a function returning the `Case`s of one seeded draw, each
an input and the questions asked of it; `INPUTS` lists them.  A family is
drawn once per session, and an input is compiled, realized and written in
each document form once, when first read.  `tests/test_routes.py` holds
every route to the reference route and the reference to `oracle_answer`.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, replace
from functools import cached_property, partial

import oracles
from conftest import explicit, pv_oracle_input, random_complex, random_pv_source, ready_order, run
from globflow import (
    GlobflowError, GlobularComplex, IncrementalRealizer, UnknownIdError, cli,
    complex_deadlocks, deadlocks, dihomotopy_classes, dumps_complex, export_dot, germs,
    loads_complex, parse_pv, pv_to_complex, realize, state_name,
)
from globflow.realization import _realized_classes, count_paths_and_composites
from globflow.formats import flow_to_doc

# the oracles realize by brute force, in time about paths squared, only
# inputs of at most this many paths: 0.1 s over the families here, 0.4 s at 128
ORACLE_PATHS = 64


class Input:
    """A complex, with what routes and oracles read of it, each made when
    first read; `source` is the PV program it was compiled from, if any."""

    def __init__(self, name: str, complex_: GlobularComplex, source: str | None = None):
        self.name, self.complex, self.source = name, complex_, source
        self.annotations = {"init": complex_.init} if complex_.init is not None else {}
        if complex_.finals:
            self.annotations["finals"] = sorted(complex_.finals)

    @functools.cache
    def answer(self, argv: tuple[str, ...]) -> tuple[str, int]:
        """The reference route's answer."""
        return reference(self, argv)

    @cached_property
    def flow(self):
        return realize(self.complex)

    @cached_property
    def complex_document(self) -> str:
        """The complex document `dumps_complex` writes."""
        return dumps_complex(self.complex)

    @cached_property
    def read(self) -> GlobularComplex:
        """The complex as `loads_complex` reads its document: its cells as
        rows, with no `Edge` or `Square` built."""
        return loads_complex(self.complex_document)

    @cached_property
    def realization(self) -> str:
        """What `globflow realize` writes, from the PV source or the complex document."""
        argv, text = ("realize", "-", "--pv"), self.source
        if text is None:
            argv, text = ("realize", "-"), dumps_complex(self.complex)
        code, out, err = run(*argv, stdin=text)
        assert (code, list(json.loads(out))) == (0, ["realization_of"]), err
        return out

    @cached_property
    def compact(self) -> str:
        """The flow document `dumps_flow` writes, unindented: a marker, no triples."""
        doc = flow_to_doc(self.flow, self.complex.init, self.complex.finals)
        assert (doc["compose"], doc["composition"]) == ([], "concatenation")
        return json.dumps(doc)

    @cached_property
    def explicit(self) -> str:
        """The flow document of the explicit copy: every composition triple."""
        doc = flow_to_doc(explicit(self.flow), self.complex.init, self.complex.finals)
        assert "composition" not in doc
        return json.dumps(doc)

    @cached_property
    def incremental(self):
        """The flow of a realizer that attached the cells one at a time."""
        realizer = IncrementalRealizer(GlobularComplex(states=()))
        for cell in ready_order(random.Random(self.name), self.complex):
            realizer.attach(cell)
        return realizer.flow

    @cached_property
    def program(self):
        """The PV program as `oracles` take it, or None."""
        return None if self.source is None else pv_oracle_input(parse_pv(self.source))

    @cached_property
    def oracle_realization(self):
        """`oracles.realization` of the complex, or None past ORACLE_PATHS."""
        c = self.complex
        if count_paths_and_composites(c)[0] > ORACLE_PATHS:
            return None
        edges = {e.id: (e.src, e.tgt) for e in c.edges}
        return oracles.realization(c.states, edges, [(q.left, q.right) for q in c.squares])


_BY_COMPLEX: dict[GlobularComplex, Input] = {}


def complex_input(name: str, c: GlobularComplex, source: str | None = None) -> Input:
    """The input of `c`, made once: a complex drawn again is the same input."""
    return _BY_COMPLEX.setdefault(c, Input(name, c, source))


@functools.cache
def pv_input(name: str, source: str) -> Input:
    return complex_input(name, pv_to_complex(parse_pv(source)), source)


# ---------------------------------------------------------------------------
# routes


@functools.cache
def _parse(argv: tuple[str, ...]):
    return cli._parse_args([argv[0], "-", *argv[1:]])


def _answer(argv, annotations, states, deadlocks_of, classes_of, germs_of=None, dot_of=None):
    """`argv` answered by the analyses given, rendered as `cli.main` renders
    them; None for a question none of them answers, or one answers None to."""
    args = _parse(argv)
    if args.command == "dot":
        return None if dot_of is None else (dot_of(), 0)
    if args.germs is not None and germs_of is None:
        return None
    try:
        if args.deadlocks:
            init, finals = cli._deadlock_ends(args, states, annotations)
            report, found = cli.deadlocks_report, deadlocks_of(init, finals)
        elif args.classes is not None:
            src, tgt = (cli._resolve_state(s, states, annotations) for s in args.classes)
            report, found = partial(cli._blocks_report, "class", "classes"), classes_of(src, tgt)
        else:
            state = cli._resolve_state(args.germs, states, annotations)
            sign = "plus" if args.plus else "minus"
            report, found = partial(cli._blocks_report, "germ", "germs"), germs_of(state, sign)
    except GlobflowError:
        return "", 1
    return None if found is None else (report(found) + "\n", 0)


def _flow_route(flow_of):
    """The `flows` analyses and `export_dot` on the flow `flow_of(inp)`."""

    def route(inp: Input, argv):
        flow = flow_of(inp)
        return _answer(
            argv, inp.annotations, flow.skeleton, partial(deadlocks, flow),
            partial(dihomotopy_classes, flow), partial(germs, flow), partial(export_dot, flow),
        )

    return route


def _complex_route(complex_of):
    """`complex_deadlocks` and `realization._realized_classes` on the
    complex `complex_of(inp)`; no germs and no `dot`."""

    def route(inp: Input, argv):
        c = complex_of(inp)
        return _answer(argv, inp.annotations, c.state_set,
                       partial(complex_deadlocks, c), partial(_realized_classes, c))

    return route


def _document_route(form: str, dot: bool = True):
    """`globflow` reading the input's `form` document on stdin; without
    `dot`, no `dot`, which renders a complex document's complex."""

    def route(inp: Input, argv):
        if argv[0] == "dot" and not dot:
            return None
        code, out, _ = run(argv[0], "-", *argv[1:], stdin=getattr(inp, form))
        return out, code

    return route


REFERENCE = "reference"
reference = _flow_route(lambda inp: inp.flow)

ROUTES = {
    REFERENCE: reference,
    "realization-document": _document_route("realization"),
    "complex-document": _document_route("complex_document", dot=False),
    "compact-flow-document": _document_route("compact"),
    "explicit-flow-document": _document_route("explicit"),
    "library-complex": _complex_route(lambda inp: inp.complex),
    "library-complex-read": _complex_route(lambda inp: inp.read),
    "incremental-realizer": _flow_route(lambda inp: inp.incremental),
}


# ---------------------------------------------------------------------------
# the oracles' answers


def _path_of_trace(processes: int, trace) -> str:
    """The path id of a run of a compiled program: step k at state s is edge `s>pk`."""
    state, steps = [0] * processes, []
    for k in trace:
        steps.append(f"{state_name(tuple(state))}>p{k}")
        state[k] += 1
    return "*".join(steps)


def _sorted_blocks(blocks):
    return sorted((sorted(block) for block in blocks), key=lambda block: block[0])


def oracle_answer(inp: Input, argv):
    """What `oracles` say the reference route prints for `argv`, or None where
    they are silent: on `dot`, and past ORACLE_PATHS on all but the deadlocks
    and the init-final classes of a PV program."""
    c, program, realized = inp.complex, inp.program, inp.oracle_realization

    def known(*states):
        if not set(states) <= c.state_set:
            raise UnknownIdError(", ".join(states))

    def deadlocks_of(init, finals):
        known(init, *finals)
        if program is not None and (init, sorted(finals)) == (c.init, sorted(c.finals)):
            return sorted(state_name(t) for t in oracles.pv_deadlock_states(*program))
        if realized is not None:  # reachable, not final, and no path leaves it
            ends = realized[1].values()
            found = {init} | {t for s, t in ends if s == init}
            return sorted(found - set(finals) - {s for s, _ in ends})
        return None

    def classes_of(src, tgt):
        known(src, tgt)
        if program is not None and (src, tgt) == (c.init, *c.finals):
            path_of = partial(_path_of_trace, len(program[0]))
            return _sorted_blocks(map(path_of, b) for b in oracles.pv_trace_classes(*program))
        if realized is not None:
            paths = oracles.graph_paths({e.id: (e.src, e.tgt) for e in c.edges}, src, tgt)
            moves = oracles.move_classes(paths, [(q.left, q.right) for q in c.squares])
            return _sorted_blocks(map("*".join, b) for b in moves)
        return None

    def germs_of(state, sign):
        known(state)
        if realized is None:
            return None
        blocks = oracles.germ_classes(realized[1], realized[2], state, sign)
        return _sorted_blocks(blocks)

    return _answer(argv, inp.annotations, c.state_set, deadlocks_of, classes_of, germs_of)


# ---------------------------------------------------------------------------
# input families


@dataclass(frozen=True)
class Case:
    input: Input
    questions: tuple[tuple[str, ...], ...]

    def __post_init__(self):  # each question once, in the order first asked
        object.__setattr__(self, "questions", tuple(dict.fromkeys(self.questions)))


CORPUS = (
    ("mutex", oracles.MUTEX_SOURCE),
    ("swiss", oracles.SWISS_FLAG_SOURCE),
    ("phil3", oracles.dining_philosophers_source(3)),
)

# the annotated analyses, and `dot`
ANSWERS = (
    ("analyze", "--deadlocks"),
    ("analyze", "--classes", "init", "final"),
    ("analyze", "--germs", "init", "--minus"),
    ("analyze", "--germs", "final", "--plus"),
    ("dot",),
)


def _every_analysis(c: GlobularComplex, rng: random.Random, every_pair_of_states: bool):
    """ANSWERS; --deadlocks with drawn, empty and unknown --init and --finals;
    germs of both signs at every state, "init", "final" and an unknown name;
    with `every_pair_of_states`, the classes between every pair of those."""
    init = rng.choice(c.states)
    finals = ",".join(rng.sample(c.states, rng.randint(0, 2)))
    questions = list(ANSWERS) + [("analyze", "--deadlocks", *flags) for flags in (
        ("--init", init), ("--init", init, "--finals", finals), ("--finals", finals),
        ("--finals", ""), ("--init", "zz"), ("--init", init, "--finals", f"{init},zz"),
    )]
    states = list(c.states) + ["init", "final", "zz"]
    if every_pair_of_states:
        questions += [("analyze", "--classes", s, t) for s in states for t in states]
    for s in states:
        questions += [("analyze", "--germs", s, "--minus"), ("analyze", "--germs", s, "--plus")]
    return questions


def _pv_programs(seed: int, count: int, corpus=CORPUS):
    rng = random.Random(seed)
    sources = list(corpus) + [(f"pv{seed}-{i:03d}", random_pv_source(rng)) for i in range(count)]
    return [pv_input(name, source) for name, source in sources]


def corpus_and_200_programs():
    """Every analysis on mutex, swiss and the first 25 programs; ANSWERS on
    phil3 (88 states, 5,022 paths) and the other 175."""
    rng = random.Random(1601)
    return [Case(inp, _every_analysis(inp.complex, rng, False) if i < 28 and i != 2 else ANSWERS)
            for i, inp in enumerate(_pv_programs(1602, 200))]


def corpus_and_20_programs():
    return [Case(inp, ANSWERS[:2]) for inp in _pv_programs(4711, 20)]


def programs_30():
    return [Case(inp, ANSWERS[:1]) for inp in _pv_programs(20240811, 30, corpus=())]


def complexes_60():
    """Every analysis, with classes between every pair of states; four in
    five complexes have a drawn init and finals, the others neither."""
    rng, questions_rng, cases = random.Random(1604), random.Random(1603), []
    for i in range(60):
        c = random_complex(rng)
        if i % 5:
            c = replace(c, init=rng.choice(c.states),
                        finals=tuple(rng.sample(c.states, rng.randint(0, 2))))
        questions = _every_analysis(c, questions_rng, True)
        cases.append(Case(complex_input(f"c1604-{i:03d}", c), questions))
    return cases


def complexes_40_from_every_state():
    """--deadlocks from every state, with drawn finals, on complexes with
    neither init nor finals."""
    rng, cases = random.Random(20240811), []
    for i in range(40):
        c = random_complex(rng)
        questions = [("analyze", "--deadlocks", "--init", init, "--finals",
                      ",".join(rng.sample(c.states, rng.randint(0, 2)))) for init in c.states]
        cases.append(Case(complex_input(f"c20240811-{i:03d}", c), questions))
    return cases


INPUTS = {family.__name__: functools.cache(family) for family in (
    corpus_and_200_programs, corpus_and_20_programs, programs_30,
    complexes_60, complexes_40_from_every_state,
)}

# An explicit document lists every composite, and each question reads and
# validates it again: about 7 us per composite, ~6 s on this family's
# programs of up to 3,450 composites, more than the rest of the suite.
# Every other route answers this family; the explicit documents of the
# corpus are asked in `corpus_and_20_programs`.
NOT_ASKED = {("explicit-flow-document", "corpus_and_200_programs")}
