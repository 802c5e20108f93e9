"""Realization documents: `globflow realize` writes the complex it realized,
and every command answers on it as on the flow document of that flow.

Each input is written twice: as the realization document `globflow
realize` writes, and as the flow document the realized flow has,
`dumps_flow(realize(c), init, finals)`.  Every command must give the same
exit code and byte-identical standard output on both.
"""

import dataclasses
import json
import random

import pytest

import oracles
from conftest import random_complex, random_pv_source
from globflow import (
    Edge,
    GlobularComplex,
    Square,
    cli,
    dumps_complex,
    dumps_flow,
    dumps_realization,
    formats,
    loads_flow,
    parse_pv,
    pv_to_complex,
    realization,
    realize,
)
from globflow.cli import main

CORPUS = {
    "mutex": oracles.MUTEX_SOURCE,
    "swiss": oracles.SWISS_FLAG_SOURCE,
    "phil3": oracles.dining_philosophers_source(3),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class Pair:
    """The realization document and the flow document of one complex."""

    def __init__(self, capsys, tmp_path, name, c, source=None):
        self.capsys, self.c = capsys, c
        self.realization = str(tmp_path / f"{name}.realization.json")
        if source is None:
            complex_path = tmp_path / f"{name}.json"
            complex_path.write_text(dumps_complex(c))
            argv = ("realize", str(complex_path), "-o", self.realization)
        else:
            pv = tmp_path / f"{name}.pv"
            pv.write_text(source)
            argv = ("realize", str(pv), "--pv", "-o", self.realization)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (0, ""), err
        flow = tmp_path / f"{name}.flow.json"
        flow.write_text(dumps_flow(realize(c), init=c.init, finals=c.finals))
        self.flow = str(flow)

    def same(self, command, *args):
        """Run `command` on both documents; return the realization's (code, out)."""
        got = run(self.capsys, command, self.realization, *args)[:2]
        want = run(self.capsys, command, self.flow, *args)[:2]
        assert got == want, (command, args)
        return got


def _pv_pairs(capsys, tmp_path, count, seed):
    rng = random.Random(seed)
    sources = list(CORPUS.items())
    sources += [(f"r{i:03d}", random_pv_source(rng)) for i in range(count)]
    for name, source in sources:
        yield Pair(capsys, tmp_path, name, pv_to_complex(parse_pv(source)), source)


def _complex_pairs(capsys, tmp_path, count, seed):
    """Seeded random complexes; most get an init and finals, some neither."""
    rng = random.Random(seed)
    for i in range(count):
        c = random_complex(rng)
        if i % 5:
            c = dataclasses.replace(
                c,
                init=rng.choice(c.states),
                finals=tuple(rng.sample(c.states, rng.randint(0, 2))),
            )
        yield Pair(capsys, tmp_path, f"c{i:03d}", c)


def _check_answers(pair):
    """The analyses the annotations drive, and `dot`; returns the exit code
    of --deadlocks."""
    code, _ = pair.same("analyze", "--deadlocks")
    pair.same("analyze", "--classes", "init", "final")
    pair.same("analyze", "--germs", "init", "--minus")
    pair.same("analyze", "--germs", "final", "--plus")
    pair.same("dot")
    return code


def _check_every_analysis(pair, rng, every_pair_of_states):
    """`_check_answers`, the --init/--finals overrides, germs at every state
    (and at unknown names) with both signs, and with `every_pair_of_states`
    classes between every ordered pair of states, equal, reversed and
    unknown ones too.  Returns the exit code of --deadlocks."""
    c = pair.c
    code = _check_answers(pair)
    init = rng.choice(c.states)
    finals = ",".join(rng.sample(c.states, rng.randint(0, 2)))
    pair.same("analyze", "--deadlocks", "--init", init)
    pair.same("analyze", "--deadlocks", "--init", init, "--finals", finals)
    pair.same("analyze", "--deadlocks", "--finals", finals)
    pair.same("analyze", "--deadlocks", "--finals", "")
    pair.same("analyze", "--deadlocks", "--init", "zz")
    pair.same("analyze", "--deadlocks", "--init", init, "--finals", f"{init},zz")
    states = list(c.states) + ["init", "final", "zz"]
    if every_pair_of_states:
        for src in states:
            for tgt in states:
                pair.same("analyze", "--classes", src, tgt)
    for state in states:
        pair.same("analyze", "--germs", state, "--minus")
        pair.same("analyze", "--germs", state, "--plus")
    return code


class TestSameAnswersAsTheFlowDocument:
    def test_corpus_and_random_pv_programs(self, capsys, tmp_path):
        rng = random.Random(1601)
        codes = []
        for i, pair in enumerate(_pv_pairs(capsys, tmp_path, 200, seed=1602)):
            # every analysis on mutex, swiss and the first 25 programs, not
            # on phil3 (88 states, 5,022 paths)
            if i < 28 and i != 2:
                codes.append(_check_every_analysis(pair, rng, every_pair_of_states=False))
            else:
                codes.append(_check_answers(pair))
        assert codes == [0] * 203  # compiled programs carry init and finals

    def test_random_complexes(self, capsys, tmp_path):
        rng = random.Random(1603)
        codes = {
            _check_every_analysis(pair, rng, every_pair_of_states=True)
            for pair in _complex_pairs(capsys, tmp_path, 60, seed=1604)
        }
        assert codes == {0, 1}  # some complexes have no init

    def test_missing_init(self, capsys, tmp_path):
        c = GlobularComplex(states=("0", "1"), edges=(Edge("a", "0", "1"),))
        pair = Pair(capsys, tmp_path, "no-init", c)
        assert pair.same("analyze", "--deadlocks") == (1, "")
        assert pair.same("analyze", "--deadlocks", "--init", "0") == (0, "1 deadlocks\n  1\n")
        assert pair.same("analyze", "--classes", "init", "final")[0] == 1


class TestStringOrder:
    """Blocks and members come in the string order of path ids, which is
    not the edge-id tuple order of `path_classes` when an edge id holds a
    character below "*"."""

    EDGES = (Edge("a", "0", "1"), Edge("a!", "0", "1"), Edge("b", "1", "2"))

    @pytest.mark.parametrize("squares, want", [
        ((), "2 classes\n  class 0: a!*b\n  class 1: a*b\n"),
        ((Square("q", ("a",), ("a!",)),), "1 classes\n  class 0: a!*b a*b\n"),
    ], ids=["two-classes", "one-class"])
    def test_a_and_a_bang(self, capsys, tmp_path, squares, want):
        c = GlobularComplex(states=("0", "1", "2"), edges=self.EDGES, squares=squares,
                            finals=("2",), init="0")
        pair = Pair(capsys, tmp_path, "bang", c)
        assert pair.same("analyze", "--classes", "init", "final") == (0, want)
        assert pair.same("analyze", "--classes", "0", "1")[0] == 0


class TestRefusals:
    def _write(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("analyze", "--deadlocks"),
        ("analyze", "--classes", "init", "final"),
        ("analyze", "--germs", "init"),
        ("dot",),
    ])
    def test_over_the_limit_exits_3(self, capsys, tmp_path, monkeypatch, argv):
        c = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        path = self._write(tmp_path, dumps_realization(c))
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "100")
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (3, "")
        assert err == "error: realization limit exceeded: 128 paths + 324 composites > limit 100\n"
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "452")
        assert run(capsys, argv[0], path, *argv[1:])[0] == 0

    @pytest.mark.parametrize("argv", [
        ("analyze", "--deadlocks"),
        ("analyze", "--classes", "u", "v"),
        ("analyze", "--germs", "u"),
        ("dot",),
    ])
    def test_invalid_complex_exits_2(self, capsys, tmp_path, argv):
        cyclic = {
            "states": ["u", "v"],
            "edges": [{"id": "a", "src": "u", "tgt": "v"}, {"id": "b", "src": "v", "tgt": "u"}],
            "squares": [{"id": "q", "left": ["a"], "right": ["a"]}],
            "init": "u",
        }
        path = self._write(tmp_path, {"realization_of": cyclic})
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (2, "")
        assert err == (
            "warning: degenerate square (no-op): q\n"
            "violation: cyclic 1-skeleton: u -> v -> u\n"
        )

    @pytest.mark.parametrize("value", ["[]", "5", "null", '"x"'])
    @pytest.mark.parametrize("argv", [
        ("analyze", "--deadlocks"),
        ("analyze", "--germs", "u"),
        ("dot",),
    ])
    def test_a_realization_of_that_is_not_an_object_exits_1(self, capsys, tmp_path, argv, value):
        path = self._write(tmp_path, '{"realization_of": %s}' % value)
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (1, "")
        assert err == "error: realization document: field 'realization_of' has the wrong type\n"

    def test_warnings_of_the_complex_are_printed(self, capsys, tmp_path):
        c = GlobularComplex(states=("0", "1"), edges=(Edge("a", "0", "1"),),
                            squares=(Square("q", ("a",), ("a",)),), init="0")
        path = self._write(tmp_path, dumps_realization(c))
        for argv in (("--deadlocks",), ("--classes", "0", "1"), ("--germs", "0")):
            code, _, err = run(capsys, "analyze", path, *argv)
            assert (code, err) == (0, "warning: degenerate square (no-op): q\n")


def test_deadlocks_and_classes_never_realize(capsys, tmp_path, monkeypatch):
    source = tmp_path / "swiss.pv"
    source.write_text(oracles.SWISS_FLAG_SOURCE)
    path = str(tmp_path / "swiss.realization.json")
    assert run(capsys, "realize", str(source), "--pv", "-o", path)[0] == 0

    def refuse(*args):
        raise AssertionError("realized")

    for module in (cli, formats, realization):
        monkeypatch.setattr(module, "realize", refuse)
    monkeypatch.setattr(realization.IncrementalRealizer, "__init__", refuse)
    code, out, err = run(capsys, "analyze", path, "--deadlocks")
    assert (code, out, err) == (0, "1 deadlocks\n  p0:1,p1:1\n", "")
    code, out, err = run(capsys, "analyze", path, "--classes", "init", "final")
    assert (code, out.splitlines()[0], err) == (0, "2 classes", "")
    assert run(capsys, "analyze", path, "--germs", "init")[0] == 4  # realizes


class TestLibraryReader:
    def test_loads_flow_realizes_with_the_complex_annotations(self, rng):
        for i in range(30):
            c = random_complex(rng)
            if i % 2:
                c = dataclasses.replace(c, init=c.states[0], finals=tuple(reversed(c.states[1:])))
            flow, annotations = loads_flow(dumps_realization(c))
            assert flow == realize(c)
            doc = json.loads(dumps_flow(realize(c), init=c.init, finals=c.finals))
            assert annotations == {k: doc[k] for k in ("init", "finals") if k in doc}

    def test_document_keeps_declaration_order(self):
        c = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        text = dumps_realization(c)
        assert text == dumps_realization(c) and text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text) == {"realization_of": json.loads(dumps_complex(c))}
