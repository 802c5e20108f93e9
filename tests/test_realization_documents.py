"""Realization documents: `globflow realize` writes the complex it realized,
and every command answers on it as on the flow document of that flow.

`tests/test_routes.py` holds the agreement of every route on seeded
inputs; the tests here pin frozen answers, refusals and laziness.
"""

import dataclasses
import json

import pytest

import oracles
import routes
from conftest import explicit, random_complex, run
from globflow import (
    Edge,
    GlobularComplex,
    Square,
    cli,
    dumps_complex,
    dumps_flow,
    dumps_realization,
    flows,
    formats,
    loads_flow,
    parse_pv,
    pv_to_complex,
    realization,
    realize,
)


def _answer(name, c, *argv):
    """(exit code, stdout) of `argv` on `c`, which every route and the
    oracles must give."""
    inp = routes.complex_input(name, c)
    answers = {route(inp, argv) for route in routes.ROUTES.values()}
    answers = (answers | {routes.oracle_answer(inp, argv)}) - {None}
    assert len(answers) == 1, answers
    out, code = answers.pop()
    return code, out


def test_missing_init():
    c = GlobularComplex(states=("0", "1"), edges=(Edge("a", "0", "1"),))
    assert _answer("no-init", c, "analyze", "--deadlocks") == (1, "")
    assert _answer("no-init", c, "analyze", "--deadlocks", "--init", "0") == (
        0, "1 deadlocks\n  1\n",
    )
    assert _answer("no-init", c, "analyze", "--classes", "init", "final")[0] == 1


def test_a_repeated_final_state_is_final():
    # the annotations pin "final" down: one distinct final state
    c = GlobularComplex(states=("a", "b"), edges=(Edge("e", "a", "b"),),
                        finals=("b", "b"), init="a")
    assert _answer("final-twice", c, "analyze", "--classes", "init", "final") == (
        0, "1 classes\n  class 0: e\n",
    )
    assert _answer("final-twice", c, "analyze", "--germs", "final", "--plus") == (
        0, "1 germs\n  germ 0: e\n",
    )
    assert _answer("final-twice", c, "analyze", "--deadlocks") == (0, "0 deadlocks\n")


class TestStringOrder:
    """Blocks and members come in the string order of path ids, which is
    not the edge-id tuple order of `path_classes` when an edge id holds a
    character below "*"."""

    EDGES = (Edge("a", "0", "1"), Edge("a!", "0", "1"), Edge("b", "1", "2"))

    @pytest.mark.parametrize("squares, want", [
        ((), "2 classes\n  class 0: a!*b\n  class 1: a*b\n"),
        ((Square("q", ("a",), ("a!",)),), "1 classes\n  class 0: a!*b a*b\n"),
    ], ids=["two-classes", "one-class"])
    def test_a_and_a_bang(self, squares, want):
        c = GlobularComplex(states=("0", "1", "2"), edges=self.EDGES, squares=squares,
                            finals=("2",), init="0")
        name = f"bang-{len(squares)}"
        assert _answer(name, c, "analyze", "--classes", "init", "final") == (0, want)
        assert _answer(name, c, "analyze", "--classes", "0", "1")[0] == 0


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
    def test_over_the_limit_exits_3(self, tmp_path, monkeypatch, argv):
        c = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        path = self._write(tmp_path, dumps_realization(c))
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "100")
        code, out, err = run(argv[0], path, *argv[1:])
        if argv == ("analyze", "--deadlocks"):  # one pass over the complex, no limit
            assert (code, out, err) == (0, "1 deadlocks\n  p0:1,p1:1\n", "")
        else:
            assert (code, out) == (3, "")
            assert err == "error: realization limit exceeded: 128 paths + 324 composites > limit 100\n"
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "452")
        assert run(argv[0], path, *argv[1:])[0] == 0

    @pytest.mark.parametrize("argv", [
        ("analyze", "--deadlocks"),
        ("analyze", "--classes", "u", "v"),
        ("analyze", "--germs", "u"),
        ("dot",),
    ])
    def test_invalid_complex_exits_2(self, tmp_path, argv):
        cyclic = {
            "states": ["u", "v"],
            "edges": [{"id": "a", "src": "u", "tgt": "v"}, {"id": "b", "src": "v", "tgt": "u"}],
            "squares": [{"id": "q", "left": ["a"], "right": ["a"]}],
            "init": "u",
        }
        path = self._write(tmp_path, {"realization_of": cyclic})
        code, out, err = run(argv[0], path, *argv[1:])
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
    def test_a_realization_of_that_is_not_an_object_exits_1(self, tmp_path, argv, value):
        path = self._write(tmp_path, '{"realization_of": %s}' % value)
        code, out, err = run(argv[0], path, *argv[1:])
        assert (code, out) == (1, "")
        assert err == "error: realization document: field 'realization_of' has the wrong type\n"

    def test_warnings_of_the_complex_are_printed(self, tmp_path):
        c = GlobularComplex(states=("0", "1"), edges=(Edge("a", "0", "1"),),
                            squares=(Square("q", ("a",), ("a",)),), init="0")
        path = self._write(tmp_path, dumps_realization(c))
        for argv in (("--deadlocks",), ("--classes", "0", "1"), ("--germs", "0")):
            code, _, err = run("analyze", path, *argv)
            assert (code, err) == (0, "warning: degenerate square (no-op): q\n")


def test_deadlocks_and_classes_never_realize(tmp_path, monkeypatch):
    source = tmp_path / "swiss.pv"
    source.write_text(oracles.SWISS_FLAG_SOURCE)
    path = str(tmp_path / "swiss.realization.json")
    assert run("realize", str(source), "--pv", "-o", path)[0] == 0

    def refuse(*args):
        raise AssertionError("realized")

    for module in (cli, formats, realization):
        monkeypatch.setattr(module, "realize", refuse)
    monkeypatch.setattr(realization.IncrementalRealizer, "__init__", refuse)
    code, out, err = run("analyze", path, "--deadlocks")
    assert (code, out, err) == (0, "1 deadlocks\n  p0:1,p1:1\n", "")
    code, out, err = run("analyze", path, "--classes", "init", "final")
    assert (code, out.splitlines()[0], err) == (0, "2 classes", "")
    assert run("analyze", path, "--germs", "init")[0] == 4  # realizes


class TestDocumentKinds:
    """Every subcommand reads a complex, realization or flow document
    through one reader, and answers every kind it can."""

    @staticmethod
    def _documents(tmp_path, name, source):
        """The complex, realization and flow documents of a PV program, by kind."""
        c = pv_to_complex(parse_pv(source))
        paths = {}
        for kind, text in (("complex", dumps_complex(c)), ("realization", dumps_realization(c)),
                           ("flow", dumps_flow(realize(c), c.init, c.finals))):
            paths[kind] = str(tmp_path / f"{name}.{kind}.json")
            with open(paths[kind], "w", encoding="utf-8") as handle:
                handle.write(text)
        return paths

    @pytest.fixture
    def swiss(self, tmp_path):
        return self._documents(tmp_path, "swiss", oracles.SWISS_FLAG_SOURCE)

    @pytest.fixture
    def mutex(self, tmp_path):  # small enough for the --s-equiv search
        return self._documents(tmp_path, "mutex", oracles.MUTEX_SOURCE)

    def test_realize_takes_a_realization_document(self, swiss):
        with open(swiss["realization"], encoding="utf-8") as handle:
            assert run("realize", swiss["realization"]) == (0, handle.read(), "")

    def test_realize_refuses_a_flow_document(self, swiss):
        assert run("realize", swiss["flow"]) == (
            1, "", "error: complex document: a flow document holds no complex\n"
        )

    def test_realize_refuses_a_flow_document_before_it_checks_it(self, tmp_path):
        # a path into a state the skeleton lacks, which `validate_flow` refuses
        doc = {"skeleton": ["u"], "paths": [{"id": "p", "src": "u", "tgt": "v"}],
               "compose": [], "adjacency": []}
        document, output = tmp_path / "dangling.flow.json", tmp_path / "out.json"
        document.write_text(json.dumps(doc), encoding="utf-8")
        assert run("realize", str(document), "-o", str(output)) == (
            1, "", "error: complex document: a flow document holds no complex\n"
        )
        assert not output.exists()

    @pytest.mark.parametrize("doc, refusal, flow_refusal", [
        ({"state": ["u"], "edges": []}, "a flow document holds no complex", "missing field 'skeleton'"),
        ({"skeleton": ["u"]}, "a flow document holds no complex", "missing field 'paths'"),
        ({}, "a flow document holds no complex", "missing field 'skeleton'"),
        ({"neither": True}, "a flow document holds no complex", "missing field 'skeleton'"),
        ([1], "expected an object", "expected an object"),
        ("states", "expected an object", "expected an object"),
        (None, "expected an object", "expected an object"),
    ])
    def test_realize_refuses_by_kind_before_a_field_is_read(self, tmp_path, monkeypatch, doc,
                                                           refusal, flow_refusal):
        document, output = tmp_path / "input.json", tmp_path / "out.json"
        document.write_text(json.dumps(doc), encoding="utf-8")
        # analyze and dot read such a document as a flow document
        for argv in (("analyze", str(document), "--deadlocks"), ("dot", str(document))):
            assert run(*argv) == (1, "", f"error: flow document: {flow_refusal}\n")

        def refuse(doc):
            raise AssertionError("a flow field was read")

        monkeypatch.setattr(formats, "_flow_doc", refuse)
        assert run("realize", str(document), "-o", str(output)) == (
            1, "", f"error: complex document: {refusal}\n"
        )
        assert not output.exists()

    def test_every_kind_answers_alike(self, mutex):
        for argv in (("--deadlocks",), ("--classes", "init", "final"), ("--germs", "init"),
                     ("--s-equiv", mutex["flow"])):
            answers = {run("analyze", mutex[kind], *argv) for kind in mutex}
            assert len(answers) == 1 and answers.pop()[0] == 0, argv
        answers = {run("analyze", mutex["flow"], "--s-equiv", mutex[kind]) for kind in mutex}
        assert len(answers) == 1 and answers.pop()[1].startswith("S-equivalent: yes\n")

    def test_a_realized_s_equiv_flow_is_not_validated_again(self, mutex, monkeypatch):
        def refuse(flow):
            raise AssertionError("walked")

        monkeypatch.setattr(flows, "_validation_report", refuse)
        code, out, _ = run("analyze", mutex["complex"], "--s-equiv", mutex["realization"])
        assert (code, out.splitlines()[0]) == (0, "S-equivalent: yes")

    def test_a_realized_t_check_codomain_is_not_validated_again(self, mutex, tmp_path,
                                                                monkeypatch):
        flow = realize(pv_to_complex(parse_pv(oracles.MUTEX_SOURCE)))
        identity = {"state_map": {s: s for s in flow.skeleton},
                    "path_map": {p: p for p in flow.path_ends}}
        morphisms = {}
        for kind in mutex:
            morphisms[kind] = tmp_path / f"identity-into-{kind}.json"
            with open(mutex[kind], encoding="utf-8") as handle:
                codomain = json.load(handle)
            morphisms[kind].write_text(json.dumps({"codomain": codomain, **identity}))
        answer = run("analyze", mutex["complex"], "--t-check", str(morphisms["flow"]))
        assert answer[0] == 0 and answer[1].startswith("T-dihomotopy: yes ")

        def refuse(flow):
            raise AssertionError("walked")

        monkeypatch.setattr(flows, "_validation_report", refuse)
        for kind in ("complex", "realization"):
            assert run("analyze", mutex["complex"], "--t-check", str(morphisms[kind])) == answer
        assert run("analyze", mutex["complex"], "--t-check", str(morphisms["flow"]))[0] == 4
        # the realize that reads a complex codomain refuses it (exit 2) and
        # prints none of its warnings
        domain = tmp_path / "a.json"
        domain.write_text('{"states": ["0", "1"], "edges": [{"id": "a", "src": "0", "tgt": "1"}]}')
        for codomain, answer in (
            ({"states": ["u", "v"], "edges": [{"id": "a", "src": "u", "tgt": "v"},
                                              {"id": "b", "src": "v", "tgt": "u"}]},
             (2, "", "violation: cyclic 1-skeleton: u -> v -> u\n")),
            ({"realization_of": {"states": ["u", "v"],
                                 "edges": [{"id": "a", "src": "u", "tgt": "v"}],
                                 "squares": [{"id": "q", "left": ["a"], "right": ["a"]}]}},
             (0, "T-dihomotopy: yes (1 ok, 2 ok, 3 ok)\n", "")),
        ):
            morphism = tmp_path / "into.json"
            morphism.write_text(json.dumps({"codomain": codomain, "state_map": {"0": "u", "1": "v"},
                                            "path_map": {"a": "a"}}))
            assert run("analyze", str(domain), "--t-check", str(morphism)) == answer

    @pytest.mark.parametrize("command", ["dot", "--s-equiv", "--t-check"])
    @pytest.mark.parametrize("kind", ["complex", "realization", "flow", "explicit"])
    def test_a_flow_document_is_walked_once_and_a_realized_flow_never(
            self, mutex, tmp_path, monkeypatch, kind, command):
        c = pv_to_complex(parse_pv(oracles.MUTEX_SOURCE))
        flow = realize(c)
        documents = dict(mutex, explicit=str(tmp_path / "mutex.explicit.json"))
        with open(documents["explicit"], "w", encoding="utf-8") as handle:
            handle.write(dumps_flow(explicit(flow), c.init, c.finals))
        document = documents[kind]
        with open(document, encoding="utf-8") as handle:
            codomain = json.load(handle)
        morphism = tmp_path / "identity.json"
        morphism.write_text(json.dumps({
            "codomain": codomain,
            "state_map": {s: s for s in flow.skeleton},
            "path_map": {p: p for p in flow.path_ends},
        }))
        walks = []
        walk = flows._validation_report

        def counted(flow):
            walks.append(flow)
            return walk(flow)

        monkeypatch.setattr(flows, "_validation_report", counted)
        argv, reads = {
            "dot": (("dot", document), 1),
            "--s-equiv": (("analyze", document, "--s-equiv", document), 2),
            "--t-check": (("analyze", document, "--t-check", str(morphism)), 2),
        }[command]
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert out.startswith(("digraph", "S-equivalent: yes", "T-dihomotopy: yes"))
        # each flow a flow document holds is walked once, a realized one never
        assert len(walks) == len(set(map(id, walks)))
        assert len(walks) == (reads if kind in ("flow", "explicit") else 0)

    def test_deadlocks_answer_past_the_realize_limit(self, swiss, monkeypatch):
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "3")
        for kind in ("complex", "realization"):
            assert run("analyze", swiss[kind], "--deadlocks") == (0, "1 deadlocks\n  p0:1,p1:1\n", "")
            assert run("analyze", swiss[kind], "--classes", "init", "final")[0] == 3

    def test_warnings_are_printed_once_per_document(self, tmp_path):
        c = GlobularComplex(states=("0", "1"), edges=(Edge("a", "0", "1"),),
                            squares=(Square("q", ("a",), ("a",)),), init="0")
        path = tmp_path / "c.json"
        path.write_text(dumps_complex(c))
        warning = "warning: degenerate square (no-op): q\n"
        assert run("analyze", str(path), "--germs", "0")[::2] == (0, warning)
        assert run("analyze", str(path), "--s-equiv", str(path))[::2] == (0, warning * 2)

    # `realize` refuses such a document by its kind (see
    # test_realize_refuses_by_kind_before_a_field_is_read)
    @pytest.mark.parametrize("argv", [
        ("analyze", "NEITHER", "--deadlocks"),
        ("dot", "NEITHER"),
        ("analyze", "FLOW", "--s-equiv", "NEITHER"),
    ])
    def test_neither_kind_exits_1(self, swiss, tmp_path, argv):
        neither = tmp_path / "neither.json"
        neither.write_text('{"neither": true}')
        paths = {"NEITHER": str(neither), "FLOW": swiss["flow"]}
        assert run(*(paths.get(arg, arg) for arg in argv)) == (
            1, "", "error: flow document: missing field 'skeleton'\n"
        )


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
