"""A complex keeps its cells as rows.

A complex read from a document or compiled from PV source holds its cells
as rows and builds `Edge` and `Square` values only when they are read; one
built from those values derives its rows.  The two are the same value:
they compare, hash, print, copy, pickle, write and validate alike.  The
library reads only the rows, and subdivision, `glob_discrete` and the
realizer build their complexes from rows, so no `globflow` command and no
library call on a complex that holds rows builds a cell object.
"""

import dataclasses
import json
import pickle
import random

import pytest

import oracles
from conftest import random_complex, random_pv_source, run
from globflow import (
    Edge,
    GlobularComplex,
    IncrementalRealizer,
    Square,
    complex_from_doc,
    complex_morphism_violations,
    dumps_complex,
    dumps_realization,
    export_dot,
    glob_discrete,
    identity_complex_morphism,
    loads_complex,
    parse_pv,
    pv_to_complex,
    realize,
    realize_morphism,
    subdivide_edge,
    validate_complex,
)
from globflow.complexes import exec_path_ends


def objects_of(doc: dict) -> GlobularComplex:
    """The complex of a complex document, built from `Edge` and `Square`
    values."""
    return GlobularComplex(
        states=tuple(doc["states"]),
        edges=tuple(
            Edge(e["id"], e["src"], e["tgt"], e.get("label")) for e in doc["edges"]
        ),
        squares=tuple(
            Square(q["id"], tuple(q["left"]), tuple(q["right"]))
            for q in doc.get("squares", ())
        ),
        finals=tuple(doc.get("finals", ())),
        init=doc.get("init"),
    )


def attached(text: str) -> GlobularComplex:
    """The `complex` of a realizer made from the states of a complex
    document that then attached its edges and squares, as objects."""
    objects = objects_of(json.loads(text))
    realizer = IncrementalRealizer(
        GlobularComplex(states=objects.states, finals=objects.finals, init=objects.init)
    )
    for cell in objects.edges + objects.squares:
        realizer.attach(cell)
    return realizer.complex


def _valid_inputs():
    """(name, document text, the complexes holding rows) of each input:
    read, compiled, subdivided at the first edge, attached to a realizer
    cell by cell, and a globe."""
    rng = random.Random(2718)
    out = []
    for i in range(40):
        c = random_complex(rng)
        if i % 2:
            c = dataclasses.replace(c, init=c.states[0], finals=(c.states[-1],))
        text = dumps_complex(c)
        out.append((f"random-{i}", text, [loads_complex(text)]))
    for name, source in (
        ("mutex", oracles.MUTEX_SOURCE),
        ("swiss", oracles.SWISS_FLAG_SOURCE),
        ("phil3", oracles.dining_philosophers_source(3)),
    ):
        text = dumps_complex(pv_to_complex(parse_pv(source)))
        out.append((name, text, [pv_to_complex(parse_pv(source)), loads_complex(text)]))
    # compiled programs, most of them with squares, which few of the random
    # complexes above have
    rng = random.Random(4243)
    for i in range(20):
        compiled = pv_to_complex(parse_pv(random_pv_source(rng)))
        text = dumps_complex(compiled)
        out.append((f"pv-{i}", text, [compiled, loads_complex(text)]))
    for name, text, _ in list(out):
        edges = json.loads(text)["edges"]
        if edges:
            refined, _ = subdivide_edge(loads_complex(text), edges[0]["id"])
            out.append((f"{name}-subdivided", dumps_complex(refined), [refined]))
            out.append((f"{name}-attached", text, [attached(text)]))
    out.append(("glob-ab", dumps_complex(glob_discrete("ab")), [glob_discrete("ab")]))
    return out


VALID = _valid_inputs()


@pytest.mark.parametrize("name, text, read", VALID, ids=[v[0] for v in VALID])
def test_rows_and_objects_are_one_value(name, text, read):
    for rows in read:
        objects = objects_of(json.loads(text))
        assert dumps_complex(rows) == dumps_complex(objects) == text
        assert "edges" not in rows.__dict__ and "squares" not in rows.__dict__
        assert rows == objects and objects == rows
        assert hash(rows) == hash(objects)
        assert repr(rows) == repr(objects)
        assert rows.edges == objects.edges and rows.squares == objects.squares
        assert rows.edge_map == objects.edge_map
        copy = dataclasses.replace(rows, init=rows.states[-1])
        assert copy == dataclasses.replace(objects, init=objects.states[-1])
        assert pickle.loads(pickle.dumps(rows)) == objects


@pytest.mark.parametrize("name, text, read", VALID, ids=[v[0] for v in VALID])
def test_rows_are_read_as_the_objects_are(name, text, read):
    """Each reader of the rows answers on a complex that holds them as on
    the same cells built as objects, which derives them."""
    for rows in read:
        objects = objects_of(json.loads(text))
        if "topological_order" not in rows.__dict__:  # compiled ones carry theirs
            assert rows.topological_order == objects.topological_order
        assert validate_complex(rows) == validate_complex(objects)
        assert rows.squares_into == objects.squares_into
        for e in objects.edges:
            path = (e.id,)
            assert exec_path_ends(rows._edge_row, path) == (e.src, e.tgt)
            assert rows.is_exec_path(path)
        for q in objects.squares:
            assert rows.is_exec_path(q.left) and rows.is_exec_path(q.right)
        assert not rows.is_exec_path(()) and not rows.is_exec_path(("no such edge",))


# Every malformed complex of tests/test_complexes.py::TestValidateComplex,
# tests/test_formats.py::TestDotExport and
# tests/test_realization_documents.py::TestRefusals, as documents, and
# repeated ids of each kind.
MALFORMED = {
    "dangling-endpoint": {"states": ["u"], "edges": [{"id": "e", "src": "u", "tgt": "v"}]},
    "two-edge-cycle": {
        "states": ["u", "v"],
        "edges": [{"id": "a", "src": "u", "tgt": "v"}, {"id": "b", "src": "v", "tgt": "u"}],
    },
    "self-loop": {"states": ["u"], "edges": [{"id": "a", "src": "u", "tgt": "u"}]},
    "cycle-and-degenerate-square": {
        "states": ["u", "v"],
        "edges": [{"id": "a", "src": "u", "tgt": "v"}, {"id": "b", "src": "v", "tgt": "u"}],
        "squares": [{"id": "q", "left": ["a"], "right": ["a"]}],
        "init": "u",
    },
    "sides-not-composable": {
        "states": ["00", "01", "10", "11"],
        "edges": [
            {"id": "a", "src": "00", "tgt": "10"}, {"id": "b", "src": "10", "tgt": "11"},
            {"id": "c", "src": "00", "tgt": "01"}, {"id": "d", "src": "01", "tgt": "11"},
        ],
        "squares": [{"id": "q", "left": ["a", "d"], "right": ["c", "d"]}],
    },
    "ends-not-shared": {
        "states": ["00", "01", "10", "11"],
        "edges": [
            {"id": "a", "src": "00", "tgt": "10"}, {"id": "b", "src": "10", "tgt": "11"},
            {"id": "c", "src": "00", "tgt": "01"}, {"id": "d", "src": "01", "tgt": "11"},
        ],
        "squares": [{"id": "q", "left": ["a"], "right": ["c"]}],
    },
    "degenerate-square": {
        "states": ["0", "1"],
        "edges": [{"id": "a", "src": "0", "tgt": "1"}],
        "squares": [{"id": "q", "left": ["a"], "right": ["a"]}],
    },
    "equal-empty-sides": {
        "states": ["0", "1"],
        "edges": [{"id": "a", "src": "0", "tgt": "1"}],
        "squares": [{"id": "q", "left": [], "right": []}],
    },
    "equal-unknown-sides": {
        "states": ["0", "1"],
        "edges": [{"id": "a", "src": "0", "tgt": "1"}],
        "squares": [{"id": "q", "left": ["zz"], "right": ["zz"]}],
    },
    "unknown-edge-in-side": {
        "states": ["s", "t"],
        "edges": [{"id": "a", "src": "s", "tgt": "t"}],
        "squares": [{"id": "q", "left": ["zz"], "right": ["a"]}],
    },
    "empty-left-side": {
        "states": ["s", "t"],
        "edges": [{"id": "a", "src": "s", "tgt": "t"}],
        "squares": [{"id": "q", "left": [], "right": ["a"]}],
    },
    "duplicate-state": {"states": ["u", "u"], "edges": [{"id": "e", "src": "u", "tgt": "u"}]},
    "reserved-separator": {"states": ["u", "v"], "edges": [{"id": "a*b", "src": "u", "tgt": "v"}]},
    "unknown-final-and-init": {"states": ["u"], "edges": [], "finals": ["w"], "init": "z"},
    "duplicate-edge-and-square-ids": {
        "states": ["0", "1", "2"],
        "edges": [
            {"id": "a", "src": "0", "tgt": "1"}, {"id": "a", "src": "1", "tgt": "2"},
            {"id": "b", "src": "0", "tgt": "2"},
        ],
        "squares": [
            {"id": "q", "left": ["b"], "right": ["b"]},
            {"id": "q", "left": ["b"], "right": ["b"]},
        ],
    },
}


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED)
def test_malformed_complexes_have_one_report(doc):
    rows, objects = complex_from_doc(doc), objects_of(doc)
    report = validate_complex(rows)
    assert report == validate_complex(objects)
    assert report.violations or report.warnings
    assert "edges" not in rows.__dict__ and "squares" not in rows.__dict__


# ---------------------------------------------------------------------------
# laziness on the PV path


def _programs():
    rng = random.Random(31337)
    sources = [oracles.MUTEX_SOURCE, oracles.SWISS_FLAG_SOURCE,
               oracles.dining_philosophers_source(3)]
    return sources + [random_pv_source(rng) for _ in range(10)]


@pytest.fixture
def built(monkeypatch):
    """The number of `Edge` and `Square` values made so far."""
    made = []
    for cls in (Edge, Square):
        init = cls.__init__

        def counted(self, *args, _init=init, **kwargs):
            made.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_the_pv_path_builds_no_cell_object(tmp_path, built):
    source, document = tmp_path / "p.pv", str(tmp_path / "p.realization.json")
    for text in _programs():
        source.write_text(text)
        assert run("realize", str(source), "--pv", "-o", document) == (0, "", "")
        assert run("analyze", document, "--deadlocks")[0] == 0
        code, out, err = run("analyze", document, "--classes", "init", "final")
        assert (code, err) == (0, "") and out.split()[1] == "classes"
        assert built == []
        with open(document) as handle:
            rows = complex_from_doc(json.load(handle)["realization_of"])
        objects = objects_of(json.loads(dumps_complex(pv_to_complex(parse_pv(text)))))
        del built[:]
        assert rows.edges == objects.edges and rows.squares == objects.squares
        assert len(built) == len(objects.edges) + len(objects.squares)
        del built[:]


def test_no_route_builds_a_cell_object(tmp_path, built):
    """The analyses that realize a realization document, `dot` on both
    document kinds, subdivision, the morphism checks, the globe, DOT and
    the realizer build no `Edge` or `Square`; the cells a caller attaches
    are made before counting starts."""
    for name, source in (("mutex", oracles.MUTEX_SOURCE), ("swiss", oracles.SWISS_FLAG_SOURCE)):
        text = dumps_complex(pv_to_complex(parse_pv(source)))
        objects = objects_of(json.loads(text))
        cells = objects.edges + objects.squares
        base = GlobularComplex(states=objects.states, finals=objects.finals, init=objects.init)
        fresh = (Edge("fresh-edge", objects.states[0], "fresh"),
                 Square("fresh-q", ("fresh-edge",), ("fresh-edge",)))
        realization = tmp_path / f"{name}.realization.json"
        complex_document = tmp_path / f"{name}.complex.json"
        morphism_document = tmp_path / f"{name}.morphism.json"
        del built[:]

        c = loads_complex(text)
        realization.write_text(dumps_realization(c))
        complex_document.write_text(text)
        refined, m = subdivide_edge(c, json.loads(text)["edges"][0]["id"])
        flow_morphism = realize_morphism(m, c, refined)
        morphism_document.write_text(json.dumps({
            "codomain": json.loads(dumps_realization(refined)),
            "state_map": flow_morphism.state_map,
            "path_map": flow_morphism.path_map,
        }))
        assert complex_morphism_violations(m, c, refined) == []
        assert complex_morphism_violations(identity_complex_morphism(c), c, c) == []
        assert export_dot(refined).startswith("digraph complex {")
        assert export_dot(glob_discrete("ab")).startswith("digraph complex {")

        analyses = [
            (("--germs", "init"), "2 germs"),
            (("--germs", "final", "--plus"), "2 germs"),
            (("--t-check", str(morphism_document)), "T-dihomotopy: yes (1 ok, 2 ok, 3 ok)"),
        ]
        if name == "mutex":  # swiss exhausts the search budget
            analyses.append((("--s-equiv", str(realization)), "S-equivalent: yes"))
        for argv, first_line in analyses:
            code, out, err = run("analyze", str(realization), *argv)
            assert (code, err, out.splitlines()[0]) == (0, "", first_line)
        assert run("dot", str(realization)) == (0, export_dot(realize(c)), "")
        assert run("dot", str(complex_document)) == (0, export_dot(c), "")

        realizer = IncrementalRealizer(base)
        for cell in cells:
            realizer.attach(cell)
        assert dumps_complex(realizer.complex) == text
        flow = realize(realizer.complex)
        assert flow.path_ends == realizer.flow.path_ends
        assert flow.adjacency == realizer.flow.adjacency
        realizer = IncrementalRealizer(c)
        realizer.attach_state("fresh")
        for cell in fresh:
            realizer.attach(cell)
        assert realizer.complex.states[-1] == "fresh"
        assert realize(realizer.complex).path_ends == realizer.flow.path_ends
        assert built == []
