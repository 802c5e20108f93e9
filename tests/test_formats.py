import json
import tracemalloc

import pytest

import oracles
from conftest import explicit, make_grid, random_complex, random_pv_source
from globflow import (
    Edge,
    FiniteFlow,
    FormatError,
    GlobularComplex,
    IncrementalRealizer,
    InvalidComplexError,
    InvalidFlowError,
    Square,
    dumps_complex,
    dumps_flow,
    dumps_morphism,
    export_dot,
    identity_flow_morphism,
    loads_complex,
    loads_flow,
    loads_morphism,
    parse_pv,
    pv_to_complex,
    realize,
    restrict,
    validate_flow,
)
from globflow.formats import complex_from_doc, flow_from_doc, flow_to_doc


class TestComplexDocuments:
    def test_round_trip_is_identity(self, rng):
        for _ in range(10):
            c = random_complex(rng)
            text = dumps_complex(c)
            assert loads_complex(text) == c
            assert dumps_complex(loads_complex(text)) == text

    def test_canonical_document_survives_reserialization(self):
        doc = {
            "states": ["00", "01", "10", "11"],
            "edges": [
                {"id": "a", "src": "00", "tgt": "10"},
                {"id": "b", "src": "10", "tgt": "11", "label": "step"},
                {"id": "c", "src": "00", "tgt": "01"},
                {"id": "d", "src": "01", "tgt": "11"},
            ],
            "squares": [{"id": "q", "left": ["a", "b"], "right": ["c", "d"]}],
            "finals": ["11"],
            "init": "00",
        }
        text = json.dumps(doc, indent=2) + "\n"
        assert dumps_complex(loads_complex(text)) == text

    def test_declaration_order_preserved(self):
        c = loads_complex(
            json.dumps(
                {
                    "states": ["z", "a", "m"],
                    "edges": [
                        {"id": "e2", "src": "z", "tgt": "a"},
                        {"id": "e1", "src": "a", "tgt": "m"},
                    ],
                    "squares": [],
                    "finals": [],
                }
            )
        )
        assert c.states == ("z", "a", "m")
        assert tuple(e.id for e in c.edges) == ("e2", "e1")

    def test_optional_fields_default(self):
        c = loads_complex('{"states": ["u"], "edges": []}')
        assert c.squares == () and c.finals == () and c.init is None

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"edges": []}',
            '{"states": [1], "edges": []}',
            '{"states": ["u"], "edges": [{"id": "e"}]}',
            '{"states": ["u"], "edges": [], "squares": [{"id": "q", "left": []}]}',
            '{"states": ["u"], "edges": [], "init": 3}',
        ],
    )
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(FormatError):
            loads_complex(text)


class TestFlowDocuments:
    def test_round_trip_preserves_structure(self, rng):
        for _ in range(10):
            flow = realize(random_complex(rng, max_states=5, max_edges=7))
            text = dumps_flow(flow, init="s0", finals=["s1"])
            loaded, annotations = loads_flow(text)
            assert loaded == flow
            assert annotations == {"init": "s0", "finals": ["s1"]}
            assert dumps_flow(loaded, init="s0", finals=["s1"]) == text

    def test_serialization_is_sorted_and_stable(self):
        flow = realize(make_grid(True))
        text = dumps_flow(flow)
        doc = json.loads(text)
        assert doc["skeleton"] == sorted(doc["skeleton"])
        assert [p["id"] for p in doc["paths"]] == sorted(p["id"] for p in doc["paths"])
        assert doc["compose"] == sorted(doc["compose"])
        assert dumps_flow(loads_flow(text)[0]) == text

    def test_annotations_omitted_when_absent(self):
        doc = json.loads(dumps_flow(realize(make_grid(True))))
        assert "init" not in doc and "finals" not in doc

    @pytest.mark.parametrize(
        "text",
        [
            '{"paths": []}',
            '{"skeleton": [], "paths": [{"id": "p"}]}',
            '{"skeleton": [], "paths": [], "compose": [["x", "y"]]}',
            '{"skeleton": [], "paths": [], "adjacency": [["x"]]}',
            json.dumps(
                {
                    "skeleton": ["u", "v"],
                    "paths": [
                        {"id": "p", "src": "u", "tgt": "v"},
                        {"id": "p", "src": "u", "tgt": "v"},
                    ],
                }
            ),
        ],
    )
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(FormatError):
            loads_flow(text)

    def test_loaded_realization_still_validates(self, rng):
        flow = realize(random_complex(rng))
        loaded, _ = loads_flow(dumps_flow(flow))
        assert validate_flow(loaded).ok


def _reference_text(flow, init=None, finals=None):
    return json.dumps(flow_to_doc(flow, init=init, finals=finals), indent=2) + "\n"


class TestFlowWriter:
    """dumps_flow writes the text of json.dumps over flow_to_doc directly."""

    def test_seeded_flows(self, rng):
        for _ in range(30):
            c = random_complex(rng)
            flow = realize(c)
            states = sorted(flow.skeleton)
            init = rng.choice([None, states[0]])
            finals = rng.choice([None, [], states[-1:], states[::-1]])
            assert dumps_flow(flow, init, finals) == _reference_text(flow, init, finals)

    def test_explicit_realized_flows(self, rng):
        # realistic ids through the explicit writer's compose section
        written = 0
        for c in _realistic_complexes(rng):
            f = realize(c)
            copy = explicit(f)
            text = dumps_flow(copy, c.init, c.finals)
            assert text == _reference_text(copy, c.init, c.finals)
            doc = json.loads(text)
            assert "composition" not in doc
            assert len(doc["compose"]) == len(f.composition)
            written += bool(f.composition)
        assert written >= 20

    def test_empty_flow(self):
        empty = FiniteFlow(skeleton=(), path_ends={})
        assert dumps_flow(empty) == _reference_text(empty)
        assert dumps_flow(empty, finals=[]) == _reference_text(empty, finals=[])
        assert dumps_flow(empty, "", []) == _reference_text(empty, "", [])

    def test_escaped_ids(self):
        ids = ['q"uote', "back\\slash", "caf\u00e9", "snow\u2603", "\U0001f600", "tab\tnew\nline"]
        flow = FiniteFlow(
            skeleton=("s\u00e9", 't"'),
            path_ends={p: ("s\u00e9", 't"') for p in ids},
            adjacency=[(ids[0], ids[1]), (ids[2], ids[5])],
        )
        text = dumps_flow(flow, init="s\u00e9", finals=['t"'])
        assert text == _reference_text(flow, init="s\u00e9", finals=['t"'])
        assert text.isascii()
        assert loads_flow(text) == (flow, {"init": "s\u00e9", "finals": ['t"']})

    def test_annotations_present_and_absent(self):
        flow = realize(make_grid(True))
        for init in (None, "00"):
            for finals in (None, [], ["11"], ["11", "01"]):
                assert dumps_flow(flow, init, finals) == _reference_text(flow, init, finals)

    def test_ids_missing_from_path_ends(self):
        flow = FiniteFlow(
            skeleton=("u", "v"),
            path_ends={"x": ("u", "v")},
            composition={("x", "ghost"): "x*ghost", ("y", "x"): "w\u00e9"},
            adjacency=[("x", "phantom")],
        )
        assert dumps_flow(flow, "u", ["v"]) == _reference_text(flow, "u", ["v"])


def _realistic_complexes(rng):
    """Seeded random complexes, random PV programs and the corpus programs."""
    for _ in range(20):
        yield random_complex(rng)
    for _ in range(10):
        yield pv_to_complex(parse_pv(random_pv_source(rng)))
    for source in (oracles.MUTEX_SOURCE, oracles.SWISS_FLAG_SOURCE):
        yield pv_to_complex(parse_pv(source))


def _explicit_text(flow, init=None, finals=None):
    """The document of `flow` with its composition written out as triples."""
    return json.dumps(flow_to_doc(explicit(flow), init, finals), indent=2)


class TestConcatenationDocuments:
    """Realized flows are written without composition triples, with a
    marker; readers accept both forms."""

    def test_realized_documents_are_compact(self, rng):
        for c in _realistic_complexes(rng):
            f = realize(c)
            text = dumps_flow(f, c.init, c.finals)
            assert text == _reference_text(f, c.init, c.finals)
            doc = json.loads(text)
            keys = ["skeleton", "paths", "compose", "adjacency", "composition"]
            keys += [k for k in ("init", "finals") if k in doc]
            assert list(doc) == keys
            assert doc["compose"] == []
            assert doc["composition"] == "concatenation"

    def test_incremental_flows_are_compact(self):
        realizer = IncrementalRealizer(GlobularComplex(states=("u", "v", "w")))
        realizer.attach(Edge("a", "u", "v"))
        realizer.attach(Edge("b", "v", "w"))
        flow = realizer.flow
        doc = json.loads(dumps_flow(flow))
        assert doc["compose"] == [] and doc["composition"] == "concatenation"
        assert flow.composition == {("a", "b"): "a*b"}

    def test_explicit_tables_are_written_out(self):
        # a hand-built flow whose table is concatenation stays explicit
        flow = FiniteFlow(
            skeleton=("u", "v", "w"),
            path_ends={"a": ("u", "v"), "b": ("v", "w"), "a*b": ("u", "w")},
            composition={("a", "b"): "a*b"},
        )
        doc = json.loads(dumps_flow(flow))
        assert doc["compose"] == [["a", "b", "a*b"]] and "composition" not in doc
        realized = realize(make_grid(True))
        kept = restrict(realized, {"00", "10", "11"})
        doc = json.loads(dumps_flow(kept))
        assert doc["compose"] and "composition" not in doc

    def test_compact_flow_builds_its_table_on_first_read(self, rng):
        for c in _realistic_complexes(rng):
            f = realize(c)
            text = dumps_flow(f, c.init, c.finals)
            loaded, annotations = loads_flow(text)
            assert "composition" not in vars(loaded)
            assert dumps_flow(loaded, **annotations) == text
            assert "composition" not in vars(loaded)
            assert loaded.composition == f.composition
            assert type(loaded.composition) is dict
            assert loaded.composition is loaded.composition
            assert loaded == f
            assert len(loaded.composition) == len(f.composition)
            for (x, y), z in f.composition.items():
                assert loaded.compose(x, y) == loaded.try_compose(x, y) == z

    def test_compact_flow_adopts_the_tables_read(self):
        # the reader builds each table once and the flow keeps it, so
        # reading one allocates nothing
        c = pv_to_complex(parse_pv(oracles.dining_philosophers_source(3)))
        realized = realize(c)
        loaded, _ = loads_flow(dumps_flow(realized))
        tracemalloc.start()
        try:
            loaded.skeleton, loaded.path_ends, loaded.adjacency
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 512
        assert (len(loaded.path_ends), len(loaded.adjacency)) == (5022, 5172)
        assert loaded == realized

    def test_both_forms_load_to_equal_flows(self, rng):
        for c in _realistic_complexes(rng):
            f = realize(c)
            compact, compact_notes = loads_flow(dumps_flow(f, c.init, c.finals))
            explicit, explicit_notes = loads_flow(_explicit_text(f, c.init, c.finals))
            assert compact == explicit == f
            assert compact_notes == explicit_notes
            assert validate_flow(compact) == validate_flow(explicit)
            # an explicit document is read back as an explicit flow
            assert dumps_flow(explicit) == _explicit_text(f) + "\n"

    def test_explicit_documents_validate_as_before(self, rng):
        # perturbed explicit documents keep today's reports, as the
        # brute-force oracle words and orders them
        for c in _realistic_complexes(rng):
            doc = json.loads(_explicit_text(realize(c)))
            if not doc["compose"]:
                continue
            doc["compose"][rng.randrange(len(doc["compose"]))][2] = "ghost"
            if doc["adjacency"]:
                del doc["adjacency"][rng.randrange(len(doc["adjacency"]))]
            flow, _ = loads_flow(json.dumps(doc))
            want = oracles.flow_violations(
                flow.skeleton, flow.path_ends, flow.composition, flow.adjacency
            )
            assert list(validate_flow(flow).violations) == want
            assert want


class TestFlowReaderErrors:
    """Malformed entries are named with a fixed message each."""

    @pytest.mark.parametrize(
        "field, entries, message",
        [
            ("paths", [1], "paths[0]: expected an object"),
            ("paths", [{"src": "u", "tgt": "v"}], "paths[0]: missing field 'id'"),
            ("paths", [{"id": 3, "src": "u"}], "paths[0]: field 'id' has the wrong type"),
            ("paths", [{"id": "p", "tgt": "v"}], "paths[0]: missing field 'src'"),
            ("paths", [{"id": "p", "src": "u", "tgt": None}],
             "paths[0]: field 'tgt' has the wrong type"),
            ("paths", [{"id": "p", "src": "u", "tgt": "v"}, {"id": "p"}],
             "paths[1]: duplicate path id 'p'"),
            ("compose", [["x", "y"]], "compose[0]: expected a triple of path ids"),
            ("compose", ["xyz"], "compose[0]: expected a triple of path ids"),
            ("compose", [{"x": 1, "y": 2, "z": 3}], "compose[0]: expected a triple of path ids"),
            ("compose", [["x", "y", 3]], "compose[0]: expected a triple of path ids"),
            ("compose", [["x", "y", "z"], ["x", "y", "w"]],
             "compose[1]: duplicate composition entry (x, y)"),
            ("adjacency", [["x"]], "adjacency[0]: expected a pair of path ids"),
            ("adjacency", ["xy"], "adjacency[0]: expected a pair of path ids"),
            ("adjacency", [["x", "y"], [None, "y"]], "adjacency[1]: expected a pair of path ids"),
        ],
    )
    def test_message(self, field, entries, message):
        doc = {"skeleton": ["u", "v"], "paths": [], field: entries}
        with pytest.raises(FormatError) as caught:
            loads_flow(json.dumps(doc))
        assert str(caught.value) == "flow document: " + message


    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"composition": "explicit"}, "field 'composition' must be 'concatenation'"),
            ({"composition": None}, "field 'composition' must be 'concatenation'"),
            ({"composition": "concatenation", "compose": [["x", "y", "x*y"]]},
             "a concatenation document lists no compose triples"),
        ],
    )
    def test_composition_marker(self, fields, message):
        doc = {"skeleton": ["u", "v"], "paths": [], **fields}
        with pytest.raises(FormatError) as caught:
            loads_flow(json.dumps(doc))
        assert str(caught.value) == "flow document: " + message


@pytest.mark.parametrize("load, text, message", [
    (loads_complex, '{"states": ["u"], "edges": [1]}',
     "complex document: edges[0]: expected an object"),
    (loads_complex, '{"states": ["u", "v"], "edges": [{"id": "e", "src": "u", "tgt": "v", "label": 3}]}',
     "complex document: edges[0]: label must be a string"),
    (loads_complex, '{"states": ["u", "v"], "edges": [{"id": "e", "src": "u"}]}',
     "complex document: edges[0]: missing field 'tgt'"),
    (loads_complex, '{"states": ["u", "v"], "edges": [{"id": "e", "src": "u", "tgt": 3}]}',
     "complex document: edges[0]: field 'tgt' has the wrong type"),
    (loads_complex, '{"states": ["u"], "edges": [], "squares": [1]}',
     "complex document: squares[0]: expected an object"),
    (loads_flow, "[]", "flow document: expected an object"),
    (loads_flow, '{"skeleton": [], "paths": [], "init": 3}', "flow document: init must be a string"),
    (loads_morphism, "[]", "morphism document: expected an object"),
], ids=["edge-entry", "edge-label", "edge-no-tgt", "edge-tgt-type", "square-entry",
        "flow-document", "flow-init", "morphism-document"])
def test_document_fault_messages(load, text, message):
    with pytest.raises(FormatError) as caught:
        load(text)
    assert str(caught.value) == message


class TestOptionalListFields:
    """An optional list field that is present must be a list."""

    @pytest.mark.parametrize("value", [5, None, "x", {}])
    def test_complex_squares(self, value):
        doc = {"states": ["a"], "edges": [], "squares": value}
        with pytest.raises(FormatError) as caught:
            loads_complex(json.dumps(doc))
        assert str(caught.value) == "complex document: field 'squares' has the wrong type"

    @pytest.mark.parametrize("field", ["compose", "adjacency"])
    @pytest.mark.parametrize("value", [5, None, "x", {}])
    def test_flow_tables(self, field, value):
        doc = {"skeleton": ["a"], "paths": [], field: value}
        message = f"flow document: field {field!r} has the wrong type"
        with pytest.raises(FormatError) as caught:
            loads_flow(json.dumps(doc))
        assert str(caught.value) == message
        morphism = {"codomain": doc, "state_map": {}, "path_map": {}}
        with pytest.raises(FormatError) as caught:
            loads_morphism(json.dumps(morphism))
        assert str(caught.value) == message


class TestMorphismDocuments:
    def test_round_trip(self):
        flow = realize(make_grid(True))
        ident = identity_flow_morphism(flow)
        text = dumps_morphism(ident, flow)
        morphism, codomain, annotations = loads_morphism(text)
        assert morphism == ident
        assert codomain == flow
        assert annotations == {}
        assert dumps_morphism(morphism, codomain) == text

    def test_missing_codomain_rejected(self):
        with pytest.raises(FormatError):
            loads_morphism('{"state_map": {}, "path_map": {}}')

    def test_non_string_maps_rejected(self):
        with pytest.raises(FormatError):
            loads_morphism(
                json.dumps(
                    {
                        "codomain": {"skeleton": [], "paths": []},
                        "state_map": {"a": 1},
                        "path_map": {},
                    }
                )
            )


class TestDotExport:
    @pytest.mark.parametrize(
        "doc, error, violation",
        [
            (
                {
                    "states": ["s", "t"],
                    "edges": [{"id": "a", "src": "s", "tgt": "t"}],
                    "squares": [{"id": "q", "left": ["zz"], "right": ["a"]}],
                },
                InvalidComplexError,
                "bad square boundary: square q left side uses unknown edges zz",
            ),
            (
                {
                    "states": ["s", "t"],
                    "edges": [{"id": "a", "src": "s", "tgt": "t"}],
                    "squares": [{"id": "q", "left": [], "right": ["a"]}],
                },
                InvalidComplexError,
                "bad square boundary: square q has empty left side",
            ),
            (
                {
                    "skeleton": ["0", "1"],
                    "paths": [{"id": "b", "src": "0", "tgt": "1"}],
                    "compose": [],
                    "adjacency": [["b", "a"]],
                },
                InvalidFlowError,
                "unknown path in adjacency: (a, b)",
            ),
        ],
        ids=["square-unknown-edge", "square-empty-side", "flow-unknown-adjacent-path"],
    )
    def test_invalid_input_raises_with_the_report(self, doc, error, violation):
        obj = complex_from_doc(doc) if "states" in doc else flow_from_doc(doc)[0]
        with pytest.raises(error) as caught:
            export_dot(obj)
        assert caught.value.violations == [violation]

    def test_other_objects_are_refused(self):
        with pytest.raises(TypeError, match="^cannot export int as DOT$"):
            export_dot(42)

    # four states with an init and a final, labelled and unlabelled edges
    # and one square
    DIAMOND = GlobularComplex(
        states=("s", "x", "y", "t"),
        edges=(Edge("a", "s", "x", "P(a)"), Edge("b", "x", "t"), Edge("c", "s", "y", "V(b)"),
               Edge("d", "y", "t")),
        squares=(Square("q", ("a", "b"), ("c", "d")),),
        finals=("t",),
        init="s",
    )

    def test_the_complex_text_is_frozen(self):
        assert export_dot(self.DIAMOND) == (
            "digraph complex {\n"
            '  "s" [style=bold];\n'
            '  "t" [peripheries=2];\n'
            '  "x";\n'
            '  "y";\n'
            '  "s" -> "x" [label="a: P(a)"];\n'
            '  "x" -> "t" [label="b"];\n'
            '  "s" -> "y" [label="c: V(b)"];\n'
            '  "y" -> "t" [label="d"];\n'
            '  "s" -> "t" [label="q", style=dashed, constraint=false];\n'
            "}\n"
        )
        # a state both init and final carries both attributes; names are quoted
        one = GlobularComplex(states=('u"',), finals=('u"',), init='u"')
        assert export_dot(one) == 'digraph complex {\n  "u\\"" [peripheries=2, style=bold];\n}\n'

    def test_the_realized_flow_text_is_frozen(self):
        text = (
            "digraph flow {\n"
            '  "s";\n'
            '  "t";\n'
            '  "x";\n'
            '  "y";\n'
            '  "s" -> "x" [label="a"];\n'
            '  "s" -> "t" [label="a*b"];\n'
            '  "x" -> "t" [label="b"];\n'
            '  "s" -> "y" [label="c"];\n'
            '  "s" -> "t" [label="c*d"];\n'
            '  "y" -> "t" [label="d"];\n'
            '  "s" -> "t" [label="a*b ~ c*d", style=dashed, constraint=false];\n'
            "}\n"
        )
        flow = realize(self.DIAMOND)
        assert export_dot(flow) == text
        assert export_dot(explicit(flow)) == text
