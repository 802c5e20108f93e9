"""JSON document formats for complexes, flows, and flow morphisms.

Complex documents:

    {"states": [name, ...],
     "edges": [{"id": ..., "src": ..., "tgt": ..., "label": optional}, ...],
     "squares": [{"id": ..., "left": [edge ids], "right": [edge ids]}, ...],
     "finals": [name, ...],
     "init": optional name}

`squares` and `finals` may be omitted on input and default to empty; output
always carries both, so parse -> serialize is the identity on documents in
that canonical shape (declaration order is preserved).

Flow documents:

    {"skeleton": [state, ...],
     "paths": [{"id": ..., "src": ..., "tgt": ...}, ...],
     "compose": [[x, y, xy], ...],
     "adjacency": [[a, b], ...],
     "init": optional state, "finals": optional [state, ...]}

`init`/`finals` are analysis annotations consumed by deadlock checks; flow
output is fully sorted, so serialization is deterministic.

A concatenative flow (one made by realization, or read from such a
document; see `flows`) is written without its composition triples, with a
marker after `adjacency`:

    {"skeleton": [...], "paths": [...],
     "compose": [],
     "adjacency": [...],
     "composition": "concatenation",
     "init": optional state, "finals": optional [state, ...]}

Its composition is x*y = "x" + "*" + "y" for every composable pair, and
`loads_flow` gives back a concatenative flow that keeps the skeleton, path
and adjacency tables the reader built, each built once, and builds its
composition table only when that is read.  A flow built from explicit
tables is written with its triples and no marker.  Readers accept both
forms; a marker other than "concatenation", or the marker with compose
triples, is refused.
`flow_to_doc` defines the document, and `dumps_flow` writes it with
`json.dumps(..., indent=2)`, as `dumps_complex` and `dumps_morphism` do
theirs.

Realization documents stand for the realization of the complex they hold,
which fixes the flow (see `realization`):

    {"realization_of": <complex document>}

This is what `globflow realize` writes (`dumps_realization`): the complex
in declaration order, on one line from the C JSON encoder, so a realized
flow costs the size of its complex on disk and not that of its path set.
`_kind` is the one place that tells document kinds apart, by their keys:
a realization document (REALIZATION_OF), a complex document (`states`),
else a flow document.  `_complex_input` hands out a complex unrealized,
with its `init`, and its `finals` sorted when it has any, as annotations,
and refuses any other kind before it reads a field.  `flow_from_doc` and
`loads_flow` read a complex or realization document as `realize` of its
complex, which validates it and refuses one over the realization limit:
the flow and annotations that the flow document of that realization gives.

Morphism documents, which `dumps_morphism` writes and `loads_morphism`
reads, carry the codomain inline, as any document that `flow_from_doc`
reads (a complex or realization one gives its realized flow, which is
born valid):

    {"codomain": <flow, complex or realization document>,
     "state_map": {state: state, ...},
     "path_map": {path: path, ...}}

`export_dot` renders a complex or a flow as Graphviz DOT text.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any

from .complexes import GlobularComplex, exec_path_ends, require_valid
from .errors import FormatError
from .flows import (
    FiniteFlow,
    FlowMorphism,
    _ConcatenativeFlow,
    _normalize_adjacency,
    require_valid_flow,
)
from .realization import realize


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise FormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise FormatError(f"{where}: field {key!r} has the wrong type")
    return value


def _optional_list(doc: dict, key: str, where: str) -> list:
    return _require(doc, key, list, where) if key in doc else []


# isinstance(x, str), as a function of x to map
_is_str = str.__instancecheck__


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_str, value))


def _string_list(doc: dict, key: str, where: str, default=None) -> list[str]:
    if default is not None and key not in doc:
        return list(default)
    value = _require(doc, key, list, where)
    if not _is_string_list(value):
        raise FormatError(f"{where}: field {key!r} must be a list of strings")
    return value


# ---------------------------------------------------------------------------
# complexes


def complex_to_doc(c: GlobularComplex) -> dict[str, Any]:
    """The complex document of `c`, written from its cell rows."""
    doc: dict[str, Any] = {
        "states": list(c.states),
        "edges": [
            {"id": eid, "src": src, "tgt": tgt}
            if label is None
            else {"id": eid, "src": src, "tgt": tgt, "label": label}
            for eid, src, tgt, label in c._edge_rows
        ],
        "squares": [
            {"id": qid, "left": list(left), "right": list(right)}
            for qid, left, right in c._square_rows
        ],
        "finals": list(c.finals),
    }
    if c.init is not None:
        doc["init"] = c.init
    return doc


def complex_from_doc(doc: Any) -> GlobularComplex:
    """The complex of a complex document, as cell rows: its `edges` and
    `squares` are built when first read."""
    if not isinstance(doc, dict):
        raise FormatError("complex document: expected an object")
    states = _string_list(doc, "states", "complex document")
    edges = []
    for i, entry in enumerate(_require(doc, "edges", list, "complex document")):
        if isinstance(entry, dict):
            eid, src, tgt = entry.get("id"), entry.get("src"), entry.get("tgt")
            label = entry.get("label")
            if (
                isinstance(eid, str)
                and isinstance(src, str)
                and isinstance(tgt, str)
                and (label is None or isinstance(label, str))
            ):
                edges.append((eid, src, tgt, label))
                continue
        # something is wrong with this entry: a check, in field order, names it
        where = f"complex document: edges[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: expected an object")
        if label is not None and not isinstance(label, str):
            raise FormatError(f"{where}: label must be a string")
        _require(entry, "id", str, where)
        _require(entry, "src", str, where)
        _require(entry, "tgt", str, where)
    squares = []
    for i, entry in enumerate(_optional_list(doc, "squares", "complex document")):
        if isinstance(entry, dict):
            qid, left, right = entry.get("id"), entry.get("left"), entry.get("right")
            if isinstance(qid, str) and _is_string_list(left) and _is_string_list(right):
                squares.append((qid, tuple(left), tuple(right)))
                continue
        # something is wrong with this entry: a check, in field order, names it
        where = f"complex document: squares[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: expected an object")
        _require(entry, "id", str, where)
        _string_list(entry, "left", where)
        _string_list(entry, "right", where)
    init = doc.get("init")
    if init is not None and not isinstance(init, str):
        raise FormatError("complex document: init must be a string")
    return GlobularComplex._from_rows(
        tuple(states),
        tuple(edges),
        tuple(squares),
        tuple(_string_list(doc, "finals", "complex document", default=())),
        init,
    )


def dumps_complex(c: GlobularComplex) -> str:
    return json.dumps(complex_to_doc(c), indent=2) + "\n"


def loads_complex(text: str) -> GlobularComplex:
    return complex_from_doc(_parse_json(text, "complex document"))


# ---------------------------------------------------------------------------
# flows

# the `composition` marker of a document whose composition is concatenation
CONCATENATION = "concatenation"


def flow_to_doc(
    flow: FiniteFlow, init: str | None = None, finals=None
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "skeleton": sorted(flow.skeleton),
        "paths": [
            {"id": p, "src": flow.path_ends[p][0], "tgt": flow.path_ends[p][1]}
            for p in flow.sorted_paths
        ],
        "compose": (
            []
            if flow._concatenative
            else sorted([x, y, z] for (x, y), z in flow.composition.items())
        ),
        "adjacency": sorted([a, b] for a, b in flow.adjacency),
    }
    if flow._concatenative:
        doc["composition"] = CONCATENATION
    if init is not None:
        doc["init"] = init
    if finals:
        doc["finals"] = sorted(finals)
    return doc


def flow_from_doc(doc: Any) -> tuple[FiniteFlow, dict[str, Any]]:
    """Returns the flow and its annotations ({"init": ..., "finals": [...]}).

    A complex or realization document gives `realize` of its complex, which
    validates the complex and applies the realization limit."""
    kind, obj, annotations = _input_from_doc(doc)
    return (obj if kind == "flow" else realize(obj)), annotations


def _flow_doc(doc: Any) -> tuple[FiniteFlow, dict[str, Any]]:
    """The flow of a flow document, not yet validated, and its annotations."""
    if not isinstance(doc, dict):
        raise FormatError("flow document: expected an object")
    skeleton = _string_list(doc, "skeleton", "flow document")
    path_ends = {}
    for i, entry in enumerate(_require(doc, "paths", list, "flow document")):
        if isinstance(entry, dict):
            pid, src, tgt = entry.get("id"), entry.get("src"), entry.get("tgt")
            if (
                isinstance(pid, str)
                and isinstance(src, str)
                and isinstance(tgt, str)
                and pid not in path_ends
            ):
                path_ends[pid] = (src, tgt)
                continue
        # something is wrong with this entry: a check, in field order, names it
        where = f"flow document: paths[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: expected an object")
        pid = _require(entry, "id", str, where)
        if pid in path_ends:
            raise FormatError(f"{where}: duplicate path id {pid!r}")
        _require(entry, "src", str, where)
        _require(entry, "tgt", str, where)
    concatenative = "composition" in doc
    if concatenative and doc["composition"] != CONCATENATION:
        raise FormatError(
            f"flow document: field 'composition' must be {CONCATENATION!r}"
        )
    composition = {}
    compose = _optional_list(doc, "compose", "flow document")
    if concatenative and compose:
        raise FormatError(
            f"flow document: a {CONCATENATION} document lists no compose triples"
        )
    for i, entry in enumerate(compose):
        if isinstance(entry, list) and len(entry) == 3:
            x, y, z = entry
            if isinstance(x, str) and isinstance(y, str) and isinstance(z, str):
                if (x, y) in composition:
                    raise FormatError(
                        f"flow document: compose[{i}]: "
                        f"duplicate composition entry ({x}, {y})"
                    )
                composition[(x, y)] = z
                continue
        raise FormatError(f"flow document: compose[{i}]: expected a triple of path ids")
    adjacency = []
    for i, entry in enumerate(_optional_list(doc, "adjacency", "flow document")):
        if isinstance(entry, list) and len(entry) == 2:
            a, b = entry
            if isinstance(a, str) and isinstance(b, str):
                adjacency.append((a, b))
                continue
        raise FormatError(f"flow document: adjacency[{i}]: expected a pair of path ids")

    annotations: dict[str, Any] = {}
    init = doc.get("init")
    if init is not None:
        if not isinstance(init, str):
            raise FormatError("flow document: init must be a string")
        annotations["init"] = init
    if "finals" in doc:
        annotations["finals"] = _string_list(doc, "finals", "flow document")

    if concatenative:
        flow = _ConcatenativeFlow(
            frozenset(skeleton), path_ends, _normalize_adjacency(adjacency)
        )
    else:
        flow = FiniteFlow(
            skeleton=skeleton,
            path_ends=path_ends,
            composition=composition,
            adjacency=adjacency,
        )
    return flow, annotations


def dumps_flow(flow: FiniteFlow, init: str | None = None, finals=None) -> str:
    return json.dumps(flow_to_doc(flow, init, finals), indent=2) + "\n"


def loads_flow(text: str) -> tuple[FiniteFlow, dict[str, Any]]:
    return flow_from_doc(_parse_json(text, "flow document"))


# ---------------------------------------------------------------------------
# realizations

# the field of a realization document, which holds the realized complex
REALIZATION_OF = "realization_of"


def dumps_realization(c: GlobularComplex) -> str:
    """The realization document of `c`: its complex document under
    REALIZATION_OF, in declaration order, written compact by the C encoder."""
    return json.dumps({REALIZATION_OF: complex_to_doc(c)}, separators=(",", ":")) + "\n"


def _kind(doc: Any) -> str:
    """The kind of a document, from its keys alone: "realization" with
    REALIZATION_OF, "complex" with `states`, else "flow"."""
    keys = doc if isinstance(doc, dict) else ()
    return "realization" if REALIZATION_OF in keys else "complex" if "states" in keys else "flow"


def _input_from_doc(doc: Any) -> tuple[str, Any, dict[str, Any]]:
    """The kind of a document (`_kind`), the complex or flow it holds, not
    yet validated, and its annotations (`_complex_input` for a complex)."""
    return ("flow", *_flow_doc(doc)) if _kind(doc) == "flow" else _complex_input(doc)


def _complex_input(doc: Any) -> tuple[str, GlobularComplex, dict[str, Any]]:
    """The kind of a complex or realization document, its complex, not yet
    validated, and its annotations: the complex's `init`, and its `finals`
    sorted, when it has them.  A document of any other kind holds no
    complex, and is refused before a field of it is read."""
    kind = _kind(doc)
    if kind == "flow":
        held = "a flow document holds no complex" if isinstance(doc, dict) else "expected an object"
        raise FormatError(f"complex document: {held}")
    if kind == "realization":
        doc = _require(doc, REALIZATION_OF, dict, "realization document")
    c = complex_from_doc(doc)
    annotations: dict[str, Any] = {} if c.init is None else {"init": c.init}
    if c.finals:
        annotations["finals"] = sorted(c.finals)
    return kind, c, annotations


# ---------------------------------------------------------------------------
# morphisms


def dumps_morphism(f: FlowMorphism, codomain: FiniteFlow) -> str:
    doc = {
        "codomain": flow_to_doc(codomain),
        "state_map": dict(sorted(f.state_map.items())),
        "path_map": dict(sorted(f.path_map.items())),
    }
    return json.dumps(doc, indent=2) + "\n"


def loads_morphism(text: str) -> tuple[FlowMorphism, FiniteFlow, dict[str, Any]]:
    """The morphism, its codomain (`flow_from_doc`) and the codomain's annotations."""
    doc = _parse_json(text, "morphism document")
    if not isinstance(doc, dict):
        raise FormatError("morphism document: expected an object")
    codomain, annotations = flow_from_doc(_require(doc, "codomain", dict, "morphism document"))
    maps = {}
    for key in ("state_map", "path_map"):
        table = _require(doc, key, dict, "morphism document")
        if not all(isinstance(k, str) and isinstance(v, str) for k, v in table.items()):
            raise FormatError(f"morphism document: {key} must map strings to strings")
        maps[key] = dict(table)
    return (
        FlowMorphism(state_map=maps["state_map"], path_map=maps["path_map"]),
        codomain,
        annotations,
    )


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{where}: nested too deeply") from None


# ---------------------------------------------------------------------------
# DOT export


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(obj) -> str:
    """Render a complex or flow as deterministic DOT text.

    States become nodes (finals doubly circled, the init bold); edges or
    paths become labeled arrows; squares and adjacency pairs become dashed
    links between the shared endpoints.  Raises InvalidComplexError or
    InvalidFlowError, with the report's violations, for an object that
    does not validate.
    """
    if isinstance(obj, GlobularComplex):
        require_valid(obj)
        finals = set(obj.finals)
        nodes = [(s, ["peripheries=2"] * (s in finals) + ["style=bold"] * (s == obj.init))
                 for s in sorted(obj.states)]
        arrows = [(src, tgt, eid if label is None else f"{eid}: {label}")
                  for eid, src, tgt, label in sorted(obj._edge_rows, key=itemgetter(0))]
        links = [(*exec_path_ends(obj._edge_row, left), qid)
                 for qid, left, _ in sorted(obj._square_rows, key=itemgetter(0))]
        return _dot("complex", nodes, arrows, links)

    if isinstance(obj, FiniteFlow):
        require_valid_flow(obj)
        ends = obj.path_ends
        arrows = [(*ends[p], p) for p in obj.sorted_paths]
        links = [(*ends[a], f"{a} ~ {b}") for a, b in sorted(obj.adjacency)]
        return _dot("flow", [(s, ()) for s in sorted(obj.skeleton)], arrows, links)

    raise TypeError(f"cannot export {type(obj).__name__} as DOT")


def _dot(graph: str, nodes, arrows, links) -> str:
    """The DOT text of a digraph: its `nodes` (name, attributes), then its
    `arrows` and dashed `links` (source, target, label)."""
    lines = [f"digraph {graph} {{"]
    lines += [f"  {_quote(s)}" + (f" [{', '.join(attrs)}]" if attrs else "") + ";"
              for s, attrs in nodes]
    for style, pairs in (("", arrows), (", style=dashed, constraint=false", links)):
        lines += [f"  {_quote(s)} -> {_quote(t)} [label={_quote(label)}{style}];"
                  for s, t, label in pairs]
    lines.append("}")
    return "\n".join(lines) + "\n"
