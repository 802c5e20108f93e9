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
`loads_flow` gives back a concatenative flow that builds that table only
when it is read.  A flow built from explicit tables is written with its
triples and no marker.  Readers accept both forms; a marker other than
"concatenation", or the marker with compose triples, is refused.
`flow_to_doc` defines the document; `dumps_flow` writes the text that
`json.dumps(flow_to_doc(...), indent=2)` would give, directly from the flow,
escaping each id once.

Realization documents stand for the realization of the complex they hold,
which fixes the flow (see `realization`):

    {"realization_of": <complex document>}

This is what `globflow realize` writes (`dumps_realization`): the complex
in declaration order, on one line from the C JSON encoder, so a realized
flow costs the size of its complex on disk and not that of its path set.
`flow_from_doc` and `loads_flow` read one as `realize` of its complex, which
validates the complex and refuses one over the realization limit, with
the complex's `init`, and its `finals` sorted when it has any, as
annotations: the flow and annotations that the flow document of that
realization gives.  `realization_from_doc` hands out the complex
unrealized, for analyses that answer on it.  REALIZATION_OF is the field
that marks one; only this module knows the format.

Morphism documents carry the codomain inline:

    {"codomain": <flow document>,
     "state_map": {state: state, ...},
     "path_map": {path: path, ...}}

`export_dot` renders a complex or a flow as Graphviz DOT text.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from .complexes import Edge, GlobularComplex, Square, require_valid
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


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


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
    doc: dict[str, Any] = {
        "states": list(c.states),
        "edges": [
            {"id": e.id, "src": e.src, "tgt": e.tgt}
            | ({"label": e.label} if e.label is not None else {})
            for e in c.edges
        ],
        "squares": [
            {"id": q.id, "left": list(q.left), "right": list(q.right)}
            for q in c.squares
        ],
        "finals": list(c.finals),
    }
    if c.init is not None:
        doc["init"] = c.init
    return doc


def complex_from_doc(doc: Any) -> GlobularComplex:
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
                edges.append(Edge(eid, src, tgt, label))
                continue
        # something is wrong with this entry: name it, checking in field order
        where = f"complex document: edges[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: expected an object")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise FormatError(f"{where}: label must be a string")
        edges.append(
            Edge(
                id=_require(entry, "id", str, where),
                src=_require(entry, "src", str, where),
                tgt=_require(entry, "tgt", str, where),
                label=label,
            )
        )
    squares = []
    for i, entry in enumerate(_optional_list(doc, "squares", "complex document")):
        if isinstance(entry, dict):
            qid, left, right = entry.get("id"), entry.get("left"), entry.get("right")
            if isinstance(qid, str) and _is_string_list(left) and _is_string_list(right):
                squares.append(Square(qid, tuple(left), tuple(right)))
                continue
        # something is wrong with this entry: name it, checking in field order
        where = f"complex document: squares[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: expected an object")
        squares.append(
            Square(
                id=_require(entry, "id", str, where),
                left=tuple(_string_list(entry, "left", where)),
                right=tuple(_string_list(entry, "right", where)),
            )
        )
    init = doc.get("init")
    if init is not None and not isinstance(init, str):
        raise FormatError("complex document: init must be a string")
    return GlobularComplex(
        states=tuple(states),
        edges=tuple(edges),
        squares=tuple(squares),
        finals=tuple(_string_list(doc, "finals", "complex document", default=())),
        init=init,
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

    A realization document gives `realize` of its complex, which validates
    the complex and applies the realization limit, with the annotations
    `realization_from_doc` takes from the complex."""
    realization = realization_from_doc(doc)
    if realization is not None:
        c, annotations = realization
        return realize(c), annotations
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
        # something is wrong with this entry: name it, checking in field order
        where = f"flow document: paths[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: expected an object")
        pid = _require(entry, "id", str, where)
        if pid in path_ends:
            raise FormatError(f"{where}: duplicate path id {pid!r}")
        path_ends[pid] = (
            _require(entry, "src", str, where),
            _require(entry, "tgt", str, where),
        )
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
            dict.fromkeys(skeleton), path_ends, _normalize_adjacency(adjacency)
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
    """`json.dumps(flow_to_doc(flow, init, finals), indent=2) + "\n"`, written
    directly: the same text, without building the document first."""
    return "".join(_flow_text(flow, init, finals))


class _Quoted(dict):
    """id -> its JSON string literal, escaped once per id on first use."""

    def __missing__(self, key: str) -> str:
        literal = self[key] = encode_basestring_ascii(key)
        return literal


def _flow_text(flow: FiniteFlow, init: str | None, finals):
    """The pieces of a flow document, laid out as `json.dumps(..., indent=2)`
    lays out the `flow_to_doc` document."""
    q = _Quoted()
    ends = flow.path_ends
    yield '{\n  "skeleton": '
    yield from _array(f",\n    {q[s]}" for s in sorted(flow.skeleton))
    yield ',\n  "paths": '
    yield from _array(
        f',\n    {{\n      "id": {q[p]},\n      "src": {q[ends[p][0]]},'
        f'\n      "tgt": {q[ends[p][1]]}\n    }}'
        for p in flow.sorted_paths
    )
    yield ',\n  "compose": '
    if flow._concatenative:
        yield "[]"
    else:
        yield from _array(
            f",\n    [\n      {q[x]},\n      {q[y]},\n      {q[z]}\n    ]"
            for (x, y), z in sorted(flow.composition.items())
        )
    yield ',\n  "adjacency": '
    yield from _array(
        f",\n    [\n      {q[a]},\n      {q[b]}\n    ]" for a, b in sorted(flow.adjacency)
    )
    if flow._concatenative:
        yield f',\n  "composition": {q[CONCATENATION]}'
    if init is not None:
        yield f',\n  "init": {q[init]}'
    if finals:
        yield ',\n  "finals": '
        yield from _array(f",\n    {q[s]}" for s in sorted(finals))
    yield "\n}\n"


def _array(entries):
    """A top-level field's JSON array from entry texts that each start with ",\n"."""
    entries = iter(entries)
    first = next(entries, None)
    if first is None:
        yield "[]"
        return
    yield "[" + first[1:]
    yield from entries
    yield "\n  ]"


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


def realization_from_doc(doc: Any) -> Optional[tuple[GlobularComplex, dict[str, Any]]]:
    """The complex a realization document holds, not yet validated, and
    the annotations of its realization: `init` when the complex has one,
    and its `finals`, sorted, when it has any.  None for any other
    document."""
    if not isinstance(doc, dict) or REALIZATION_OF not in doc:
        return None
    c = complex_from_doc(_require(doc, REALIZATION_OF, dict, "realization document"))
    annotations: dict[str, Any] = {}
    if c.init is not None:
        annotations["init"] = c.init
    if c.finals:
        annotations["finals"] = sorted(c.finals)
    return c, annotations


# ---------------------------------------------------------------------------
# morphisms


def morphism_to_doc(f: FlowMorphism, codomain: FiniteFlow, **annotations) -> dict:
    return {
        "codomain": flow_to_doc(codomain, **annotations),
        "state_map": dict(sorted(f.state_map.items())),
        "path_map": dict(sorted(f.path_map.items())),
    }


def morphism_from_doc(doc: Any) -> tuple[FlowMorphism, FiniteFlow, dict[str, Any]]:
    if not isinstance(doc, dict):
        raise FormatError("morphism document: expected an object")
    codomain, annotations = flow_from_doc(
        _require(doc, "codomain", dict, "morphism document")
    )
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


def dumps_morphism(f: FlowMorphism, codomain: FiniteFlow, **annotations) -> str:
    return json.dumps(morphism_to_doc(f, codomain, **annotations), indent=2) + "\n"


def loads_morphism(text: str) -> tuple[FlowMorphism, FiniteFlow, dict[str, Any]]:
    return morphism_from_doc(_parse_json(text, "morphism document"))


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: not valid JSON: {exc}") from None


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
        lines = ["digraph complex {"]
        finals = set(obj.finals)
        for s in sorted(obj.states):
            attrs = []
            if s in finals:
                attrs.append("peripheries=2")
            if s == obj.init:
                attrs.append("style=bold")
            lines.append(f"  {_quote(s)}" + (f" [{', '.join(attrs)}]" if attrs else "") + ";")
        for e in sorted(obj.edges, key=lambda e: e.id):
            label = e.id if e.label is None else f"{e.id}: {e.label}"
            lines.append(f"  {_quote(e.src)} -> {_quote(e.tgt)} [label={_quote(label)}];")
        for q in sorted(obj.squares, key=lambda q: q.id):
            src, tgt = obj.path_source(q.left), obj.path_target(q.left)
            lines.append(
                f"  {_quote(src)} -> {_quote(tgt)} "
                f"[label={_quote(q.id)}, style=dashed, constraint=false];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    if isinstance(obj, FiniteFlow):
        require_valid_flow(obj)
        lines = ["digraph flow {"]
        for s in sorted(obj.skeleton):
            lines.append(f"  {_quote(s)};")
        for p in obj.sorted_paths:
            src, tgt = obj.path_ends[p]
            lines.append(f"  {_quote(src)} -> {_quote(tgt)} [label={_quote(p)}];")
        for a, b in sorted(obj.adjacency):
            src, tgt = obj.path_ends[a]
            lines.append(
                f"  {_quote(src)} -> {_quote(tgt)} "
                f"[label={_quote(f'{a} ~ {b}')}, style=dashed, constraint=false];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    raise TypeError(f"cannot export {type(obj).__name__} as DOT")
