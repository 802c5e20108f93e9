"""Batch command-line surface.

Three subcommands, each a thin wrapper around one library call chain:

    globflow realize INPUT [--pv] [-o OUT]      complex (or PV source) ->
                                                realization document
    globflow analyze INPUT --deadlocks | --classes SRC TGT | --germs STATE
                           [--minus|--plus] | --t-check FILE | --s-equiv FILE
    globflow dot INPUT [-o OUT]                 complex, flow or realization
                                                -> DOT text

Exit codes: 0 success, 1 input error, 2 axiom violation, 3 search budget
exhausted, realization limit or compile limit exceeded, 4 internal error
(an unexpected exception, reported on one line as "internal error:
<type>: <message>" rather than as a traceback).  The environment variable
GLOBFLOW_SEARCH_BUDGET overrides the default candidate budget of the
--s-equiv search, GLOBFLOW_REALIZE_LIMIT the most paths and composites
together that a realization may hold, and GLOBFLOW_COMPILE_LIMIT the most
states, edges and squares together that `--pv` compiles (each limit
default 1000000; the counts are exact and checked before anything is
built).  Each must be a non-negative integer, and any other value is an
input error.  All output is sorted, or in declaration order for the
complex a realization document holds, so repeated runs are byte-identical.

Every document a command reads is validated before it is used: complexes,
including the one an input realization document holds, with
`complexes.validate_complex` (warnings go to stderr), and flows, including
the codomain of a --t-check morphism and the --s-equiv flow, with
`flows.validate_flow`.  Those two are read by `formats.loads_morphism` and
`formats.loads_flow`, which also take realization documents and validate
their complex without a warning.  A violation exits 2 with one
"violation:" line per violation.  A complex compiled from `--pv` source
enters certified, with its empty report, and is not checked again.

`realize` refuses what `realization.realize` refuses (exit 3 over the
realization limit), from the exact counts and without building the flow,
then writes the realization document of `formats`: the complex it
realized, not the flow.
`analyze` and `dot` read it as the flow it stands for, and answer on it as
on that flow's flow document, byte for byte.  --deadlocks and --classes
answer on the complex and never realize it: after refusing what `realize`
refuses (exit 3), the deadlocks are the reachable, non-final states no edge
leaves (`complexes.complex_deadlocks`), and the classes are
`complexes.path_classes` with each member written as its path id.  The
other analyses realize the complex and use its flow without validating it
again.  `dot` realizes it too, and `formats.export_dot` validates that
flow, as it does every flow it renders.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .complexes import GlobularComplex, complex_deadlocks, path_classes, validate_complex
from .equivalence import (
    BUDGET_ENV_VAR,
    DEFAULT_SEARCH_BUDGET,
    check_t_dihomotopy,
    s_equivalent,
)
from .errors import (
    CompileLimitExceeded,
    FormatError,
    GlobflowError,
    InvalidComplexError,
    InvalidFlowError,
    RealizationLimitExceeded,
    SearchBudgetExceeded,
)
from .flows import (
    deadlocks,
    dihomotopy_classes,
    germs,
    require_valid_flow,
)
from .formats import (
    complex_from_doc,
    dumps_realization,
    export_dot,
    flow_from_doc,
    loads_complex,
    loads_flow,
    loads_morphism,
    realization_from_doc,
    _parse_json,
)
from .pv import parse_pv, pv_to_complex
from .realization import check_realize_limit, path_id, realize
from .settings import env_count


# ---------------------------------------------------------------------------
# report formatting (stable, machine-diffable)


def deadlocks_report(states) -> str:
    return "\n".join([f"{len(states)} deadlocks"] + [f"  {s}" for s in states])


def classes_report(blocks) -> str:
    lines = [f"{len(blocks)} classes"]
    for i, block in enumerate(blocks):
        lines.append(f"  class {i}: " + " ".join(block))
    return "\n".join(lines)


def germs_report(germ_set) -> str:
    lines = [f"{len(germ_set.classes)} germs"]
    for i, block in enumerate(germ_set.classes):
        lines.append(f"  germ {i}: " + " ".join(block))
    return "\n".join(lines)


def t_check_report(report) -> str:
    def mark(ok):
        return "ok" if ok else "fail"

    head = (
        f"T-dihomotopy: {'yes' if report.holds else 'no'} "
        f"(1 {mark(report.restriction_isomorphism)}, "
        f"2 {mark(report.singleton_germs)}, "
        f"3 {mark(report.image_extension)})"
    )
    return "\n".join([head] + [f"  {d}" for d in report.details])


def s_equiv_report(witness) -> str:
    if witness is None:
        return "S-equivalent: no"
    f, g = witness
    lines = ["S-equivalent: yes"]
    for name, morphism in (("f", f), ("g", g)):
        lines.append(
            f"  {name} state_map: "
            + " ".join(f"{a}->{b}" for a, b in sorted(morphism.state_map.items()))
        )
        lines.append(
            f"  {name} path_map: "
            + " ".join(f"{a}->{b}" for a, b in sorted(morphism.path_map.items()))
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_realize(args) -> int:
    text = _read(args.input)
    if args.pv:
        complex_ = pv_to_complex(parse_pv(text))
    else:
        complex_ = loads_complex(text)
    _check_complex(complex_)
    # the document holds the complex, not the flow: `realize` refuses an
    # over-limit complex (exit 3) from its counts and builds no table until
    # one is read.  The call stays rather than `check_realize_limit`
    # because the traced benchmark counts the paths and composites of the
    # flow it returns.
    realize(complex_)
    _write(args.output, dumps_realization(complex_))
    return 0


def _check_complex(complex_: GlobularComplex) -> None:
    """Print the complex's validation warnings on stderr, then raise
    InvalidComplexError if it does not validate."""
    report = validate_complex(complex_)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not report.ok:
        raise InvalidComplexError(report.violations)


def _resolve_state(name: str, states, annotations) -> str:
    """Allow the literals "init" and "final" when annotations pin them down:
    an init, and one distinct final state."""
    if name in states:
        return name
    if name == "init" and "init" in annotations:
        return annotations["init"]
    if name == "final" and len(set(annotations.get("finals", ()))) == 1:
        return annotations["finals"][0]
    return name


def _deadlock_ends(args, annotations) -> tuple[str, list[str]]:
    """The init and finals of --deadlocks: the flags, else the annotations."""
    init = args.init or annotations.get("init")
    if init is None:
        raise FormatError(
            "deadlock analysis needs --init or an init annotation in the flow file"
        )
    if args.finals is not None:
        return init, [s for s in args.finals.split(",") if s]
    return init, annotations.get("finals", [])


def _realized_classes(c: GlobularComplex, src: str, tgt: str) -> list[list[str]]:
    """`dihomotopy_classes` on the realization of `c`, from `path_classes`:
    each member as its path id, members and blocks in string order.  That
    order is not the edge-id tuple order of `path_classes` when an edge id
    holds a character below "*", as "a" and "a!" do."""
    blocks = [sorted(map(path_id, block)) for block in path_classes(c, src, tgt)]
    return sorted(blocks, key=lambda block: block[0])


def cmd_analyze(args) -> int:
    doc = _parse_json(_read(args.input), "flow document")
    realization = realization_from_doc(doc)
    if realization is None:
        flow, annotations = flow_from_doc(doc)
        require_valid_flow(flow)
    else:
        complex_, annotations = realization
        _check_complex(complex_)
        if args.deadlocks or args.classes is not None:
            # answered on the complex, after refusing what `realize` refuses
            check_realize_limit(complex_)
            if args.deadlocks:
                found = complex_deadlocks(complex_, *_deadlock_ends(args, annotations))
                print(deadlocks_report(found))
            else:
                src, tgt = (
                    _resolve_state(s, complex_.state_set, annotations) for s in args.classes
                )
                print(classes_report(_realized_classes(complex_, src, tgt)))
            return 0
        flow = realize(complex_)  # the flow of a valid complex is valid

    if args.deadlocks:
        print(deadlocks_report(deadlocks(flow, *_deadlock_ends(args, annotations))))
    elif args.classes is not None:
        src, tgt = (_resolve_state(s, flow.skeleton, annotations) for s in args.classes)
        print(classes_report(dihomotopy_classes(flow, src, tgt)))
    elif args.germs is not None:
        state = _resolve_state(args.germs, flow.skeleton, annotations)
        sign = "plus" if args.plus else "minus"
        print(germs_report(germs(flow, state, sign)))
    elif args.t_check is not None:
        morphism, codomain, _ = loads_morphism(_read(args.t_check))
        require_valid_flow(codomain)
        print(t_check_report(check_t_dihomotopy(morphism, flow, codomain)))
    elif args.s_equiv is not None:
        budget = env_count(BUDGET_ENV_VAR, DEFAULT_SEARCH_BUDGET)
        other, _ = loads_flow(_read(args.s_equiv))
        require_valid_flow(other)
        print(s_equiv_report(s_equivalent(flow, other, budget=budget)))
    return 0


def cmd_dot(args) -> int:
    doc = _parse_json(_read(args.input), "input document")
    realization = realization_from_doc(doc)
    if realization is not None:
        complex_, _ = realization
        _check_complex(complex_)
        obj = realize(complex_)
    elif isinstance(doc, dict) and "states" in doc:
        obj = complex_from_doc(doc)
        _check_complex(obj)
    elif isinstance(doc, dict) and "skeleton" in doc:
        obj, _ = flow_from_doc(doc)
    else:
        raise FormatError("input document: neither a complex nor a flow")
    _write(args.output, export_dot(obj))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs about as much as a small analysis."""
    parser = argparse.ArgumentParser(
        prog="globflow",
        description="Globular-complex and flow analyses for concurrent programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    realize_p = sub.add_parser(
        "realize",
        help="realize a complex (or PV program) as a flow, and write the realization document",
    )
    realize_p.add_argument("input", help="complex JSON file, or PV source with --pv ('-' = stdin)")
    realize_p.add_argument("--pv", action="store_true", help="treat input as PV source")
    realize_p.add_argument(
        "-o", "--output", default="-",
        help="realization document output, the realized complex ('-' = stdout)",
    )
    realize_p.set_defaults(func=cmd_realize)

    analyze_p = sub.add_parser(
        "analyze", help="run one analysis on a flow or realization document"
    )
    analyze_p.add_argument("input", help="flow or realization JSON file ('-' = stdin)")
    what = analyze_p.add_mutually_exclusive_group(required=True)
    what.add_argument("--deadlocks", action="store_true", help="reachable stuck states")
    what.add_argument("--classes", nargs=2, metavar=("SRC", "TGT"),
                      help="dihomotopy classes of paths SRC -> TGT")
    what.add_argument("--germs", metavar="STATE", help="germ classes at STATE")
    what.add_argument("--t-check", metavar="FILE", dest="t_check",
                      help="check the morphism in FILE (domain = input flow) for T-dihomotopy")
    what.add_argument("--s-equiv", metavar="FILE", dest="s_equiv",
                      help="search for an S-equivalence with the flow in FILE")
    sign = analyze_p.add_mutually_exclusive_group()
    sign.add_argument("--minus", action="store_true", help="backward germs (default)")
    sign.add_argument("--plus", action="store_true", help="forward germs")
    analyze_p.add_argument("--init", help="initial state for --deadlocks")
    analyze_p.add_argument("--finals", help="comma-separated final states for --deadlocks")
    analyze_p.set_defaults(func=cmd_analyze)

    dot_p = sub.add_parser("dot", help="export a complex or flow as DOT")
    dot_p.add_argument(
        "input", help="complex, flow or realization JSON file ('-' = stdin)"
    )
    dot_p.add_argument("-o", "--output", default="-", help="DOT output ('-' = stdout)")
    dot_p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        return args.func(args)
    except (SearchBudgetExceeded, RealizationLimitExceeded, CompileLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidComplexError, InvalidFlowError) as exc:
        for violation in exc.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return 2
    except (GlobflowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
