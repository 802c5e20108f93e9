"""Batch command-line surface.

usage: globflow realize INPUT [--pv] [-o OUT]
       globflow analyze INPUT (--deadlocks [--init STATE] [--finals S1,S2,...]
                               | --classes SRC TGT | --germs STATE [--minus | --plus]
                               | --t-check FILE | --s-equiv FILE)
       globflow dot INPUT [-o OUT]
       globflow -h | --help

  realize   a complex or realization document (or PV source, with --pv)
            -> its realization document
  analyze   one analysis of a complex, realization or flow document
  dot       a complex, flow or realization document -> DOT text

INPUT and OUT may be "-", standard input and standard output (the default
OUT).  A file OUT is written over its old bytes, then cut to the new
length if it is a regular file, so it is not replaced atomically.
Options go before or after INPUT, as "--opt value", "--opt=value" or, for
-o, "-oOUT"; a long option may be cut to any prefix that no other option
of its subcommand shares ("--dead"); the last of a repeated option wins,
and every argument after "--" is positional.

Exit codes: 0 success (and -h), 1 input error (a malformed command line
too, reported as a "usage:" line and an "error:" line), 2 axiom violation, 3 search budget
exhausted, realization limit or compile limit exceeded, 4 internal error
(an unexpected exception, reported on one line as "internal error:
<type>: <message>" rather than as a traceback).  The library reads each
bound where it checks it: GLOBFLOW_SEARCH_BUDGET, the candidates of the
--s-equiv search, when the search starts; GLOBFLOW_REALIZE_LIMIT (paths
and composites of a realization) and GLOBFLOW_COMPILE_LIMIT (states,
edges and squares that `--pv` compiles) from exact counts, before
anything is built.  Each defaults to 1000000 and must be a non-negative
integer; any other value is an input error.  All output is sorted, or in
declaration order for the complex a realization document holds, so
repeated runs are byte-identical.

Every document is read by `formats._input_from_doc`, the one place that
tells a complex, realization or flow document apart.  Every complex is
checked by `complexes.validate_complex`, its warnings on stderr once (a
--t-check codomain's by the `realize` that reads it, which prints none),
and every flow by `flows.validate_flow`.  Each keeps its report, so
nothing is checked twice, and a flow realized from a complex, like a
complex compiled from `--pv` source, is born with the empty report.  A
violation exits 2 with one "violation:" line per violation.

`realize` refuses a document that holds no complex (exit 1) before it
reads a field of it (`formats._complex_input`), and what
`realization.realize` refuses (exit 3 over the realization limit) from
the exact counts, without building the flow, then writes the
realization document of `formats`: the complex it realized, not the
flow.  `analyze` and --s-equiv read a complex or realization document as
the flow it stands for, and answer on it as on that flow's flow
document, byte for byte.  --deadlocks and --classes answer on the
complex and never realize it: the deadlocks are the reachable, non-final
states no edge leaves (`complexes.complex_deadlocks`), past any
realization limit, and the classes are `realization._realized_classes`,
which refuses what `realize` refuses (exit 3) and writes each member as
its path id.  A --finals name may hold commas, as a compiled PV state's
does.  `dot` renders a complex document's complex, and any other
document's flow.
"""

from __future__ import annotations

import os
import re
import stat
import sys
from types import SimpleNamespace

from .complexes import GlobularComplex, complex_deadlocks, require_valid, validate_complex
from .equivalence import check_t_dihomotopy, s_equivalent
from .errors import (
    CompileLimitExceeded,
    FormatError,
    GlobflowError,
    InvalidComplexError,
    InvalidFlowError,
    RealizationLimitExceeded,
    SearchBudgetExceeded,
)
from .flows import deadlocks, dihomotopy_classes, germs, require_valid_flow
from .formats import dumps_realization, export_dot, loads_morphism
from .formats import _complex_input, _input_from_doc, _parse_json
from .pv import parse_pv, pv_to_complex
from .realization import _realized_classes, realize


# ---------------------------------------------------------------------------
# report formatting (stable, machine-diffable)


def deadlocks_report(states) -> str:
    return "\n".join([f"{len(states)} deadlocks"] + [f"  {s}" for s in states])


def _blocks_report(noun: str, plural: str, blocks) -> str:
    """The classes or the germs `blocks`, each numbered as a `noun`."""
    lines = [f"{len(blocks)} {plural}"]
    for i, block in enumerate(blocks):
        lines.append(f"  {noun} {i}: " + " ".join(block))
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
        return
    # over the old bytes, then cut to length: truncating on open costs more
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as handle:
        handle.write(text)
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()


def _load(path: str, where: str, realized: bool = False):
    """The kind, complex or flow, and annotations of the document at
    `path` (`formats._input_from_doc`): a complex after `_check_complex`,
    realized if `realized`, and a flow after `require_valid_flow`."""
    kind, obj, annotations = _input_from_doc(_parse_json(_read(path), where))
    if kind == "flow":
        require_valid_flow(obj)
    else:
        _check_complex(obj)
        obj = realize(obj) if realized else obj
    return kind, obj, annotations


def cmd_realize(args) -> int:
    if args.pv:
        complex_ = pv_to_complex(parse_pv(_read(args.input)))
    else:
        # the kind first: a document holding no complex is refused, valid or not
        _, complex_, _ = _complex_input(_parse_json(_read(args.input), "complex document"))
        _check_complex(complex_)
    # the document holds the complex, not the flow: `realize` refuses an
    # over-limit complex (exit 3) from its counts and builds no table until
    # one is read
    realize(complex_)
    _write(args.output, dumps_realization(complex_))
    return 0


def _check_complex(complex_: GlobularComplex) -> None:
    """Print the complex's validation warnings on stderr, then `require_valid` it."""
    for warning in validate_complex(complex_).warnings:
        print(f"warning: {warning}", file=sys.stderr)
    require_valid(complex_)


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


def _deadlock_ends(args, states, annotations) -> tuple[str, list[str]]:
    """The init and finals of --deadlocks: the flags, else the annotations.
    A --finals name runs over the most comma-separated pieces, from the
    left, that join into one of `states`, so it may name a state with
    commas; a piece that starts no such run is a name of its own."""
    init = annotations.get("init") if args.init is None else args.init
    if init is None:
        raise FormatError(
            "deadlock analysis needs --init or an init annotation in the flow file"
        )
    if args.finals is None:
        return init, annotations.get("finals", [])
    # a run of n pieces holds n - 1 commas, so no state joins a longer one
    longest = 1 + max((s.count(",") for s in states), default=0)
    pieces, finals, i = args.finals.split(","), [], 0
    while i < len(pieces):
        last = min(i + longest, len(pieces))
        j = next((j for j in range(last, i + 1, -1) if ",".join(pieces[i:j]) in states), i + 1)
        finals.append(",".join(pieces[i:j]))
        i = j
    return init, [s for s in finals if s]


def cmd_analyze(args) -> int:
    # --deadlocks and --classes answer on a document's complex, the others on its flow
    on_complex = args.deadlocks or args.classes is not None
    kind, obj, annotations = _load(args.input, "flow document", realized=not on_complex)
    if on_complex and kind != "flow":
        states, find_deadlocks, find_classes = obj.state_set, complex_deadlocks, _realized_classes
    else:
        states, find_deadlocks, find_classes = obj.skeleton, deadlocks, dihomotopy_classes
    if args.deadlocks:
        print(deadlocks_report(find_deadlocks(obj, *_deadlock_ends(args, states, annotations))))
    elif args.classes is not None:
        src, tgt = (_resolve_state(s, states, annotations) for s in args.classes)
        print(_blocks_report("class", "classes", find_classes(obj, src, tgt)))
    elif args.germs is not None:
        state = _resolve_state(args.germs, states, annotations)
        sign = "plus" if args.plus else "minus"
        print(_blocks_report("germ", "germs", germs(obj, state, sign)))
    elif args.t_check is not None:
        morphism, codomain, _ = loads_morphism(_read(args.t_check))
        require_valid_flow(codomain)
        print(t_check_report(check_t_dihomotopy(morphism, obj, codomain)))
    elif args.s_equiv is not None:
        _, other, _ = _load(args.s_equiv, "flow document", realized=True)
        print(s_equiv_report(s_equivalent(obj, other)))
    return 0


def cmd_dot(args) -> int:
    kind, obj, _ = _load(args.input, "input document")
    _write(args.output, export_dot(realize(obj) if kind == "realization" else obj))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


# Each subcommand's options: option string -> (namespace attribute, number
# of values).  An option of no values stores True; one of one value stores
# it, and --classes a list of its two.
_HELP = {"-h": ("help", 0), "--help": ("help", 0)}
_OUTPUT = {"-o": ("output", 1), "--output": ("output", 1)}
_COMMANDS = {
    "realize": (cmd_realize, {**_HELP, "--pv": ("pv", 0), **_OUTPUT}),
    "analyze": (cmd_analyze, {
        **_HELP,
        "--deadlocks": ("deadlocks", 0),
        "--classes": ("classes", 2),
        "--germs": ("germs", 1),
        "--t-check": ("t_check", 1),
        "--s-equiv": ("s_equiv", 1),
        "--minus": ("minus", 0),
        "--plus": ("plus", 0),
        "--init": ("init", 1),
        "--finals": ("finals", 1),
    }),
    "dot": (cmd_dot, {**_HELP, **_OUTPUT}),
}
# the attributes of each subcommand's namespace, at their defaults
_DEFAULTS = {
    command: {
        "command": command, "func": func, "input": None,
        **{dest: False if n == 0 else "-" if dest == "output" else None
           for dest, n in options.values() if dest != "help"},
    }
    for command, (func, options) in _COMMANDS.items()
}
# at most one option of each set is given; analyze needs one of the analyses
_ANALYSES = frozenset(("deadlocks", "classes", "germs", "t_check", "s_equiv"))
_CONFLICTS = {
    dest: group - {dest} for group in (_ANALYSES, frozenset(("minus", "plus"))) for dest in group
}
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")
_END = ("--", None)  # the "--" that makes every later argument positional
_USAGE = "usage: globflow {realize,analyze,dot} INPUT [OPTION]... (globflow -h for more)"
# what -h prints: the synopsis at the head of this module's docstring, or
# the usage line where `python -OO` has stripped the docstrings
_SYNOPSIS = (
    "usage:" + __doc__.partition("usage:")[2].partition("\n\nExit codes")[0] if __doc__ else _USAGE
)


class _UsageError(Exception):
    """A command line that the synopsis does not allow; `main` exits 1."""


def _lookup(options, token: str):
    """What `token` is among `options`: None for a positional argument,
    else (option, the value it carries or None), with option None when no
    option matches.  A token carries a value as "--opt=value" or, after a
    one-letter option, as "-oVALUE"; "-", negative numbers and tokens with
    a space are positional, as the standard `argparse` reads them."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] == "-":
        matches = [option for option in options if option.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[:2] in options:
        return token[:2], token[2:]
    elif _NEGATIVE_NUMBER.match(token):
        return None
    return None if " " in token else (None, None)


def _scan(options, tokens, upto_positional=False) -> list:
    """`_lookup` of each token, up to a "--" after which all are positional,
    or with `upto_positional`, up to the first positional."""
    hits = []
    for token in tokens:
        if token == "--":
            return hits + [_END] + [None] * (len(tokens) - len(hits) - 1)
        hits.append(_lookup(options, token))
        if upto_positional and hits[-1] is None:
            break
    return hits


def _parse_args(argv) -> SimpleNamespace | None:
    """The namespace of a command line (the arguments after the program
    name), or None when it asks for help.  Raises _UsageError for what the
    synopsis does not allow.  Every error but an unknown option, an extra
    argument or a missing one is found from left to right, so an -h before
    it asks for help."""
    options, args, extra, seen = _HELP, None, [], set()
    # before the subcommand only -h/--help is an option; what follows the
    # subcommand is looked up among its options once it is read
    hits = _scan(options, argv, upto_positional=True)
    i = 0
    while i < len(argv):
        token, hit = argv[i], hits[i]
        i += 1
        if hit is None or hit is _END and args is None:  # the subcommand, then INPUT
            if args is None:
                if token not in _COMMANDS:
                    raise _UsageError(
                        f"argument command: invalid choice: {token!r} "
                        "(choose from 'realize', 'analyze', 'dot')"
                    )
                options = _COMMANDS[token][1]
                args = dict(_DEFAULTS[token])
                hits[i:] = _scan(options, argv[i:])
            elif args["input"] is None:
                args["input"] = token
            else:
                extra.append(token)
            continue
        if hit is _END:
            continue
        option, value = hit
        if option is None:
            extra.append(token)
            continue
        dest, n = options[option]
        asks_help = dest == "help"
        while value and n == 0 and option[1] != "-":
            # "-hX": X goes on as a cluster of one-letter options
            option, value = "-" + value[0], value[1:] or None
            if option not in options:
                raise _UsageError(f"argument {token}: {option} is not an option")
            dest, n = options[option]
        if value is not None:
            if n != 1:
                raise _UsageError(f"argument {option}: ignored explicit argument {value!r}")
            given = value
        elif hits[i:i + n] != [None] * n:
            raise _UsageError(f"argument {option}: expected {n} argument{'s' * (n > 1)}")
        else:
            given = True if n == 0 else argv[i] if n == 1 else argv[i:i + n]
            i += n
        if asks_help:
            return None
        clash = seen.intersection(_CONFLICTS.get(dest, ()))
        if clash:
            raise _UsageError(f"argument {option}: not allowed with --{clash.pop().replace('_', '-')}")
        seen.add(dest)
        args[dest] = given
    if args is None:
        raise _UsageError("the following arguments are required: command")
    if args["input"] is None:
        raise _UsageError("the following arguments are required: input")
    if args["command"] == "analyze" and seen.isdisjoint(_ANALYSES):
        raise _UsageError(
            "one of the arguments --deadlocks --classes --germs --t-check --s-equiv is required"
        )
    if extra:
        raise _UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        print(f"{_USAGE}\nerror: {exc}", file=sys.stderr)
        return 1
    if args is None:
        print(_SYNOPSIS)
        return 0

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
