"""The PV compiler: its output against the frozen digest, the certificate it
hands over, its compile limit, the program check and the tokenizer."""

import dataclasses
import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

import oracles
from conftest import random_pv_source, run
from globflow import (
    CompileLimitExceeded,
    DEFAULT_COMPILE_LIMIT,
    PvError,
    PvProgram,
    PvStep,
    PvSyntaxError,
    dumps_complex,
    parse_pv,
    pv_to_complex,
)
from globflow import complexes
from globflow.pv import _grid_counts, _tokenize, _usage

# sha256 of dumps_complex over `_frozen_set`, each document followed by a
# NUL byte, as the compiler that built the whole product grid wrote them
FROZEN_DIGEST = "9977063db1da9ed12cb2414e27322b338f8f44daa7d63e90cd8f63bc7b5a4ddc"


def _frozen_set():
    rng = random.Random(2003)
    sources = [oracles.MUTEX_SOURCE, oracles.SWISS_FLAG_SOURCE]
    sources += [oracles.dining_philosophers_source(n) for n in range(2, 7)]
    sources += [random_pv_source(rng) for _ in range(400)]
    return sources


@pytest.fixture(scope="module")
def compiled():
    return [pv_to_complex(parse_pv(source)) for source in _frozen_set()]


def mutex_source(n, capacity=1):
    return f"res a {capacity}; " + " ".join(["proc: P(a).V(a)"] * n)


class TestCertifiedOutput:
    def test_output_is_byte_identical_to_the_product_grid(self, compiled):
        digest = hashlib.sha256()
        for c in compiled:
            digest.update(dumps_complex(c).encode())
            digest.update(b"\0")
        assert digest.hexdigest() == FROZEN_DIGEST

    def test_seeded_report_is_the_report(self, compiled):
        # read off the class, `validation` is the descriptor that works it out
        build = complexes.GlobularComplex.validation.build
        for c in compiled:
            assert c.__dict__["validation"] == complexes._validation_report(c) == build(c)

    def test_seeded_order_is_topological(self, compiled):
        for c in compiled:
            order = c.__dict__["topological_order"]
            position = {s: i for i, s in enumerate(order)}
            assert len(order) == len(position) == len(c.states)
            assert set(position) == set(c.states)
            assert all(position[e.src] < position[e.tgt] for e in c.edges)

    def test_a_changed_copy_inherits_no_seed(self, compiled):
        for c in compiled:
            copy = dataclasses.replace(c, squares=())
            assert "validation" not in copy.__dict__
            assert "topological_order" not in copy.__dict__

    def test_compiled_complexes_are_not_validated_again(self, monkeypatch):
        calls = []
        report, walk = complexes._validation_report, complexes._kahn_order
        monkeypatch.setattr(complexes, "_validation_report", lambda c: calls.append(c) or report(c))
        monkeypatch.setattr(complexes, "_kahn_order", lambda c: calls.append(c) or walk(c))
        c = pv_to_complex(parse_pv(oracles.dining_philosophers_source(3)))
        assert complexes.validate_complex(c).ok
        assert complexes.enumerate_paths(c, c.init, c.finals[0])
        assert calls == []


class TestGridCounts:
    def test_counts_match_the_compiled_grid(self, compiled):
        programs = [parse_pv(mutex_source(n, capacity)) for n in range(1, 9) for capacity in (1, 2)]
        complexes_ = compiled + [pv_to_complex(p) for p in programs]
        for c, program in zip(complexes_, [parse_pv(s) for s in _frozen_set()] + programs):
            counts = (len(c.states), len(c.edges), len(c.squares))
            assert _grid_counts(*_usage(program)) == counts

    @pytest.mark.parametrize(
        "source, cells",
        [
            (oracles.dining_philosophers_source(7), 412_976),
            (mutex_source(9, 9), 452_709),
            (mutex_source(10, 10), 1_633_689),
            (mutex_source(12, 12), 20_371_905),
        ],
    )
    def test_counts_without_compiling(self, source, cells):
        assert sum(_grid_counts(*_usage(parse_pv(source)))) == cells

    def test_a_ring_of_shared_resources_counts_fast(self):
        # each fork leaves the table once its second holder is in, so the
        # table never holds more than three forks
        usage = _usage(parse_pv(oracles.dining_philosophers_source(20)))
        start = time.perf_counter()
        counts = _grid_counts(*usage)
        assert time.perf_counter() - start < 0.5
        assert counts == (9251330557952, 109489813463040, 601365360885760)


class TestCompileLimit:
    def test_default(self):
        assert DEFAULT_COMPILE_LIMIT == 10**6
        with pytest.raises(CompileLimitExceeded) as caught:
            pv_to_complex(parse_pv(mutex_source(10, 10)))
        assert caught.value.limit == DEFAULT_COMPILE_LIMIT
        assert str(caught.value) == (
            "compile limit exceeded: 59049 states + 393660 edges + 1180980 squares "
            "> limit 1000000"
        )

    def test_limit_boundary(self, monkeypatch):
        for source in [oracles.MUTEX_SOURCE, oracles.SWISS_FLAG_SOURCE, mutex_source(4, 2)]:
            monkeypatch.delenv("GLOBFLOW_COMPILE_LIMIT", raising=False)
            program = parse_pv(source)
            c = pv_to_complex(program)
            cells = len(c.states) + len(c.edges) + len(c.squares)
            monkeypatch.setenv("GLOBFLOW_COMPILE_LIMIT", str(cells))
            assert dumps_complex(pv_to_complex(program)) == dumps_complex(c)
            monkeypatch.setenv("GLOBFLOW_COMPILE_LIMIT", str(cells - 1))
            with pytest.raises(CompileLimitExceeded) as caught:
                pv_to_complex(program)
            assert (caught.value.states, caught.value.edges, caught.value.squares) == (
                len(c.states), len(c.edges), len(c.squares)
            )
            assert caught.value.limit == cells - 1

    def test_cli_exits_3_at_count_minus_one(self, tmp_path, monkeypatch):
        source = tmp_path / "swiss.pv"
        source.write_text(oracles.SWISS_FLAG_SOURCE)
        monkeypatch.setenv("GLOBFLOW_COMPILE_LIMIT", "48")  # 20 + 24 + 4 cells
        code, out, err = run("realize", str(source), "--pv")
        assert code == 0, err
        assert json.loads(out)["realization_of"]["init"] == "p0:0,p1:0"
        monkeypatch.setenv("GLOBFLOW_COMPILE_LIMIT", "47")
        assert run("realize", str(source), "--pv") == (
            3,
            "",
            "error: compile limit exceeded: 20 states + 24 edges + 4 squares > limit 47\n",
        )

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", ""])
    def test_cli_rejects_a_malformed_limit(self, tmp_path, monkeypatch, value):
        source = tmp_path / "mutex.pv"
        source.write_text(oracles.MUTEX_SOURCE)
        monkeypatch.setenv("GLOBFLOW_COMPILE_LIMIT", value)
        assert run("realize", str(source), "--pv") == (
            1,
            "",
            "error: GLOBFLOW_COMPILE_LIMIT must be a non-negative integer\n",
        )

    def test_an_oversized_grid_is_refused_before_it_is_built(self, tmp_path):
        source = tmp_path / "mutex12.pv"
        source.write_text(mutex_source(12, 12))
        # a child of its own, so the RSS read is the CLI's alone
        measure = (
            "import resource, subprocess, sys, time\n"
            "start = time.perf_counter()\n"
            "done = subprocess.run(sys.argv[1:], capture_output=True, text=True)\n"
            "seconds = time.perf_counter() - start\n"
            "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(done.returncode, seconds, rss)\n"
            "print(done.stderr, end='')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", measure,
             sys.executable, "-m", "globflow.cli", "realize", str(source), "--pv"],
            capture_output=True, text=True, check=True,
        )
        status, seconds, rss_kb = done.stdout.splitlines()[0].split()
        assert status == "3"
        assert done.stdout.splitlines()[1] == (
            "error: compile limit exceeded: 531441 states + 4251528 edges "
            "+ 15588936 squares > limit 1000000"
        )
        assert float(seconds) < 1
        assert int(rss_kb) < 64 * 1024


class TestProgramCheck:
    """A program built without `parse_pv` is refused with the text
    `parse_pv` gives the same fault in source."""

    @pytest.mark.parametrize(
        "program, source",
        [
            (
                PvProgram((("a", 1),), ((PvStep("X", "a"),),)),
                "res a 1; proc: X(a)",
            ),
            (
                PvProgram((("a", 1),), ((PvStep("P", "b"),),)),
                "res a 1; proc: P(b)",
            ),
            (
                PvProgram((("a", 0),), ((PvStep("P", "a"), PvStep("V", "a")),)),
                "res a 0; proc: P(a).V(a)",
            ),
            (
                PvProgram(
                    (("a", 1),),
                    (
                        (PvStep("V", "a"), PvStep("P", "a"), PvStep("P", "a")),
                        (PvStep("P", "a"),),
                    ),
                ),
                "res a 1; proc: V(a).P(a).P(a) proc: P(a)",
            ),
            (
                PvProgram((("a", 1), ("a", 2)), ((PvStep("P", "a"), PvStep("V", "a")),)),
                "res a 1; res a 2; proc: P(a).V(a)",
            ),
            (PvProgram((("a", 1),), ()), "res a 1;"),
        ],
        ids=[
            "unknown op", "undeclared resource", "capacity", "release", "declared twice",
            "no processes",
        ],
    )
    def test_faults_are_refused_with_the_parser_text(self, program, source):
        with pytest.raises(PvError) as parsed:
            parse_pv(source)
        with pytest.raises(PvError) as built:
            pv_to_complex(program)
        assert type(built.value) is type(parsed.value)
        assert built.value.line is None
        text = str(parsed.value)
        if parsed.value.line is not None:
            text = text.split(": ", 1)[1]
        assert str(built.value) == text

    def test_a_process_without_steps_is_refused(self):
        # no source writes a process without steps, so the text is the check's own
        with pytest.raises(PvError) as built:
            pv_to_complex(PvProgram((), ((),)))
        assert type(built.value) is PvError
        assert (str(built.value), built.value.line) == ("process 0 has no steps", None)

    def test_a_parsed_program_passes(self):
        program = parse_pv(oracles.SWISS_FLAG_SOURCE)
        rebuilt = PvProgram(program.resources, program.processes)
        assert dumps_complex(pv_to_complex(rebuilt)) == dumps_complex(pv_to_complex(program))


def _reference_tokens(text):
    """The tokenizer as a character loop: skip what str.isspace accepts,
    match one token at a time, refuse any other character."""
    import re

    token = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[;:.()]")
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = token.match(line, pos)
            if not m:
                raise PvSyntaxError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            tokens.append((m.group(), lineno, pos + 1))
            pos = m.end()
    return tokens


class TestTokenizer:
    # ASCII token characters, whitespace str.isspace accepts (line breaks
    # that splitlines splits at among them), and characters no token takes
    ALPHABET = (
        "ab_Z09;:.()  \t\r\n\x0b\x0c\x1c\x1d\x1e\x85\u00a0\u2028\u3000"
        "!#\u00e9\u200b\u0661"
    )

    @staticmethod
    def _outcome(tokenize, text):
        try:
            return tokenize(text)
        except PvSyntaxError as exc:
            return (str(exc), exc.line, exc.column)

    def test_matches_the_character_loop(self):
        rng = random.Random(31)
        texts = _frozen_set()[:50]
        texts += ["".join(rng.choice(self.ALPHABET) for _ in range(rng.randint(0, 40)))
                  for _ in range(3000)]
        for text in texts:
            assert self._outcome(_tokenize, text) == self._outcome(_reference_tokens, text), text
