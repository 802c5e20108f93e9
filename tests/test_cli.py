import json
import random

import pytest

import oracles
from conftest import make_chain, make_grid, make_interval, make_parallel_pair, random_pv_source
from globflow import (
    FiniteFlow,
    dumps_complex,
    dumps_flow,
    dumps_morphism,
    glob_discrete,
    glob_flow,
    parse_pv,
    pv_to_complex,
    realize,
    realize_morphism,
    state_name,
    subdivide_edge,
    validate_flow,
    loads_flow,
)
from globflow import cli, complexes
from globflow.cli import main
from globflow.formats import flow_to_doc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(dumps_complex(make_interval()))
    return str(path)


@pytest.fixture
def glob_ab_flow_file(tmp_path):
    path = tmp_path / "glob_ab.flow.json"
    path.write_text(dumps_flow(realize(glob_discrete(["a", "b"]))))
    return str(path)


@pytest.fixture
def swiss_flow_file(tmp_path, capsys):
    source = tmp_path / "swiss.pv"
    source.write_text(oracles.SWISS_FLAG_SOURCE)
    out = tmp_path / "swiss.flow.json"
    code, _, err = run(capsys, "realize", str(source), "--pv", "-o", str(out))
    assert code == 0, err
    return str(out)


class TestRealize:
    def test_interval_to_flow(self, capsys, interval_file):
        code, out, _ = run(capsys, "realize", interval_file)
        assert code == 0
        assert out.count("\n") == 1  # one compact line
        doc = json.loads(out)
        assert list(doc) == ["realization_of"]
        assert doc["realization_of"]["edges"] == [{"id": "e", "src": "0", "tgt": "1"}]
        flow, _ = loads_flow(out)
        assert flow.sorted_paths == ("e",)

    def test_output_file_round_trips(self, capsys, interval_file, tmp_path):
        out_path = tmp_path / "interval.flow.json"
        code, _, _ = run(capsys, "realize", interval_file, "-o", str(out_path))
        assert code == 0
        flow, _ = loads_flow(out_path.read_text())
        assert validate_flow(flow).ok

    def test_cyclic_complex_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cyclic.json"
        path.write_text(
            json.dumps(
                {
                    "states": ["u", "v"],
                    "edges": [
                        {"id": "a", "src": "u", "tgt": "v"},
                        {"id": "b", "src": "v", "tgt": "u"},
                    ],
                }
            )
        )
        code, _, err = run(capsys, "realize", str(path))
        assert code == 2
        assert "cyclic 1-skeleton" in err

    def test_complex_is_validated_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        check = complexes._validation_report

        def counted(c):
            calls.append(c)
            return check(c)

        monkeypatch.setattr(complexes, "_validation_report", counted)
        source = tmp_path / "swiss.pv"
        source.write_text(oracles.SWISS_FLAG_SOURCE)
        code, out, err = run(capsys, "realize", str(source), "--pv")
        assert code == 0, err
        assert json.loads(out)["realization_of"]["init"]
        assert len(calls) == 1

    def test_warnings_print_before_violations(self, capsys, tmp_path):
        path = tmp_path / "cyclic.json"
        path.write_text(
            json.dumps(
                {
                    "states": ["u", "v"],
                    "edges": [
                        {"id": "a", "src": "u", "tgt": "v"},
                        {"id": "b", "src": "v", "tgt": "u"},
                    ],
                    "squares": [{"id": "q", "left": ["a"], "right": ["a"]}],
                }
            )
        )
        code, _, err = run(capsys, "realize", str(path))
        assert code == 2
        assert err.splitlines() == [
            "warning: degenerate square (no-op): q",
            "violation: cyclic 1-skeleton: u -> v -> u",
        ]

    def test_bad_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "realize", str(path))
        assert code == 1
        assert "error" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, _ = run(capsys, "realize", "/nonexistent/file.json")
        assert code == 1

    def test_pv_syntax_error_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.pv"
        path.write_text("proc: Q(a)")
        code, _, err = run(capsys, "realize", str(path), "--pv")
        assert code == 1
        assert "expected a step" in err


class TestAnalyze:
    def test_swiss_deadlocks_match_oracle(self, capsys, swiss_flow_file):
        code, out, _ = run(capsys, "analyze", swiss_flow_file, "--deadlocks")
        assert code == 0
        procs, caps = oracles.SWISS_FLAG
        want = {state_name(t) for t in oracles.pv_deadlock_states(procs, caps)}
        lines = out.strip().splitlines()
        assert lines[0] == "1 deadlocks"
        assert {line.strip() for line in lines[1:]} == want

    def test_deadlocks_need_an_init(self, capsys, glob_ab_flow_file):
        code, _, err = run(capsys, "analyze", glob_ab_flow_file, "--deadlocks")
        assert code == 1
        assert "init" in err

    def test_mutex_classes(self, capsys, tmp_path):
        source = tmp_path / "mutex.pv"
        source.write_text(oracles.MUTEX_SOURCE)
        flow_path = tmp_path / "mutex.flow.json"
        assert run(capsys, "realize", str(source), "--pv", "-o", str(flow_path))[0] == 0
        code, out, _ = run(
            capsys, "analyze", str(flow_path), "--classes", "init", "final"
        )
        assert code == 0
        assert out.splitlines()[0] == "2 classes"

    def test_classes_with_explicit_states(self, capsys, glob_ab_flow_file):
        code, out, _ = run(capsys, "analyze", glob_ab_flow_file, "--classes", "0", "1")
        assert code == 0
        assert out.splitlines()[0] == "2 classes"

    def test_germs_minus(self, capsys, glob_ab_flow_file):
        code, out, _ = run(capsys, "analyze", glob_ab_flow_file, "--germs", "0", "--minus")
        assert code == 0
        assert out.splitlines()[0] == "2 germs"

    def test_germs_plus_defaults_differ(self, capsys, tmp_path):
        flow = realize(make_chain(2))
        path = tmp_path / "chain.flow.json"
        path.write_text(dumps_flow(flow))
        code, out, _ = run(capsys, "analyze", str(path), "--germs", "s1", "--plus")
        assert code == 0
        assert out.splitlines()[0] == "1 germs"

    def test_t_check_subdivision(self, capsys, tmp_path):
        interval = make_interval()
        refined, m = subdivide_edge(interval, "e")
        domain_flow = realize(interval)
        codomain_flow = realize(refined)
        morphism = realize_morphism(m, interval, refined)
        domain_path = tmp_path / "domain.flow.json"
        domain_path.write_text(dumps_flow(domain_flow))
        morphism_path = tmp_path / "subdivision.morphism.json"
        morphism_path.write_text(dumps_morphism(morphism, codomain_flow))
        code, out, _ = run(
            capsys, "analyze", str(domain_path), "--t-check", str(morphism_path)
        )
        assert code == 0
        assert out.strip() == "T-dihomotopy: yes (1 ok, 2 ok, 3 ok)"

    def test_s_equiv_yes(self, capsys, tmp_path):
        fat = tmp_path / "fat.flow.json"
        fat.write_text(dumps_flow(realize(make_parallel_pair(True))))
        thin = tmp_path / "thin.flow.json"
        thin.write_text(dumps_flow(realize(glob_discrete(["c"]))))
        code, out, _ = run(capsys, "analyze", str(fat), "--s-equiv", str(thin))
        assert code == 0
        assert out.splitlines()[0] == "S-equivalent: yes"

    def test_s_equiv_no(self, capsys, tmp_path):
        fat = tmp_path / "fat.flow.json"
        fat.write_text(dumps_flow(realize(make_parallel_pair(False))))
        thin = tmp_path / "thin.flow.json"
        thin.write_text(dumps_flow(realize(glob_discrete(["c"]))))
        code, out, _ = run(capsys, "analyze", str(fat), "--s-equiv", str(thin))
        assert code == 0
        assert out.strip() == "S-equivalent: no"

    def test_s_equiv_budget_exit_code(self, capsys, tmp_path, monkeypatch):
        grid = tmp_path / "grid.flow.json"
        grid.write_text(dumps_flow(realize(make_grid(True))))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "3")
        code, _, err = run(capsys, "analyze", str(grid), "--s-equiv", str(grid))
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", ""])
    def test_s_equiv_rejects_a_malformed_budget(self, capsys, tmp_path, monkeypatch, value):
        grid = tmp_path / "grid.flow.json"
        grid.write_text(dumps_flow(realize(make_grid(True))))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", value)
        code, out, err = run(capsys, "analyze", str(grid), "--s-equiv", str(grid))
        assert code == 1
        assert out == ""
        assert err == "error: GLOBFLOW_SEARCH_BUDGET must be a non-negative integer\n"

    def test_s_equiv_zero_budget_is_exhausted(self, capsys, tmp_path, monkeypatch):
        grid = tmp_path / "grid.flow.json"
        grid.write_text(dumps_flow(realize(make_grid(True))))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "0")
        code, _, err = run(capsys, "analyze", str(grid), "--s-equiv", str(grid))
        assert code == 3
        assert err == "error: search budget exhausted after 0 candidates\n"

    @pytest.mark.parametrize("kind", ["complex", "pv"])
    def test_realize_over_the_limit_exits_3(self, capsys, tmp_path, kind):
        # a 1,500-step chain: 1,125,750 paths and 562,499,750 composites,
        # refused from the exact counts before any path is built
        if kind == "complex":
            source = tmp_path / "chain.json"
            source.write_text(dumps_complex(make_chain(1500)))
            argv = ("realize", str(source))
        else:
            source = tmp_path / "chain.pv"
            source.write_text("proc: " + ".".join(["A(x)"] * 1500) + "\n")
            argv = ("realize", str(source), "--pv")
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == (
            "error: realization limit exceeded: 1125750 paths + 562499750 composites "
            "> limit 1000000\n"
        )

    def test_realize_limit_from_the_environment(self, capsys, interval_file, monkeypatch):
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "0")
        code, out, err = run(capsys, "realize", interval_file)
        assert (code, out) == (3, "")
        assert err == "error: realization limit exceeded: 1 paths + 0 composites > limit 0\n"
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "1")
        assert run(capsys, "realize", interval_file)[0] == 0

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", ""])
    def test_realize_rejects_a_malformed_limit(self, capsys, interval_file, monkeypatch, value):
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", value)
        code, out, err = run(capsys, "realize", interval_file)
        assert code == 1
        assert out == ""
        assert err == "error: GLOBFLOW_REALIZE_LIMIT must be a non-negative integer\n"

    def test_axiom_violating_flow_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.flow.json"
        path.write_text(
            json.dumps(
                {
                    "skeleton": ["u", "v", "w"],
                    "paths": [
                        {"id": "x", "src": "u", "tgt": "v"},
                        {"id": "y", "src": "v", "tgt": "w"},
                    ],
                    "compose": [],
                    "adjacency": [],
                }
            )
        )
        code, _, err = run(capsys, "analyze", str(path), "--germs", "u")
        assert code == 2
        assert "composition not total" in err

    @pytest.mark.parametrize(
        "codomain, violations",
        [
            (
                {
                    "skeleton": ["0", "1"],
                    "paths": [{"id": "a", "src": "0", "tgt": "1"}],
                    "compose": [],
                    "adjacency": [["a", "zz"]],
                },
                ["unknown path in adjacency: (a, zz)"],
            ),
            (
                {
                    "skeleton": ["0", "1", "2"],
                    "paths": [
                        {"id": "a", "src": "0", "tgt": "1"},
                        {"id": "c", "src": "1", "tgt": "2"},
                        {"id": "a*c", "src": "0", "tgt": "2"},
                    ],
                    "compose": [],
                    "adjacency": [],
                },
                ["composition not total: (a, c) undefined"],
            ),
            (
                {
                    "skeleton": ["0", "1"],
                    "paths": [
                        {"id": "a", "src": "0", "tgt": "1"},
                        {"id": "c", "src": "w", "tgt": "1"},
                    ],
                    "compose": [],
                    "adjacency": [],
                },
                ["dangling path endpoint: source w of path c"],
            ),
        ],
        ids=["unknown-adjacent-path", "composition-not-total", "dangling-endpoint"],
    )
    def test_t_check_codomain_is_validated(self, capsys, tmp_path, codomain, violations):
        domain = tmp_path / "domain.flow.json"
        domain.write_text(dumps_flow(glob_flow(["a"])))
        morphism = tmp_path / "into.morphism.json"
        morphism.write_text(
            json.dumps(
                {"codomain": codomain, "state_map": {"0": "0", "1": "1"}, "path_map": {"a": "a"}}
            )
        )
        code, out, err = run(capsys, "analyze", str(domain), "--t-check", str(morphism))
        assert (code, out) == (2, "")
        assert err == "".join(f"violation: {v}\n" for v in violations)

    @pytest.mark.parametrize("field", ["compose", "adjacency"])
    def test_malformed_flow_table_exits_1(self, capsys, tmp_path, glob_ab_flow_file, field):
        flow = tmp_path / "bad.flow.json"
        flow.write_text('{"skeleton": ["a"], "paths": [], "%s": 5}' % field)
        code, _, err = run(capsys, "analyze", str(flow), "--deadlocks", "--init", "a")
        assert code == 1
        assert err == f"error: flow document: field {field!r} has the wrong type\n"
        morphism = tmp_path / "bad.morphism.json"
        morphism.write_text(
            '{"codomain": {"skeleton": [], "paths": [], "%s": null}, '
            '"state_map": {}, "path_map": {}}' % field
        )
        code, _, err = run(capsys, "analyze", glob_ab_flow_file, "--t-check", str(morphism))
        assert code == 1
        assert err == f"error: flow document: field {field!r} has the wrong type\n"

    def test_unknown_state_exits_1(self, capsys, glob_ab_flow_file):
        code, _, err = run(capsys, "analyze", glob_ab_flow_file, "--germs", "zz")
        assert code == 1
        assert "unknown state" in err


class TestDocumentForms:
    """`realize` writes realization documents; analyses answer the same on
    the compact and the explicit document of the same flow."""

    def test_both_forms_give_the_same_answers(self, capsys, tmp_path):
        rng = random.Random(4711)
        programs = [
            ("mutex", oracles.MUTEX_SOURCE),
            ("swiss", oracles.SWISS_FLAG_SOURCE),
            ("phil3", oracles.dining_philosophers_source(3)),
        ] + [(f"r{i}", random_pv_source(rng)) for i in range(20)]
        for name, source in programs:
            pv = tmp_path / f"{name}.pv"
            pv.write_text(source)
            realization = tmp_path / f"{name}.realization.json"
            code, _, err = run(capsys, "realize", str(pv), "--pv", "-o", str(realization))
            assert code == 0, err
            assert list(json.loads(realization.read_text())) == ["realization_of"]
            c = pv_to_complex(parse_pv(source))
            f = realize(c)
            compact = tmp_path / f"{name}.flow.json"
            compact.write_text(dumps_flow(f, init=c.init, finals=c.finals))
            doc = json.loads(compact.read_text())
            assert doc["compose"] == [] and doc["composition"] == "concatenation"
            explicit = tmp_path / f"{name}.explicit.json"
            explicit.write_text(
                json.dumps(
                    flow_to_doc(
                        FiniteFlow(f.skeleton, f.path_ends, f.composition, f.adjacency),
                        init=c.init,
                        finals=c.finals,
                    ),
                    indent=2,
                )
            )
            assert "composition" not in json.loads(explicit.read_text())
            for analysis in (["--deadlocks"], ["--classes", "init", "final"]):
                got = run(capsys, "analyze", str(realization), *analysis)
                assert got[0] == 0, got
                assert run(capsys, "analyze", str(compact), *analysis) == got
                assert run(capsys, "analyze", str(explicit), *analysis) == got


class TestDot:
    def test_interval_nodes_and_arrow(self, capsys, interval_file):
        code, out, _ = run(capsys, "dot", interval_file)
        assert code == 0
        assert out.count("->") == 1
        assert '"0";' in out and '"1";' in out

    def test_parallel_edges(self, capsys, tmp_path):
        path = tmp_path / "glob.json"
        path.write_text(dumps_complex(glob_discrete(["a", "b"])))
        code, out, _ = run(capsys, "dot", str(path))
        assert code == 0
        assert out.count("->") == 2

    def test_flow_document_renders(self, capsys, glob_ab_flow_file):
        code, out, _ = run(capsys, "dot", glob_ab_flow_file)
        assert code == 0
        assert out.startswith("digraph flow {")
        assert out.count("->") == 2

    def test_swiss_node_count_matches_permitted_states(self, capsys, tmp_path):
        source = tmp_path / "swiss.pv"
        source.write_text(oracles.SWISS_FLAG_SOURCE)
        complex_path = tmp_path / "swiss.json"
        # realize validates; compile via the library to get the complex doc
        from globflow import parse_pv, pv_to_complex

        c = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        complex_path.write_text(dumps_complex(c))
        code, out, _ = run(capsys, "dot", str(complex_path))
        assert code == 0
        procs, caps = oracles.SWISS_FLAG
        from itertools import product

        permitted = [
            t
            for t in product(range(5), range(5))
            if oracles.pv_permitted(procs, caps, t)
        ]
        node_lines = [
            line for line in out.splitlines() if line.endswith(";") and "->" not in line
        ]
        assert len(node_lines) == len(permitted)

    def test_non_document_exits_1(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"neither": true}')
        code, _, _ = run(capsys, "dot", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "doc, violation",
        [
            (
                {
                    "states": ["s", "t"],
                    "edges": [{"id": "a", "src": "s", "tgt": "t"}],
                    "squares": [{"id": "q", "left": ["zz"], "right": ["a"]}],
                },
                "bad square boundary: square q left side uses unknown edges zz",
            ),
            (
                {
                    "states": ["s", "t"],
                    "edges": [{"id": "a", "src": "s", "tgt": "t"}],
                    "squares": [{"id": "q", "left": [], "right": ["a"]}],
                },
                "bad square boundary: square q has empty left side",
            ),
            (
                {
                    "skeleton": ["0", "1"],
                    "paths": [{"id": "b", "src": "0", "tgt": "1"}],
                    "compose": [],
                    "adjacency": [["b", "a"]],
                },
                "unknown path in adjacency: (a, b)",
            ),
        ],
        ids=["square-unknown-edge", "square-empty-side", "flow-unknown-adjacent-path"],
    )
    def test_invalid_document_exits_2(self, capsys, tmp_path, doc, violation):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "dot", str(path))
        assert (code, out) == (2, "")
        assert err == f"violation: {violation}\n"

    def test_malformed_squares_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        for value in ("5", "null"):
            path.write_text('{"states": ["a"], "edges": [], "squares": %s}' % value)
            code, _, err = run(capsys, "dot", str(path))
            assert code == 1
            assert err == "error: complex document: field 'squares' has the wrong type\n"


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path, interval_file,
                                              glob_ab_flow_file, swiss_flow_file):
        mutex_source = tmp_path / "mutex.pv"
        mutex_source.write_text(oracles.MUTEX_SOURCE)
        commands = [
            ("realize", interval_file),
            ("realize", str(mutex_source), "--pv"),
            ("analyze", swiss_flow_file, "--deadlocks"),
            ("analyze", glob_ab_flow_file, "--classes", "0", "1"),
            ("analyze", glob_ab_flow_file, "--germs", "0", "--minus"),
            ("dot", interval_file),
            ("dot", glob_ab_flow_file),
        ]
        for argv in commands:
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first == second
            assert first[0] == 0


class TestDispatch:
    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_no_arguments_exit_1(self, capsys):
        assert run(capsys)[0] == 1

    def test_unknown_flag_exits_1(self, capsys, interval_file):
        assert run(capsys, "realize", interval_file, "--bogus")[0] == 1

    def test_conflicting_analyses_rejected(self, capsys, glob_ab_flow_file):
        code, _, _ = run(
            capsys, "analyze", glob_ab_flow_file, "--deadlocks", "--germs", "0"
        )
        assert code == 1

    def test_unexpected_exception_exits_4_on_one_line(self, capsys, interval_file, monkeypatch):
        def broken(c):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "realize", broken)
        code, out, err = run(capsys, "realize", interval_file)
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"


class TestParserReuse:
    def test_one_parser_answers_like_a_fresh_one(self, capsys, monkeypatch,
                                                 interval_file, glob_ab_flow_file,
                                                 swiss_flow_file):
        commands = [
            ("realize", interval_file),
            ("analyze", swiss_flow_file, "--deadlocks"),
            ("analyze", glob_ab_flow_file, "--classes", "0", "1"),
            ("realize", interval_file, "--bogus"),
            ("--help",),
            ("analyze", glob_ab_flow_file, "--germs", "0", "--plus"),
            ("dot", interval_file),
            ("analyze", "--help"),
            ("analyze", glob_ab_flow_file, "--deadlocks", "--init", "0"),
        ]
        reused = [run(capsys, *argv) for argv in commands]
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in commands]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 1, 0, 0, 0, 0, 0]
