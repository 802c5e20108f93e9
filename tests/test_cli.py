import argparse
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import oracles
from conftest import explicit, make_chain, make_grid, make_interval, make_parallel_pair, run
from globflow import (
    SearchBudgetExceeded,
    dumps_complex,
    dumps_flow,
    dumps_morphism,
    glob_discrete,
    glob_flow,
    parse_pv,
    pv_to_complex,
    realize,
    realize_morphism,
    s_equivalent,
    subdivide_edge,
    validate_flow,
    loads_flow,
)
from globflow import cli, complexes, flows


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
def swiss_flow_file(tmp_path):
    source = tmp_path / "swiss.pv"
    source.write_text(oracles.SWISS_FLAG_SOURCE)
    out = tmp_path / "swiss.flow.json"
    code, _, err = run("realize", str(source), "--pv", "-o", str(out))
    assert code == 0, err
    return str(out)


class TestRealize:
    def test_interval_to_flow(self, interval_file):
        code, out, _ = run("realize", interval_file)
        assert code == 0
        assert out.count("\n") == 1  # one compact line
        doc = json.loads(out)
        assert list(doc) == ["realization_of"]
        assert doc["realization_of"]["edges"] == [{"id": "e", "src": "0", "tgt": "1"}]
        flow, _ = loads_flow(out)
        assert flow.sorted_paths == ("e",)

    def test_output_file_round_trips(self, interval_file, tmp_path):
        out_path = tmp_path / "interval.flow.json"
        code, _, _ = run("realize", interval_file, "-o", str(out_path))
        assert code == 0
        flow, _ = loads_flow(out_path.read_text())
        assert validate_flow(flow).ok

    def test_cyclic_complex_exits_2(self, tmp_path):
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
        code, _, err = run("realize", str(path))
        assert code == 2
        assert "cyclic 1-skeleton" in err

    def test_complex_is_validated_once(self, tmp_path, monkeypatch):
        calls = []
        check = complexes._validation_report

        def counted(c):
            calls.append(c)
            return check(c)

        monkeypatch.setattr(complexes, "_validation_report", counted)
        source = tmp_path / "swiss.pv"
        source.write_text(oracles.SWISS_FLAG_SOURCE)
        code, out, err = run("realize", str(source), "--pv")
        assert code == 0, err
        assert json.loads(out)["realization_of"]["init"]
        # compiled complexes enter certified
        assert len(calls) == 0
        document = tmp_path / "swiss.json"
        document.write_text(dumps_complex(pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))))
        code, out, err = run("realize", str(document))
        assert code == 0, err
        assert json.loads(out)["realization_of"]["init"]
        assert len(calls) == 1

    def test_warnings_print_before_violations(self, tmp_path):
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
        code, _, err = run("realize", str(path))
        assert code == 2
        assert err.splitlines() == [
            "warning: degenerate square (no-op): q",
            "violation: cyclic 1-skeleton: u -> v -> u",
        ]

    def test_bad_json_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run("realize", str(path))
        assert code == 1
        assert "error" in err

    def test_missing_file_exits_1(self):
        code, _, _ = run("realize", "/nonexistent/file.json")
        assert code == 1

    def test_pv_syntax_error_exits_1(self, tmp_path):
        path = tmp_path / "bad.pv"
        path.write_text("proc: Q(a)")
        code, _, err = run("realize", str(path), "--pv")
        assert code == 1
        assert "expected a step" in err


class TestAnalyze:
    def test_deadlocks_need_an_init(self, glob_ab_flow_file):
        code, _, err = run("analyze", glob_ab_flow_file, "--deadlocks")
        assert code == 1
        assert "init" in err

    def test_mutex_classes(self, tmp_path):
        source = tmp_path / "mutex.pv"
        source.write_text(oracles.MUTEX_SOURCE)
        flow_path = tmp_path / "mutex.flow.json"
        assert run("realize", str(source), "--pv", "-o", str(flow_path))[0] == 0
        code, out, _ = run("analyze", str(flow_path), "--classes", "init", "final"
        )
        assert code == 0
        assert out.splitlines()[0] == "2 classes"

    def test_classes_with_explicit_states(self, glob_ab_flow_file):
        code, out, _ = run("analyze", glob_ab_flow_file, "--classes", "0", "1")
        assert code == 0
        assert out.splitlines()[0] == "2 classes"

    def test_germs_minus(self, glob_ab_flow_file):
        code, out, _ = run("analyze", glob_ab_flow_file, "--germs", "0", "--minus")
        assert code == 0
        assert out.splitlines()[0] == "2 germs"

    def test_germs_plus_defaults_differ(self, tmp_path):
        flow = realize(make_chain(2))
        path = tmp_path / "chain.flow.json"
        path.write_text(dumps_flow(flow))
        code, out, _ = run("analyze", str(path), "--germs", "s1", "--plus")
        assert code == 0
        assert out.splitlines()[0] == "1 germs"

    def test_t_check_subdivision(self, tmp_path):
        interval = make_interval()
        refined, m = subdivide_edge(interval, "e")
        domain_flow = realize(interval)
        codomain_flow = realize(refined)
        morphism = realize_morphism(m, interval, refined)
        domain_path = tmp_path / "domain.flow.json"
        domain_path.write_text(dumps_flow(domain_flow))
        morphism_path = tmp_path / "subdivision.morphism.json"
        morphism_path.write_text(dumps_morphism(morphism, codomain_flow))
        code, out, _ = run("analyze", str(domain_path), "--t-check", str(morphism_path)
        )
        assert code == 0
        assert out.strip() == "T-dihomotopy: yes (1 ok, 2 ok, 3 ok)"

    def test_s_equiv_yes(self, tmp_path):
        fat = tmp_path / "fat.flow.json"
        fat.write_text(dumps_flow(realize(make_parallel_pair(True))))
        thin = tmp_path / "thin.flow.json"
        thin.write_text(dumps_flow(realize(glob_discrete(["c"]))))
        code, out, _ = run("analyze", str(fat), "--s-equiv", str(thin))
        assert code == 0
        assert out.splitlines()[0] == "S-equivalent: yes"

    def test_s_equiv_no(self, tmp_path):
        fat = tmp_path / "fat.flow.json"
        fat.write_text(dumps_flow(realize(make_parallel_pair(False))))
        thin = tmp_path / "thin.flow.json"
        thin.write_text(dumps_flow(realize(glob_discrete(["c"]))))
        code, out, _ = run("analyze", str(fat), "--s-equiv", str(thin))
        assert code == 0
        assert out.strip() == "S-equivalent: no"

    def test_s_equiv_budget_exit_code(self, tmp_path, monkeypatch):
        grid = tmp_path / "grid.flow.json"
        grid.write_text(dumps_flow(realize(make_grid(True))))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "3")
        code, _, err = run("analyze", str(grid), "--s-equiv", str(grid))
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", ""])
    def test_s_equiv_rejects_a_malformed_budget(self, tmp_path, monkeypatch, value):
        grid = tmp_path / "grid.flow.json"
        grid.write_text(dumps_flow(realize(make_grid(True))))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", value)
        code, out, err = run("analyze", str(grid), "--s-equiv", str(grid))
        assert code == 1
        assert out == ""
        assert err == "error: GLOBFLOW_SEARCH_BUDGET must be a non-negative integer\n"

    def test_s_equiv_zero_budget_is_exhausted(self, tmp_path, monkeypatch):
        grid = tmp_path / "grid.flow.json"
        grid.write_text(dumps_flow(realize(make_grid(True))))
        monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", "0")
        code, _, err = run("analyze", str(grid), "--s-equiv", str(grid))
        assert code == 3
        assert err == "error: search budget exhausted after 0 candidates\n"

    def test_s_equiv_charges_as_the_library_does(self, tmp_path, monkeypatch):
        grid_flow = realize(make_grid(True))
        grid = tmp_path / "grid.flow.json"
        grid.write_text(dumps_flow(grid_flow))
        # the library's search needs 20 candidates on this pair
        for budget in (0, 19, 20):
            monkeypatch.setenv("GLOBFLOW_SEARCH_BUDGET", str(budget))
            try:
                expected = (0, cli.s_equiv_report(s_equivalent(grid_flow, grid_flow)) + "\n", "")
            except SearchBudgetExceeded as exc:
                expected = (3, "", f"error: {exc}\n")
            assert run("analyze", str(grid), "--s-equiv", str(grid)) == expected
            assert expected[0] == (0 if budget == 20 else 3)

    @pytest.mark.parametrize("kind", ["complex", "pv"])
    def test_realize_over_the_limit_exits_3(self, tmp_path, kind):
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
        code, out, err = run(*argv)
        assert code == 3
        assert out == ""
        assert err == (
            "error: realization limit exceeded: 1125750 paths + 562499750 composites "
            "> limit 1000000\n"
        )

    def test_realize_limit_from_the_environment(self, interval_file, monkeypatch):
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "0")
        code, out, err = run("realize", interval_file)
        assert (code, out) == (3, "")
        assert err == "error: realization limit exceeded: 1 paths + 0 composites > limit 0\n"
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", "1")
        assert run("realize", interval_file)[0] == 0

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", ""])
    def test_realize_rejects_a_malformed_limit(self, interval_file, monkeypatch, value):
        monkeypatch.setenv("GLOBFLOW_REALIZE_LIMIT", value)
        code, out, err = run("realize", interval_file)
        assert code == 1
        assert out == ""
        assert err == "error: GLOBFLOW_REALIZE_LIMIT must be a non-negative integer\n"

    def test_axiom_violating_flow_exits_2(self, tmp_path):
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
        code, _, err = run("analyze", str(path), "--germs", "u")
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
    def test_t_check_codomain_is_validated(self, tmp_path, codomain, violations):
        domain = tmp_path / "domain.flow.json"
        domain.write_text(dumps_flow(glob_flow(["a"])))
        morphism = tmp_path / "into.morphism.json"
        morphism.write_text(
            json.dumps(
                {"codomain": codomain, "state_map": {"0": "0", "1": "1"}, "path_map": {"a": "a"}}
            )
        )
        code, out, err = run("analyze", str(domain), "--t-check", str(morphism))
        assert (code, out) == (2, "")
        assert err == "".join(f"violation: {v}\n" for v in violations)

    @pytest.mark.parametrize("field", ["compose", "adjacency"])
    def test_malformed_flow_table_exits_1(self, tmp_path, glob_ab_flow_file, field):
        flow = tmp_path / "bad.flow.json"
        flow.write_text('{"skeleton": ["a"], "paths": [], "%s": 5}' % field)
        code, _, err = run("analyze", str(flow), "--deadlocks", "--init", "a")
        assert code == 1
        assert err == f"error: flow document: field {field!r} has the wrong type\n"
        morphism = tmp_path / "bad.morphism.json"
        morphism.write_text(
            '{"codomain": {"skeleton": [], "paths": [], "%s": null}, '
            '"state_map": {}, "path_map": {}}' % field
        )
        code, _, err = run("analyze", glob_ab_flow_file, "--t-check", str(morphism))
        assert code == 1
        assert err == f"error: flow document: field {field!r} has the wrong type\n"

    @pytest.mark.parametrize("document", ["realization", "flow"])
    def test_an_empty_init_is_an_unknown_state(self, swiss_flow_file, tmp_path, document):
        path = swiss_flow_file
        if document == "flow":
            flow, annotations = loads_flow(Path(path).read_text())
            path = tmp_path / "swiss.compact.json"
            path.write_text(dumps_flow(flow, annotations["init"], annotations["finals"]))
        assert run("analyze", str(path), "--deadlocks", "--init", "") == (
            1, "", "error: unknown state: \n"
        )

    @pytest.mark.parametrize("document", ["complex", "realization", "flow"])
    def test_finals_name_states_that_hold_commas(self, swiss_flow_file, tmp_path, document):
        # a compiled state's name joins its positions with commas
        path = tmp_path / f"swiss.{document}.json"
        doc = json.loads(Path(swiss_flow_file).read_text())
        if document == "flow":
            flow, annotations = loads_flow(json.dumps(doc))
            path.write_text(dumps_flow(flow, annotations["init"], annotations["finals"]))
        else:
            path.write_text(json.dumps(doc["realization_of"] if document == "complex" else doc))
        annotated = run("analyze", str(path), "--deadlocks")
        assert annotated == (0, "1 deadlocks\n  p0:1,p1:1\n", "")
        assert run("analyze", str(path), "--deadlocks", "--finals", "p0:4,p1:4") == annotated
        assert run("analyze", str(path), "--deadlocks", "--finals", "p0:4,p1:4,p0:1,p1:1") == (
            0, "0 deadlocks\n", ""
        )
        # a piece that joins into no state is a name of its own
        assert run("analyze", str(path), "--deadlocks", "--finals", "p0:4,p1:4,,p0:9,x") == (
            1, "", "error: unknown final states: 'p0:9', 'x'\n"
        )

    def test_finals_join_the_longest_run_from_the_left(self):
        args = cli._parse_args(["analyze", "F", "--deadlocks", "--init", "i", "--finals", "a,b,c,,a,d"])
        states = {"a", "a,b", "a,b,c,d", "b,c", "c"}
        assert cli._deadlock_ends(args, states, {}) == ("i", ["a,b", "c", "a", "d"])

    def test_finals_lookups_grow_linearly_with_the_pieces(self):
        # no run is longer than the most commas of a state name, plus one
        class CountingSet(set):
            lookups = 0

            def __contains__(self, name):
                self.lookups += 1
                return super().__contains__(name)

        def lookups(k):
            states = CountingSet({"a,b", "c"})
            args = cli._parse_args(
                ["analyze", "F", "--deadlocks", "--init", "i", "--finals", ",".join(["a", "b", "c", "x"] * k)]
            )
            assert cli._deadlock_ends(args, states, {}) == ("i", ["a,b", "c", "x"] * k)
            return states.lookups

        assert lookups(100) <= 2.1 * lookups(50)

    def test_unknown_state_exits_1(self, glob_ab_flow_file):
        code, _, err = run("analyze", glob_ab_flow_file, "--germs", "zz")
        assert code == 1
        assert "unknown state" in err


class TestDot:
    def test_interval_nodes_and_arrow(self, interval_file):
        code, out, _ = run("dot", interval_file)
        assert code == 0
        assert out.count("->") == 1
        assert '"0";' in out and '"1";' in out

    def test_parallel_edges(self, tmp_path):
        path = tmp_path / "glob.json"
        path.write_text(dumps_complex(glob_discrete(["a", "b"])))
        code, out, _ = run("dot", str(path))
        assert code == 0
        assert out.count("->") == 2

    def test_flow_document_renders(self, glob_ab_flow_file):
        code, out, _ = run("dot", glob_ab_flow_file)
        assert code == 0
        assert out.startswith("digraph flow {")
        assert out.count("->") == 2

    def test_swiss_node_count_matches_permitted_states(self, tmp_path):
        source = tmp_path / "swiss.pv"
        source.write_text(oracles.SWISS_FLAG_SOURCE)
        complex_path = tmp_path / "swiss.json"
        # realize validates; compile via the library to get the complex doc
        from globflow import parse_pv, pv_to_complex

        c = pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE))
        complex_path.write_text(dumps_complex(c))
        code, out, _ = run("dot", str(complex_path))
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

    def test_flow_documents_are_validated_once(self, tmp_path, monkeypatch):
        calls = []
        walk = flows._validation_report

        def counted(flow):
            calls.append(flow)
            return walk(flow)

        monkeypatch.setattr(flows, "_validation_report", counted)
        swiss = realize(pv_to_complex(parse_pv(oracles.SWISS_FLAG_SOURCE)))
        outs = []
        for name, flow in (("compact", swiss), ("explicit", explicit(swiss))):
            path = tmp_path / f"{name}.flow.json"
            path.write_text(dumps_flow(flow))
            code, out, err = run("dot", str(path))
            assert (code, err, len(calls)) == (0, "", 1), name
            outs.append(out)
            calls.clear()
        assert outs[0] == outs[1]
        # a complex's warnings are still printed once
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({
            "states": ["0", "1"],
            "edges": [{"id": "a", "src": "0", "tgt": "1"}],
            "squares": [{"id": "q", "left": ["a"], "right": ["a"]}],
        }))
        code, out, err = run("dot", str(path))
        assert (code, err) == (0, "warning: degenerate square (no-op): q\n")
        assert out.startswith("digraph complex {")

    def test_non_document_exits_1(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"neither": true}')
        code, _, _ = run("dot", str(path))
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
    def test_invalid_document_exits_2(self, tmp_path, doc, violation):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        code, out, err = run("dot", str(path))
        assert (code, out) == (2, "")
        assert err == f"violation: {violation}\n"

    def test_malformed_squares_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        for value in ("5", "null"):
            path.write_text('{"states": ["a"], "edges": [], "squares": %s}' % value)
            code, _, err = run("dot", str(path))
            assert code == 1
            assert err == "error: complex document: field 'squares' has the wrong type\n"


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, interval_file,
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
            first = run(*argv)
            second = run(*argv)
            assert first == second
            assert first[0] == 0


class TestOutputFile:
    """-o OUT is written over the old bytes, then cut to length when OUT is
    a regular file."""

    @pytest.fixture(params=["realize", "dot"])
    def argv(self, request, tmp_path):
        source = tmp_path / "swiss.pv"
        source.write_text(oracles.SWISS_FLAG_SOURCE)
        if request.param == "realize":
            return ["realize", "--pv", str(source)]
        realized = tmp_path / "swiss.realization.json"
        assert run("realize", "--pv", str(source), "-o", str(realized))[0] == 0
        return ["dot", str(realized)]

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no /dev/null")
    def test_a_device_is_written_without_truncation(self, argv):
        assert run(*argv, "-o", os.devnull) == (0, "", "")

    @pytest.mark.parametrize("old", [b"x" * 65536, b"x"])
    def test_an_overwrite_leaves_exactly_the_new_bytes(self, argv, tmp_path, old):
        code, expected, _ = run(*argv, "-o", "-")
        assert code == 0
        out = tmp_path / "out"
        out.write_bytes(old)
        for _ in range(2):
            assert run(*argv, "-o", str(out)) == (0, "", "")
            assert out.read_bytes() == expected.encode("utf-8")

    def test_a_new_file_has_the_mode_of_open(self, argv, tmp_path):
        saved = os.umask(0o027)
        try:
            assert run(*argv, "-o", str(tmp_path / "new"))[0] == 0
            with open(tmp_path / "opened", "w", encoding="utf-8"):
                pass
        finally:
            os.umask(saved)
        assert os.stat(tmp_path / "new").st_mode == os.stat(tmp_path / "opened").st_mode


class TestDispatch:
    def test_help_exits_0(self):
        assert run("--help")[0] == 0

    def test_no_arguments_exit_1(self):
        assert run()[0] == 1

    def test_unknown_flag_exits_1(self, interval_file):
        assert run("realize", interval_file, "--bogus")[0] == 1

    def test_conflicting_analyses_rejected(self, glob_ab_flow_file):
        code, _, _ = run("analyze", glob_ab_flow_file, "--deadlocks", "--germs", "0"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv, where",
        [
            (("analyze", "DEEP", "--deadlocks"), "flow document"),
            (("realize", "DEEP"), "complex document"),
            (("dot", "DEEP"), "input document"),
            (("analyze", "FLOW", "--s-equiv", "DEEP"), "flow document"),
        ],
    )
    def test_deeply_nested_json_exits_1(self, tmp_path, glob_ab_flow_file, argv, where):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        paths = {"DEEP": str(deep), "FLOW": glob_ab_flow_file}
        code, out, err = run(*(paths.get(arg, arg) for arg in argv))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {where}: nested too deeply"]

    def test_unexpected_exception_exits_4_on_one_line(self, interval_file, monkeypatch):
        def broken(c):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "realize", broken)
        code, out, err = run("realize", interval_file)
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"


def _reference_parser():
    """The argparse parser that `globflow` used before its own: the
    reference that `cli._parse_args` must answer like."""
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
    realize_p.set_defaults(func=cli.cmd_realize)

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
    analyze_p.set_defaults(func=cli.cmd_analyze)

    dot_p = sub.add_parser("dot", help="export a complex or flow as DOT")
    dot_p.add_argument(
        "input", help="complex, flow or realization JSON file ('-' = stdin)"
    )
    dot_p.add_argument("-o", "--output", default="-", help="DOT output ('-' = stdout)")
    dot_p.set_defaults(func=cli.cmd_dot)

    return parser


def _reference(parser, argv):
    """The reference's attributes for `argv`, or "help" or "refused"."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return "help" if exc.code in (0, None) else "refused"


def _parsed(argv):
    """`cli._parse_args` answered as `_reference` answers, after checking
    the exit code and output of `cli.main` on a help or refused command."""
    try:
        args = cli._parse_args(argv)
    except cli._UsageError:
        code, out, err = run(*argv)
        lines = err.splitlines()
        assert (code, out, len(lines)) == (1, "", 2), argv
        assert lines[0].startswith("usage: globflow ") and lines[1].startswith("error: "), argv
        return "refused"
    if args is None:
        assert run(*argv) == (0, cli._SYNOPSIS + "\n", ""), argv
        return "help"
    return vars(args)


# Tokens every argparse from Python 3.10 on reads alike: the subcommands and
# a misspelt one, every option in full, with "=value" and as its shortest
# unique prefix, -o with a value attached, -h, plain names, "-" and misspelt
# options.  No name starts with "h" or "o" ("-h=o" once went on as a cluster
# of one-letter options), and "--" and values that start with "-" are left
# to `test_pinned_command_lines`.
_NAMES = ("a", "b", "F.json", "init", "final", "0", "-")
_PREFIX = {"--pv": "--p", "--output": "--o", "--deadlocks": "--d", "--classes": "--c",
           "--germs": "--g", "--t-check": "--t", "--s-equiv": "--s", "--minus": "--m",
           "--plus": "--p", "--init": "--i", "--finals": "--f", "--help": "--h"}
_OTHER_WORDS = ("realize", "analyze", "dot", "analyse", "-o", *_PREFIX, *_PREFIX.values(),
                "--pv=a", "--d=a", "--classes=a", "--plus=", "-h=a", "--help=a",
                "--bogus", "--dedlocks", "--outptu")


def _spell(rng, option, values):
    """`option` and its values as argument groups, in one of the spellings."""
    option = rng.choice((option, _PREFIX.get(option, option)))
    if len(values) == 1 and rng.random() < 0.4:
        joined = "" if option == "-o" and rng.random() < 0.5 else "="
        return [[option + joined + values[0]]]
    return [[option, *values]]


def _draw_argv(rng):
    """A command line that the synopsis allows, then, half the time, one to
    three words inserted, deleted or replaced."""
    command = rng.choice(("realize", "analyze", "dot"))

    def name():
        return rng.choice(_NAMES)

    groups = [[name()]]
    if command == "realize" and rng.random() < 0.5:
        groups += _spell(rng, "--pv", [])
    if command != "analyze" and rng.random() < 0.5:
        groups += _spell(rng, rng.choice(("-o", "--output")), [name()])
    if command == "analyze":
        analysis = rng.choice(("--deadlocks", "--classes", "--germs", "--t-check", "--s-equiv"))
        arity = {"--deadlocks": 0, "--classes": 2}.get(analysis, 1)
        groups += _spell(rng, analysis, [name() for _ in range(arity)])
        for option, arity in (("--minus", 0), ("--plus", 0), ("--init", 1), ("--finals", 1)):
            if rng.random() < 0.2:
                groups += _spell(rng, option, [name() for _ in range(arity)])
    rng.shuffle(groups)
    argv = [command] + [word for group in groups for word in group]
    for _ in range(rng.randint(1, 3) if rng.random() < 0.5 else 0):
        at = rng.randint(0, len(argv))
        word = rng.choice((name(), rng.choice(_OTHER_WORDS), rng.choice(("-h", "--help", "--h"))))
        kind = rng.randrange(3)
        if kind == 0:
            argv.insert(at, word)
        elif at < len(argv):
            argv[at:at + 1] = [word] if kind == 1 else []
    return argv


class TestParser:
    def test_answers_like_argparse(self):
        rng = random.Random(25)
        parser = _reference_parser()
        outcomes = Counter()
        for _ in range(2500):
            argv = _draw_argv(rng)
            want = _reference(parser, argv)
            assert _parsed(argv) == want, argv
            outcomes[want if isinstance(want, str) else want["command"]] += 1
        assert min(outcomes.values()) >= 100, outcomes

    @pytest.mark.parametrize("argv, want", [
        # values that start with "-": a negative number or one with a space
        # is a value, anything else an option
        (("analyze", "F", "--germs", "-1"), {"germs": "-1"}),
        (("analyze", "--init", "-1", "F", "--deadlocks"), {"init": "-1", "deadlocks": True}),
        (("analyze", "F", "--germs", "-x b"), {"germs": "-x b"}),
        (("analyze", "F", "--germs", "-x"), "refused"),
        (("realize", "F", "-o", "--pv"), "refused"),
        # after "--" every argument is positional, and no option takes "--"
        (("realize", "--pv", "--", "-x"), {"input": "-x", "pv": True}),
        (("analyze", "--deadlocks", "--", "-"), {"input": "-", "deadlocks": True}),
        (("realize", "--", "-h"), {"input": "-h"}),
        (("dot", "--", "--"), {"input": "--"}),
        (("dot", "F", "--", "-oG"), "refused"),
        (("--", "dot", "F"), "refused"),  # a subcommand named "--"
        (("realize", "F", "--", "--pv"), "refused"),
        (("analyze", "F", "--germs", "--", "x"), "refused"),
        # "-h" goes on as a cluster of one-letter options
        (("realize", "F", "-hh"), "help"),
        (("realize", "F", "-ho", "G"), "help"),
        (("realize", "F", "-ho"), "refused"),
        (("analyze", "F", "-hx"), "refused"),
        # an ambiguous prefix is refused before anything else is read
        (("analyze", "F", "-h", "--=x"), "refused"),
    ])
    def test_pinned_command_lines(self, argv, want):
        got = _parsed(list(argv))
        if isinstance(want, str):
            assert got == want
        else:
            assert got == {**cli._DEFAULTS[argv[0]], "input": "F", **want}

    def test_readme_shows_the_synopsis(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert "```\n%s\n```" % cli._SYNOPSIS.partition("\n\n")[0] in readme

    def test_importing_the_cli_leaves_argparse_out(self):
        child = subprocess.run(
            [sys.executable, "-c", "import sys, globflow.cli; print('argparse' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        assert child.stdout == "False\n"
