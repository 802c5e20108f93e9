"""Self-tests of the benchmark.  Run with `python3 -m pytest perfbench`.

The smoke runs take a few minutes: each sets up three times and runs one
whole pass of its workload.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gen import predict_sizes, pv_source  # noqa: E402
from globflow import enumerate_paths, parse_pv, pv_to_complex, realize  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def inputs_digest(jobs, directory: Path) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.name.encode() + b"\0" + job.payload.get("source", "").encode() + b"\0")
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    digests = []
    for directory, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / directory).mkdir()
        jobs = workload.setup(seed, tmp_path / directory)
        digests.append(inputs_digest(jobs, tmp_path / directory))
    assert digests[0] == digests[1] != digests[2]


def test_ladder_fills_each_bin():
    import random

    ladder = ((0, 10, 2), (10, 20, 1))
    kept = workloads.fill_ladder(random.Random(1), ladder, lambda rng: rng.randrange(30), lambda n: n)
    assert len(kept) == 3
    assert all(0 <= n < 10 for n in kept[:2]) and 10 <= kept[2] < 20


@pytest.mark.parametrize("name", sorted(set(workloads.WORKLOADS) - {"equiv-cli"}))
def test_seeds_share_the_pool_make_up(name, tmp_path):
    """Another seed renames and reorders, but draws the same shapes."""
    workload = workloads.WORKLOADS[name]
    shapes = []
    for seed in (7, 8):
        (tmp_path / str(seed)).mkdir()
        jobs = workload.setup(seed, tmp_path / str(seed))
        shapes.append(sorted((job.name, tuple(sorted(job.sizes.items()))) for job in jobs))
    assert shapes[0] == shapes[1]


def test_clock_scales_by_the_reference_samples_around_a_measurement():
    clock = calibrate.Clock()
    clock.at, clock.seconds = [0.0, 0.5, 10.0], [0.002, 0.004, 0.001]
    assert clock.scale(0.2, 0.3) == pytest.approx(calibrate.REF_SECONDS / 0.003)
    assert clock.scale(20.0, 21.0) == pytest.approx(calibrate.REF_SECONDS / 0.001)  # nearest


def test_a_failed_verdict_fails_the_run(monkeypatch, capsys):
    workload = workloads.WORKLOADS["equiv-cli"]
    real = workload.run

    def failing(job):
        if job.name.startswith("b000."):
            raise workloads.JobFailed("stub failure")
        return real(job)

    monkeypatch.setattr(workload, "ladder", ((4, 5, 2),))
    monkeypatch.setattr(workload, "run", failing)
    code = run.main(["--workload", "equiv-cli", "--seed", "1", "--seconds", "0.1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 4 and result["attempted"] == 8


@pytest.mark.parametrize("name", sorted(workloads.CORPUS))
def test_dp_predictions_match_realized_counts(name):
    c = pv_to_complex(parse_pv(pv_source(*workloads.CORPUS[name])))
    flow = realize(c)
    sizes = predict_sizes(c)
    assert sizes["paths"] == len(flow.path_ends)
    assert sizes["composites"] == len(flow.composition)
    assert sizes["init_final"] == len(enumerate_paths(c, c.init, c.finals[0]))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    done = bench("--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert not (HERE / ".work").exists()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = bench("--workload", "pv-cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
