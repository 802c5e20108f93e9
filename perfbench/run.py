"""globflow benchmark: time to verdict on four seeded workloads.

    python3 perfbench/run.py --workload pv-cli --seed 1 --seconds 24 --trace 0

One client in one process runs a closed loop: each job starts when the
previous one has finished.  Each workload's pool has a fixed make-up; the
seed names its inputs and orders its jobs.  The program sees only the
generated inputs.  A run

1. sets up SETUP_REPEATS times (import once, then generation and input
   writing into fresh directories) and reports the median;
2. runs a fixed number of whole passes over the pool, one per
   `pass_seconds` of --seconds (a constant of the workload, at least one
   pass); the count depends on --seconds only, never on how fast the
   program is.  Every verdict of every pass is one latency sample, and
   every time is calibrated against a reference timed between jobs
   (calibrate.py);
3. compares every verdict with an answer worked out independently, after
   the timed phase.  A wrong verdict, or a verdict the program did not
   deliver (no workload is meant to have any), makes the run exit 1.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs one
untraced pass and then the rest of the passes traced, and prints the
per-layer metrics.
The last line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REF_SECONDS, Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_REPEATS = 3
LAYERS = ("pv", "complexes", "realization", "flows", "formats", "equivalence", "cli")

# (name, unit, better)
END_TO_END = (
    ("verdicts_per_s", "1/s", "higher"),
    ("verdict_s.p50", "s", "lower"),
    ("verdict_s.p90", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# Spans whose self seconds (".s") are reported, and spans whose call counts are.
SELF_SECONDS = (
    "flows.validate_flow", "formats.dumps_flow", "formats.loads_flow",
    "realization.realize", "realization.attach",
    "complexes.path_classes", "complexes.enumerate_paths",
    "complexes.square_move_neighbors", "complexes.same_move_class",
    "complexes.validate_complex",
    "equivalence.s_equivalent", "equivalence.enumerate_flow_morphisms",
    "equivalence.check_t_dihomotopy",
    "pv.parse_pv", "pv.pv_to_complex",
    "flows.deadlocks", "flows.dihomotopy_classes", "flows.germs",
)
CALLS = (
    "flows.validate_flow", "realization.attach", "complexes.square_move_neighbors",
    "complexes.validate_complex", "equivalence.enumerate_flow_morphisms",
)
COUNTS = (
    ("formats.flow_bytes", "bytes", "lower"),
    ("realization.paths", "count", "lower"),
    ("realization.composites", "count", "lower"),
    ("realization.adjacency", "count", "lower"),
    ("complexes.class_paths", "count", "lower"),
    ("complexes.classes", "count", "higher"),
    ("equivalence.s_equivalent.yes", "count", "higher"),
    ("equivalence.s_equivalent.no", "count", "higher"),
    ("equivalence.s_equivalent.budget", "count", "lower"),
    ("pv.states", "count", "lower"),
    ("pv.edges", "count", "lower"),
    ("pv.squares", "count", "lower"),
)
PER_LAYER = (
    [(f"{span}.s", "s", "lower") for span in SELF_SECONDS]
    + [(f"{span}.calls", "count", "lower") for span in CALLS]
    + list(COUNTS)
    + [("complexes.classes_per_path", "ratio", "higher"), ("cli.main.self_s", "s", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS[:-1]]
    + [("trace.job_s", "s", "lower"), ("trace.overhead_s", "s", "lower"),
       ("trace.unattributed_s", "s", "lower")]
)


class Record:
    """One attempt at a job, started at `start`.  `same` says whether its
    verdict equals the one the job's first pass gave; None when the program
    delivered none."""

    __slots__ = ("job", "start", "seconds", "same", "error")

    def __init__(self, job, start, seconds, same=None, error=None):
        self.job, self.start, self.seconds = job, start, seconds
        self.same, self.error = same, error


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load(clock):
    """Import the program and the oracles from the checkout; None if absent."""
    needed = [ROOT / "src" / "globflow" / "__init__.py", ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print("perfbench: not a globflow checkout, missing " + ", ".join(missing), file=sys.stderr)
        return None
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    clock.burst()
    start = perf_counter()
    import globflow.cli  # noqa: F401  (the whole package, as a CLI user loads it)

    end = perf_counter()
    clock.burst()
    import workloads

    return workloads, end - start, (end - start) * clock.scale(start, end)


def set_up(workload, seed, work: Path, clock):
    """Set up SETUP_REPEATS times, so that `setup_s` can be a median;
    returns the last job pool, the measured and the calibrated times."""
    times, scaled = [], []
    for i in range(SETUP_REPEATS):
        directory = work / f"inputs{i}"
        directory.mkdir()
        start = perf_counter()
        jobs = workload.setup(seed, directory)
        end = perf_counter()
        clock.burst()
        times.append(end - start)
        scaled.append((end - start) * clock.scale(start, end))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(directory)
    return jobs, times, scaled


def pass_count(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.pass_seconds))


def run_pass(workload, jobs, seen, clock, tracer=None, mismatches=None):
    """One pass over the pool.  `seen` keeps each job's first verdict, so a
    run holds one pass's verdicts however many passes it makes.  Reference
    samples go between jobs, never inside one."""
    records = []
    for job in jobs:
        # each job starts with an empty collector, as in a fresh process,
        # so a collection the previous job left pending is not charged to it
        gc.collect()
        clock.tick()
        before = tracer.snapshot() if tracer else None
        start = perf_counter()
        try:
            raw = workload.run(job)
        except Exception as exc:  # a verdict the program did not deliver
            records.append(Record(job, start, perf_counter() - start,
                                  error=f"{type(exc).__name__}: {exc}"))
            continue
        seconds = perf_counter() - start
        try:
            verdict = workload.verdict(job, raw)
        except Exception as exc:  # output the benchmark cannot read is wrong
            verdict = ("unreadable output", f"{type(exc).__name__}: {exc}")
        del raw
        if tracer:
            after = tracer.snapshot()
            delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
            mismatches.extend(workload.size_mismatches(job, delta, verdict))
        records.append(Record(job, start, seconds, same=verdict == seen.setdefault(job.name, verdict)))
    clock.sample()
    return records


def check(workload, jobs, seen, passes):
    """Problems: a verdict the program did not deliver, a verdict that
    changed between passes, or a first verdict that differs from the answer
    worked out independently."""
    wrong = [f"{r.job.name}: failed: {r.error}" if r.error else
             f"{r.job.name}: verdict changed between passes"
             for records in passes for r in records if r.same is not True]
    for job in jobs:
        if job.name not in seen:
            wrong.append(f"{job.name}: no verdict in any pass")
            continue
        expected = workload.expected(job)
        if seen[job.name] != expected:
            wrong.append(f"{job.name}: got {seen[job.name]!r}, expected {expected!r}")
    return wrong


def busy(records) -> float:
    return sum(r.seconds for r in records)


def latencies(passes, clock=None) -> list[float]:
    """Every delivered verdict's latency, over all passes; calibrated by
    the reference samples around it when a clock is given."""
    return [r.seconds * (clock.scale(r.start, r.start + r.seconds) if clock else 1.0)
            for records in passes for r in records if r.same is not None]


def end_to_end(samples, setup_s, peak_rss_mb):
    deciles = statistics.quantiles(samples, n=10) if len(samples) > 1 else samples * 9
    return {
        "verdicts_per_s": len(samples) / sum(samples),
        "verdict_s.p50": statistics.median(samples),
        "verdict_s.p90": deciles[8],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(tracer, traced, untraced_s):
    n = len(traced)
    job_s = sum(busy(records) for records in traced) / n
    out = {f"{span}.s": tracer.self_s.get(span, 0.0) / n for span in SELF_SECONDS}
    out.update({f"{span}.calls": tracer.calls.get(span, 0) / n for span in CALLS})
    out.update({name: tracer.counts.get(name, 0) / n for name, _, _ in COUNTS})
    paths = out["complexes.class_paths"]
    out["complexes.classes_per_path"] = out["complexes.classes"] / paths if paths else 0.0
    layer_s = {
        layer: sum(s for name, s in tracer.self_s.items() if name.split(".")[0] == layer) / n
        for layer in LAYERS
    }
    out["cli.main.self_s"] = layer_s.pop("cli")
    out.update({f"{layer}.self_s": s for layer, s in layer_s.items()})
    out["trace.job_s"] = job_s
    out["trace.overhead_s"] = job_s - untraced_s
    out["trace.unattributed_s"] = job_s - sum(tracer.self_s.values()) / n
    return out


def report(lines, name, value, unit, note=""):
    lines.append(f"{name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    clock = Clock()
    loaded = load(clock)
    if loaded is None:
        return 2
    workloads, import_raw_s, import_s = loaded
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workload, work, clock, import_raw_s, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(args, workload, work, clock, import_raw_s, import_s) -> int:
    jobs, setup_raw, setup_scaled = set_up(workload, args.seed, work, clock)
    setup_s = import_s + statistics.median(setup_scaled)
    # the pool is the benchmark's, not the program's: keep the collector off it
    gc.collect()
    gc.freeze()

    seen: dict = {}
    warm = min(jobs, key=lambda job: sorted(job.sizes.values()))
    run_pass(workload, [warm], seen, clock)

    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    mismatches: list[str] = []
    count = pass_count(workload, args.seconds)
    if args.trace:
        from spans import Tracer

        untraced = run_pass(workload, jobs, seen, clock)
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run_pass(workload, jobs, seen, clock, tracer, mismatches)
                      for _ in range(max(1, count - 1))]
        finally:
            tracer.remove()
        passes = [untraced] + traced
    else:
        passes = [run_pass(workload, jobs, seen, clock) for _ in range(count)]
    # the peak of the whole process: set-up and the timed phase
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = check(workload, jobs, seen, passes)
    attempted = sum(len(records) for records in passes)
    failed = [r for records in passes for r in records if r.error]

    lines = [f"workload {workload.name}  seed {args.seed}  jobs/pass {len(jobs)}  "
             f"passes {len(passes)}{' (1 untraced, then traced)' if args.trace else ''}"]
    if args.trace:
        metrics = per_layer(tracer, traced, busy(untraced))
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name, value in metrics.items():
            report(lines, name, value, units[name], "per pass")
        lines.append(f"layer self times + cli.main.self_s cover "
                     f"{1 - metrics['trace.unattributed_s'] / metrics['trace.job_s']:.1%} "
                     f"of traced job time")
    else:
        metrics = end_to_end(latencies(passes, clock), setup_s, peak_rss_mb)
        measured = end_to_end(latencies(passes), import_raw_s + statistics.median(setup_raw), 0)
        n = f"n={len(latencies(passes))} verdicts: {len(jobs)} jobs x {len(passes)} passes"
        for name in ("verdicts_per_s", "verdict_s.p50", "verdict_s.p90"):
            unit = "1/s" if name == "verdicts_per_s" else "s"
            report(lines, name, metrics[name], unit, f"{n}; as measured {measured[name]:.6g}")
        report(lines, "peak_rss_mb", metrics["peak_rss_mb"], "MB",
               f"process peak; {setup_rss_mb:.1f} MB before the timed phase")
        report(lines, "setup_s", setup_s, "s",
               f"import + median of {SETUP_REPEATS} set-ups; as measured {measured['setup_s']:.6g}")
        lines.append(f"reference: median {statistics.median(clock.seconds) * 1e3:.4f} ms over "
                     f"{len(clock.seconds)} samples, nominal {REF_SECONDS * 1e3:g} ms; "
                     f"time metrics are scaled to the nominal speed")
        if workload.name == "pv-cli":
            flow_bytes = sum(Path(job.payload["flow"]).stat().st_size for job in jobs)
            report(lines, "flow_mb", flow_bytes / 1e6, "MB", "flow documents written per pass")
        units = {name: unit for name, unit, _ in END_TO_END}
    report(lines, "failed_share", len(failed) / attempted, "", f"{len(failed)}/{attempted}")
    problems = wrong + mismatches
    for problem in problems[:20]:
        lines.append(f"WRONG: {problem}")
    print("\n".join(lines))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
