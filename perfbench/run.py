"""Benchmark cherloc's command-line jobs end to end, and layer by layer.

    python3 perfbench/run.py --workload order-ladder --seed 3 --trace 0
    python3 perfbench/run.py                 # every workload, untraced then traced

One driver process runs a workload as a closed loop with one client: each
job is a fresh `python -m cherloc.cli` process, started when the previous
one has exited.  A run repeats whole untraced passes over the job list
while another pass still fits in `--seconds` (default: `run_seconds` of
BENCHMARK.json).  With `--trace 0` it reports the end-to-end metrics as
medians over those passes.  With `--trace 1` it keeps room for one traced
pass of the same jobs after them and reports the per-layer metrics of that
pass.  Every artifact is checked by perfbench/oracles.py outside the timed
region, and every job's artifact must hash the same in every pass, traced
or not.

For one workload and one mode, the last line of standard output is one JSON
object: correct, attempted, failed, metrics.  For several (the default
`--workload all`, or no `--trace`), it is one object with the summed
correct, attempted and failed, and `runs`: each run's own object, keyed
`<workload>:trace<0|1>`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
JOB_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "largest_job_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "scalars.param_scalars": "count",
    "combinatorics.boxes.calls": "count",
    "combinatorics.enumerate_multipartitions.s": "s",
    "boxorder.cont.calls": "count",
    "boxorder.box_equiv.calls": "count",
    "boxorder.box_less.calls": "count",
    "boxorder.content_class_key.calls": "count",
    "mporder.relation_p.s": "s",
    "mporder.leq_p.calls": "count",
    "mporder.leq_p.s": "s",
    "mporder.leq_p.us_per_pair": "us",
    "mporder.leq_p.true": "count",
    "deform.localize.s": "s",
    "deform.verify_preservation.calls": "count",
    "deform.verify_preservation.s": "s",
    "deform.candidates": "count",
    "deform.certificates_per_candidate": "ratio",
    "deform.reverify_s": "s",
    "loci.aspherical_witnesses.calls": "count",
    "loci.aspherical_witnesses.s": "s",
    "loci.genericity_witness.calls": "count",
    "loci.genericity_witness.s": "s",
    "loci.theta_of_p.calls": "count",
    "poset.Relation.from_json.s": "s",
    "poset.common_refinement.s": "s",
    "poset.common_refinement.cycles": "count",
    "poset.transitive_closure.s": "s",
    "poset.hasse.s": "s",
    "cli.startup_s": "s",
    "cli.canonical_dumps.s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}

DEFORM_SEARCH = ("deform.deform_rational", "deform.deform_formal")


class SetupError(RuntimeError):
    pass


@dataclass
class JobRun:
    wall: float
    rss_kib: int
    code: int
    stderr: bytes
    stdout_path: str
    trace_path: str | None
    digest: str = ""


class Launcher:
    """The small process (launcher.py) that spawns every job of a run."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        # Jobs start as an installed cherloc would, from cached bytecode,
        # whatever the caller's setting; the cache stays out of src/.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py"), str(JOB_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )

    def run(self, cmd: list[str], stdout_path: str) -> JobRun:
        err_path = stdout_path + ".err"
        request = {"cmd": cmd, "stdout": stdout_path, "stderr": err_path}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("the job launcher exited")
        reply = json.loads(line)
        with open(err_path, "rb") as handle:
            stderr = handle.read()
        return JobRun(reply["wall"], reply["maxrss_kib"], reply["code"], stderr, stdout_path, None)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def setup(launcher: Launcher, workload: str, seed: int, workdir: str):
    """Generate the inputs and finish one cold child `import cherloc.cli`."""
    start = time.perf_counter()
    jobs = workloads.make_jobs(workload, seed, workdir)
    probe = launcher.run(
        [sys.executable, "-c", "import cherloc.cli"], os.path.join(workdir, "import-probe")
    )
    elapsed = time.perf_counter() - start
    if probe.code != 0:
        raise SetupError(probe.stderr.decode(errors="replace").strip())
    return jobs, elapsed


def run_pass(launcher: Launcher, jobs: list[workloads.Job], passdir: str, traced: bool):
    """One pass over the job list; (wall seconds, one JobRun per job)."""
    os.makedirs(passdir, exist_ok=True)
    runs = []
    start = time.perf_counter()
    for idx, job in enumerate(jobs):
        stdout_path = os.path.join(passdir, f"{idx}.json")
        if traced:
            trace_path = os.path.join(passdir, f"{idx}.trace.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_child.py"), trace_path, *job.argv]
        else:
            trace_path = None
            cmd = [sys.executable, "-m", "cherloc.cli", *job.argv]
        run = launcher.run(cmd, stdout_path)
        run.trace_path = trace_path
        runs.append(run)
    wall = time.perf_counter() - start
    for job, run in zip(jobs, runs):
        digest = hashlib.sha256()
        for path in [run.stdout_path, *job.extra_outputs]:
            with open(path, "rb") as handle:
                digest.update(handle.read())
        run.digest = digest.hexdigest()
    return wall, runs


def run_failed(run: JobRun, first: JobRun) -> bool:
    """A crash, an error exit, anything on stderr, or another artifact than pass 0."""
    return run.code not in (0, 1) or bool(run.stderr) or run.digest != first.digest


def check_all(jobs: list[workloads.Job], runs: list[JobRun]) -> list[str]:
    problems = []
    for job, run in zip(jobs, runs):
        if run.code not in (0, 1) or run.stderr:
            continue
        try:
            with open(run.stdout_path, encoding="utf-8") as handle:
                reason = job.check(json.load(handle), run.code)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            reason = f"unreadable artifact: {err!r}"
        if reason:
            problems.append(f"{job.name}: {reason}")
    return problems


def end_to_end(jobs, setups, passes) -> dict:
    """Medians over the passes of one run (setup_s: over the set-ups)."""
    heaviest = next(idx for idx, job in enumerate(jobs) if job.heaviest)
    def per_pass(fn):
        return statistics.median(fn(runs) for _, runs in passes)

    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall for wall, _ in passes),
        "largest_job_s": per_pass(lambda runs: runs[heaviest].wall),
        "peak_rss_mib": per_pass(lambda runs: max(run.rss_kib for run in runs) / 1024),
    }


def per_layer(jobs, runs, untraced_wall: float, traced_wall: float, trace_out: str) -> dict:
    """Per-layer metrics from the traces of one traced pass.

    `X.calls` and outcome counts come from the children's counters and
    `X.s` sums the durations of the spans named X; the rest is derived
    from the span tree or measured here.
    """
    counters: Counter = Counter()
    time_ns: Counter = Counter()
    candidates = certificates = reverify_ns = startup_ns = artifact_bytes = 0
    dump = []
    for job, run in zip(jobs, runs):
        artifact_bytes += os.path.getsize(run.stdout_path)
        with open(run.trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        dump.append({"job": job.name, "argv": job.argv, **trace})
        counters.update(trace["counters"])
        startup_ns += trace["startup_ns"]
        spans = trace["spans"]
        search_end: dict[int, int] = {}
        for name, start, end, parent, _ in spans:
            time_ns[name] += end - start
            if parent >= 0 and name in DEFORM_SEARCH:
                search_end[parent] = max(search_end.get(parent, 0), end)
            if parent >= 0 and name == "deform.verify_preservation":
                candidates += spans[parent][0] in DEFORM_SEARCH
        for idx, (name, _, end, _, raised) in enumerate(spans):
            if name == "deform.localize" and not raised:
                certificates += 1
                reverify_ns += end - search_end.get(idx, end)
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(dump, handle)

    leq_calls = counters["mporder.leq_p.calls"]
    derived = {
        "mporder.leq_p.us_per_pair": time_ns["mporder.leq_p"] / 1e3 / leq_calls
        if leq_calls else 0.0,
        "deform.candidates": candidates,
        "deform.certificates_per_candidate": certificates / candidates if candidates else 0.0,
        "deform.reverify_s": reverify_ns / 1e9,
        "cli.startup_s": startup_ns / 1e9,
        "cli.artifact_bytes": artifact_bytes,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    metrics = {}
    for name in PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith(".s"):
            metrics[name] = time_ns[name[:-2]] / 1e9
        else:
            metrics[name] = counters[name]
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{workload}")
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    launcher = Launcher()
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            jobs, elapsed = setup(launcher, workload, seed, os.path.join(workdir, f"setup{rep}"))
            setups.append(elapsed)

        # A traced run keeps room for its traced pass, which takes about as
        # long as an untraced one.
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(
                run_pass(launcher, jobs, os.path.join(workdir, f"pass{len(passes)}"), False)
            )
            typical = statistics.median(wall for wall, _ in passes)
            if time.perf_counter() - start + typical * (1 + trace) > seconds:
                break
        traced = [run_pass(launcher, jobs, os.path.join(workdir, "traced"), True)] if trace else []

        first = passes[0][1]
        failed = sum(
            run_failed(run, ref) for _, runs in passes + traced for run, ref in zip(runs, first)
        )
        problems = check_all(jobs, first)
        if trace:
            traced_wall, traced_runs = traced[0]
            metrics = per_layer(
                jobs, traced_runs, typical, traced_wall, os.path.join(OUT, f"{tag}-spans.json")
            )
            units = PER_LAYER
        else:
            metrics = end_to_end(jobs, setups, passes)
            units = END_TO_END
        result = {
            "correct": not problems,
            "attempted": len(jobs) * len(passes + traced),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **result,
                    "problems": problems,
                    "passes": len(passes),
                    "traced_passes": len(traced),
                    "jobs": {
                        job.name: [runs[idx].wall for _, runs in passes + traced]
                        for idx, job in enumerate(jobs)
                    },
                    "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
                },
                handle,
                indent=2,
            )
        return result
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)


def print_metrics(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of one run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cherloc", "cli.py")):
        print(f"perfbench: no cherloc sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            args.seconds = json.load(handle)["run_seconds"]

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    results = {}
    try:
        for workload in names:
            for trace in modes:
                result = run_workload(workload, args.seed, args.seconds, trace)
                print_metrics(f"{workload} ({'traced' if trace else 'untraced'})", result)
                results[(workload, trace)] = result
    except SetupError as err:
        print(f"perfbench: set-up failed: {err}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "runs": {f"{w}:trace{int(t)}": r for (w, t), r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
