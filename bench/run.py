"""Benchmark for gallai-ramsey: three workloads through the real CLI, with verdict checks.

Usage (from the repository root):

    python3 bench/run.py --workload tower-certify --seed 1 --seconds 25 --trace 0

One run repeats passes over the workload's jobs until ``--seconds`` have
passed.  Each job is one ``cli.run(argv)`` call in this process, one after
another: a closed loop with one client.  Every outcome is checked outside the
timed region (see ``checks.py``).

On a shared host the speed of the machine can drift by tens of percent over
seconds to minutes, so wall times of the same job can differ by 40% between
runs.  A fixed calibration workload (``Calibration``) therefore runs before
every job and after the last one of a pass.  A job's cost is its wall time
divided by the mean of the two calibration times around it; ``run_calib``
sums, over the jobs, each job's median cost over the passes.

Set-up (importing the program and writing the workload's inputs) runs
several times before the first pass and again before every later pass, each
time between two calibration runs.  ``setup_s`` is the median set-up cost
times ``CALIB_REF_S``: the set-up time in seconds at the reference speed.
Wall times of jobs and set-ups are printed too.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced passes with traced ones, which run the same jobs while
each layer's calls are recorded as spans (see ``jobs.traced``), and reports
the per-layer metrics.
Human-readable lines, every metric with its unit, come first; the last line
of stdout is the JSON result.  A traced run also writes every span to stderr,
one JSON object per line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import Checker, Outcome, self_test  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
import jobs as J  # noqa: E402

SETUP_FIRST_RUNS = 3  # set-ups before the first pass; later passes get at least one each
SETUP_BATCH_S = 0.2  # cheap set-ups repeat until a batch takes this long, for a steadier median
SETUP_BATCH_MAX = 10
# the calibration loop's time on the reference host (2-core x86-64, CPython 3.11);
# set-up times are reported as seconds at that speed
CALIB_REF_S = 0.005
HARD_STOP_S = 150.0  # no new round of passes starts once it would end past this

# per-layer metric -> (span name, field of layer_totals)
LAYER_FIELDS = {
    "constructions.build_s": ("constructions.build", "self_s"),
    "constructions.vertices": ("constructions.build", "vertices"),
    "colored_graph.rows_s": ("colored_graph.rows", "self_s"),
    "colored_graph.rows_pairs": ("colored_graph.rows", "pairs"),
    "colored_graph.read_s": ("colored_graph.read", "self_s"),
    "colored_graph.read_bytes": ("colored_graph.read", "bytes"),
    "colored_graph.write_s": ("colored_graph.write", "self_s"),
    "colored_graph.write_bytes": ("colored_graph.write", "bytes"),
    "patterns.rainbow_s": ("patterns.rainbow", "self_s"),
    "patterns.rainbow_calls": ("patterns.rainbow", "calls"),
    "patterns.rainbow_found": ("patterns.rainbow", "found"),
    "patterns.mono_s": ("patterns.mono", "self_s"),
    "patterns.mono_calls": ("patterns.mono", "calls"),
    "patterns.mono_found": ("patterns.mono", "found"),
    "patterns.oracle_s": ("patterns.oracle", "self_s"),
    "patterns.oracle_calls": ("patterns.oracle", "calls"),
    "gallai.partition_s": ("gallai.partition", "self_s"),
    "gallai.partition_calls": ("gallai.partition", "calls"),
    "gallai.partition_obstructed": ("gallai.partition", "obstructed"),
    "gallai.parts": ("gallai.partition", "parts"),
    "gallai.coarsest_s": ("gallai.coarsest", "self_s"),
    "gallai.reduce_s": ("gallai.reduce", "self_s"),
    "search.sample_s": ("search.sample", "self_s"),
    "search.sample_vertices": ("search.sample", "vertices"),
    "search.search_s": ("search.search", "self_s"),
    "search.nodes": ("search.search", "nodes"),
}
JOB_KINDS = ("construct", "verify", "sample", "partition", "reduce", "coarsest", "search")
END_TO_END = ("run_calib", "setup_s", "peak_rss_mb")
PER_LAYER = (*LAYER_FIELDS, "search.nodes_per_s", *(f"job.{k}_s" for k in JOB_KINDS),
             "trace.overhead_s", "env.calib_s", "env.setup_wall_s")


class Calibration:
    """A fixed pure-Python workload like the program's own: 3000-byte slices
    of a buffer turned into big integers, bitwise operations on 1500-bit
    integers, and dict stores.  Each call appends its wall time to ``samples``.
    It holds under 1 MB, so it does not set the run's peak memory."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.buf = rng.randbytes(400_000)
        self.ints = [rng.getrandbits(1500) for _ in range(2000)]
        self.samples: list[float] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(0, 390_000, 1_300):
            acc ^= int.from_bytes(self.buf[i:i + 3000], "little") >> 5
        for a, b in zip(self.ints, self.ints[1:]):
            acc ^= (a & ~b) | (b >> 3)
        for _ in range(4):
            table = {}
            for i in range(5_000):
                table[i * 7919 % 100_003] = i
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


class Pass:
    """The outcomes of one pass over a workload's jobs, and the calibration
    time around each job (the mean of the runs before and after it)."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.outcomes: dict[str, Outcome] = {}
        self.calib: dict[str, float] = {}
        self.spans = []

    def cost(self, jid: str) -> float:
        return self.outcomes[jid].seconds / self.calib[jid]


def run_pass(mods, jobs: list, traced: bool, calibrate: Calibration) -> Pass:
    p = Pass(traced)
    tracer = Tracer() if traced else None
    before = calibrate()
    with J.traced(mods, tracer) if traced else contextlib.nullcontext():
        for job in jobs:
            p.outcomes[job.id] = J.run_job(mods, job, tracer)
            after = calibrate()
            p.calib[job.id] = (before + after) / 2
            before = after
    p.spans = tracer.spans if traced else []
    return p


def median_over(passes: list[Pass], value) -> dict[str, float]:
    """Per job, the median over the passes of ``value(pass, job id)``."""
    return {jid: statistics.median(value(p, jid) for p in passes) for jid in passes[0].outcomes}


def layer_metrics(traced: list[Pass]) -> dict[str, float]:
    """Per-layer values of the traced passes: median time, counts of the first pass."""
    totals = [layer_totals(p.spans) for p in traced]
    out = {}
    for metric, (span, key) in LAYER_FIELDS.items():
        values = [t.get(span, {}).get(key, 0) for t in totals]
        out[metric] = statistics.median(values) if key == "self_s" else values[0]
    out["search.nodes_per_s"] = out["search.nodes"] / out["search.search_s"] if out["search.search_s"] else 0.0
    return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=J.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    for section, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if sorted(m["name"] for m in spec[section]) != sorted(names):
            print(f"error: {section} of BENCHMARK.json does not list {sorted(names)}", file=sys.stderr)
            return 2
    if not (ROOT / "src" / "gallai_ramsey" / "cli.py").is_file():
        print(f"error: program not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, "src")

    work = Path(".bench_work") / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, spec, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(args, spec: dict, work: str) -> int:
    env = machine_record()
    os.makedirs(work, exist_ok=True)
    checker_errors = self_test(work)

    recipes = J.prepare(args.workload, args.seed)
    calibrate = Calibration()
    setup_times: list[float] = []
    setup_costs: list[float] = []  # set-up time / calibration time around it

    def set_up(min_runs: int):
        """A batch of set-ups; returns the program as the last one imported it."""
        spent = 0.0
        for i in range(SETUP_BATCH_MAX):
            if i >= min_runs and spent >= SETUP_BATCH_S:
                break
            shutil.rmtree(work + "/in", ignore_errors=True)
            gc.collect()  # free earlier imports first, so no set-up pays for them
            before = calibrate()
            start = time.perf_counter()
            mods = J.setup(args.workload, work + "/in", recipes)
            setup_times.append(time.perf_counter() - start)
            setup_costs.append(setup_times[-1] / ((before + calibrate()) / 2))
            spent += setup_times[-1]
        return mods

    mods = set_up(SETUP_FIRST_RUNS)
    inputs = work + "/in"
    jobs = J.smoke_jobs(inputs) + J.BUILDERS[args.workload](mods, inputs, args.seed)

    checker = Checker()
    passes: list[Pass] = []
    problems: list[tuple[str, str]] = []
    attempted = failed = 0
    measure_start = time.perf_counter()
    while True:
        if passes:
            # set-ups before every pass, so that setup_s samples the host's
            # speed over the whole run, not just its first second
            mods = set_up(1)
        kinds = (False, True) if args.trace else (False,)
        for traced in kinds:
            p = run_pass(mods, jobs, traced, calibrate)
            passes.append(p)
            for job in jobs:
                rel = p.outcomes.get(job.related) if job.related else None
                probs = checker.problems(job, p.outcomes[job.id], rel)
                attempted += 1
                if probs:
                    failed += 1
                    problems += [(job.id, pr) for pr in probs]
        rounds = sum(1 for p in passes if not p.traced)
        elapsed = time.perf_counter() - measure_start
        if elapsed >= args.seconds or elapsed * (rounds + 1) / rounds > HARD_STOP_S:
            break

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    seconds = median_over(untraced, lambda p, jid: p.outcomes[jid].seconds)
    run_calib = sum(median_over(untraced, Pass.cost).values())
    env["calib_s"] = statistics.median(calibrate.samples)
    end_to_end = {
        "run_calib": run_calib,
        "setup_s": statistics.median(setup_costs) * CALIB_REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    kind_of = {job.id: job.kind for job in jobs}
    by_kind = {f"job.{k}_s": sum(t for jid, t in seconds.items() if kind_of[jid] == k) for k in JOB_KINDS}
    per_layer = {}
    if traced:
        per_layer = layer_metrics(traced)
        per_layer.update(by_kind)
        # traced minus untraced run time, both at the run's median calibration time
        traced_calib = sum(median_over(traced, Pass.cost).values())
        per_layer["trace.overhead_s"] = (traced_calib - run_calib) * env["calib_s"]
        per_layer["env.calib_s"] = env["calib_s"]
        per_layer["env.setup_wall_s"] = statistics.median(setup_times)
    values = per_layer if args.trace else end_to_end
    units = {m["name"]: m["unit"] for s in ("end_to_end", "per_layer") for m in spec[s]}

    correct = failed == 0 and not checker_errors
    printed = {**end_to_end, "run_s": sum(seconds.values()), "setup_wall_s": statistics.median(setup_times),
               **by_kind, **per_layer}
    _report(args, env, jobs, untraced, traced, seconds, printed,
            units, attempted, failed, problems, checker_errors, setup_times)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    for p in traced:
        for sp in p.spans:
            print(json.dumps(sp.as_dict()), file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def _report(args, env, jobs, untraced, traced, seconds, metrics, units, attempted, failed,
            problems, checker_errors, setup_times) -> None:
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"untraced_passes={len(untraced)} traced_passes={len(traced)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup wall time: runs={len(setup_times)} median={statistics.median(setup_times):.4f} "
          f"min={min(setup_times):.4f} max={max(setup_times):.4f}")
    costs = median_over(untraced, Pass.cost)
    for job in jobs:
        last = untraced[-1].outcomes[job.id]
        extra = f" nodes={last.fields['nodes']}" if "nodes" in last.fields else ""
        what = " ".join(job.argv()) if job.kind != "coarsest" else "coarsest_partition_over_pairs " + job.params["in"]
        print(f"job {job.id:24s} exit={last.code} median_s={seconds[job.id]:.4f} "
              f"calib={costs[job.id]:.2f}{extra}  {what}")
    for name in sorted(metrics):
        unit = units.get(name, "s")
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    print(f"metric failed_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for line in checker_errors:
        print(f"checker self-test: {line}")
    for jid, pr in problems[:20]:
        print(f"FAILED {jid}: {pr}")


if __name__ == "__main__":
    sys.exit(main())
