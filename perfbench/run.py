"""conelab benchmark: run one workload as a closed loop in this process.

    python3 perfbench/run.py --workload covering --seed 7 --seconds 35 --trace 0

One caller runs the workload's tasks back to back, each starting when the
previous one has returned and been checked against its oracle.  Rounds of
tasks are drawn from the seed, each with the same strata in the same
order; the run repeats rounds until `--seconds` of task time has passed
and times each position of the round by its median over the rounds, so
that a burst of load from outside the process moves few of the times it
uses.  The host-speed probe of hostspeed.py runs between tasks and after
set-up, and the gated times are scaled by it to the reference host speed.
BLAS threads are pinned to 1, since every kernel here is small banded,
tridiagonal or pointwise work.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds of the first round's inputs and prints the per-layer
metrics of one traced round (times averaged over the traced rounds) and
the tracing overhead; spans are written to .perfbench-out/ at the end.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it give the same
metrics for people and a JSON run record (machine, versions, seed).
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("suite", "geometry", "covering")

#: a run stops starting tasks after this much wall time, so it ends in 180 s
HARD_LIMIT_S = 150.0
#: set-up is measured in this process and in this many fresh processes
SETUP_PROBES = 2
#: host-speed probes right after each set-up, to scale it to the reference host
SETUP_HOST_PROBES = 7
#: the tail is the highest percentile with at least this many tasks beyond it
TAIL_TASKS = 10

#: the end-to-end metrics of BENCHMARK.json, in the result line
END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}
#: printed and recorded but not gated: they are not scaled to the
#: reference host speed, and on a host whose speed drifts by 20-30%
#: between runs they spread beyond any bound
RECORDED_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
}
TRACE_UNITS = {
    "trace.traced_tasks_per_s": "1/s",
    "trace.untraced_tasks_per_s": "1/s",
    "trace.overhead_tasks_per_s": "1/s",
}


def per_layer_units():
    return {**tracing.per_layer_metric_units(), **TRACE_UNITS}


def _import_library():
    """Import the checkout's conelab (never an installed copy) and the workloads."""
    if not (SRC / "conelab" / "__init__.py").is_file():
        raise RuntimeError(f"no conelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scipy  # noqa: F401
    import workloads
    return workloads


def round_rng(seed, index):
    return np.random.default_rng([seed, index])


class Loop:
    """Runs tasks one after another and counts attempts and failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors_shown = 0

    def attempt(self, task):
        """Run one task with its oracle; returns its wall time in seconds."""
        import workloads
        t0 = time.perf_counter()
        try:
            counts = task.run()
            miss = None
        except workloads.OracleMiss as exc:
            counts, miss = {}, exc
        except Exception as exc:  # a failed task is counted, never fatal
            counts, miss = {}, exc
        seconds = time.perf_counter() - t0
        self.attempted += 1
        tracing_now = self.tracer is not None and self.tracer.active
        if miss is not None:
            self.failed += 1
            if tracing_now and isinstance(miss, workloads.OracleMiss):
                self.tracer.counts[f"{miss.layer}.errors"] += 1
            if self.errors_shown < 5:
                self.errors_shown += 1
                print(f"task {task.label} failed:", file=sys.stderr)
                traceback.print_exception(miss, file=sys.stderr, limit=4)
        elif tracing_now:
            self.tracer.counts.update(counts)
        return seconds


def set_up(workload, seed, tiny, workdir):
    """Import the library, build the workload and draw round 0."""
    workloads = _import_library()
    wl = workloads.WORKLOADS[workload](workdir=workdir, tiny=tiny)
    first = wl.round(round_rng(seed, 0))
    return wl, first


def setup_sample(elapsed):
    """(set-up seconds, the same scaled to the reference host speed by the
    median of host-speed probes run right after the set-up)."""
    host_s = statistics.median(hostspeed.probe() for _ in range(SETUP_HOST_PROBES))
    return elapsed, elapsed * hostspeed.REFERENCE_S / host_s


def probe_setup(workload, seed):
    """setup_sample of a fresh process (the interpreter start excluded)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def tail(times):
    """(value, percentile): the highest order statistic with TAIL_TASKS tasks
    beyond it; the maximum when there are too few tasks."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_TASKS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_TASKS - 1], 100.0 * (n - TAIL_TASKS) / n


def run_record(workload, seed, seconds, trace):
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=20).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": commit,
    }


def run(workload, seed, seconds, trace, tiny=False, probes=SETUP_PROBES):
    """Run one workload; returns (result line object, run record)."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        wl, first = set_up(workload, seed, tiny, workdir)
        loop = Loop(tracing.Tracer() if trace else None)
        loop.attempt(first[0])
        elapsed = time.perf_counter() - _START
        if trace:
            setup = [(elapsed, None)]
            result, extra = _traced_phase(loop, first, workload, seed, seconds)
        else:
            setup = [setup_sample(elapsed)] + [probe_setup(workload, seed) for _ in range(probes)]
            result, extra = _timed_phase(loop, wl, first, seed, seconds)
            result["setup_s"] = statistics.median(ref for _, ref in setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = per_layer_units() if trace else END_TO_END_UNITS
    metrics = {name: {"value": result[name], "unit": unit} for name, unit in units.items()}
    record = run_record(workload, seed, seconds, trace)
    record.update(extra, setup_samples_s=[raw for raw, _ in setup],
                  setup_ref_samples_s=[ref for _, ref in setup],
                  failed_frac=loop.failed / max(loop.attempted, 1))
    if not trace:
        record.update({name: result[name] for name in RECORDED_UNITS})
    out = {"correct": loop.failed == 0, "attempted": loop.attempted,
           "failed": loop.failed, "metrics": metrics}
    return out, record


def _out_of_time():
    return time.perf_counter() - _START > HARD_LIMIT_S


def _timed_phase(loop, wl, first, seed, seconds):
    """Run rounds until `seconds` of task time and one whole round are done.

    tasks_per_s is the round's task count over the sum, across positions
    of the round, of each position's median time.  tasks_per_ref_s does
    the same with each task's time scaled to the reference host speed by
    the host-speed probes run just before and just after it."""
    times, by_label = [], {task.label: [] for task in first}
    ref_by_label, probes = {task.label: [] for task in first}, [hostspeed.probe()]
    rounds, done = 0, False
    while not done:
        tasks = first if rounds == 0 else wl.round(round_rng(seed, rounds))
        rounds += 1
        for position, task in enumerate(tasks, 1):
            times.append(loop.attempt(task))
            probes.append(hostspeed.probe())
            by_label[task.label].append(times[-1])
            host_s = (probes[-2] + probes[-1]) / 2.0
            ref_by_label[task.label].append(times[-1] * hostspeed.REFERENCE_S / host_s)
            whole_round = rounds > 1 or position == len(tasks)
            done = _out_of_time() or (whole_round and sum(times) >= seconds)
            if done:
                break
    position_s = {label: statistics.median(ts) for label, ts in by_label.items()}
    value, percentile = tail(times)
    result = {
        "tasks_per_ref_s": len(first) / sum(statistics.median(ts) for ts in ref_by_label.values()),
        "tasks_per_s": len(first) / sum(position_s.values()),
        "task_p50_ms": 1e3 * statistics.median(times),
        "task_tail_ms": 1e3 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"rounds": rounds, "timed_tasks": len(times), "timed_s": sum(times),
             "tail_percentile": percentile, "task_median_s": position_s,
             "host_probe_median_s": statistics.median(probes)}
    return result, extra


def _traced_phase(loop, first, workload, seed, seconds):
    """Alternate untraced and traced rounds of the same inputs."""
    tracer = loop.tracer
    per_round, spans = [], []
    times = {False: [], True: []}
    round_s = {False: [], True: []}
    traced = False
    while not (per_round and sum(times[False]) + sum(times[True]) >= seconds) and not _out_of_time():
        if traced:
            tracer.install()
        start = len(times[traced])
        for task in first:
            times[traced].append(loop.attempt(task))
        round_s[traced].append(sum(times[traced][start:]))
        if traced:
            tracer.uninstall()
            metrics, round_spans = tracer.take_round()
            per_round.append(metrics)
            spans.extend(round_spans)
        traced = not traced
    if not per_round:
        raise RuntimeError("no traced round finished before the time limit")
    units = per_layer_units()
    result = dict(per_round[0])
    for name, unit in units.items():
        if unit == "s":
            result[name] = statistics.fmean(m[name] for m in per_round)
    counts_repeat = all(m[name] == per_round[0][name] for m in per_round
                        for name, unit in units.items() if unit != "s" and name in m)
    rate = {mode: len(ts) / sum(ts) for mode, ts in times.items()}
    result["trace.traced_tasks_per_s"] = rate[True]
    result["trace.untraced_tasks_per_s"] = rate[False]
    result["trace.overhead_tasks_per_s"] = rate[False] - rate[True]
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload}-{seed}.jsonl"
    tracer.write(span_file, spans)
    extra = {"traced_round_s": round_s[True], "untraced_round_s": round_s[False],
             "counts_repeat_across_rounds": counts_repeat, "span_file": str(span_file.relative_to(ROOT))}
    return result, extra


def report_lines(out, record):
    lines = [f"workload {record['workload']} seed {record['seed']}: "
             f"{out['attempted']} tasks attempted, {out['failed']} failed "
             f"(failed_frac {record['failed_frac']:.4f})"]
    if "tail_percentile" in record:
        lines.append(f"task_tail_ms is p{record['tail_percentile']:.1f} of "
                     f"{record['timed_tasks']} timed tasks in {record['rounds']} rounds")
    for name, metric in out["metrics"].items():
        lines.append(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    for name, unit in RECORDED_UNITS.items():
        if name in record:
            lines.append(f"  {name:40s} {record[name]:.6g} {unit} (recorded, not gated)")
    lines.append("run-record " + json.dumps(record, sort_keys=True))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: measure set-up in this process and exit")
    args = parser.parse_args(argv)
    try:
        if args.probe_setup:
            workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
            try:
                _, first = set_up(args.workload, args.seed, False, workdir)
                Loop().attempt(first[0])
                print(json.dumps(setup_sample(time.perf_counter() - _START)))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            return 0
        out, record = run(args.workload, args.seed, args.seconds, args.trace)
    except Exception as exc:  # no result line on a broken checkout or probe
        traceback.print_exception(exc, file=sys.stderr)
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in report_lines(out, record):
        print(line)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
