"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads suite covering --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out perfbench/results.json]

For every workload and end-to-end metric this prints the median of the
runs and the distance between the first and third quartile as a share of
the median (`statistics.quantiles(values, n=4)`), next to the metric's
bound from BENCHMARK.json.  With --out it also stores every run's result
line and run record.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    wall_s = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    record = next(json.loads(line[len("run-record "):]) for line in lines
                  if line.startswith("run-record "))
    record["wall_s"] = wall_s
    return json.loads(lines[-1]), record


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result, record = run_once(workload, seed, seconds, args.trace)
            results.append(result)
            runs.append({"result": result, "record": record})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={record['wall_s']:.1f}s " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                      if not args.trace or not k.endswith(".self_s")), flush=True)
        if len(results) >= 2:
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                if not all(isinstance(v, (int, float)) for v in values) or statistics.median(values) == 0:
                    continue
                median, share = spread(values)
                bound = bounds.get(name)
                flag = "" if bound is None else f" bound {bound}" + (" OVER" if share > bound / 3 else "")
                print(f"  {workload:9s} {name:32s} median {median:.6g} spread {share:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": seconds, "trace": args.trace, "runs": runs},
                                       indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
