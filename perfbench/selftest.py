"""Self-test of the benchmark: tiny runs of every workload.

    python3 perfbench/selftest.py

For each workload, in this process and at tiny input sizes, it checks:

- every metric BENCHMARK.json names is emitted with its unit, untraced
  and traced;
- every count metric repeats exactly between two traced runs of one seed;
- a deliberately corrupted library result makes tasks fail, and the
  failure is counted against the layer that produced it.

Last, one Perron problem from the upper lam band, where the sweep hits its
400-sweep cap (about 12 s), must be counted as a failed task, a perron
error and a `perron.sweep_cap_hits`.  Exits 0 when every check holds.
"""

import contextlib
import dataclasses
import json
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


@contextlib.contextmanager
def corrupted(module, name, transform):
    """Replace conelab `module.name` in every namespace that binds it by a
    version whose result goes through `transform`."""
    original = getattr(sys.modules[f"conelab.{module}"], name)

    def bad(*args, **kwargs):
        return transform(original(*args, **kwargs))

    bound = [(m, attr) for key, m in list(sys.modules.items()) if key.startswith("conelab")
             for attr, value in vars(m).items() if value is original]
    for m, attr in bound:
        setattr(m, attr, bad)
    try:
        yield
    finally:
        for m, attr in bound:
            setattr(m, attr, original)


def _one_family(fa):
    return dataclasses.replace(fa, families={ball: 1 for ball in fa.families})


#: workload -> (module, function, transform, layer whose errors must count)
CORRUPTIONS = {
    "suite": ("cones", "cone_scal", lambda scal: scal * 1.01, "cli"),
    "geometry": ("grids", "scal_from_jet", lambda scal: scal + 1.0, "grids"),
    "covering": ("covering", "assign_families", _one_family, "covering"),
}


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def check_metrics(out, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: metric["unit"] for name, metric in out["metrics"].items()}
    expect(got == expected, f"{section} metrics differ: {set(got) ^ set(expected)}")
    for name, metric in out["metrics"].items():
        expect(isinstance(metric["value"], (int, float)), f"{name} is not a number")


def counts(out):
    return {name: m["value"] for name, m in out["metrics"].items() if m["unit"] in ("count", "B")}


def check_workload(workload):
    out, _ = run.run(workload, SEED, 0.5, 0, tiny=True, probes=0)
    expect(out["correct"] and out["failed"] == 0, f"{workload}: tiny run failed {out['failed']}")
    check_metrics(out, "end_to_end")
    first, _ = run.run(workload, SEED, 0.5, 1, tiny=True)
    second, _ = run.run(workload, SEED, 0.5, 1, tiny=True)
    check_metrics(first, "per_layer")
    expect(counts(first) == counts(second), f"{workload}: counts differ between runs of one seed")
    expect(any(counts(first).values()), f"{workload}: traced run counted nothing")
    module, name, transform, layer = CORRUPTIONS[workload]
    with corrupted(module, name, transform):
        bad, _ = run.run(workload, SEED, 0.5, 1, tiny=True)
    expect(not bad["correct"] and bad["failed"] > 0, f"{workload}: corrupted result passed")
    expect(bad["metrics"][f"{layer}.errors"]["value"] > 0, f"{workload}: no {layer}.errors counted")
    print(f"{workload}: ok ({out['attempted']} tasks; corrupted {name}: "
          f"{bad['failed']}/{bad['attempted']} failed)", flush=True)


def check_sweep_cap():
    import tracing
    import workloads
    from conelab import cones, perron

    n = 3 + 3 + 1
    lambda0 = (n - 2.0) * (n - 3.0) / (4.0 * (n - 1.0))
    problem = perron.PerronProblem(cone=cones.make_cone(3, 3), lam=0.125 + 0.8 * (lambda0 - 0.125),
                                   domain=(0.01, 1.0), boundary_value=1.0)

    def cap():
        perron.perron_minimal_detailed(problem)
        return {}

    task = workloads.Task("cap", cap)
    loop = run.Loop(tracing.Tracer())
    loop.tracer.install()
    try:
        loop.attempt(task)
    finally:
        loop.tracer.uninstall()
    metrics, _ = loop.tracer.take_round()
    expect(loop.failed == 1, "a sweep-cap hit was not counted as a failed task")
    expect(metrics["perron.sweep_cap_hits"] == 1 and metrics["perron.errors"] == 1,
           f"sweep cap not counted: {metrics['perron.sweep_cap_hits']}, {metrics['perron.errors']}")
    expect(metrics["perron.sweeps"] == 400, f"sweeps {metrics['perron.sweeps']}")
    print("perron sweep cap: ok (counted as failed, perron.errors and perron.sweep_cap_hits)")


def main():
    for workload in run.WORKLOAD_NAMES:
        check_workload(workload)
    check_sweep_cap()
    for workload in run.WORKLOAD_NAMES:
        (run.SPAN_DIR / f"spans-{workload}-{SEED}.jsonl").unlink(missing_ok=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
