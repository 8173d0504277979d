"""The benchmark's workloads: seeded inputs, tasks and their oracles.

A workload hands out rounds.  A round is a list of tasks whose inputs are
drawn from a numpy Generator; the library sees only those inputs, never
the seed.  A task makes its library calls, checks the result against an
oracle that does not come from the call under test, and returns a dict of
counts.  It raises `OracleMiss`, naming the layer, when the result is
wrong.  Every round of a workload has the same strata (cones, sizes,
dimensions) in the same order, one task each, with a unique label; the
seed draws the values inside each stratum, so runs with different seeds
do comparable work and each position of a round can be timed over many
rounds.  The suite is the exception: it runs the shipped scenarios as
they are.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

# library functions are called through their modules, so that the
# tracer's wrappers (installed on the module attributes) see every call
from conelab import barrier as br
from conelab import bending as bd
from conelab import cli
from conelab import cones as cn
from conelab import covering as cv
from conelab import fields as fl
from conelab import grids as gr
from conelab import perron as pn


class OracleMiss(Exception):
    """A task's result missed its oracle; `layer` produced the result."""

    def __init__(self, layer, message):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


@dataclass(frozen=True)
class Task:
    label: str
    run: Callable[[], dict]


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# suite: the user's `conelab run` path over every bundled scenario
# ---------------------------------------------------------------------------

class Suite:
    """One task runs one bundled scenario through `cli.run_scenario`, as
    `conelab run <name>` does, with its artifacts written to `workdir`.

    The scenarios keep their shipped seeds, so this workload ignores the
    run's seed.  With drawn scenario seeds the conformal-consistency gate
    of metric-core fails on about 1 seed in 150 (seed 721805890 gives a
    convergence order of 2.68 against the band 2 +- 0.3), and a workload
    must not fail."""

    TINY = ("cone-catalog", "covering", "green-truncation", "lambda0-simons", "superposition")

    def __init__(self, workdir, tiny=False):
        self.workdir = workdir
        self.scenarios = [json.loads(path.read_text()) for name, path in cli.bundled_scenarios().items()
                          if not tiny or name in self.TINY]

    def round(self, rng):
        return [Task(data["name"], self._task(data)) for data in self.scenarios]

    def _task(self, data):
        def run():
            report = cli.run_scenario(data, output_root=self.workdir)
            failed = [c["name"] for c in report.checks if c["status"] != "pass"]
            if failed or len(report.checks) != len(data["checks"]):
                raise OracleMiss("cli", f"scenario {data['name']} failed checks {failed}")
            paths = [self.workdir / f"{data['name']}{ext}" for ext in (".report.json", ".checks.csv")]
            return {"cli.artifact_bytes": sum(p.stat().st_size for p in paths)}
        return run


# ---------------------------------------------------------------------------
# geometry: pointwise curvature on sampled grids and analytic callbacks
# ---------------------------------------------------------------------------

#: the sampled path is second order: |scal - law| = c h^2 to four digits
#: from 13 to 97 nodes.  c scales with the field's fourth derivatives,
#: bounded by sum_j amp_j |k_j|^4 for u = base + sum_j amp_j cos(k_j . x);
#: c / that sum stayed below 1.2 over 12000 seeded TrigFields (c itself
#: reached 17), so the oracle allows this multiple of h^2 times the sum
SAMPLED_ERROR_CONSTANT = 3.0


class Geometry:
    """Pointwise curvature through the two paths of the metric layer, plus
    tube bending and barrier deflection radii.

    Sampled path: a flat cube conformally deformed by a seeded TrigField,
    checked against the transformation law.  Callback path: cylinders
    R x S^{n-1} and deformed cones, checked against closed-form curvature.
    deformed_metric samples count^n nodes, so only the n = 7, 8 cones fit
    in memory; cylinder_metric(7) alone peaks near 1 GB.  A round has one
    task of each kind and size, about 5 s."""

    SAMPLED = (17, 25, 33, 41, 49)
    CYLINDERS = (5, 6, 7)
    DEFORMED = ((3, 3), (4, 3))
    THETA0 = ((0.9, 1.15), (1.3, 1.4))  # stiffness k* = 1 and k* = 4
    DEFLECTION_CONES = ((5, 4), (4, 4), (4, 3), (3, 3))
    DELTA = 0.2

    def __init__(self, workdir=None, tiny=False):
        self.sampled = (17, 25) if tiny else self.SAMPLED
        self.cylinders = (5,) if tiny else self.CYLINDERS
        self.deformed = ((3, 3),) if tiny else self.DEFORMED
        self.theta0 = self.THETA0[:1] if tiny else self.THETA0
        self.deflection_cones = self.DEFLECTION_CONES[:1] if tiny else self.DEFLECTION_CONES
        self.cutoff = pn.make_cutoff(4.0, 1.0)

    def round(self, rng):
        tasks = [Task(f"sampled{c}", self._sampled(c, _seed(rng))) for c in self.sampled]
        for n in self.cylinders:
            span, center = rng.uniform(0.3, 0.45), np.pi / 2 + rng.uniform(-0.2, 0.2)
            tasks.append(Task(f"cylinder{n}", self._cylinder(n, span, center)))
        for pq in self.deformed:
            half = (sum(pq) - 1) / 2.0
            alpha = -half * rng.uniform(0.1, 0.9)
            nodes = rng.integers(0, 5, size=(4, sum(pq) + 1))
            tasks.append(Task(f"deformed{pq}", self._deformed(pq, alpha, nodes)))
        for lo, hi in self.theta0:
            tasks.append(Task(f"bending{lo}", self._bending(rng.uniform(lo, hi))))
        for pq in self.deflection_cones:
            alpha = -(sum(pq) - 1) / 2.0 * rng.uniform(0.1, 0.9)
            tasks.append(Task(f"deflection{pq}", self._deflection(pq, alpha, 10.0 ** rng.uniform(-6, -3))))
        return tasks

    @staticmethod
    def _sampled(count, field_seed):
        def run():
            chart = gr.Chart(tuple((0.0, 1.0, count) for _ in range(3)))
            u = fl.TrigField.random(3, seed=field_seed)
            deformed = gr.conformal_deform(fl.flat_metric(chart), u.value(chart.mesh()))
            p = tuple(c // 2 for c in chart.shape)
            x = chart.node_coords(p)
            scal = gr.scalar_curvature(deformed, p)
            # transformation law on the flat metric: scal = -8 u^-5 Lap u in dimension 3
            law = -8.0 * float(u.laplacian(x)) * float(u.value(x)) ** -5
            h = 1.0 / (count - 1)
            fourth = float(u.amps @ np.einsum("mi,mi->m", u.waves, u.waves) ** 2)
            if not abs(scal - law) <= SAMPLED_ERROR_CONSTANT * fourth * h**2:
                raise OracleMiss("grids", f"scal {scal} vs law {law} at {count} nodes")
            return {}
        return run

    @staticmethod
    def _cylinder(n, span, center):
        def run():
            m = fl.cylinder_metric(n, span=span, center=center)
            scal = gr.scalar_curvature(m, tuple(c // 2 for c in m.chart.shape))
            if not abs(scal - (n - 1) * (n - 2)) < 1e-8:
                raise OracleMiss("grids", f"cylinder {n}: scal {scal}")
            return {}
        return run

    @staticmethod
    def _deformed(pq, alpha, nodes):
        def run():
            cone = cn.make_cone(*pq)
            n = cone.n
            m = cn.deformed_metric(cn.DeformedCone(cone, alpha=alpha))
            slope = 1.0 + 2.0 * alpha / (n - 2.0)
            link_scal = pq[0] * (pq[0] - 1) / cone.a**2 + pq[1] * (pq[1] - 1) / cone.b**2
            for node in nodes:
                x = m.chart.node_coords(tuple(node))
                scal = gr.scal_from_jet(m.metric_fn(x), m.dmetric_fn(x), m.d2metric_fn(x))
                exact = (link_scal / slope**2 - (n - 1.0) * (n - 2.0)) / x[0] ** 2
                if not abs(scal - exact) < 1e-8 * abs(exact):
                    raise OracleMiss("grids", f"deformed {pq}: scal {scal} vs {exact}")
            return {}
        return run

    def _bending(self, theta0):
        delta = self.DELTA

        def run():
            tm = bd.sphere_tube(4, theta0=theta0, sigma=0.45)
            k_star, _ = bd.stiffness_search(tm, delta=delta, samples=61)
            cert = bd.scal_compare(tm, bd.build_h(k_star, delta), samples=201)
            if not (cert["min_diff"] >= 0.0 and cert["tail_max_abs"] < 1e-10):
                raise OracleMiss("bending", f"theta0 {theta0}: k* {k_star}, {cert['min_diff']}")
            return {}
        return run

    def _deflection(self, pq, alpha, mu):
        cutoff = self.cutoff

        def run():
            cone = cn.make_cone(*pq)
            spec = br.BarrierSpec(deformed=cn.DeformedCone(cone, alpha=alpha), mu=mu, cutoff=cutoff)
            theta = br.deflection_radius(spec)
            exact = mu ** (1.0 / (cone.n - 2.0))
            if not abs(theta - exact) < 1e-8 * exact:
                raise OracleMiss("barrier", f"deflection radius {theta} vs {exact}")
            return {}
        return run


# ---------------------------------------------------------------------------
# covering: greedy family assignment on seeded ball sets
# ---------------------------------------------------------------------------

class Covering:
    """One task: `assign_families` with a bound that cannot bind, then
    `verify_families`, then a `double_balls`/`center_shift` round trip.

    Radii are 10^U over [-4, -1].  In dimension 3 almost every ball is
    kept, so the greedy loop costs O(N^2) and N stops at 1000.  A round
    takes about 4 s."""

    SIZES = ((2, 300), (2, 1000), (2, 2000), (3, 300), (3, 600), (3, 1000))
    LOG_RADII = (-4.0, -1.0)
    TARGETS = 10
    ROUND_TRIP = 40

    def __init__(self, workdir=None, tiny=False):
        self.sizes = ((2, 60), (3, 60)) if tiny else self.SIZES

    def round(self, rng):
        tasks = []
        for dim, count in self.sizes:
            centers = rng.random((count, dim))
            radii = 10.0 ** rng.uniform(*self.LOG_RADII, count)
            targets = centers[rng.choice(count, self.TARGETS, replace=False)]
            # recentering offsets of norm at most rho/2: then a source whose
            # doubled ball is ruled out lies within 3 rho of a kept source,
            # the cover condition center_shift's result must meet
            sources = rng.choice(count, self.ROUND_TRIP, replace=False)
            directions = rng.normal(size=(self.ROUND_TRIP, dim))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            offsets = directions * (radii[sources] * rng.uniform(0.0, 0.5, self.ROUND_TRIP))[:, None]
            tasks.append(Task(f"covering{dim}d{count}",
                              self._task(centers, radii, targets, sources, offsets, _seed(rng))))
        return tasks

    @staticmethod
    def _task(centers, radii, targets, sources, offsets, set_seed):
        def run():
            bs = cv.make_ball_set(centers, radii, target=targets, seed=set_seed)
            fa = cv.assign_families(bs, c_bound=len(bs.balls))
            report = cv.verify_families(bs, fa)
            if not report["all_passed"]:
                raise OracleMiss("covering", "verify_families rejected the assignment")
            src = cv.make_ball_set(centers[sources], radii[sources], seed=set_seed)
            doubled = cv.double_balls(src.balls, offsets=offsets)
            back = cv.center_shift(doubled, cv.assign_families(doubled, c_bound=len(doubled.balls)))
            by_id = {b.ball_id: b for b in src.balls}
            if not back.balls or any((b.center, b.radius) != (by_id[b.ball_id].center, by_id[b.ball_id].radius)
                                     for b in back.balls):
                raise OracleMiss("covering", "center_shift did not return the source balls")
            exceeded = fa.used > cv.C_BOUND_DEFAULTS[bs.dim]
            return {"covering.default_bound_exceeded": int(exceeded)}
        return run


WORKLOADS = {"suite": Suite, "geometry": Geometry, "covering": Covering}
