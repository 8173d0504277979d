"""Greedy family selection on finite synthetic ball sets.

Balls are processed in decreasing radius order (the finite surrogate of a
well-ordering of the radii).  A ball whose center already lies in a kept
larger ball is ruled out; otherwise it joins the smallest family whose kept
members stay separation-fold disjoint from it, opening a fresh family when
necessary.  Balls are taken in blocks of ``_ROWS``: two array operations
give a block's distances to the balls kept before it and among its own
balls, and each ball kept inside the block then updates the block's later
balls by one row.  The verification pass checks the three derived properties — intra-family
6-rho disjointness, mutual center exclusion, and 3-rho cover of the
target points — on the condensed list of kept pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import BoundExceededError, DataIntegrityError, DomainError

#: same-family separation factor (enlargement radius multiplier)
SEPARATION = 10.0
#: intra-family disjointness factor checked by the verifier
DISJOINT = 6.0
#: cover enlargement factor
COVER = 3.0

#: target-ball distances per block of the coverability check
_BLOCK = 1 << 18
#: balls per block of the greedy assignment
_ROWS = 64

#: empirically calibrated family-count bounds per dimension
C_BOUND_DEFAULTS = {2: 12, 3: 24}


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float
    ball_id: int

    def __post_init__(self):
        if not (math.isfinite(self.radius) and all(map(math.isfinite, self.center))):
            raise DomainError("ball center and radius must be finite")
        if self.radius <= 0:
            raise DomainError("ball radius must be positive")


def _norms(diff):
    """Euclidean norms over the last axis of ``diff``.

    Each norm is one BLAS dot of a row with itself, as in ``np.linalg.norm``
    of a single vector, so the two agree bit for bit; an axis reduction
    rounds differently in about one case in ten."""
    return np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])


def _differences(points, others):
    """``others[None, :, :] - points[:, None, :]``, formed one coordinate at
    a time: broadcast over a last axis of length d, numpy would run one
    short inner loop per pair."""
    diff = np.empty((len(points), len(others), points.shape[1]))
    for c in range(points.shape[1]):
        np.subtract(others[:, c], points[:, c, None], out=diff[..., c])
    return diff


@dataclass(frozen=True)
class BallSet:
    """Finite ball collection with target points to cover.

    ``sources`` optionally records the pre-recentering balls (radius half,
    center within the source radius) for the center-shift step.
    """

    balls: tuple
    target: np.ndarray
    sources: tuple = None

    def __post_init__(self):
        radii = [b.radius for b in self.balls]
        if len(set(radii)) != len(radii):
            raise DomainError("radii must be pairwise distinct (perturb on input)")
        ids = [b.ball_id for b in self.balls]
        if len(set(ids)) != len(ids):
            raise DomainError("ball ids must be unique")
        if self.balls:
            d = len(self.balls[0].center)
            if any(len(b.center) != d for b in self.balls):
                raise DomainError("all centers must share one dimension")
            # coverability precondition: every target point is reachable by
            # the cover enlargement of some input ball
            target = np.atleast_2d(self.target)
            if len(target) and target.shape[1] != d:
                raise DomainError("target dimension mismatch")
            centers = np.array([b.center for b in self.balls], dtype=float)
            reach = COVER * np.asarray(radii)
            # targets in blocks of at most _BLOCK target-ball distances, so
            # that a set whose every center is a target stays linear in memory
            step = max(1, _BLOCK // len(centers))
            for start in range(0, len(target), step):
                block = target[start:start + step]
                covered = np.any(_norms(_differences(block, centers)) <= reach, axis=1)
                if not covered.all():
                    q = block[np.argmin(covered)]
                    raise DomainError(f"target point {q} not coverable by any ball")
        elif np.asarray(self.target).size:
            raise DomainError("nonempty target with empty ball set is not coverable")

    @property
    def dim(self):
        return len(self.balls[0].center) if self.balls else 0

    def by_id(self, ball_id):
        for b in self.balls:
            if b.ball_id == ball_id:
                return b
        raise DataIntegrityError(f"no ball with id {ball_id}")


def make_ball_set(centers, radii, target=(), seed=0, sources=None) -> BallSet:
    """Assemble a BallSet, perturbing tied radii deterministically from the
    seed so the decreasing-radius order is total."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.asarray(radii, dtype=float)
    if centers.ndim != 2 or radii.ndim != 1:
        raise DomainError(f"need (N, d) centers and N radii, got shapes {centers.shape} and {radii.shape}")
    if not centers.size or not radii.size:
        raise DomainError("empty ball set: need at least one center and one radius")
    if len(radii) != len(centers):
        raise DomainError("need one radius per center")
    points = [tuple(c) for c in centers.tolist()]
    rng = np.random.default_rng(seed)
    while True:
        # the balls are built before each tie check: a radius the
        # perturbation cannot separate (0, inf) is rejected, not looped on
        balls = tuple(
            Ball(center=c, radius=r, ball_id=i)
            for i, (c, r) in enumerate(zip(points, radii.tolist()))
        )
        if len(set(radii.tolist())) == len(radii):
            break
        radii = radii * (1.0 + 1e-9 * rng.random(len(radii)))
    target = np.atleast_2d(np.asarray(target, dtype=float)) if len(target) else np.zeros((0, centers.shape[1]))
    return BallSet(balls=balls, target=target, sources=sources)


@dataclass(frozen=True)
class FamilyAssignment:
    """Map ball id -> family index; 0 means ruled out."""

    families: dict
    c_bound: int

    @property
    def used(self):
        return max(self.families.values(), default=0)


def assign_families(bs: BallSet, c_bound=None) -> FamilyAssignment:
    """Greedy decreasing-radius family assignment.

    Raises BoundExceededError (with the blocking configuration as witness)
    if a fresh family index would exceed c_bound.
    """
    if c_bound is None:
        c_bound = C_BOUND_DEFAULTS.get(bs.dim)
        if c_bound is None:
            raise DomainError(f"no default family bound for dimension {bs.dim}")
    order = sorted(bs.balls, key=lambda b: -b.radius)
    X = np.array([b.center for b in order], dtype=float).reshape(len(order), bs.dim)
    radii = np.array([b.radius for b in order])
    families = {}
    # kept balls, filled up to k in processing order, so all have larger
    # radius than the ball at hand
    C = np.empty((len(order), bs.dim))
    R = np.empty(len(order))
    F = np.empty(len(order), dtype=int)
    k = used = 0
    for start in range(0, len(order), _ROWS):
        # a block's distances to the balls kept before it and among its own
        # balls, each in one operation; a ball kept inside the block then
        # rules out and blocks the block's later balls by one row update
        block = order[start:start + _ROWS]
        x, r = X[start:start + _ROWS], radii[start:start + _ROWS]
        dist = _norms(_differences(x, C[:k]))
        ruled_out = np.any(dist < R[:k], axis=1)
        outer = dist <= SEPARATION * (r[:, None] + R[:k])
        dist = _norms(_differences(x, x))  # symmetric, bit for bit
        inside = dist < r[:, None]  # [i, j]: ball i holds the center of ball j
        inner = dist <= SEPARATION * (r[:, None] + r)
        # taken[i, f]: a kept ball of family f blocks ball i; the block
        # opens at most len(block) families beyond the `used` so far
        taken = np.zeros((len(block), used + len(block) + 2), dtype=bool)
        rows, cols = np.nonzero(outer)
        taken[rows, F[cols]] = True
        kept_rows = []
        for row, b in enumerate(block):
            if ruled_out[row]:
                families[b.ball_id] = 0
                continue
            fam = int(taken[row, 1:].argmin()) + 1
            if fam > c_bound:
                blockers = {}  # the first kept blocker of each blocking family
                blocking = np.concatenate((outer[row], inner[row, kept_rows]))
                for j in np.nonzero(blocking)[0]:
                    blockers.setdefault(int(F[j]), (tuple(C[j]), float(R[j])))
                raise BoundExceededError(
                    f"ball {b.ball_id} needs family {fam} > bound {c_bound}",
                    witness={"ball": b, "blockers": blockers},
                )
            families[b.ball_id] = fam
            ruled_out |= inside[row]
            taken[inner[row], fam] = True
            kept_rows.append(row)
            C[k], R[k], F[k] = x[row], r[row], fam
            k += 1
            used = max(used, fam)
    return FamilyAssignment(families=families, c_bound=int(c_bound))


def verify_families(bs: BallSet, fa: FamilyAssignment):
    """Verification of the three derived properties on the condensed list
    of kept pairs.

    Returns a report dict with pass/fail and witnesses per property; pair
    witnesses are (ball_id_i, ball_id_j) with i < j in input order, row by
    row."""
    kept = [b for b in bs.balls if fa.families.get(b.ball_id, 0) > 0]
    centers = np.array([b.center for b in kept]) if kept else np.zeros((0, max(bs.dim, 1)))
    radii = np.array([b.radius for b in kept])
    fams = np.array([fa.families[b.ball_id] for b in kept])
    report = {
        "intra_family_disjoint": {"passed": True, "witnesses": []},
        "center_exclusion": {"passed": True, "witnesses": []},
        "target_cover": {"passed": True, "witnesses": []},
    }
    if kept:
        ids = np.array([b.ball_id for b in kept])
        # pdist sums the d squares in its own order, so its distances may
        # differ from _norms' by about d units in the last place.  Shrunk by
        # 4 d eps they screen the pairs (a center inside a ball implies 6-rho
        # overlap), and the screened pairs are decided on _norms, which
        # rounds each distance as assign_families does.
        i, j = np.triu_indices(len(kept), 1)  # pdist's pair order, row by row
        dist = pdist(centers)
        dist *= 1.0 - 4 * centers.shape[1] * np.finfo(float).eps
        near = np.flatnonzero(dist <= DISJOINT * (radii[i] + radii[j]))
        i, j = i[near], j[near]
        dist = _norms(centers[i] - centers[j])
        intra = (dist <= DISJOINT * (radii[i] + radii[j])) & (fams[i] == fams[j])
        exclusion = dist < np.maximum(radii[i], radii[j])
        for key, bad in (("intra_family_disjoint", intra), ("center_exclusion", exclusion)):
            report[key] = {
                "passed": not bad.any(),
                "witnesses": list(zip(ids[i[bad]].tolist(), ids[j[bad]].tolist())),
            }
    for q in np.atleast_2d(bs.target):
        if not len(kept) or not np.any(np.linalg.norm(centers - q, axis=-1) <= COVER * radii):
            report["target_cover"]["passed"] = False
            report["target_cover"]["witnesses"].append(tuple(q))
    report["all_passed"] = all(
        report[key]["passed"]
        for key in ("intra_family_disjoint", "center_exclusion", "target_cover")
    )
    return report


def double_balls(sources, offsets=None) -> BallSet:
    """Build the recentered set: each source B_rho(p) becomes B_{2 rho}(z)
    with z = p + offset, |offset| <= rho.  Used to exercise center_shift."""
    shape = (len(sources), len(sources[0].center) if len(sources) else 0)
    if any(len(s.center) != shape[1] for s in sources):
        raise DomainError("all sources must share one dimension")
    offsets = np.zeros(shape) if offsets is None else np.asarray(offsets, dtype=float)
    if offsets.shape != shape:
        raise DomainError(f"need one offset per source, shape {shape}, got {offsets.shape}")
    balls = []
    for s, off in zip(sources, offsets):
        if np.linalg.norm(off) > s.radius:
            raise DomainError("recentering offset exceeds the source radius")
        balls.append(
            Ball(
                center=tuple(np.asarray(s.center) + off),
                radius=2.0 * s.radius,
                ball_id=s.ball_id,
            )
        )
    targets = np.array([s.center for s in sources])
    return BallSet(balls=tuple(balls), target=targets, sources=tuple(sources))


def center_shift(bs: BallSet, fa: FamilyAssignment) -> BallSet:
    """Trace each kept recentered ball B_{2 rho}(z) back to its source
    B_rho(p), matching by the (pairwise distinct) radius."""
    if bs.sources is None:
        raise DataIntegrityError("ball set carries no source records")
    by_radius = {s.radius: s for s in bs.sources}
    shifted = []
    for b in bs.balls:
        if fa.families.get(b.ball_id, 0) <= 0:
            continue
        src = by_radius.get(b.radius / 2.0)
        if src is None:
            raise DataIntegrityError(
                f"kept ball {b.ball_id} has no source with radius {b.radius / 2.0}"
            )
        shifted.append(Ball(center=src.center, radius=src.radius, ball_id=b.ball_id))
    return BallSet(balls=tuple(shifted), target=bs.target, sources=None)


# ---------------------------------------------------------------------------
# JSON serialization (deterministic)
# ---------------------------------------------------------------------------

def ball_set_to_json(bs: BallSet, fa: FamilyAssignment = None):
    payload = {
        "balls": [
            {
                "center": list(b.center),
                "radius": b.radius,
                "id": b.ball_id,
                "family": fa.families.get(b.ball_id) if fa is not None else None,
            }
            for b in bs.balls
        ],
        "target": np.atleast_2d(bs.target).tolist(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
