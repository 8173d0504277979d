"""Greedy family selection on finite synthetic ball sets.

A ``BallSet`` holds its balls as arrays, ``centers`` (N, d), ``radii`` (N,)
and ``ids`` (N,), validated once by its one constructor; ``make_ball_set``
breaks radius ties and numbers the balls before calling it.  Its ``balls``
tuple of ``Ball`` records is read from the validated arrays on first use.

Balls are processed in decreasing radius order (the finite surrogate of a
well-ordering of the radii).  A ball whose center already lies in a kept
larger ball is ruled out; otherwise it joins the smallest family whose kept
members stay separation-fold disjoint from it, opening a fresh family when
necessary.  Balls are taken in blocks of ``_ROWS``: two array operations
give a block's distances to the balls kept before it and among its own
balls, and each ball kept inside the block then updates the block's later
balls by one row.  The verification pass checks the three derived
properties — intra-family 6-rho disjointness, mutual center exclusion, and
3-rho cover of the target points.  Sums of squares screen the upper
triangle of kept pairs ``_ROWS`` rows at a time against broadcast
thresholds, so its scratch memory is ``_ROWS`` rows by the kept count; the
screened pairs are decided on the distances of the greedy assignment, and
the targets as the coverability check of a ``BallSet`` decides them.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import BoundExceededError, DataIntegrityError, DomainError, ParameterError

#: same-family separation factor (enlargement radius multiplier)
SEPARATION = 10.0
#: intra-family disjointness factor checked by the verifier
DISJOINT = 6.0
#: cover enlargement factor
COVER = 3.0

#: target-ball distances per block of the cover tests
_BLOCK = 1 << 18
#: balls per block of the greedy assignment and rows per block of the
#: verifier's pair triangle
_ROWS = 64

#: least screening reach, so that squares which underflow drop no pair
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)

#: empirically calibrated family-count bounds per dimension
C_BOUND_DEFAULTS = {2: 12, 3: 24}


#: one ball, a record read from the validated arrays of a ``BallSet``
Ball = namedtuple("Ball", "center radius ball_id")


def _norms(diff):
    """Euclidean norms over the last axis of ``diff``.

    Each norm is one dot product of a row with itself, as in
    ``np.linalg.norm`` of a single vector, so the two agree bit for bit; an
    axis reduction rounds differently in about one case in ten."""
    return np.sqrt(np.vecdot(diff, diff))


def _differences(points, others):
    """``others[None, :, :] - points[:, None, :]``, formed one coordinate at
    a time: broadcast over a last axis of length d, numpy would run one
    short inner loop per pair."""
    diff = np.empty((len(points), len(others), points.shape[1]))
    for c in range(points.shape[1]):
        np.subtract(others[:, c], points[:, c, None], out=diff[..., c])
    return diff


def _nonzero(mask):
    """``np.nonzero`` of a 2-D mask, row by row; one flat scan is several
    times faster."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _covered(points, centers, reach):
    """Whether each point lies within ``reach`` of some center, in blocks of
    at most ``_BLOCK`` point-center distances, so that a set whose every
    center is a point stays linear in memory."""
    covered = np.zeros(len(points), dtype=bool)
    step = max(1, _BLOCK // max(len(centers), 1))
    for start in range(0, len(points), step):
        dist = _norms(_differences(points[start:start + step], centers))
        covered[start:start + step] = np.any(dist <= reach, axis=1)
    return covered


def _ball_arrays(centers, radii):
    """(N, d) centers and (N,) radii as new float arrays, else DomainError."""
    try:
        centers = np.atleast_2d(np.array(centers, dtype=float))
        radii = np.array(radii, dtype=float)
    except (TypeError, ValueError):
        raise DomainError("need (N, d) centers and N radii, got a ragged or non-numeric list") from None
    if centers.ndim != 2 or radii.ndim != 1:
        raise DomainError(f"need (N, d) centers and N radii, got shapes {centers.shape} and {radii.shape}")
    return centers, radii


def _first_bad_ball(centers, radii):
    """Index and message of the first ball, in input order, with a
    non-finite center or radius or a non-positive radius, or None."""
    finite = np.isfinite(radii) & np.isfinite(centers).all(axis=1)
    bad = ~finite | (radii <= 0)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    return k, "ball center and radius must be finite" if not finite[k] else "ball radius must be positive"


class BallSet:
    """Finite ball collection with target points to cover.

    ``BallSet(centers, radii, ids, target, sources)`` is the one
    constructor.  It validates the arrays once: (N, d) centers, one radius
    and one id per center, finite centers, positive and pairwise distinct
    radii, unique ids, and every target point within the cover enlargement
    of some ball.  ``sources`` optionally records the pre-recentering
    balls (radius half, center within the source radius) for the
    center-shift step.
    """

    def __init__(self, centers, radii, ids, target=(), sources=None):
        centers, radii = _ball_arrays(centers, radii)
        ids = np.array(ids)
        if len(radii) != len(centers):
            raise DomainError("need one radius per center")
        if ids.shape != radii.shape:
            raise DomainError("need one id per ball")
        bad = _first_bad_ball(centers, radii)
        if bad is not None:
            raise DomainError(bad[1])
        if np.unique(radii).size != radii.size:
            raise DomainError("radii must be pairwise distinct (perturb on input)")
        if len(set(ids.tolist())) != ids.size:
            raise DomainError("ball ids must be unique")
        try:
            target = np.array(target, dtype=float)
        except (TypeError, ValueError):
            raise DomainError("target must be (T, d) points, got a ragged or non-numeric list") from None
        if not target.size and target.ndim < 2:  # () or []: no target points
            target = np.zeros((0, centers.shape[1]))
        target = np.atleast_2d(target)
        if target.ndim != 2:
            raise DomainError(f"target must be (T, d) points, got shape {target.shape}")
        if not len(radii):
            if target.size:
                raise DomainError("nonempty target with empty ball set is not coverable")
        elif len(target):
            if target.shape[1] != centers.shape[1]:
                raise DomainError("target dimension mismatch")
            # coverability precondition: every target point is reachable by
            # the cover enlargement of some input ball
            covered = _covered(target, centers, COVER * radii)
            if not covered.all():
                raise DomainError(f"target point {target[np.argmin(covered)]} not coverable by any ball")
        for array in (centers, radii, ids, target):
            array.flags.writeable = False
        self.centers, self.radii, self.ids, self.target, self.sources = centers, radii, ids, target, sources

    @cached_property
    def balls(self):
        # tuple.__new__, mapped from C, skips the Python frame per ball of
        # Ball._make
        fields = zip(map(tuple, self.centers.tolist()), self.radii.tolist(), self.ids.tolist())
        return tuple(map(tuple.__new__, repeat(Ball), fields))

    @property
    def dim(self):
        return self.centers.shape[1]

    @cached_property
    def _positions(self):
        return {ball_id: k for k, ball_id in enumerate(self.ids.tolist())}

    def by_id(self, ball_id):
        if ball_id not in self._positions:
            raise DataIntegrityError(f"no ball with id {ball_id}")
        return self.balls[self._positions[ball_id]]


def make_ball_set(centers, radii, target=(), seed=0) -> BallSet:
    """Assemble a BallSet with ids 0..N-1, perturbing tied radii
    deterministically from the seed so the decreasing-radius order is
    total."""
    centers, radii = _ball_arrays(centers, radii)
    if not centers.size or not radii.size:
        raise DomainError("empty ball set: need at least one center and one radius")
    # a subnormal radius is a fixed point of the relative perturbation below
    tiny = np.finfo(float).tiny
    if np.any((radii > 0) & (radii < tiny)):
        raise DomainError(f"ball radii must be at least {tiny} (the smallest normal float)")
    rng = np.random.default_rng(seed)
    # a radius the perturbation cannot separate (0, inf, nan) is left for
    # the validation to reject, not looped on
    while np.unique(radii).size != radii.size and np.all((radii > 0) & np.isfinite(radii)):
        radii = radii * (1.0 + 1e-9 * rng.random(len(radii)))
    return BallSet(centers, radii, np.arange(len(radii)), target)


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
    if a fresh family index would exceed c_bound, and ParameterError if
    c_bound is not a whole number.
    """
    if c_bound is None:
        c_bound = C_BOUND_DEFAULTS.get(bs.dim)
        if c_bound is None:
            raise DomainError(f"no default family bound for dimension {bs.dim}")
    elif not (isinstance(c_bound, numbers.Real) and math.isfinite(c_bound) and c_bound == int(c_bound)):
        raise ParameterError(f"family bound must be a whole number, got {c_bound!r}")
    order = np.argsort(-bs.radii, kind="stable")
    X, radii, ids = bs.centers[order], bs.radii[order], bs.ids[order].tolist()
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
        block = ids[start:start + _ROWS]
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
        rows, cols = _nonzero(outer)
        taken[rows, F[cols]] = True
        kept_rows = []
        for row, ball_id in enumerate(block):
            if ruled_out[row]:
                families[ball_id] = 0
                continue
            fam = int(taken[row, 1:].argmin()) + 1
            if fam > c_bound:
                blockers = {}  # the first kept blocker of each blocking family
                blocking = np.concatenate((outer[row], inner[row, kept_rows]))
                for j in np.nonzero(blocking)[0]:
                    blockers.setdefault(int(F[j]), (tuple(C[j]), float(R[j])))
                raise BoundExceededError(
                    f"ball {ball_id} needs family {fam} > bound {c_bound}",
                    witness={"ball": bs.balls[order[start + row]], "blockers": blockers},
                )
            families[ball_id] = fam
            ruled_out |= inside[row]
            taken[inner[row], fam] = True
            kept_rows.append(row)
            C[k], R[k], F[k] = x[row], r[row], fam
            k += 1
            used = max(used, fam)
    return FamilyAssignment(families=families, c_bound=int(c_bound))


def verify_families(bs: BallSet, fa: FamilyAssignment):
    """Verification of the three derived properties on the kept balls.

    Returns a report dict with pass/fail and witnesses per property; pair
    witnesses are (ball_id_i, ball_id_j) with i < j in input order, row by
    row."""
    fams = np.array([fa.families.get(ball_id, 0) for ball_id in bs.ids.tolist()])
    kept = fams > 0
    centers, radii, fams, ids = bs.centers[kept], bs.radii[kept], fams[kept], bs.ids[kept]
    pairs = {"intra_family_disjoint": [], "center_exclusion": []}
    # Squared distances summed one coordinate at a time screen the upper
    # pair triangle, _ROWS rows at a time, against broadcast 6-rho
    # thresholds (a center inside a ball is a 6-rho overlap).  The squares
    # differ from those of _norms by a few units in the last place; the
    # thresholds are widened by 8 d eps, more than that and their own
    # rounding together, and kept above sqrt(tiny), so that squares which
    # underflow drop no pair.  The screened pairs are decided on _norms,
    # which rounds each distance as assign_families does.
    reach = np.maximum(DISJOINT * (1.0 + 8 * bs.dim * np.finfo(float).eps) * radii, _SQRT_TINY)
    for start in range(0, len(ids), _ROWS):
        stop = min(start + _ROWS, len(ids))
        sq = np.zeros((stop - start, len(ids) - start))
        for c in range(bs.dim):
            diff = np.subtract(centers[start:, c], centers[start:stop, c, None])
            sq += np.square(diff, out=diff)
        i, j = _nonzero(sq <= np.square(reach[start:stop, None] + reach[start:]))
        upper = j > i
        i, j = i[upper] + start, j[upper] + start
        dist = _norms(centers[j] - centers[i])
        intra = (dist <= DISJOINT * (radii[i] + radii[j])) & (fams[i] == fams[j])
        exclusion = dist < np.maximum(radii[i], radii[j])
        for key, bad in (("intra_family_disjoint", intra), ("center_exclusion", exclusion)):
            pairs[key] += zip(ids[i[bad]].tolist(), ids[j[bad]].tolist())
    covered = _covered(bs.target, centers, COVER * radii)
    report = {key: {"passed": not witnesses, "witnesses": witnesses} for key, witnesses in pairs.items()}
    report["target_cover"] = {"passed": bool(covered.all()),
                              "witnesses": [tuple(q) for q in bs.target[~covered]]}
    report["all_passed"] = all(
        report[key]["passed"]
        for key in ("intra_family_disjoint", "center_exclusion", "target_cover")
    )
    return report


def double_balls(sources, offsets=None) -> BallSet:
    """Build the recentered set: each source B_rho(p) becomes B_{2 rho}(z)
    with z = p + offset, |offset| <= rho.  Used to exercise center_shift."""
    sources = tuple(sources)
    shape = (len(sources), len(sources[0].center) if len(sources) else 0)
    if any(len(s.center) != shape[1] for s in sources):
        raise DomainError("all sources must share one dimension")
    offsets = np.zeros(shape) if offsets is None else np.asarray(offsets, dtype=float)
    if offsets.shape != shape:
        raise DomainError(f"need one offset per source, shape {shape}, got {offsets.shape}")
    centers = np.array([s.center for s in sources], dtype=float).reshape(shape)
    radii = np.array([s.radius for s in sources], dtype=float)
    doubled = centers + offsets, 2.0 * radii
    # the first offending source decides: a too long offset, or a
    # recentered ball that the validation of the set rejects
    far = np.flatnonzero(_norms(offsets) > radii)
    bad = _first_bad_ball(*doubled)
    if len(far) and (bad is None or far[0] <= bad[0]):
        raise DomainError("recentering offset exceeds the source radius")
    return BallSet(*doubled, [s.ball_id for s in sources], target=centers, sources=sources)


def center_shift(bs: BallSet, fa: FamilyAssignment) -> BallSet:
    """Trace each kept recentered ball B_{2 rho}(z) back to its source
    B_rho(p), matching by the (pairwise distinct) radius."""
    if bs.sources is None:
        raise DataIntegrityError("ball set carries no source records")
    by_radius = {s.radius: s for s in bs.sources}
    kept = np.array([fa.families.get(ball_id, 0) > 0 for ball_id in bs.ids.tolist()], dtype=bool)
    shifted = []
    for ball_id, half in zip(bs.ids[kept].tolist(), (bs.radii[kept] / 2.0).tolist()):
        src = by_radius.get(half)
        if src is None:
            raise DataIntegrityError(f"kept ball {ball_id} has no source with radius {half}")
        shifted.append(src)
    centers = [s.center for s in shifted] or np.zeros((0, bs.dim))
    return BallSet(centers, [s.radius for s in shifted], bs.ids[kept], bs.target)


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
