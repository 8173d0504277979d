"""Tests for the greedy ball-family selection."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import covering as cv
from conelab.errors import BoundExceededError, DataIntegrityError, DomainError


def _random_instance(trial, n=150, n_targets=20):
    rng = np.random.default_rng(1000 + trial)
    d = 2 + trial % 2
    centers = rng.random((n, d))
    radii = 10.0 ** rng.uniform(-2, 0, n)  # log-uniform over two decades
    idx = rng.choice(n, n_targets, replace=False)
    return cv.make_ball_set(centers, radii, target=centers[idx], seed=trial), d


class TestBallSet:
    def test_tied_radii_perturbed_deterministically(self):
        centers = np.zeros((4, 2)) + np.arange(4)[:, None]
        bs1 = cv.make_ball_set(centers, [1.0, 1.0, 1.0, 1.0], seed=5)
        bs2 = cv.make_ball_set(centers, [1.0, 1.0, 1.0, 1.0], seed=5)
        radii = [b.radius for b in bs1.balls]
        assert len(set(radii)) == 4
        assert radii == [b.radius for b in bs2.balls]
        assert max(abs(r - 1.0) for r in radii) < 1e-6

    def test_distinct_radii_untouched(self):
        bs = cv.make_ball_set([[0, 0], [3, 0]], [1.0, 2.0])
        assert [b.radius for b in bs.balls] == [1.0, 2.0]

    def test_coverability_precondition(self):
        with pytest.raises(DomainError):
            cv.make_ball_set([[0.0, 0.0]], [1.0], target=[[10.0, 0.0]])
        # within the cover enlargement is fine
        cv.make_ball_set([[0.0, 0.0]], [1.0], target=[[2.5, 0.0]])

    def test_validation(self):
        with pytest.raises(DomainError):
            cv.make_ball_set([[0, 0]], [-1.0])
        with pytest.raises(DomainError):
            cv.make_ball_set([[0.0, 0.0]], [1.0], target=[[0.0, 0.0, 0.0]])
        with pytest.raises(DomainError):
            cv.BallSet(
                balls=(cv.Ball((0.0, 0.0), 1.0, 0), cv.Ball((1.0, 0.0), 1.0, 1)),
                target=np.zeros((0, 2)),
            )
        with pytest.raises(DomainError):
            cv.BallSet(balls=(), target=np.array([[0.0, 0.0]]))

    def test_uncoverable_error_names_first_uncovered_target(self):
        with pytest.raises(DomainError, match=r"target point \[ 7\. -1\.\] not coverable"):
            cv.make_ball_set([[0.0, 0.0], [5.0, 0.0]], [1.0, 0.5],
                             target=[[1.0, 0.0], [7.0, -1.0], [20.0, 0.0]])

    def test_uncoverable_target_found_past_the_first_block(self):
        n = 1024  # 256 targets per block; targets 700 and 900 fall in later blocks
        centers = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
        targets = np.repeat(centers[:3], 400, axis=0)
        targets[700] = [-50.0, 3.0]
        targets[900] = [-60.0, 0.0]
        with pytest.raises(DomainError, match=r"target point \[-50\. +3\.\] not coverable"):
            cv.make_ball_set(centers, np.linspace(0.5, 0.6, n), target=targets)

    @pytest.mark.parametrize("radii", [[np.inf, np.inf], [0.0, 0.0]])
    def test_radii_the_perturbation_cannot_separate_rejected(self, radii):
        # tied infinite or zero radii are fixed points of the tie-breaking
        # multiplication; they must be rejected, not perturbed forever
        with pytest.raises(DomainError):
            cv.make_ball_set([[0.0, 0.0], [1.0, 1.0]], radii)

    @pytest.mark.parametrize("centers, radii", [
        ([[0.0, 0.0], [1.0, 1.0]], [np.nan, 1.0]),
        ([[0.0, 0.0], [1.0, 1.0]], [1.0, np.inf]),
        ([[0.0, np.nan], [1.0, 1.0]], [1.0, 2.0]),
        ([[0.0, 0.0], [-np.inf, 1.0]], [1.0, 2.0]),
    ])
    def test_non_finite_input_rejected(self, centers, radii):
        with pytest.raises(DomainError):
            cv.make_ball_set(centers, radii)
        with pytest.raises(DomainError):
            for i, (c, r) in enumerate(zip(centers, radii)):
                cv.Ball(center=tuple(c), radius=r, ball_id=i)


class TestAssignFamilies:
    def test_single_ball(self):
        bs = cv.make_ball_set([[0.0, 0.0]], [1.0])
        fa = cv.assign_families(bs)
        assert fa.families == {0: 1}

    def test_two_far_apart_balls_share_family(self):
        bs = cv.make_ball_set([[0.0, 0.0], [100.0, 0.0]], [1.0, 1.1])
        fa = cv.assign_families(bs)
        assert fa.families == {0: 1, 1: 1}

    def test_two_near_balls_split_families(self):
        # separated centers but overlapping 10-rho enlargements
        bs = cv.make_ball_set([[0.0, 0.0], [3.0, 0.0]], [1.0, 1.1])
        fa = cv.assign_families(bs)
        assert sorted(fa.families.values()) == [1, 2]

    def test_center_in_larger_kept_ball_ruled_out(self):
        bs = cv.make_ball_set([[0.0, 0.0], [1.0, 0.0]], [2.0, 0.5])
        fa = cv.assign_families(bs)
        assert fa.families == {0: 1, 1: 0}

    def test_ring_example(self):
        # 13 unit balls on a ring of radius 1.5 about the target point plus
        # one larger ball far away at the origin
        ang = 2 * np.pi * np.arange(13) / 13
        ring = np.stack([10 + 1.5 * np.cos(ang), 1.5 * np.sin(ang)], axis=1)
        centers = np.concatenate([ring, [[0.0, 0.0]]])
        radii = np.array([1.0] * 13 + [1.6])
        bs = cv.make_ball_set(centers, radii, target=[[10.0, 0.0]], seed=3)
        fa = cv.assign_families(bs)
        assert fa.used >= 2
        # every kept pair satisfies center exclusion (brute force)
        kept = [b for b in bs.balls if fa.families[b.ball_id] > 0]
        for i, bi in enumerate(kept):
            for bj in kept[i + 1:]:
                dist = np.linalg.norm(np.subtract(bi.center, bj.center))
                assert dist >= max(bi.radius, bj.radius)

    def test_bound_exceeded_with_witness(self):
        bs = cv.make_ball_set([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], [1.0, 1.1, 1.2])
        with pytest.raises(BoundExceededError) as err:
            cv.assign_families(bs, c_bound=2)
        witness = err.value.witness
        assert witness["ball"].ball_id == 0
        assert set(witness["blockers"]) == {1, 2}

    def test_witness_names_first_kept_blocker_of_each_family(self):
        # balls 0 and 1 share family 1 and both block ball 2
        bs = cv.make_ball_set([[0.0], [25.0], [12.5]], [1.0, 0.9, 0.8])
        assert cv.assign_families(bs, c_bound=2).families == {0: 1, 1: 1, 2: 2}
        with pytest.raises(BoundExceededError) as err:
            cv.assign_families(bs, c_bound=1)
        assert err.value.witness["blockers"] == {1: ((0.0,), 1.0)}

    def test_blocking_distance_is_inclusive(self):
        # centres exactly separation * (r + r') apart still block
        bs = cv.make_ball_set([[0.0], [20.0]], [1.5, 0.5])
        assert cv.assign_families(bs, c_bound=2).families == {0: 1, 1: 2}

    def test_distances_round_like_scalar_norm(self):
        rng = np.random.default_rng(11)
        for dim in (1, 2, 3, 4):
            diff = rng.normal(size=(500, dim)) * 10.0 ** rng.uniform(-3, 3, (500, 1))
            scalar = [np.linalg.norm(v) for v in diff]
            assert cv._norms(diff).tolist() == scalar
        for dim in (1, 2, 3, 4, 8, 9):
            centers = rng.random((60, dim)) * 10.0 ** rng.uniform(-3, 3)
            np.testing.assert_array_equal(
                cv._pair_distances(centers),
                np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1))

    def test_determinism(self):
        bs1, _ = _random_instance(17)
        bs2, _ = _random_instance(17)
        fa1 = cv.assign_families(bs1, c_bound=100)
        fa2 = cv.assign_families(bs2, c_bound=100)
        assert fa1.families == fa2.families

    def test_monotone_locality(self):
        # adding a ball smaller than all existing ones never changes the
        # assignment of the existing balls
        bs, _ = _random_instance(23, n=60, n_targets=5)
        fa = cv.assign_families(bs, c_bound=100)
        smallest = min(b.radius for b in bs.balls)
        extra = cv.Ball(center=(0.5, 0.5) if bs.dim == 2 else (0.5, 0.5, 0.5),
                        radius=smallest / 2.0, ball_id=10_000)
        grown = cv.BallSet(balls=bs.balls + (extra,), target=bs.target)
        fa2 = cv.assign_families(grown, c_bound=100)
        for b in bs.balls:
            assert fa2.families[b.ball_id] == fa.families[b.ball_id]

    def test_default_bounds_per_dimension(self):
        bs, _ = _random_instance(4, n=40, n_targets=4)
        fa = cv.assign_families(bs)
        assert fa.c_bound == cv.C_BOUND_DEFAULTS[bs.dim]


class TestVerifyFamilies:
    def test_random_instances_within_default_bounds(self):
        # 200 random instances, both dimensions: all properties pass and the
        # family count stays within the calibrated default bound
        worst = {2: 0, 3: 0}
        for trial in range(200):
            bs, d = _random_instance(trial)
            fa = cv.assign_families(bs)  # default bound: raises if exceeded
            worst[d] = max(worst[d], fa.used)
            report = cv.verify_families(bs, fa)
            assert report["all_passed"], (trial, report)
        assert worst[2] <= cv.C_BOUND_DEFAULTS[2]
        assert worst[3] <= cv.C_BOUND_DEFAULTS[3]

    def test_large_instance(self):
        rng = np.random.default_rng(7)
        centers = rng.random((1000, 3))
        radii = 10.0 ** rng.uniform(-2, 0, 1000)
        idx = rng.choice(1000, 100, replace=False)
        bs = cv.make_ball_set(centers, radii, target=centers[idx], seed=7)
        fa = cv.assign_families(bs)
        report = cv.verify_families(bs, fa)
        assert report["all_passed"]

    def test_corrupted_assignment_fails_with_witness(self):
        bs = cv.make_ball_set([[0.0, 0.0], [3.0, 0.0]], [1.0, 1.1])
        fa = cv.FamilyAssignment(families={0: 1, 1: 1}, c_bound=12)
        report = cv.verify_families(bs, fa)
        assert not report["intra_family_disjoint"]["passed"]
        assert report["intra_family_disjoint"]["witnesses"] == [(0, 1)]
        # centres exactly disjoint * (r + r') apart still violate
        bs = cv.make_ball_set([[0.0], [9.0]], [1.0, 0.5])
        report = cv.verify_families(bs, fa)
        assert report["intra_family_disjoint"]["witnesses"] == [(0, 1)]

    def test_empty_vacuous_pass(self):
        bs = cv.BallSet(balls=(), target=np.zeros((0, 2)))
        report = cv.verify_families(bs, cv.FamilyAssignment(families={}, c_bound=12))
        assert report["all_passed"]

    def test_cover_property_for_center_targets(self):
        # targets that are ball centers are always covered by a kept 3-rho
        # ball, even when their own ball is ruled out
        bs = cv.make_ball_set([[0.0, 0.0], [1.0, 0.0]], [2.0, 0.5],
                              target=[[1.0, 0.0]])
        fa = cv.assign_families(bs)
        assert fa.families[1] == 0  # its ball was ruled out
        assert cv.verify_families(bs, fa)["target_cover"]["passed"]


class TestCenterShift:
    def _sources(self, offsets=None):
        rng = np.random.default_rng(5)
        centers = rng.random((8, 2)) * 5
        radii = 10.0 ** rng.uniform(-1, 0, 8)
        src = cv.make_ball_set(centers, radii, seed=0)
        return src, cv.double_balls(src.balls, offsets)

    def test_identity_when_not_recentered(self):
        src, doubled = self._sources()
        fa = cv.assign_families(doubled, c_bound=50)
        back = cv.center_shift(doubled, fa)
        for b in back.balls:
            assert b.center == src.by_id(b.ball_id).center
            assert b.radius == src.by_id(b.ball_id).radius

    def test_recovers_offset_sources(self):
        rng = np.random.default_rng(9)
        offsets = rng.random((8, 2)) * 0.01
        src, doubled = self._sources(offsets)
        fa = cv.assign_families(doubled, c_bound=50)
        back = cv.center_shift(doubled, fa)
        assert len(back.balls) > 0
        for b in back.balls:
            assert b.center == src.by_id(b.ball_id).center

    def test_radii_multiset_preserved(self):
        src, doubled = self._sources()
        fa = cv.assign_families(doubled, c_bound=50)
        back = cv.center_shift(doubled, fa)
        got = sorted(b.radius for b in back.balls)
        want = sorted(src.by_id(b.ball_id).radius for b in back.balls)
        assert got == want

    def test_unmatched_radius_raises(self):
        _, doubled = self._sources()
        fa = cv.assign_families(doubled, c_bound=50)
        bad = cv.BallSet(
            balls=doubled.balls,
            target=doubled.target,
            sources=tuple(doubled.sources[:-1]),
        )
        kept = {i for i, f in fa.families.items() if f > 0}
        if doubled.sources[-1].ball_id in kept:
            with pytest.raises(DataIntegrityError):
                cv.center_shift(bad, fa)
        missing = cv.BallSet(balls=doubled.balls, target=doubled.target)
        with pytest.raises(DataIntegrityError):
            cv.center_shift(missing, fa)

    def test_offset_beyond_radius_rejected(self):
        src = cv.make_ball_set([[0.0, 0.0]], [0.5])
        with pytest.raises(DomainError):
            cv.double_balls(src.balls, [[1.0, 0.0]])


class TestJson:
    def test_round_trip_and_determinism(self):
        bs, _ = _random_instance(2, n=20, n_targets=3)
        fa = cv.assign_families(bs, c_bound=50)
        text = cv.ball_set_to_json(bs, fa)
        assert cv.ball_set_to_json(bs, fa) == text  # byte-identical
        data = json.loads(text)
        assert [tuple(b["center"]) for b in data["balls"]] == [b.center for b in bs.balls]
        assert [b["radius"] for b in data["balls"]] == [b.radius for b in bs.balls]
        assert data["balls"][0]["family"] == fa.families[bs.balls[0].ball_id]


# ---------------------------------------------------------------------------
# the array kernels against the per-pair loops they replaced
# ---------------------------------------------------------------------------

def _assign_reference(bs, c_bound, separation=cv.SEPARATION):
    """The per-pair greedy loop, one scalar norm per (ball, kept) pair."""
    families = {}
    kept = []
    for b in sorted(bs.balls, key=lambda b: -b.radius):
        x = np.asarray(b.center)
        if any(np.linalg.norm(x - c) < r for c, r, _ in kept):
            families[b.ball_id] = 0
            continue
        blocked = {}
        for c, r, fam in kept:
            if np.linalg.norm(x - c) <= separation * (b.radius + r):
                blocked.setdefault(fam, (c, r))
        fam = 1
        while fam in blocked:
            fam += 1
        if fam > c_bound:
            raise BoundExceededError(
                f"ball {b.ball_id} needs family {fam} > bound {c_bound}",
                witness={"ball": b,
                         "blockers": {f: (tuple(c), r) for f, (c, r) in blocked.items()}},
            )
        families[b.ball_id] = fam
        kept.append((x, b.radius, fam))
    return cv.FamilyAssignment(families=families, c_bound=int(c_bound))


def _verify_reference(bs, fa, disjoint=cv.DISJOINT, cover=cv.COVER):
    """The double Python loop over kept pairs."""
    kept = [b for b in bs.balls if fa.families.get(b.ball_id, 0) > 0]
    centers = np.array([b.center for b in kept]) if kept else np.zeros((0, max(bs.dim, 1)))
    radii = np.array([b.radius for b in kept])
    fams = np.array([fa.families[b.ball_id] for b in kept])
    report = {key: {"passed": True, "witnesses": []}
              for key in ("intra_family_disjoint", "center_exclusion", "target_cover")}
    if kept:
        dist = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                if fams[i] == fams[j] and dist[i, j] <= disjoint * (radii[i] + radii[j]):
                    report["intra_family_disjoint"]["passed"] = False
                    report["intra_family_disjoint"]["witnesses"].append(
                        (kept[i].ball_id, kept[j].ball_id))
                if dist[i, j] < max(radii[i], radii[j]):
                    report["center_exclusion"]["passed"] = False
                    report["center_exclusion"]["witnesses"].append(
                        (kept[i].ball_id, kept[j].ball_id))
    for q in np.atleast_2d(bs.target):
        if not len(kept) or not np.any(np.linalg.norm(centers - q, axis=-1) <= cover * radii):
            report["target_cover"]["passed"] = False
            report["target_cover"]["witnesses"].append(tuple(q))
    report["all_passed"] = all(
        report[key]["passed"]
        for key in ("intra_family_disjoint", "center_exclusion", "target_cover"))
    return report


def _instance(seed, dim, n_max, lattice):
    """Up to ``n_max`` balls in a box whose side the seed draws: either
    random centres with radii 10^U[-6, 0], or integer lattice centres with
    distinct quarter-integer radii, where distances meet the rule-out,
    blocking and verification thresholds exactly."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    if lattice:
        n = min(n, 48)
        centers = rng.integers(0, rng.integers(2, 40), (n, dim)).astype(float)
        radii = rng.choice(np.arange(1, 49) / 4.0, n, replace=False)
    else:
        centers = rng.random((n, dim)) * 10.0 ** rng.uniform(0, 3)
        radii = 10.0 ** rng.uniform(-6, 0, n)
    targets = centers[rng.choice(n, min(n, 5), replace=False)]
    return cv.make_ball_set(centers, radii, target=targets, seed=seed)


def _corrupt(fa, seed):
    """Move a random share of the balls, ruled-out ones included, into
    families 1..3, so that both pair properties fail with witnesses."""
    rng = np.random.default_rng(seed)
    families = dict(fa.families)
    for ball_id in families:
        if rng.random() < 0.4:
            families[ball_id] = int(rng.integers(1, 4))
    return cv.FamilyAssignment(families=families, c_bound=fa.c_bound)


def _assign_outcome(assign, bs, c_bound):
    try:
        return assign(bs, c_bound=c_bound).families
    except BoundExceededError as err:
        return str(err), err.witness


class TestArrayKernels:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           lattice=st.booleans(), c_bound=st.integers(1, 12))
    def test_match_per_pair_loops(self, seed, dim, lattice, c_bound):
        # small bounds bind on crowded sets, large ones never do
        bs = _instance(seed, dim, 300, lattice)
        assert (_assign_outcome(cv.assign_families, bs, c_bound)
                == _assign_outcome(_assign_reference, bs, c_bound))
        fa = cv.assign_families(bs, c_bound=len(bs.balls))
        assert fa.families == _assign_reference(bs, c_bound=len(bs.balls)).families
        for assignment in (fa, _corrupt(fa, seed)):
            assert cv.verify_families(bs, assignment) == _verify_reference(bs, assignment)

    def test_instances_bind_and_corruptions_leave_witnesses(self):
        # the property test's inputs reach the paths it compares
        raised = witnessed = 0
        for seed in range(40):
            bs = _instance(seed, 1 + seed % 4, 300, lattice=seed % 2 == 0)
            try:
                cv.assign_families(bs, c_bound=3)
            except BoundExceededError:
                raised += 1
            fa = cv.assign_families(bs, c_bound=len(bs.balls))
            report = cv.verify_families(bs, _corrupt(fa, seed))
            witnessed += bool(report["intra_family_disjoint"]["witnesses"]
                              and report["center_exclusion"]["witnesses"])
        assert raised >= 10
        assert witnessed >= 20

    @pytest.mark.parametrize("K", [4, 8, 12])
    def test_collinear_construction_needs_one_family_per_ball(self, K):
        # balls at 2^k e1 with radius 2^k/10 and a tiny ball at 0: every
        # kept ball blocks all later ones, so no bound depending on the
        # dimension alone holds for the greedy rule
        k = np.arange(1, K + 1)
        centers = np.zeros((K + 1, 2))
        centers[1:, 0] = 2.0 ** k
        radii = np.concatenate(([1e-3], 2.0 ** k / 10))
        bs = cv.make_ball_set(centers, radii)
        fa = cv.assign_families(bs, c_bound=K + 1)
        assert sorted(fa.families.values()) == list(range(1, K + 2))
        assert cv.verify_families(bs, fa)["all_passed"]
        with pytest.raises(BoundExceededError) as err:
            cv.assign_families(bs, c_bound=K)
        assert err.value.witness["ball"].ball_id == 0
        assert sorted(err.value.witness["blockers"]) == list(range(1, K + 1))
