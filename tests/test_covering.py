"""Tests for the greedy ball-family selection."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import covering as cv
from conelab.errors import BoundExceededError, DataIntegrityError, DomainError, ParameterError


_FINITE = "ball center and radius must be finite"
_POSITIVE = "ball radius must be positive"
_TIED = r"radii must be pairwise distinct \(perturb on input\)"
_RAGGED = r"need \(N, d\) centers and N radii, got a ragged or non-numeric list"


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
            cv.BallSet([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0], [0, 1], target=np.zeros((0, 2)))
        with pytest.raises(DomainError):
            cv.BallSet(np.zeros((0, 2)), [], [], target=np.array([[0.0, 0.0]]))

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

    def test_radii_must_be_one_dimensional(self):
        with pytest.raises(DomainError, match="N radii"):
            cv.make_ball_set([[0.0]], [[1.0]])

    def test_empty_input_named(self):
        with pytest.raises(DomainError, match="empty ball set"):
            cv.make_ball_set([], [])

    @pytest.mark.parametrize("radii", [[np.inf, np.inf], [0.0, 0.0]])
    def test_radii_the_perturbation_cannot_separate_rejected(self, radii):
        # tied infinite or zero radii are fixed points of the tie-breaking
        # multiplication; they must be rejected, not perturbed forever
        with pytest.raises(DomainError):
            cv.make_ball_set([[0.0, 0.0], [1.0, 1.0]], radii)

    @pytest.mark.parametrize("radii", [[5e-324, 5e-324], [1e-310, 1e-310], [1e-310, 1.0]])
    def test_subnormal_radii_rejected(self, radii):
        # r * (1 + 1e-9 u) rounds back to a subnormal r, so tied subnormal
        # radii are another fixed point of the tie-breaking multiplication
        with pytest.raises(DomainError, match="smallest normal float"):
            cv.make_ball_set([[0.0, 0.0], [1.0, 1.0]], radii)

    def test_smallest_normal_tied_radii_separate(self):
        bs = cv.make_ball_set([[0.0, 0.0], [1.0, 1.0]], [2.3e-308, 2.3e-308])
        assert bs.radii[0] != bs.radii[1]
        assert np.all(np.abs(bs.radii / 2.3e-308 - 1.0) < 1e-8)

    @pytest.mark.parametrize("centers, radii", [
        ([[0.0, 0.0], [1.0, 1.0]], [np.nan, 1.0]),
        ([[0.0, 0.0], [1.0, 1.0]], [1.0, np.inf]),
        ([[0.0, np.nan], [1.0, 1.0]], [1.0, 2.0]),
        ([[0.0, 0.0], [-np.inf, 1.0]], [1.0, 2.0]),
    ])
    def test_non_finite_input_rejected(self, centers, radii):
        with pytest.raises(DomainError):
            cv.make_ball_set(centers, radii)

    @pytest.mark.parametrize("centers, radii, message", [
        ([[0.0, 0.0], [np.nan, 1.0]], [1.0, 2.0], _FINITE),
        ([[0.0, 0.0], [1.0, 1.0]], [1.0, 0.0], _POSITIVE),
        ([[0.0, 0.0], [1.0, 1.0]], [np.inf, 1.0], _FINITE),
        ([[0.0, 0.0], [1.0, 1.0], [2.0, np.nan]], [1.0, 0.0, 2.0], _POSITIVE),
        ([[0.0, 0.0], [1.0, np.nan], [2.0, 2.0]], [1.0, 2.0, -1.0], _FINITE),
        ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [-1.0, np.inf, 2.0], _POSITIVE),
    ])
    def test_first_bad_ball_named_by_its_own_check(self, centers, radii, message):
        # several bad balls: the error is the one that the first of them, in
        # input order, fails, through make_ball_set as through the constructor
        with pytest.raises(DomainError, match=f"^{message}$"):
            cv.make_ball_set(centers, radii)
        with pytest.raises(DomainError, match=f"^{message}$"):
            cv.BallSet(centers, radii, range(len(radii)), target=np.zeros((0, 2)))

    @pytest.mark.parametrize("balls, message", [
        (([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0], [0, 1], ()), _TIED),
        (([[0.0, 0.0], [1.0, 0.0]], [1.0, 2.0], [0, 0], ()), "ball ids must be unique"),
        (([[0.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 2.0], [0, 1], ()), _RAGGED),
        # the shapes, then the bad balls, then the radii, then the ids, then
        # the target
        (([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0], [0, 0], ()), _TIED),
        (([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0], [0, 1], [[9.0, 9.0]]), _TIED),
        (([[0.0, 0.0], [1.0, 0.0]], [1.0, 2.0], [0, 0], [[9.0, 9.0]]), "ball ids must be unique"),
        (([[0.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 1.0], [0, 0], ()), _RAGGED),
        (([[0.0, 0.0], [1.0, 0.0]], [1.0], [0], ()), "need one radius per center"),
        (([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0], [0], ()), "need one id per ball"),
        (([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0], [0, 0], ()), _POSITIVE),
    ])
    def test_set_errors_in_order(self, balls, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            cv.BallSet(*balls)

    @pytest.mark.parametrize("target, shape", [
        (np.zeros((2, 2, 2)), r"got shape \(2, 2, 2\)"),
        ([[0.0, 0.0], [1.0]], "got a ragged or non-numeric list"),
        ([["a", "b"]], "got a ragged or non-numeric list"),
    ])
    def test_malformed_target_rejected(self, target, shape):
        with pytest.raises(DomainError, match=r"^target must be \(T, d\) points, " + shape):
            cv.make_ball_set([[0, 0], [1, 1]], [1, 2], target=target)
        with pytest.raises(DomainError, match=r"^target must be \(T, d\) points, " + shape):
            cv.BallSet([[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0], [0, 1], target=target)

    def test_ragged_centers_rejected(self):
        with pytest.raises(DomainError, match=f"^{_RAGGED}$"):
            cv.make_ball_set([[0.0, 0.0], [1.0]], [1.0, 2.0])

    @pytest.mark.parametrize("target", [(), [], np.zeros(0)])
    def test_empty_target_has_no_points(self, target):
        for bs in (cv.make_ball_set([[0.0, 0.0]], [1.0], target=target),
                   cv.BallSet([[0.0, 0.0]], [1.0], [0], target=target)):
            assert bs.target.shape == (0, 2)
            assert cv.verify_families(bs, cv.assign_families(bs))["target_cover"]["witnesses"] == []

    def test_scalar_target_is_one_point(self):
        assert cv.make_ball_set([[0.0]], [1.0], target=2.0).target.tolist() == [[2.0]]
        with pytest.raises(DomainError, match="^target dimension mismatch$"):
            cv.make_ball_set([[0.0, 0.0]], [1.0], target=2.0)

    def test_balls_equal_checked_balls(self):
        bs = cv.make_ball_set([[0.5, 1.5], [2.0, -1.0]], [0.25, 3.0])
        assert bs.balls == (cv.Ball((0.5, 1.5), 0.25, 0), cv.Ball((2.0, -1.0), 3.0, 1))
        assert all(type(b) is cv.Ball for b in bs.balls)
        assert [type(x) for b in bs.balls for x in b.center] == [float] * 4

    def test_arrays_are_read_only_copies(self):
        centers, radii = np.array([[0.0, 0.0], [5.0, 0.0]]), np.array([1.0, 2.0])
        bs = cv.make_ball_set(centers, radii)
        centers[0, 0] = radii[0] = 7.0
        assert bs.centers[0, 0] == 0.0 and bs.radii[0] == 1.0
        assert centers.flags.writeable
        for array in (bs.centers, bs.radii, bs.ids, bs.target):
            with pytest.raises(ValueError):
                array[...] = 0

    def test_by_id(self):
        bs = cv.make_ball_set([[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]], [1.0, 2.0, 3.0])
        assert bs.by_id(1) == cv.Ball((5.0, 0.0), 2.0, 1)
        assert bs.by_id(np.int64(2)).radius == 3.0
        with pytest.raises(DataIntegrityError, match="no ball with id 3"):
            bs.by_id(3)


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

    @pytest.mark.parametrize("c_bound", [np.nan, np.inf, -np.inf, 2.5, "3", [3]])
    def test_malformed_bound_rejected_before_any_work(self, c_bound, monkeypatch):
        bs = cv.make_ball_set([[0.0, 0.0], [3.0, 0.0]], [1.0, 1.1])

        def no_distances(diff):
            raise AssertionError("distances computed before the bound was checked")

        monkeypatch.setattr(cv, "_norms", no_distances)
        with pytest.raises(ParameterError, match="family bound must be a whole number"):
            cv.assign_families(bs, c_bound=c_bound)

    def test_whole_bounds_accepted(self):
        bs = cv.make_ball_set([[0.0, 0.0], [3.0, 0.0]], [1.0, 1.1])
        for c_bound in (2, 2.0, np.int64(2), np.float64(2.0)):
            fa = cv.assign_families(bs, c_bound=c_bound)
            assert fa.families == {0: 2, 1: 1} and fa.c_bound == 2
        for c_bound in (0, 0.0, -1):
            with pytest.raises(BoundExceededError, match=f"ball 1 needs family 1 > bound {c_bound}$"):
                cv.assign_families(bs, c_bound=c_bound)

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
            points, others = diff[:7], diff[7:40]
            scalar = [[np.linalg.norm(q - p) for q in others] for p in points]
            assert cv._norms(cv._differences(points, others)).tolist() == scalar
        for dim in (1, 2, 3, 4, 8, 9):
            # radius k is the distance from centre k to centre k + 1, as
            # np.linalg.norm of the difference rounds it, so that about half
            # the neighbour pairs sit exactly on the center-exclusion
            # threshold; the verifier must decide them as that norm does
            centers = rng.random((60, dim)) * 10.0 ** rng.uniform(-3, 3)
            radii = [np.linalg.norm(c - centers[(k + 1) % 60]) for k, c in enumerate(centers)]
            bs = cv.BallSet(centers, radii, range(60), target=np.zeros((0, dim)))
            fa = cv.FamilyAssignment(families={k: 1 + k % 2 for k in range(60)}, c_bound=2)
            assert cv.verify_families(bs, fa) == _verify_reference(bs, fa)

    def test_verifier_accepts_the_greedy_rounding(self):
        # R is |q - p| as one BLAS dot rounds it; an axis sum rounds this
        # pair's distance one ulp below R, which failed center exclusion
        rng = np.random.default_rng(1)
        for _ in range(8):  # trial 7, counting from 0
            p, q = rng.random(3), rng.random(3)
        big = float(np.linalg.norm(q - p))
        bs = cv.make_ball_set([p, q], [big, big / 4])
        fa = cv.assign_families(bs)
        assert fa.families == {0: 1, 1: 2}
        assert cv.verify_families(bs, fa)["all_passed"]

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
        grown = cv.BallSet(np.vstack([bs.centers, np.full(bs.dim, 0.5)]), np.append(bs.radii, smallest / 2.0),
                           np.append(bs.ids, 10_000), target=bs.target)
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
        bs = cv.BallSet(np.zeros((0, 2)), [], [], target=np.zeros((0, 2)))
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
        bad = cv.BallSet(doubled.centers, doubled.radii, doubled.ids, doubled.target,
                         sources=tuple(doubled.sources[:-1]))
        kept = {i for i, f in fa.families.items() if f > 0}
        if doubled.sources[-1].ball_id in kept:
            with pytest.raises(DataIntegrityError):
                cv.center_shift(bad, fa)
        missing = cv.BallSet(doubled.centers, doubled.radii, doubled.ids, doubled.target)
        with pytest.raises(DataIntegrityError):
            cv.center_shift(missing, fa)

    def test_offset_beyond_radius_rejected(self):
        src = cv.make_ball_set([[0.0, 0.0]], [0.5])
        with pytest.raises(DomainError):
            cv.double_balls(src.balls, [[1.0, 0.0]])

    def test_fewer_offsets_than_sources_rejected(self):
        src = cv.make_ball_set([[0.0, 0.0], [5.0, 0.0]], [1.0, 2.0])
        with pytest.raises(DomainError, match="one offset per source"):
            cv.double_balls(src.balls, [[0.1, 0.0]])

    def test_offsets_of_the_wrong_dimension_rejected(self):
        src = cv.make_ball_set([[0.0, 0.0], [5.0, 0.0]], [1.0, 2.0])
        with pytest.raises(DomainError, match="one offset per source"):
            cv.double_balls(src.balls, [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_sources_of_mixed_dimension_rejected(self):
        sources = (cv.Ball((0.0, 0.0), 1.0, 0), cv.Ball((5.0, 0.0, 0.0), 2.0, 1))
        with pytest.raises(DomainError, match="one dimension"):
            cv.double_balls(sources)

    def test_flat_offsets_rejected(self):
        # one scalar per source would shift every coordinate by it, sqrt(d)
        # times the norm that the radius check sees
        src = cv.make_ball_set([[0.0, 0.0], [5.0, 0.0]], [1.0, 2.0])
        with pytest.raises(DomainError, match="one offset per source"):
            cv.double_balls(src.balls, [0.7, 0.3])

    @pytest.mark.parametrize("offsets, message", [
        ([[np.nan, 0.0], [5.0, 0.0]], _FINITE),
        ([[5.0, 0.0], [np.nan, 0.0]], "recentering offset exceeds the source radius"),
        ([[0.0, 0.0], [np.inf, 0.0]], "recentering offset exceeds the source radius"),
    ])
    def test_first_offending_source_decides(self, offsets, message):
        src = cv.make_ball_set([[0.0, 0.0], [5.0, 5.0]], [1.0, 2.0])
        with pytest.raises(DomainError, match=f"^{message}$"):
            cv.double_balls(src.balls, offsets)

    def test_offset_of_exactly_the_radius_accepted(self):
        src = cv.make_ball_set([[0.0, 0.0], [50.0, 0.0]], [5.0, 2.0])
        doubled = cv.double_balls(src.balls, [[3.0, 4.0], [0.0, -2.0]])
        assert doubled.balls == (cv.Ball((3.0, 4.0), 10.0, 0), cv.Ball((50.0, -2.0), 4.0, 1))
        assert np.array_equal(doubled.target, src.centers)
        assert doubled.sources == src.balls


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
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                dist = np.linalg.norm(centers[i] - centers[j])
                if fams[i] == fams[j] and dist <= disjoint * (radii[i] + radii[j]):
                    report["intra_family_disjoint"]["passed"] = False
                    report["intra_family_disjoint"]["witnesses"].append(
                        (kept[i].ball_id, kept[j].ball_id))
                if dist < max(radii[i], radii[j]):
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


def _greedy_keeps(n_kept, dim, seed):
    """A crowded ball set on which the greedy rule keeps exactly ``n_kept``
    balls: the balls of a larger one down to its ``n_kept``-th kept ball,
    which the rule, taking balls in decreasing radius order, decides as in
    the larger set."""
    rng = np.random.default_rng(seed)
    n = 3 * n_kept + 40
    centers = rng.random((n, dim))
    # radii up to 10^-1.3 in 2-D and 10^-1 in 3-D: the prefix holds ruled-out
    # balls, and the larger set keeps at least 3 _ROWS + 5
    top = -1.3 if dim == 2 else -1.0
    bs = cv.make_ball_set(centers, 10.0 ** rng.uniform(-3.0, top, n), seed=seed)
    fa = cv.assign_families(bs, c_bound=n)
    kept = np.sort([b.radius for b in bs.balls if fa.families[b.ball_id]])[::-1]
    keep = bs.radii >= kept[n_kept - 1]
    return cv.make_ball_set(centers[keep], bs.radii[keep], target=centers[keep][:5])


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

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [cv._ROWS - 1, cv._ROWS, cv._ROWS + 1, 3 * cv._ROWS + 5])
    def test_block_boundaries(self, n, dim):
        # radii as in the benchmark: in 3-D nearly every ball is kept, in
        # 2-D many are ruled out, and a bound of 3 binds in some block
        rng = np.random.default_rng(100 * n + dim)
        centers = rng.random((n, dim))
        bs = cv.make_ball_set(centers, 10.0 ** rng.uniform(-4, -1, n), target=centers[:3], seed=n)
        assert cv.assign_families(bs, c_bound=n).families == _assign_reference(bs, c_bound=n).families
        assert (_assign_outcome(cv.assign_families, bs, 3)
                == _assign_outcome(_assign_reference, bs, 3))

    def test_bound_exceeded_past_the_first_block(self):
        # the collinear chain with K = 8, split by far-away fillers whose
        # radii lie between those of chain balls 4 and 5: chain balls 8..5
        # are kept in the first block, 4..1 and the tiny ball at 0 fall in
        # the second, so the tiny ball's blockers lie on both sides of the
        # block boundary.  Ball z at (-19.005, 0), radius 1.9, joins family 1
        # inside the second block and blocks only the tiny ball, so family
        # 1 has a blocker on each side: the witness names the first kept
        K, fillers = 8, cv._ROWS - 2
        k = np.arange(1, K + 1)
        chain = np.zeros((K + 1, 2))
        chain[1:, 0] = 2.0 ** k
        far = np.stack([np.zeros(fillers), 1e4 * np.arange(1, fillers + 1)], axis=1)
        centers = np.concatenate([chain, far, [[-19.005, 0.0]]])
        radii = np.concatenate(([1e-3], 2.0 ** k / 10, 2.0 + 1e-3 * np.arange(fillers), [1.9]))
        bs = cv.make_ball_set(centers, radii)
        z = len(radii) - 1
        position = {b.ball_id: n for n, b in enumerate(sorted(bs.balls, key=lambda b: -b.radius))}
        start = position[0] // cv._ROWS * cv._ROWS
        assert start > 0
        assert {position[i] < start for i in k} == {True, False}
        assert start < position[z] < position[0]
        assert cv.assign_families(bs, c_bound=K + 1).families[z] == 1
        with pytest.raises(BoundExceededError) as err:
            cv.assign_families(bs, c_bound=K)
        assert err.value.witness["ball"].ball_id == 0
        assert sorted(err.value.witness["blockers"]) == list(range(1, K + 1))
        assert err.value.witness["blockers"][1] == ((256.0, 0.0), 25.6)
        assert (_assign_outcome(cv.assign_families, bs, K)
                == _assign_outcome(_assign_reference, bs, K))

    def test_verify_at_benchmark_scale(self):
        rng = np.random.default_rng(21)
        centers = rng.random((700, 3))
        bs = cv.make_ball_set(centers, 10.0 ** rng.uniform(-4, -1, 700), target=centers[:10], seed=21)
        fa = cv.assign_families(bs, c_bound=700)
        assert sum(f > 0 for f in fa.families.values()) >= 500
        for assignment in (fa, _corrupt(fa, 21)):
            assert cv.verify_families(bs, assignment) == _verify_reference(bs, assignment)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n_kept", [cv._ROWS - 1, cv._ROWS, cv._ROWS + 1, 3 * cv._ROWS + 5])
    def test_verify_block_boundaries(self, n_kept, dim):
        bs = _greedy_keeps(n_kept, dim, seed=10 * n_kept + dim)
        fa = cv.assign_families(bs, c_bound=len(bs.balls))
        assert sum(f > 0 for f in fa.families.values()) == n_kept < len(bs.balls)
        # every ruled-out ball revived: each one's center lies in a kept ball
        revived = cv.FamilyAssignment({i: f or 1 + i % 3 for i, f in fa.families.items()}, fa.c_bound)
        for assignment in (fa, _corrupt(fa, n_kept), revived):
            assert cv.verify_families(bs, assignment) == _verify_reference(bs, assignment)
        report = cv.verify_families(bs, revived)
        assert report["intra_family_disjoint"]["witnesses"] and report["center_exclusion"]["witnesses"]

    @pytest.mark.parametrize("scale", [2.0 ** -520, 2.0 ** -530])
    def test_pairs_whose_squares_underflow(self, scale):
        # centres and radii so small that squared coordinate differences are
        # subnormal or zero: the screen must still keep every pair that the
        # verifier's distances decide
        rng = np.random.default_rng(8)
        for dim in (1, 2, 3, 9):
            centers = rng.random((40, dim)) * scale
            radii = rng.permutation(np.arange(1, 41)) / 40 * scale / 6
            bs = cv.BallSet(centers, radii, range(40), target=np.zeros((0, dim)))
            fa = cv.FamilyAssignment(families={k: 1 + k % 2 for k in range(40)}, c_bound=2)
            report = cv.verify_families(bs, fa)
            assert report == _verify_reference(bs, fa)
            assert report["intra_family_disjoint"]["witnesses"]

    def test_verify_scratch_memory_is_blockwise(self):
        # 3000 kept balls make 4.5 million pairs, 36 MB for one int64 entry
        # per pair; a block of _ROWS rows holds 1.5 MB per float array
        rng = np.random.default_rng(3)
        n = 3000
        bs = cv.make_ball_set(rng.random((n, 3)), 10.0 ** rng.uniform(-4, -3, n))
        fa = cv.FamilyAssignment(families={k: 1 + k % 24 for k in range(n)}, c_bound=24)
        tracemalloc.start()
        try:
            cv.verify_families(bs, fa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * cv._ROWS * n

    def test_pairs_on_the_disjointness_threshold_are_kept(self):
        # two balls in 9-D whose centre distance, as np.linalg.norm rounds
        # it, is exactly 6 (r + r'): pdist rounds a few such pairs above the
        # threshold, and the verifier must still report every one
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(100):
            p = rng.random(9)
            r = rng.choice(np.arange(1, 65) / 64.0, 2, replace=False)  # 6 (r + r') exact
            thresh = cv.DISJOINT * (r[0] + r[1])
            u = rng.normal(size=9)
            q = p + thresh * u / np.linalg.norm(u)
            c = int(np.argmax(np.abs(u)))  # walk one coordinate an ulp at a time
            for _ in range(50):
                dist = np.linalg.norm(q - p)
                if dist == thresh:
                    break
                q[c] = np.nextafter(q[c], p[c] if dist > thresh else 2 * q[c] - p[c])
            else:
                continue
            found += 1
            bs = cv.BallSet([p, q], r, [0, 1], target=np.zeros((0, 9)))
            fa = cv.FamilyAssignment(families={0: 1, 1: 1}, c_bound=1)
            report = cv.verify_families(bs, fa)
            assert report["intra_family_disjoint"]["witnesses"] == [(0, 1)]
            assert report == _verify_reference(bs, fa)
        assert found >= 50
