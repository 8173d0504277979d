"""Tests for the finite-difference Riemannian calculus core."""

import dataclasses
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conelab import barrier, cones, grids
from conelab.cones import DeformedCone, deformed_metric, make_cone
from conelab.errors import (
    BoundaryMarginError,
    DegenerateLevelSetError,
    DomainError,
    SingularMetricError,
)
from conelab.fields import (
    TrigField,
    const_factor,
    cylinder_metric,
    diagonal_metric_field,
    flat_metric,
    func2_factor,
    sin2_factor,
)
from conelab.grids import (
    AnalyticMetric,
    Chart,
    MetricField,
    christoffel,
    conformal_deform,
    conformal_scal,
    conformal_shape_shift,
    level_set_shape,
    scalar_curvature,
)
from conelab.jets import Jet
from oracles import (
    CoordinateField,
    RadiusField,
    check_metric_unblocked,
    polar_metric,
    power2_factor,
    scal_from_jet_full,
    sphere_metric,
)


def _cube_chart(dim, lo, hi, count):
    return Chart(tuple((lo, hi, count) for _ in range(dim)))


def _center(chart):
    return tuple(s // 2 for s in chart.shape)


def _metric(m):
    """The metric of a MetricField at every node, as one array."""
    return m.factor[..., None, None] * m.g


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

class TestConstruction:
    def test_chart_needs_five_samples(self):
        with pytest.raises(DomainError):
            Chart(((0.0, 1.0, 4), (0.0, 1.0, 5)))

    @pytest.mark.parametrize("count", [7.5, 7.0, True, "7", np.float64(9.0)])
    def test_chart_counts_must_be_integers(self, count):
        # a fractional count would give spacings 1/(count - 1) that are not
        # those of the int(count) nodes of coords_1d
        with pytest.raises(DomainError, match="integers"):
            Chart(((0.0, 1.0, count),) * 3)

    def test_chart_accepts_numpy_integer_counts(self):
        chart = Chart(((0.0, 1.0, np.int64(7)),) * 3)
        assert chart.shape == (7, 7, 7)
        np.testing.assert_array_equal(chart.spacings, 1.0 / 6.0)

    def test_metric_must_be_symmetric(self):
        chart = _cube_chart(2, 0.0, 1.0, 5)
        g = np.broadcast_to(np.eye(2), chart.shape + (2, 2)).copy()
        g[2, 2, 0, 1] = 0.5
        with pytest.raises(DomainError):
            MetricField(chart, g)

    def test_metric_must_be_positive_definite(self):
        chart = _cube_chart(2, 0.0, 1.0, 5)
        g = np.broadcast_to(np.diag([1.0, -1.0]), chart.shape + (2, 2)).copy()
        with pytest.raises(SingularMetricError):
            MetricField(chart, g)

    def test_pivot_tolerance(self):
        chart = _cube_chart(2, 0.0, 1.0, 5)
        g = np.broadcast_to(np.diag([1.0, 1e-30]), chart.shape + (2, 2)).copy()
        with pytest.raises(SingularMetricError):
            MetricField(chart, g)

    def test_one_representation_per_field_type(self):
        assert [f.name for f in dataclasses.fields(MetricField)] == ["chart", "g", "factor"]
        assert [f.name for f in dataclasses.fields(AnalyticMetric)] == ["chart", "jet_fn"]
        # a sampled field reports no callbacks, and sampling drops them
        chart = _cube_chart(2, 1.0, 2.0, 5)
        m = MetricField.from_function(chart, polar_metric(chart).metric_fn)
        assert (m.metric_fn, m.dmetric_fn, m.d2metric_fn) == (None, None, None)
        # a field built without a factor has 1 at every node, stored once
        assert m.factor.shape == chart.shape and m.factor.strides == (0, 0) and (m.factor == 1.0).all()


#: a bad value of g, and the error the symmetric-plus-pivot rule raises for it
_BAD_METRICS = {
    "indefinite": (np.diag([1.0, -1.0]), SingularMetricError),
    "asymmetric": (np.array([[1.0, 0.5], [0.0, 1.0]]), DomainError),
    "pivot": (np.diag([1.0, 1e-30]), SingularMetricError),
}


def _bad_beyond(bad):
    """Analytic field on the unit square (x0 = i/8 at node i) whose g is the
    identity for x0 <= 0.55 and the matrix ``bad`` beyond; derivatives are
    zero."""

    def jet_fn(x, orders):
        x0 = np.asarray(x, dtype=float)[..., 0]
        g = np.where((x0 > 0.55)[..., None, None], bad, np.eye(2))
        return tuple(g if order == 0 else np.zeros(np.shape(x)[:-1] + (2,) * (order + 2))
                     for order in orders)

    return AnalyticMetric(_cube_chart(2, 0.0, 1.0, 9), jet_fn)


@pytest.mark.parametrize("kind", sorted(_BAD_METRICS))
class TestAnalyticValidation:
    """An AnalyticMetric is validated at the points it is evaluated at."""

    def test_evaluated_node(self, kind):
        m = _bad_beyond(_BAD_METRICS[kind][0])
        assert scalar_curvature(m, (4, 4)) == 0.0
        with pytest.raises(_BAD_METRICS[kind][1]):
            scalar_curvature(m, (5, 4))

    def test_batched_jet_with_one_bad_point(self, kind):
        m = _bad_beyond(_BAD_METRICS[kind][0])
        g, _, _ = m.jet(np.array([[0.5, 0.5], [0.25, 0.5]]))
        np.testing.assert_array_equal(g, [np.eye(2)] * 2)
        with pytest.raises(_BAD_METRICS[kind][1]):
            m.jet(np.array([[0.5, 0.5], [0.625, 0.5], [0.25, 0.5]]))


class TestNonFiniteMetric:
    """A metric with an infinite or NaN entry is rejected, not evaluated."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_sampled_field(self, bad, entry):
        chart = _cube_chart(2, 0.0, 1.0, 5)
        g = np.broadcast_to(np.eye(2), chart.shape + (2, 2)).copy()
        g[(2, 3) + entry] = g[(2, 3) + entry[::-1]] = bad
        with pytest.raises(DomainError, match="not finite"):
            MetricField(chart, g)

    def test_batched_jet(self):
        m = _bad_beyond(np.diag([np.inf, 1.0]))
        assert scalar_curvature(m, (4, 4)) == 0.0
        with pytest.raises(DomainError, match="not finite"):
            m.jet(np.array([[0.5, 0.5], [0.625, 0.5], [0.25, 0.5]]))


def _reference_check(g):
    """Error type the symmetric-plus-pivot rule raises for g, or None: one
    LAPACK Cholesky per block."""
    n = g.shape[-1]
    flat = g.reshape(-1, n, n)
    if not np.isfinite(flat).all():
        return DomainError
    if not np.allclose(flat, np.swapaxes(flat, -1, -2), atol=1e-12, rtol=0.0):
        return DomainError
    for block in flat:
        try:
            chol = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return SingularMetricError
        if np.diag(chol).min() <= 1e-12:
            return SingularMetricError
    return None


def _metric_batch(kind, n, batch, seed):
    """SPD blocks with one block made bad according to kind.

    indefinite: one negative eigenvalue; asymmetric: g_ij moved by 1.01e-12
    to 1e-6, or by at most 0.99e-12, which the rule accepts; near-singular:
    one Cholesky pivot p at 1e-3 to 0.99 or 1.01 to 100 times the 1e-12
    tolerance, in a row with no other entry left of the diagonal, so that p
    is recovered to a few ulp."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (batch, n, n))
    g = a @ np.swapaxes(a, -1, -2) + n * np.eye(n)
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    k = rng.integers(batch)
    if kind == "indefinite":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eig = rng.uniform(0.5, 2.0, n)
        eig[rng.integers(n)] = -rng.uniform(1e-3, 1.0)
        g[k] = q @ np.diag(eig) @ q.T
        g[k] = 0.5 * (g[k] + g[k].T)
    elif kind in ("asymmetric", "within-tolerance"):
        i, j = rng.choice(n, 2, replace=False)
        if kind == "asymmetric":
            g[k, i, j] += 10.0 ** rng.uniform(np.log10(1.01e-12), -6)
        else:
            g[k, i, j] += rng.uniform(0.0, 0.99e-12)
    elif kind == "near-singular":
        low = np.tril(rng.uniform(-1.0, 1.0, (n, n)), -1) + np.diag(rng.uniform(0.5, 2.0, n))
        j = rng.integers(n)
        low[j, :j] = 0.0
        below, above = rng.uniform(-3, np.log10(0.99)), rng.uniform(np.log10(1.01), 2)
        low[j, j] = 1e-12 * 10.0 ** rng.choice([below, above])
        g[k] = low @ low.T
        g[k] = 0.5 * (g[k] + g[k].T)
    return g


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["spd", "indefinite", "asymmetric", "within-tolerance", "near-singular"]),
    n=st.integers(2, 8),
    batch=st.integers(1, 500),
    seed=st.integers(0, 2**32 - 1),
)
def test_check_metric_matches_per_block_lapack(kind, n, batch, seed):
    """The column Cholesky over all blocks accepts and rejects exactly like
    a per-block LAPACK Cholesky with the same symmetry and pivot bounds."""
    g = _metric_batch(kind, n, batch, seed)
    expected = _reference_check(g)
    if kind in ("spd", "within-tolerance"):
        assert expected is None
    elif kind != "near-singular":
        assert expected is not None
    if expected is None:
        grids._check_metric(g)
    else:
        with pytest.raises(expected) as info:
            grids._check_metric(g)
        assert type(info.value) is expected


def _spd_nodes(count, n=3):
    """count copies of one SPD (n, n) block: 49^3 = 117649 nodes are 28
    whole blocks of 4096 and a partial one of 3961."""
    return np.broadcast_to(np.eye(n) + 0.1, (count, n, n)).copy()


def _not_pd(g, k):
    g[k] = np.diag([1.0, -1.0, 1.0])


def _tiny_pivot(g, k):
    g[k] = np.diag([1.0, 1.0, (0.99e-12) ** 2])


_LATE = 49**3 - 1  # the last node, in the partial last block
_MID = 20 * 4096 + 17  # a node in a whole late block


@pytest.mark.parametrize(
    "spoil, error, message",
    [
        (lambda g: g.__setitem__((_LATE, 0, 0), np.nan),
         DomainError, "metric not finite at every node"),
        (lambda g: (g.__setitem__((_MID, 1, 1), np.nan), _not_pd(g, 0)),
         DomainError, "metric not finite at every node"),
        (lambda g: (g.__setitem__((_MID, 0, 2), g[_MID, 0, 2] + 1e-9), _not_pd(g, 0)),
         DomainError, "metric not symmetric at every node"),
        (lambda g: _tiny_pivot(g, _LATE),
         SingularMetricError, "metric pivot below tolerance 1e-12"),
        # the pivot tolerance is tested after every block has factored
        (lambda g: (_tiny_pivot(g, 0), _not_pd(g, _LATE)),
         SingularMetricError, "metric not positive definite"),
    ],
    ids=["nan-in-partial-block", "nan-late-not-pd-first", "asymmetric-late-not-pd-first",
         "tiny-pivot-late", "tiny-pivot-first-not-pd-late"],
)
def test_blocked_check_raises_what_one_pass_raises(spoil, error, message):
    """Blocks of grids._BLOCK nodes raise the type and message of one pass
    over all nodes, whichever block each defect sits in."""
    assert 49**3 % grids._BLOCK != 0
    g = _spd_nodes(49**3)
    spoil(g)
    g = g.reshape(49, 49, 49, 3, 3)
    for check in (check_metric_unblocked, grids._check_metric):
        with pytest.raises(error) as info:
            check(g)
        assert (type(info.value), str(info.value)) == (error, message)


def test_blocked_check_accepts_a_valid_grid_of_partial_blocks():
    grids._check_metric(_spd_nodes(49**3).reshape(49, 49, 49, 3, 3))


def test_blocked_check_accepts_no_nodes_like_one_pass():
    # an empty point batch has no failed test, as in one pass over all nodes
    for check in (check_metric_unblocked, grids._check_metric):
        check(np.zeros((0, 3, 3)))


def _spoiled_block(kind):
    """One (3, 3) node block that fails the test ``kind`` (or none)."""
    g = np.eye(3) + 0.1
    if kind == "nan":
        g[1, 2] = np.nan
    elif kind == "asymmetric":
        g[0, 2] += 1e-9
    elif kind == "not-pd":
        g = np.diag([1.0, -1.0, 1.0])
    elif kind == "tiny-pivot":
        g = np.diag([1.0, 1.0, (0.99e-12) ** 2])
    return g


@pytest.mark.parametrize("kind", ["spd", "nan", "asymmetric", "not-pd", "tiny-pivot"])
@pytest.mark.parametrize("source", [(1, 1, 1), (1, 9, 1), (7, 1, 1)])
def test_stride_zero_metric_checked_like_its_copy(kind, source):
    """A broadcast view (node axes of stride 0) raises the type and message
    that its materialized copy raises, or passes like it."""
    g = np.broadcast_to(np.eye(3) + 0.1, source + (3, 3)).copy()
    g[tuple(np.subtract(source, 1))] = _spoiled_block(kind)
    view = np.broadcast_to(g, (7, 9, 5, 3, 3))
    assert 0 in view.strides[:3]
    outcomes = []
    for check, arr in ((grids._check_metric, view), (grids._check_metric, view.copy()),
                       (check_metric_unblocked, view.copy())):
        try:
            check(arr)
            outcomes.append(None)
        except (DomainError, SingularMetricError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert (outcomes[0] is None) == (kind == "spd")


def test_stride_zero_entries_are_not_collapsed():
    # only node axes collapse: a block whose entries share memory is the
    # rank-one all-ones matrix, which is singular
    g = np.broadcast_to(1.0, (5, 5, 2, 2))
    for arr in (g, g.copy()):
        with pytest.raises(SingularMetricError, match="not positive definite"):
            grids._check_metric(arr)


def test_flat_metric_is_a_read_only_view():
    m = flat_metric(_cube_chart(3, 0.0, 1.0, 7))
    assert not m.g.flags.writeable
    assert m.g.strides[:3] == (0, 0, 0)
    with pytest.raises(ValueError):
        m.g[3, 3, 3, 0, 0] = 2.0


def test_conformal_deform_of_view_equals_copy():
    chart = _cube_chart(3, -0.5, 0.5, 9)
    u = TrigField.random(3, 4).on_chart(chart)
    view = flat_metric(chart)
    copied = MetricField(chart, view.g.copy())
    for factor in (u, 1.7):
        a, b = conformal_deform(view, factor), conformal_deform(copied, factor)
        assert _metric(a).tobytes() == _metric(b).tobytes()
        assert scalar_curvature(a, (4, 4, 4)) == scalar_curvature(b, (4, 4, 4))


def _outcome(build):
    """None if build() passes, else the (type, message) of its metric error."""
    try:
        build()
    except (DomainError, SingularMetricError) as exc:
        return type(exc), str(exc)
    return None


def _near(x, threshold):
    """Some positive finite entry of x lies within 1e-9 relative of threshold."""
    x = x[np.isfinite(x) & (x > 0)]
    return bool((np.abs(np.log(x) - np.log(threshold)) < 1e-9).any())


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["spd", "indefinite", "asymmetric", "within-tolerance", "near-singular", "non-finite"]),
    n=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    # half the scales where the tolerances of the bases lie
    log_scale=st.one_of(st.floats(-30.0, 200.0), st.floats(-30.0, 10.0)),
    spread=st.sampled_from([0.0, 0.0, 0.3, 0.3, 230.0]),
    spoil=st.sampled_from([None, None, None, 0.0, -1.0, np.inf, -np.inf, np.nan, 1e-40]),
    base=st.sampled_from(["per-node", "per-node", "one node", "axis 0 broadcast", "last axis broadcast"]),
)
def test_factor_form_decides_like_the_materialized_product(kind, n, seed, log_scale, spread, spoil, base):
    """MetricField(chart, g, f) raises the class and message of the full
    check on the product f g, or passes like it, and its scal is the
    product's bit for bit.  f spans 1e-30 to 1e200 and, with the widest
    spread, overflows to inf; ``spoil`` puts 0, -f, +-inf, NaN or a factor
    whose pivot is below tolerance at one node.  The base g has a node of
    its own at every node, or is one node broadcast along every node axis
    or along one, where the factor is decided by its extremes."""
    chart = Chart(((0.0, 1.0, 7), (0.0, 1.0, 9)) if n == 2 else ((0.0, 1.0, 7),) * 2 + ((0.0, 1.0, 8),))
    rng = np.random.default_rng(seed)
    batch = int(np.prod(chart.shape))
    if kind == "non-finite":
        g = _metric_batch("spd", n, batch, seed)
        g[rng.integers(batch), rng.integers(n), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
    else:
        g = _metric_batch(kind, n, batch, seed)
    g = g.reshape(chart.shape + (n, n))
    if base != "per-node":
        # the node of g that carries its defect, broadcast along stride-0 axes
        k = np.unravel_index(np.argmax(np.abs(g - np.eye(n)).max((-2, -1))), chart.shape)
        keep = {"one node": (), "axis 0 broadcast": (1, 2)[:n - 1], "last axis broadcast": (0, 1)[:n - 1]}[base]
        cut = tuple(slice(None) if ax in keep else slice(k[ax], k[ax] + 1) for ax in range(n))
        g = np.broadcast_to(g[cut], g.shape)
        assert 0 in g.strides[:n]
    with np.errstate(over="ignore"):
        f = 10.0 ** (log_scale + spread * rng.uniform(0.0, 1.0, batch))
    # rounding at a tie may differ between f g and its tests on g: keep away
    # (a non-finite node fails the first test whatever its f)
    nodes = g.reshape(batch, n, n)
    tested = np.where(np.isfinite(nodes).all((1, 2), keepdims=True), nodes, np.eye(n))
    scale = np.abs(tested).max((1, 2))
    asym = np.abs(tested - tested.swapaxes(1, 2)).max((1, 2))
    pivot = np.array([np.diag(np.linalg.cholesky(b)).min() if np.linalg.eigvalsh(b).min() > 0 else np.nan
                      for b in tested])
    if spoil is not None:
        # at a most asymmetric node, where the sign of f meets the symmetry test
        k = rng.choice(np.flatnonzero(asym == asym.max()))
        f[k] = spoil * f[k] if spoil < 0 else spoil
    with np.errstate(over="ignore", invalid="ignore"):
        assume(not _near(f * scale, np.finfo(float).max))
        assume(not _near(np.abs(f) * asym, 1e-12))
        assume(not _near(np.sqrt(f) * pivot, 1e-12))
        product = f[:, None, None] * nodes
    f, product = f.reshape(chart.shape), product.reshape(chart.shape + (n, n))
    expected = _outcome(lambda: MetricField(chart, product))
    assert _outcome(lambda: MetricField(chart, g, f)) == expected
    if expected is None:
        nodes = np.stack(np.meshgrid(*[np.arange(3, c - 3) for c in chart.shape], indexing="ij"), -1)
        with np.errstate(all="ignore"):
            got, want = (scalar_curvature(MetricField(chart, *args), nodes) for args in ((g, f), (product,)))
        assert got.tobytes() == want.tobytes()


def test_identity_base_pivots_are_sqrt_factor():
    # the Cholesky factor of f I is sqrt(f) I to the bit, so the factor form
    # decides the pivot tolerance exactly, also at the tie sqrt(f) = 1e-12
    f = np.concatenate([10.0 ** np.linspace(-30.0, 200.0, 47),
                        np.nextafter(1e-24, [0.0, 1e-24, 1.0])])
    product = f[:, None, None] * np.eye(3)
    pivots = grids._per_node(product, lambda a: grids._cholesky_pivots(a, np.zeros(product.size)))
    assert pivots.tobytes() == np.sqrt(f).tobytes()
    chart = _cube_chart(3, 0.0, 1.0, 5)
    eye = flat_metric(chart).g
    for fk in f:
        assert _outcome(lambda: MetricField(chart, eye, fk)) == _outcome(
            lambda: MetricField(chart, np.broadcast_to(fk * np.eye(3), eye.shape)))


def test_deformed_flat_metric_stores_one_float_per_node():
    # the deformed 97^3 flat metric once held a fresh (97^3, 3, 3) product
    chart = _cube_chart(3, 0.0, 1.0, 97)
    u = np.linspace(1.0, 2.0, 97**3).reshape(chart.shape)
    m = conformal_deform(flat_metric(chart), u)
    assert m.factor.nbytes == 8 * 97**3 and m.factor.strides == (8 * 97**2, 8 * 97, 8)
    assert m.g.strides[:3] == (0, 0, 0)
    np.testing.assert_array_equal(m.factor, u**4)

def test_deforming_by_a_scalar_keeps_one_float():
    # a scalar u on a stride-0 factor once materialized and validated every
    # node, 0.9 MB at 49^3
    chart = _cube_chart(3, 0.0, 1.0, 49)
    flat = flat_metric(chart)
    copied = MetricField(chart, flat.g.copy(), np.ones(chart.shape))
    tracemalloc.start()
    try:
        m = conformal_deform(flat, 1.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.factor.strides == (0, 0, 0) and m.g.strides[:3] == (0, 0, 0)
    assert peak < 8 * 49**3 / 100  # no per-node array, not even a bool mask
    assert _metric(m).tobytes() == _metric(conformal_deform(copied, 1.7)).tobytes()


@pytest.mark.parametrize("shape", [(5,), (5, 5), (4, 4, 4), (5, 5, 5, 1)])
@pytest.mark.parametrize("build", ["conformal_deform", "MetricField"])
def test_mis_shaped_factor_rejected(build, shape):
    # (5,) and (5, 5) were broadcast along the last node axes, and (4, 4, 4)
    # raised a bare numpy ValueError
    chart = _cube_chart(3, 0.0, 1.0, 5)
    flat = flat_metric(chart)
    with pytest.raises(DomainError) as info:
        if build == "conformal_deform":
            conformal_deform(flat, np.full(shape, 2.0))
        else:
            MetricField(chart, flat.g, np.full(shape, 2.0))
    assert f"{shape}" in str(info.value) and f"{chart.shape}" in str(info.value)


def test_sampled_fields_are_read_only():
    # a write into a deformed field's g once turned a validated metric
    # indefinite at a node, and scalar_curvature read it without an error
    chart = _cube_chart(3, 0.0, 1.0, 9)
    u = TrigField.random(3, seed=5).value(chart.mesh())
    fields = {
        "deformed": conformal_deform(flat_metric(chart), u),
        "deformed-analytic": conformal_deform(cylinder_metric(3), 1.5),
        "from_function": MetricField.from_function(chart, lambda x: np.eye(3) + 0.0 * x[..., None]),
        "given": MetricField(chart, np.asarray(flat_metric(chart).g).copy(), u.copy()),
    }
    for m in fields.values():
        for a in (m.g, m.factor):
            with pytest.raises(ValueError, match="read-only"):
                a[(4,) * 3] = -1.0


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_mesh_and_trig_field_equal_out_of_place_formulas(dim, seed):
    """Chart.mesh and every TrigField accessor, which work in place, equal
    the out-of-place formulas to the byte on a mesh, a slice of it and one
    point."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 1.0, size=dim)
    chart = Chart(tuple((a, a + rng.uniform(0.1, 3.0), int(rng.integers(5, 9))) for a in lo))
    mesh = chart.mesh()
    grids_ = np.meshgrid(*[chart.coords_1d(i) for i in range(dim)], indexing="ij")
    assert mesh.tobytes() == np.stack(grids_, axis=-1).tobytes()
    assert mesh.shape == chart.shape + (dim,)

    u = TrigField.random(dim, seed=seed)
    kk = np.einsum("mi,mj->mij", u.waves, u.waves)
    k2 = np.einsum("mi,mi->m", u.waves, u.waves)
    for x in (mesh, mesh[1:4, 2], mesh[(2,) * dim]):
        args = np.tensordot(x, u.waves, axes=([-1], [1])) + u.phases
        want = {
            "value": u.base + np.cos(args) @ u.amps,
            "grad": -np.tensordot(np.sin(args) * u.amps, u.waves, axes=([-1], [0])),
            "hess": -np.tensordot(np.cos(args) * u.amps, kk, axes=([-1], [0])),
            "laplacian": -(np.cos(args) * u.amps) @ k2,
        }
        for name, w in want.items():
            got = getattr(u, name)(x)
            assert np.shape(got) == np.shape(w)
            assert np.asarray(got).tobytes() == np.asarray(w).tobytes(), name


class _Grid(Chart):
    """A Chart without its stencil checks: any dimension, counts >= 2."""

    def __post_init__(self):
        pass


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
@example(dim=3, seed=11, data=None)
def test_on_chart_equals_value_on_the_mesh(dim, seed, data):
    """TrigField.on_chart equals value on the mesh to a bound derived from
    the sizes of the arguments.  value rounds k.x + phi once per term before
    its cos, up to eps (|phi| + n sum_c |k_c x_c|); on_chart rounds each
    k_c x_c and each exponential, and multiplies n + 1 unit complex numbers
    (sqrt(5) eps each), so a wave j differs by at most amp_j (|phi_j| +
    5 sum_c |k_jc| max|x_c| + 16) eps, and the sum over the waves and the
    base adds 4 eps max|u|."""
    rng = np.random.default_rng(seed)
    if data is None:
        counts = [33] * dim
    else:
        counts = data.draw(st.lists(st.integers(2, 12), min_size=dim, max_size=dim))
    lo = rng.uniform(-4.0, 4.0, dim)
    grid = _Grid(tuple((a, a + rng.uniform(0.1, 3.0), c) for a, c in zip(lo, counts)))
    u = TrigField.random(dim, seed=seed)
    want, got = u.value(grid.mesh()), u.on_chart(grid)
    assert got.shape == grid.shape
    eps = np.finfo(float).eps
    xmax = np.array([max(abs(a), abs(b)) for a, b, _ in grid.axes])
    wave = u.amps * (np.abs(u.phases) + 5.0 * np.abs(u.waves) @ xmax + 16.0) * eps
    assert np.abs(got - want).max() <= wave.sum() + 4.0 * eps * np.abs(want).max()

# ---------------------------------------------------------------------------
# christoffel symbols
# ---------------------------------------------------------------------------

class TestChristoffel:
    def test_flat_is_zero(self):
        m = flat_metric(_cube_chart(3, 0.0, 1.0, 7))
        np.testing.assert_allclose(christoffel(m, _center(m.chart)), 0.0, atol=1e-14)

    def test_polar_hand_values(self):
        # g = diag(1, r^2) at r = 2: Gamma^r_tt = -2, Gamma^t_rt = 1/2
        chart = Chart(((1.0, 3.0, 201), (0.0, 1.0, 5)))
        m = polar_metric(chart)
        p = (100, 2)
        assert np.isclose(chart.node_coords(p)[0], 2.0)
        gam = christoffel(m, p)
        assert np.isclose(gam[0, 1, 1], -2.0, atol=1e-12)
        assert np.isclose(gam[1, 0, 1], 0.5, atol=1e-12)
        assert np.isclose(gam[1, 1, 0], 0.5, atol=1e-12)

    def test_polar_stencil_path_matches_analytic(self):
        chart = Chart(((1.0, 3.0, 201), (0.0, 1.0, 5)))
        analytic = polar_metric(chart)
        sampled = MetricField.from_function(chart, analytic.metric_fn)
        p = (100, 2)
        np.testing.assert_allclose(
            christoffel(sampled, p), christoffel(analytic, p), atol=1e-8
        )

    def test_sphere_value(self):
        # Gamma^theta_phiphi = -sin(pi/4)cos(pi/4) at theta = pi/4
        chart = Chart(((np.pi / 4 - 0.2, np.pi / 4 + 0.2, 9), (0.0, 1.0, 5)))
        m = sphere_metric(chart, radius=1.0)
        gam = christoffel(m, (4, 2))
        assert np.isclose(gam[0, 1, 1], -np.sin(np.pi / 4) * np.cos(np.pi / 4))

    def test_lower_index_symmetry(self):
        chart = _cube_chart(3, 0.2, 1.2, 7)
        rng = np.random.default_rng(7)
        u = TrigField.random(3, seed=11)
        m = conformal_deform(flat_metric(chart), u.on_chart(chart))
        gam = christoffel(m, _center(chart))
        np.testing.assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=0, rtol=0)
        del rng

    def test_margin_enforced(self):
        m = flat_metric(_cube_chart(2, 0.0, 1.0, 7))
        with pytest.raises(BoundaryMarginError):
            christoffel(m, (1, 3))


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

class TestScalarCurvature:
    def test_flat_zero(self):
        m = flat_metric(_cube_chart(3, 0.0, 1.0, 7))
        assert abs(scalar_curvature(m, _center(m.chart))) < 1e-13

    @pytest.mark.parametrize("radius", [1.0, 2.0])
    def test_round_sphere(self, radius):
        chart = Chart(((1.0, 1.6, 31), (0.0, 0.6, 31)))
        m = sphere_metric(chart, radius=radius)
        sampled = MetricField.from_function(chart, m.metric_fn)
        h = chart.spacings.max()
        assert np.isclose(
            scalar_curvature(sampled, (15, 15)), 2.0 / radius**2, atol=5.0 * h**2
        )
        # analytic path is exact
        assert np.isclose(scalar_curvature(m, (15, 15)), 2.0 / radius**2, atol=1e-12)

    @pytest.mark.parametrize("n", [5, 7, 10])
    def test_cylinder(self, n):
        # exact callbacks and no samples: at n = 10 a sampled field would
        # need a 7^10-node grid
        m = cylinder_metric(n)
        p = _center(m.chart)
        assert np.isclose(scalar_curvature(m, p), (n - 1) * (n - 2), atol=1e-10)

    def test_stencil_convergence_order(self):
        # sphere metric sampled at h and h/2: error ratio ~ 4
        errs = []
        for count in (33, 65):
            chart = Chart(((1.0, 1.6, count), (0.0, 0.6, count)))
            m = MetricField.from_function(chart, sphere_metric(chart).metric_fn)
            p = (count // 2, count // 2)
            errs.append(abs(scalar_curvature(m, p) - 2.0))
        order = np.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2


# ---------------------------------------------------------------------------
# grid nodes: validation and batches
# ---------------------------------------------------------------------------

def _batch_metrics():
    """A sampled deformed cube, a cylinder and a deformed cone (both analytic)."""
    chart = _cube_chart(3, 0.0, 1.0, 13)
    u = TrigField.random(3, seed=3)
    sampled = conformal_deform(flat_metric(chart), u.on_chart(chart))
    cone = deformed_metric(DeformedCone(make_cone(3, 3), alpha=-1.0), count=9)
    return {"sampled": sampled, "cylinder": cylinder_metric(5), "deformed-cone": cone}


_BATCH_METRICS = _batch_metrics()


class TestNodes:
    @pytest.mark.parametrize("node", [(4,), (4, 4, 4), (4.7, 4), (4.0, 4), ("4", "4"), 4])
    @pytest.mark.parametrize("call", [scalar_curvature, christoffel,
                                      lambda m, p: level_set_shape(m, CoordinateField(0, 2), p)])
    def test_malformed_node_is_a_domain_error(self, call, node):
        # a wrong length or a non-integer entry is refused, not broadcast,
        # indexed past the grid or truncated to a neighbouring node
        m = flat_metric(_cube_chart(2, 0.0, 1.0, 9))
        with pytest.raises(DomainError, match="nodes must be integers"):
            call(m, node)

    @pytest.mark.parametrize("call", [scalar_curvature, christoffel, lambda m, p: m.chart.node_coords(p)])
    def test_wrong_length_on_an_analytic_metric(self, call):
        with pytest.raises(DomainError, match="nodes must be integers"):
            call(cylinder_metric(5), (3, 3, 3, 3))

    def test_level_set_shape_takes_one_node(self):
        m = flat_metric(_cube_chart(2, 0.0, 1.0, 9))
        with pytest.raises(DomainError, match="one node"):
            level_set_shape(m, CoordinateField(0, 2), [(4, 4), (4, 5)])

    def test_margin_checked_at_every_node_of_a_batch(self):
        m = flat_metric(_cube_chart(2, 0.0, 1.0, 9))
        with pytest.raises(BoundaryMarginError, match=r"node \[4, 2\] .* axis 1"):
            scalar_curvature(m, [[(4, 4), (4, 5)], [(4, 3), (4, 2)]])

    def test_node_coords_batched_equal_one_node(self):
        chart = Chart(((0.0, 1.0, 9), (-1.0, 2.0, 7), (0.5, 0.7, 5)))
        nodes = np.random.default_rng(2).integers(0, 5, size=(2, 3, 3))
        one = np.stack([chart.node_coords(tuple(p)) for p in nodes.reshape(-1, 3)])
        np.testing.assert_array_equal(chart.node_coords(nodes), one.reshape(nodes.shape))

    @pytest.mark.parametrize("lead", [(), (1,), (6,), (2, 3)])
    @pytest.mark.parametrize("kind", sorted(_BATCH_METRICS))
    def test_batched_nodes_equal_one_node_calls(self, kind, lead):
        """A batch of nodes gives the one-node results: bit for bit for a
        single node, to 1e-12 relative otherwise (einsum rounds batches
        differently)."""
        m = _BATCH_METRICS[kind]
        n = m.chart.dim
        nodes = np.random.default_rng(5).integers(3, np.subtract(m.chart.shape, 3), size=lead + (n,))
        scal, gam = scalar_curvature(m, nodes), christoffel(m, nodes)
        if lead:
            assert scal.shape == lead and gam.shape == lead + (n, n, n)
        else:
            assert isinstance(scal, float)
        one = [(scalar_curvature(m, tuple(p)), christoffel(m, tuple(p))) for p in nodes.reshape(-1, n)]
        one_scal = np.reshape([s for s, _ in one], lead)
        one_gam = np.reshape([g for _, g in one], gam.shape)
        if np.prod(lead) == 1:
            assert np.asarray(scal).tobytes() == one_scal.tobytes() and gam.tobytes() == one_gam.tobytes()
        np.testing.assert_allclose(scal, one_scal, rtol=1e-12, atol=0)
        np.testing.assert_allclose(gam, one_gam, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# shared central stencil
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4),
    value_shape=st.sampled_from([(), (3,), (2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_central_jet_exact_on_quadratics(steps, value_shape, seed):
    """Central differences reproduce a quadratic's gradient and Hessian up
    to rounding, for scalar, vector and matrix values and unequal steps."""
    n = len(steps)
    h = np.array(steps)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, n)
    a = rng.uniform(-1.0, 1.0, value_shape)
    b = rng.uniform(-1.0, 1.0, (n,) + value_shape)
    c = rng.uniform(-1.0, 1.0, (n, n) + value_shape)
    c = 0.5 * (c + np.swapaxes(c, 0, 1))  # Hessian of x^T c x / 2 is c

    def quadratic(x):
        return a + np.tensordot(x, b, 1) + 0.5 * np.tensordot(x, np.tensordot(x, c, 1), 1)

    seen = []

    def sample(offset):
        val = quadratic(x0 + np.multiply(offset, h))
        seen.append(np.max(np.abs(val)))
        return val

    f, df, d2f = grids.central_jet(sample, h)
    tol = 64 * np.finfo(float).eps * max(seen) / h.min() ** 2
    np.testing.assert_array_equal(f, quadratic(x0))
    np.testing.assert_allclose(df, b + np.tensordot(x0, c, 1), rtol=0, atol=tol)
    np.testing.assert_allclose(d2f, c, rtol=0, atol=tol)


# ---------------------------------------------------------------------------
# product-rule kernel of diagonal analytic metrics, and batched assembly
# ---------------------------------------------------------------------------

_FACTOR_KINDS = (
    lambda rng: const_factor(rng.uniform(0.5, 2.0)),
    lambda rng: power2_factor(rng.uniform(0.5, 2.0)),
    lambda rng: sin2_factor(),
    lambda rng: func2_factor(lambda t: Jet(1.5 + np.cos(t), -np.sin(t), -np.cos(t))),
)


def _random_diagonal_metric(dim, seed):
    """diagonal_metric_field with const, power2, sin2 and square factors on
    random axes of a chart over [0.5, 1.5]^dim, where every factor is
    positive.  Factors come from a small shared pool, so one factor often
    sits on several rows and axes."""
    rng = np.random.default_rng(seed)
    pool = [kind(rng) for kind in _FACTOR_KINDS for _ in range(2)]
    factors = []
    for _ in range(dim):
        axes = rng.choice(dim, size=rng.integers(0, dim + 1), replace=False)
        factors.append({int(j): pool[rng.integers(len(pool))] for j in axes})
    chart = Chart(tuple((0.5, 1.5, 5) for _ in range(dim)))
    return diagonal_metric_field(chart, factors), rng


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 5),
    lead=st.sampled_from([(1,), (4,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_callbacks_batched_equal_pointwise_bitwise(dim, lead, seed):
    """Each accessor on a stack of points is the stack of its pointwise
    values, bit for bit, with the documented output shapes, and the full
    jet equals the three accessors bit for bit."""
    m, rng = _random_diagonal_metric(dim, seed)
    x = rng.uniform(0.6, 1.4, lead + (dim,))
    accessors = (m.metric_fn, m.dmetric_fn, m.d2metric_fn)
    for order, fn in enumerate(accessors):
        batch = fn(x)
        assert batch.shape == lead + (dim,) * (order + 2)
        pointwise = np.stack([fn(p) for p in x.reshape(-1, dim)]).reshape(batch.shape)
        np.testing.assert_array_equal(batch, pointwise)
    for part, fn in zip(m.jet(x), accessors):
        assert part.tobytes() == fn(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_diagonal_callbacks_match_central_differences(dim, seed):
    """dg and d2g agree with central differences of metric_fn to O(h^2)."""
    m, rng = _random_diagonal_metric(dim, seed)
    x0 = rng.uniform(0.6, 1.4, dim)
    h = np.full(dim, 1e-3)
    g, dg, d2g = grids.central_jet(lambda offset: m.metric_fn(x0 + np.multiply(offset, h)), h)
    np.testing.assert_array_equal(g, m.metric_fn(x0))
    tol = 100.0 * h[0] ** 2
    np.testing.assert_allclose(m.dmetric_fn(x0), dg, rtol=tol, atol=tol)
    np.testing.assert_allclose(m.d2metric_fn(x0), d2g, rtol=tol, atol=tol)


def _random_jets(rng, lead, dim):
    """Random SPD metric 2-jets over the batch axes ``lead``, symmetric in
    the metric pair and in the derivative pair."""
    a = rng.uniform(-1.0, 1.0, lead + (dim, dim))
    g = a @ np.swapaxes(a, -1, -2) + dim * np.eye(dim)
    dg = rng.uniform(-1.0, 1.0, lead + (dim,) * 3)
    dg = dg + np.swapaxes(dg, -1, -2)
    d2g = rng.uniform(-1.0, 1.0, lead + (dim,) * 4)
    d2g = d2g + np.swapaxes(d2g, -1, -2)
    d2g = d2g + np.swapaxes(d2g, -4, -3)
    return g, dg, d2g


def _scal_tolerance(g, dg, d2g, ref):
    """1e-12 of |ref| plus the size of the summed curvature terms of each
    jet: scal can cancel to far below its terms, and summing in another
    order moves it by rounding of the terms, not of the result."""
    n = g.shape[-1]
    size = lambda t, k: np.abs(t).reshape(t.shape[:t.ndim - k] + (-1,)).max(axis=-1)
    ginv = size(np.linalg.inv(g), 2)
    terms = n**2 * (ginv * size(d2g, 4) + ginv**2 * size(dg, 3) ** 2)
    return 1e-12 * (np.abs(ref) + terms)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 6),
    batch=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=6, batch=6, seed=190)  # curvature terms cancel to 1e-4 of their size
def test_batched_assembly_matches_pointwise(dim, batch, seed):
    """scal_from_jet and christoffel_from_jet over a leading batch axis agree
    with pointwise calls on random SPD jets, to the tolerance scaled by the
    size of the summed terms of each jet."""
    g, dg, d2g = _random_jets(np.random.default_rng(seed), (batch,), dim)
    scal = grids.scal_from_jet(g, dg, d2g)
    pointwise = [grids.scal_from_jet(*jet) for jet in zip(g, dg, d2g)]
    assert scal.shape == (batch,)
    assert all(type(s) is float for s in pointwise)
    # rtol=1e-12 plus a per-jet atol, which assert_allclose cannot take
    np.testing.assert_array_less(np.abs(scal - pointwise), _scal_tolerance(g, dg, d2g, np.array(pointwise)))
    gam = grids.christoffel_from_jet(g, dg)
    np.testing.assert_allclose(gam, [grids.christoffel_from_jet(*jet) for jet in zip(g, dg)],
                               rtol=1e-12, atol=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(2, 10),
    lead=st.one_of(st.sampled_from([(), (1,), (2, 3)]), st.integers(2, 8).map(lambda k: (k,))),
    seed=st.integers(0, 2**32 - 1),
)
def test_scal_from_jet_matches_full_dgam_oracle(dim, lead, seed):
    """The trace-only kernel equals the kernel that builds the whole O(n^5)
    derivative of Gamma, at every batch shape and up to n = 10."""
    g, dg, d2g = _random_jets(np.random.default_rng(seed), lead, dim)
    scal, ref = grids.scal_from_jet(g, dg, d2g), scal_from_jet_full(g, dg, d2g)
    if lead:
        assert scal.shape == lead
    else:
        assert type(scal) is float and type(ref) is float
    np.testing.assert_array_less(np.abs(np.subtract(scal, ref)), _scal_tolerance(g, dg, d2g, ref))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 8),
    batch=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_scal_from_jet_row_depends_only_on_its_jet(dim, batch, seed):
    """Identical jets give identical floats whatever the other rows of the
    call hold: scal_compare subtracts two batches whose rows beyond the
    transition hold identical jets, and that difference must read 0.0."""
    rng = np.random.default_rng(seed)
    jets = _random_jets(rng, (batch,), dim)
    others = _random_jets(rng, (batch,), dim)
    pos = int(rng.integers(batch))
    one = grids.scal_from_jet(*(a[pos] for a in jets))
    mixed = [b.copy() for b in others]
    for m, a in zip(mixed, jets):
        m[pos] = a[pos]
    repeated = [np.broadcast_to(a[pos], (2, 3) + a.shape[1:]).copy() for a in jets]
    assert grids.scal_from_jet(*jets)[pos] == one
    assert grids.scal_from_jet(*mixed)[pos] == one
    assert (grids.scal_from_jet(*repeated) == one).all()
    assert grids.scal_from_jet(*(a[pos:pos + 1] for a in jets))[0] == one


def test_batched_assembly_rejects_any_singular_metric():
    g = np.stack([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(SingularMetricError):
        grids.scal_from_jet(g, np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2, 2, 2)))


# ---------------------------------------------------------------------------
# conformal transformation law
# ---------------------------------------------------------------------------

class TestConformalScal:
    def test_identity(self):
        assert conformal_scal(3.7, 1.0, 0.0, 7) == 3.7

    def test_harmonic_flat(self):
        assert conformal_scal(0.0, 2.5, 0.0, 7) == 0.0

    def test_constant_factor_scaling(self):
        # n = 7, u = c: scal -> c^{-4/5} scal
        c, s = 1.7, 4.2
        assert np.isclose(conformal_scal(s, c, 0.0, 7), c ** (-0.8) * s)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            conformal_scal(1.0, -1.0, 0.0, 7)
        with pytest.raises(DomainError):
            conformal_scal(1.0, 1.0, 0.0, 2)

    def test_arrays_equal_scalar_calls(self):
        rng = np.random.default_rng(4)
        s, u, lap = rng.uniform(-5, 5, 6), rng.uniform(0.1, 10, 6), rng.uniform(-3, 3, 6)
        expected = [conformal_scal(float(a), float(b), float(c), 5) for a, b, c in zip(s, u, lap)]
        assert conformal_scal(s, u, lap, 5).tobytes() == np.array(expected).tobytes()
        u[3] = 0.0
        with pytest.raises(DomainError):
            conformal_scal(s, u, lap, 5)

    @given(
        u=st.floats(0.1, 10.0),
        lap=st.floats(-3.0, 3.0),
        s=st.floats(-5.0, 5.0),
        n=st.integers(3, 12),
    )
    def test_formula_homogeneity_in_metric_scale(self, u, lap, s, n):
        # TL is linear in (scal_g, lap_u) jointly for fixed u
        a = conformal_scal(s, u, lap, n)
        b = conformal_scal(2 * s, u, 2 * lap, n)
        assert np.isclose(b, 2 * a, rtol=1e-12, atol=1e-12)


class TestConformalCoupling:
    @given(n=st.integers(3, 200))
    def test_floats_match_the_literal_ratios_bit_for_bit(self, n):
        kappa = grids.conformal_coupling(n)
        assert float(kappa) == (n - 2) / (4.0 * (n - 1))
        assert float(1 / kappa) == 4.0 * (n - 1) / (n - 2)
        assert float(1 / (2 * kappa)) == 2.0 * (n - 1) / (n - 2)

    def test_dimension_shift_gap_is_exact(self):
        # dropping the radial dimension lowers the coupling by exactly
        # 1/(4(n-1)(n-2))
        for n in range(5, 13):
            assert grids.conformal_coupling(n) - grids.conformal_coupling(n - 1) == Fraction(1, 4 * (n - 1) * (n - 2))


class TestConformalDeform:
    def test_identity_factor(self):
        m = flat_metric(_cube_chart(3, 0.0, 1.0, 7))
        out = conformal_deform(m, np.ones(m.chart.shape))
        np.testing.assert_array_equal(_metric(out), m.g)

    def test_rejects_nonpositive(self):
        m = flat_metric(_cube_chart(2, 0.0, 1.0, 5))
        u = np.ones(m.chart.shape)
        u[0, 0] = 0.0
        with pytest.raises(DomainError):
            conformal_deform(m, u)

    def test_kelvin_factor_keeps_flat(self):
        # flat g, u = rho^{-(n-2)} harmonic: scal of output -> 0 at 2nd order
        n = 3
        residuals = []
        for count in (17, 33):
            chart = _cube_chart(n, 1.0, 1.5, count)
            m = flat_metric(chart)
            rho = np.linalg.norm(chart.mesh(), axis=-1)
            out = conformal_deform(m, rho ** (-(n - 2.0)))
            residuals.append(abs(scalar_curvature(out, _center(chart))))
        assert residuals[1] < residuals[0] / 3.0  # ~4x shrink per halving

    def test_tl_consistency_random_factors(self):
        # scalar_curvature(conformal_deform(flat, u)) == conformal_scal(0, u, lap u, n)
        n = 3
        chart = _cube_chart(n, 0.0, 1.0, 33)
        m = flat_metric(chart)
        h = chart.spacings.max()
        p = _center(chart)
        x = chart.node_coords(p)
        for seed in range(6):
            u = TrigField.random(n, seed=seed)
            out = conformal_deform(m, u.on_chart(chart))
            expected = conformal_scal(0.0, u.value(x), u.laplacian(x), n)
            got = scalar_curvature(out, p)
            assert abs(got - expected) < 60.0 * h**2

    def test_cone_to_cylinder(self):
        # cone metric diag(1, rho^2) with u = rho^{-1/2} (n = 2 surrogate uses
        # the 2-sphere pattern): check on the radial 2-D section with n = 4
        # exponent bookkeeping via g_rhorho * rho^2 constancy instead.
        chart = Chart(((1.0, 2.0, 9), (0.0, 1.0, 5)))
        m = polar_metric(chart)
        rho = chart.mesh()[..., 0]
        n = 4
        out = conformal_deform(m, rho ** (-(n - 2.0) / 2.0), n=n)
        # u^{4/(n-2)} = rho^{-2}: g_rhorho * rho^2 becomes constant = 1
        np.testing.assert_allclose(_metric(out)[..., 0, 0] * rho**2, 1.0)
        np.testing.assert_allclose(_metric(out)[..., 1, 1], 1.0)


# ---------------------------------------------------------------------------
# level sets and the (AC) shift
# ---------------------------------------------------------------------------

class TestLevelSetShape:
    @pytest.mark.parametrize("dim,radius", [(2, 1.0), (3, 1.0), (3, 2.0)])
    def test_sphere_trace(self, dim, radius):
        chart = _cube_chart(dim, radius / np.sqrt(dim) - 0.2, radius / np.sqrt(dim) + 0.2, 9)
        m = flat_metric(chart)
        f = RadiusField(dim)
        p = _center(chart)
        r = np.linalg.norm(chart.node_coords(p))
        _, trace = level_set_shape(m, f, p)
        assert np.isclose(trace, (dim - 1) / r, atol=1e-10)
        assert trace > 0  # round-sphere convention: positive mean curvature

    def test_hyperplane(self):
        chart = _cube_chart(3, 0.0, 1.0, 7)
        m = flat_metric(chart)
        A, trace = level_set_shape(m, CoordinateField(0, 3), _center(chart))
        assert abs(trace) < 1e-12
        np.testing.assert_allclose(A, 0.0, atol=1e-12)

    def test_negating_f_negates_trace(self):
        chart = _cube_chart(3, 0.5, 0.9, 9)
        m = flat_metric(chart)
        f = RadiusField(3).value(chart.mesh())
        p = _center(chart)
        _, t1 = level_set_shape(m, f, p)
        _, t2 = level_set_shape(m, -f, p)
        assert np.isclose(t1, -t2, rtol=1e-12)

    def test_stencil_matches_analytic(self):
        chart = _cube_chart(3, 0.5, 0.9, 33)
        m = flat_metric(chart)
        p = _center(chart)
        _, t_exact = level_set_shape(m, RadiusField(3), p)
        _, t_fd = level_set_shape(m, RadiusField(3).value(chart.mesh()), p)
        assert abs(t_fd - t_exact) < 1e-4

    def test_degenerate_gradient(self):
        chart = _cube_chart(2, 0.0, 1.0, 7)
        m = flat_metric(chart)
        with pytest.raises(DegenerateLevelSetError):
            level_set_shape(m, np.ones(chart.shape), _center(chart))


class TestConformalShapeShift:
    def test_zero_gradient_unchanged(self):
        A = np.diag([1.0, 2.0])
        out = conformal_shape_shift(A, np.eye(2), 1.5, np.zeros(3), np.array([1.0, 0, 0]), 7)
        np.testing.assert_array_equal(out, A)

    def test_cylinder_factor_kills_cone_sphere_trace(self):
        # sphere S_rho in a cone (trace -(n-1)/rho toward the region),
        # u = rho^{-(n-2)/2}: trace -> 0 exactly
        n = 7
        rho = 1.7
        A = -(1.0 / rho) * np.eye(n - 1)
        normal = np.zeros(n)
        normal[0] = 1.0  # radial direction, unit frame
        grad_u = np.zeros(n)
        u = rho ** (-(n - 2.0) / 2.0)
        grad_u[0] = -(n - 2.0) / 2.0 * rho ** (-(n - 2.0) / 2.0 - 1.0)
        out = conformal_shape_shift(A, np.eye(n - 1), u, grad_u, normal, n)
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_barrier_factor_flips_sign_at_small_radius(self):
        # u = mu rho^{-(n-2)} + 1 at rho << Theta: trace approx +(n-1)/rho
        n, mu, rho = 7, 1e-5, 1e-3
        A = -(1.0 / rho) * np.eye(n - 1)
        normal = np.zeros(n)
        normal[0] = 1.0
        u = mu * rho ** -(n - 2.0) + 1.0
        grad_u = np.zeros(n)
        grad_u[0] = -(n - 2.0) * mu * rho ** -(n - 1.0)
        out = conformal_shape_shift(A, np.eye(n - 1), u, grad_u, normal, n)
        trace = np.trace(out)
        assert np.isclose(trace, (n - 1) / rho, rtol=1e-2)

    def test_rejects_nonpositive_u(self):
        with pytest.raises(DomainError):
            conformal_shape_shift(np.eye(2), np.eye(2), 0.0, np.zeros(3), np.ones(3), 7)


# ---------------------------------------------------------------------------
# documented convention cross-check (S^2: assembled scal vs TL scaling)
# ---------------------------------------------------------------------------

def test_s2_sign_convention_crosscheck():
    """The assembled scal formula and the transformation law use the same
    sign/normalization: scaling the unit S^2 metric by the constant
    conformal factor u = c (so g -> c^{4/(n-2)} g with n = 3 bookkeeping on
    the 2-sphere handled by direct rescaling) divides scal by the metric
    scale, and the assembled value matches."""
    chart = Chart(((1.0, 1.6, 21), (0.0, 0.6, 21)))
    m = MetricField.from_function(chart, sphere_metric(chart, radius=1.0).metric_fn)
    scaled = MetricField(chart, 4.0 * m.g)  # radius-2 sphere
    assert np.isclose(scalar_curvature(m, (10, 10)), 2.0, atol=1e-3)
    assert np.isclose(scalar_curvature(scaled, (10, 10)), 0.5, atol=1e-3)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.5, 2.0))
def test_constant_rescale_property(scale):
    chart = Chart(((1.0, 1.6, 17), (0.0, 0.6, 17)))
    base = MetricField.from_function(chart, sphere_metric(chart).metric_fn).g
    s0 = scalar_curvature(MetricField(chart, base), (8, 8))
    s1 = scalar_curvature(MetricField(chart, scale * base), (8, 8))
    assert np.isclose(s1, s0 / scale, rtol=1e-6)


#: malformed chart axes -> the typed error they raise
_MALFORMED = {
    "axis-inf-end": ((0.0, np.inf, 5), DomainError),
    "axis-inf-start": ((-np.inf, 0.0, 5), DomainError),
    "axis-nan-end": ((0.0, np.nan, 5), DomainError),
    "axis-reversed": ((1.0, 0.0, 5), DomainError),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_raises_typed_error(case):
    # an infinite axis gave infinite spacings, and the flat metric's
    # stencils a scalar curvature of 0.0
    axis, error = _MALFORMED[case]
    with pytest.raises(error, match="finite and increasing"):
        Chart((axis, (0.0, 1.0, 5)))


def _barrier():
    from conelab.barrier import BarrierSpec
    from conelab.perron import make_cutoff

    return BarrierSpec(deformed=DeformedCone(make_cone(3, 3), alpha=-0.5), mu=1.0, cutoff=make_cutoff(4.0, 1.0))


#: every input that must satisfy 0 < x < inf at every entry
_POSITIVE_INPUTS = {
    "green": lambda x: barrier.green(7, x),
    "barrier-jet": lambda x: _barrier().jet(x),
    "area_profile": lambda x: barrier.area_profile(_barrier(), x),
    "sphere_trace": lambda x: barrier.sphere_trace(_barrier(), x),
    "second_form_norm2": lambda x: cones.second_form_norm2(make_cone(3, 3), x),
    "cone_scal": lambda x: cones.cone_scal(make_cone(3, 3), x),
    "deformed_distance": lambda x: cones.deformed_distance(make_cone(3, 3), -0.5, x),
    "rho_of_r": lambda x: DeformedCone(make_cone(3, 3), alpha=-0.5).rho_of_r(x),
    "conformal_scal": lambda u: conformal_scal(1.0, u, 0.0, 3),
    "conformal_deform": lambda u: conformal_deform(flat_metric(Chart(((0.0, 1.0, 5),) * 3)), u),
    "conformal_shape_shift": lambda u: conformal_shape_shift(np.eye(2), np.eye(2), u, np.zeros(3), np.eye(3)[0], 3),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("case", sorted(_POSITIVE_INPUTS))
def test_non_positive_or_non_finite_input_rejected(case, bad):
    # a NaN passed every x <= 0 test and came back as NaN, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must be positive and finite$"):
            _POSITIVE_INPUTS[case](np.array([1.0, bad]))
