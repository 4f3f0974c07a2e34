import itertools
import tracemalloc

import numpy as np
import pytest

from hardtrain import autodiff as ad
from hardtrain import benchmarks as bm
from hardtrain import constraints as cs

from util import (BoundHead, LinearHead, OffsetModel, hypersphere_residuals,
                  symmetry_residuals)


def row_values(pool, w, samples):
    """The stacked constraint rows of the listed samples at w, read off the
    pool's linearization as training does."""
    return pool.linearize(w, samples).value


def symmetric_pose(rng=None, scale=1.0):
    """A pose whose six mirrored bone lengths match exactly."""
    rng = rng or np.random.default_rng(0)
    idx = {n: i for i, n in enumerate(cs.JOINT_NAMES)}
    y = np.zeros((17, 3))
    # spine chain
    y[idx["pelvis"]] = [0, 0, 0]
    y[idx["spine"]] = [0, 0.3, 0]
    y[idx["chest"]] = [0, 0.6, 0]
    y[idx["neck"]] = [0, 0.8, 0]
    y[idx["head"]] = [0, 1.0, 0]
    for side, sign in (("left", 1.0), ("right", -1.0)):
        y[idx[f"{side} shoulder"]] = [sign * 0.2, 0.6, 0]
        y[idx[f"{side} elbow"]] = [sign * 0.2, 0.35, 0.05]
        y[idx[f"{side} hand"]] = [sign * 0.2, 0.1, 0.1]
        y[idx[f"{side} hip"]] = [sign * 0.12, 0.0, 0]
        y[idx[f"{side} knee"]] = [sign * 0.12, -0.4, 0.03]
        y[idx[f"{side} heel"]] = [sign * 0.12, -0.8, 0]
    return (y * scale).ravel()


def test_joint_table_matches_published_rows():
    names = [tuple(cs.JOINT_NAMES[i] for i in row) for row in cs.SYMMETRY_JOINTS]
    assert names[0] == ("left shoulder", "left elbow", "right shoulder", "right elbow")
    assert names[1] == ("left elbow", "left hand", "right elbow", "right hand")
    assert names[2] == ("left hip", "left knee", "right hip", "right knee")
    assert names[3] == ("left knee", "left heel", "right knee", "right heel")
    assert names[4] == ("chest", "left shoulder", "chest", "right shoulder")
    assert names[5] == ("pelvis", "left hip", "pelvis", "right hip")


def test_symmetry_residuals_zero_for_mirrored_pose():
    np.testing.assert_allclose(symmetry_residuals(symmetric_pose()), np.zeros(6), atol=1e-12)


def test_symmetry_residuals_detects_long_left_arm():
    idx = {n: i for i, n in enumerate(cs.JOINT_NAMES)}
    y = symmetric_pose().reshape(17, 3).copy()
    sh, el = y[idx["left shoulder"]], y[idx["left elbow"]]
    right_len = np.linalg.norm(y[idx["right shoulder"]] - y[idx["right elbow"]])
    # stretch the left upper arm to length right_len + 1, dragging the hand
    # along so the forearm length stays put
    new_elbow = sh + (el - sh) / np.linalg.norm(el - sh) * (right_len + 1.0)
    y[idx["left hand"]] += new_elbow - el
    y[idx["left elbow"]] = new_elbow
    r = symmetry_residuals(y.ravel())
    assert abs(r[0] - 1.0) <= 1e-12
    np.testing.assert_allclose(r[1:], np.zeros(5), atol=1e-12)


def test_symmetry_residuals_match_scalar_distance_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pose = rng.standard_normal(51)
        got = symmetry_residuals(pose)
        y = pose.reshape(17, 3)
        for j, (a, b, c, d) in enumerate(cs.SYMMETRY_JOINTS):
            expect = (sum((y[a][k] - y[b][k]) ** 2 for k in range(3)) ** 0.5
                      - sum((y[c][k] - y[d][k]) ** 2 for k in range(3)) ** 0.5)
            assert abs(got[j] - expect) <= 1e-12
        np.testing.assert_allclose(cs.SymmetryHead().value(pose[None])[0], got,
                                   rtol=0, atol=1e-12)


def test_symmetry_residuals_rigid_motion_invariant():
    rng = np.random.default_rng(2)
    pose = rng.standard_normal(51)
    base = symmetry_residuals(pose)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    t = rng.standard_normal(3)
    moved = (pose.reshape(17, 3) @ q.T + t).ravel()
    np.testing.assert_allclose(symmetry_residuals(moved), base, atol=1e-10)


def test_symmetry_residuals_length_check():
    with pytest.raises(ValueError, match="51"):
        symmetry_residuals(np.zeros(50))


def test_symmetry_value_equals_the_linearized_value():
    rng = np.random.default_rng(4)
    Y = rng.standard_normal((7, 51))
    head = cs.SymmetryHead()
    np.testing.assert_array_equal(head.value(Y), head.linearize(Y)[0])


def test_hypersphere_residuals_basics():
    w = np.array([10.0, 0.0])
    centers = np.zeros((1, 2))
    np.testing.assert_allclose(hypersphere_residuals(w, centers, 10.0), [0.0])
    np.testing.assert_allclose(hypersphere_residuals(centers[0], centers, 10.0), [-10.0])
    with pytest.raises(ValueError, match="dim"):
        hypersphere_residuals(np.zeros(3), centers, 10.0)


def test_hypersphere_gradient_unit_norm_and_fd():
    rng = np.random.default_rng(3)
    d = 6
    centers = rng.standard_normal((4, d))
    w = rng.standard_normal(d) * 3
    pool, active = cs.SpherePool(centers, 10.0), np.arange(4)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        g = pool.linearize(w, active).vjp(e)
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-10
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        fd = (row_values(pool, w + h * v, active)[i]
              - row_values(pool, w - h * v, active)[i]) / (2 * h)
        assert abs(g @ v - fd) <= 1e-6


def gather(V, active):
    """The active samples' residuals, sample-major, read off the violation matrix."""
    return V[active].ravel()


def make_scalar_pool(samples):
    """Pool with one sphere constraint; per-sample residual | ||w-x||-1 |."""
    return cs.SpherePool(samples, 1.0)


def test_evaluate_zero_when_constraints_satisfied():
    pool = make_scalar_pool([[-1.0], [1.0]])
    active = np.array([0, 1])
    V = pool.violation_matrix(np.zeros(1))
    np.testing.assert_allclose(gather(V, active), np.zeros(2), atol=1e-12)


def test_evaluate_single_pair_is_scalar_residual():
    pool = make_scalar_pool([[-3.0]])
    got = gather(pool.violation_matrix(np.zeros(1)), np.array([0]))
    np.testing.assert_allclose(got, [2.0])


def test_evaluate_matches_double_loop_oracle():
    rng = np.random.default_rng(4)
    H = rng.standard_normal((3, 4))
    c = rng.standard_normal(3)
    pool = cs.ConstraintPool(rng.standard_normal((6, 4)), LinearHead(H, c),
                             ad.IdentityOffset(4))
    w = rng.standard_normal(4)
    active = np.array([1, 3, 5])
    got = gather(pool.violation_matrix(w), active)
    expect = []
    for k in [1, 3, 5]:
        y = w - pool.samples[k]
        for j in range(3):
            expect.append(H[j] @ y + c[j])
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_violation_matrix_of_wide_outputs_matches_the_row_oracle():
    # outputs 150k wide: the values are the per-row head's exactly
    d, n = 150_000, 16
    rng = np.random.default_rng(10)
    samples = rng.normal(0.0, 0.1, (n, d))
    w = rng.standard_normal(d)
    head = BoundHead([0, d - 1], [0.5, -0.5])
    pool = cs.ConstraintPool(samples, head, ad.IdentityOffset(d))
    V = pool.violation_matrix(w)
    expect = np.array([head.value((w - x)[None])[0] for x in samples])
    np.testing.assert_array_equal(V, expect)


def test_violation_matrix_is_one_forward_pass_over_the_pool(monkeypatch):
    # 3000 pose samples, more than 1 MiB of model output: one Mlp.forward
    # call over the whole pool, and each row equals that sample's own pass
    problem = bm.gen_toy_pose(seed=0, n_samples=60, n_pool=3000, in_dim=8, hidden=(12,))
    pool, model = problem.pool, problem.mlp
    w = model.init_params(np.random.default_rng(1))
    batches = []
    forward = ad.Mlp.forward

    def counted(self, w, X):
        batches.append(len(X))
        return forward(self, w, X)

    monkeypatch.setattr(ad.Mlp, "forward", counted)
    V = pool.violation_matrix(w)
    assert batches == [3000]
    expect = np.concatenate([pool.head.value(forward(model, w, pool.samples[k:k + 1]))
                             for k in range(pool.n_samples)])
    np.testing.assert_allclose(V, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d, n, at_center", [(10_000, 200, 1e-6), (150_000, 16, 1e-5)])
def test_sphere_pool_is_one_gemv_within_rounding_of_the_norms(d, n, at_center):
    # ||w||^2 - 2 C w + ||c||^2 rounds differently from the row norms of
    # w - c, by about 1e-14 at |V| ~ 10-400; the pass, the pool constant
    # ||c||^2 included, allocates a few n-vectors plus array headers, no d
    rng = np.random.default_rng(10)
    centers = rng.normal(0.0, 0.1, (n, d))
    w = rng.standard_normal(d)
    pool = cs.SpherePool(centers, 10.0)
    tracemalloc.start()
    try:
        V = pool.violation_matrix(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert V.shape == (n, 1)
    np.testing.assert_allclose(V[:, 0], hypersphere_residuals(w, centers, 10.0),
                               rtol=0, atol=1e-11)
    assert peak <= 4 * 8 * n + 2048
    # at a center ||w - c||^2 is a rounding error of size eps ||c||^2
    # (||c||^2 ~ 100 and 1500 here), negative at about half the centers:
    # the clamp keeps the square root real, and V is -radius to within
    # the square root of that error
    for k in range(n):
        V = pool.violation_matrix(centers[k].copy())
        assert np.isfinite(V).all()
        assert abs(V[k, 0] + 10.0) <= at_center


def assert_pool_rows(values, pool_rows, radius):
    """The active values are the pool rows up to one rounding of the
    distance ||w - x_k||: both take x_k.w from a GEMV, and OpenBLAS sums a
    row's products in an order that depends on where the row sits in the
    matrix (a 1 x d product is a dot, not a GEMV), so x_k.w can differ in
    its last bit."""
    assert np.all(np.abs(values - pool_rows) <= np.spacing(pool_rows + radius))


def test_sphere_rows_linearize_in_one_buffer_and_leave_the_pool_intact():
    # the gathered active centers are the one m x d array: w - X and the
    # unit directions are never formed, and the pool's own samples are
    # never touched
    rng = np.random.default_rng(8)
    m, d = 8, 20_000
    centers = rng.standard_normal((2 * m, d))
    kept = centers.copy()
    pool = cs.SpherePool(centers, 10.0)
    active = np.arange(1, 2 * m, 2)
    w = rng.standard_normal(d)
    tracemalloc.start()
    try:
        lin = pool.linearize(w, active)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * m * d
    np.testing.assert_array_equal(pool.samples, kept)
    # the pool pass's formula (see the workload-shape test below for its
    # rounding); the row norms of w - x_k to within the pool test's rounding
    assert_pool_rows(lin.value, pool.violation_matrix(w)[active, 0], 10.0)
    np.testing.assert_allclose(lin.value, hypersphere_residuals(w, kept[active], 10.0),
                               rtol=0, atol=1e-11)
    np.testing.assert_array_equal(row_values(pool, w, active), lin.value)
    Y = w - kept[active]
    U = Y / np.linalg.norm(Y, axis=1)[:, None]
    v = rng.standard_normal(d)
    u = rng.standard_normal(m)
    D = rng.uniform(0.5, 2.0, d)
    np.testing.assert_allclose(lin.jvp(v), U @ v, rtol=1e-12)
    # a component of u U can cancel to near 0: the tolerance is relative to
    # the largest component
    want = u @ U
    np.testing.assert_allclose(lin.vjp(u), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(lin.gram(0.3), 0.3 * (U @ U.T), rtol=1e-12)
    np.testing.assert_allclose(lin.gram(D), (U * D) @ U.T, rtol=1e-12)


@pytest.mark.parametrize("d", [3000, 120])
def test_the_scalar_gram_reads_the_pool_gram_only_where_the_pool_keeps_it(d):
    # 200 centers: at d = 3000 the pool keeps CC^T and forms it once, on the
    # first scalar-D Gram; at d = 120 it would outgrow the centers, so the
    # Gram comes from the active centers and the pool never forms it
    problem = bm.gen_spheres(d, 200, 0)
    pool = problem.pool
    rng = np.random.default_rng(d)
    w = problem.x0 + rng.normal(0.0, 0.5, d)
    kept = []
    for seed in range(3):
        active = cs.select_random(pool, 20, seed)
        lin = pool.linearize(w, active)
        assert "sample_gram" not in pool.__dict__ or seed > 0
        Y = w - pool.samples[active]
        U = Y / np.linalg.norm(Y, axis=1)[:, None]
        np.testing.assert_allclose(lin.gram(0.3), 0.3 * (U @ U.T), rtol=1e-12)
        kept.append(pool.__dict__.get("sample_gram"))
    assert all(K is kept[0] for K in kept)
    if d > 200:
        np.testing.assert_allclose(kept[0], pool.samples @ pool.samples.T, rtol=1e-12)
    else:
        assert kept[0] is None


@pytest.mark.parametrize("seed", range(5))
def test_sphere_rows_values_are_the_pool_rows_at_the_workload_shape(seed):
    # the benchmark's sphere shape, d = 1e4 and 200 centers, at the anchor
    # and at a perturbed point, with active sets of odd and even sizes
    problem = bm.gen_spheres(10_000, 200, seed)
    rng = np.random.default_rng(seed)
    for w in (problem.x0, problem.x0 + rng.normal(0.0, 0.5, problem.dim)):
        V = problem.pool.violation_matrix(w)
        for m in (1, 3, 20, 37):
            active = cs.select_random(problem.pool, m, rng.integers(2 ** 32))
            assert_pool_rows(row_values(problem.pool, w, active), V[active, 0], 10.0)


def test_select_random_bounds_and_determinism():
    pool = make_scalar_pool(np.arange(10.0)[:, None])
    full = cs.select_random(pool, 10, 0)
    assert len(np.unique(full)) == 10
    one = cs.select_random(pool, 1, 0)
    assert len(np.unique(one)) == 1
    a = cs.select_random(pool, 4, 123)
    b = cs.select_random(pool, 4, 123)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        cs.select_random(pool, 0, 0)
    with pytest.raises(ValueError):
        cs.select_random(pool, 11, 0)


def test_select_mined_picks_largest_medians():
    # residuals | ||w-x|| - 1 | at w=0: 0.5, 2.0, 1.0
    pool = make_scalar_pool([[-1.5], [-3.0], [-2.0]])
    active = cs.select_mined(pool.violation_matrix(np.zeros(1)), 2)
    np.testing.assert_array_equal(active, [1, 2])


def test_select_mined_tie_break_and_full_keep():
    pool = make_scalar_pool([[-2.0], [-2.0], [-2.0]])
    V = pool.violation_matrix(np.zeros(1))
    active = cs.select_mined(V, 2)
    np.testing.assert_array_equal(active, [0, 1])
    full = cs.select_mined(V, 3)
    assert len(np.unique(full)) == 3
    for bad in (0, 4):
        with pytest.raises(ValueError, match="n_keep"):
            cs.select_mined(V, bad)


def test_select_mined_matches_brute_force_subsets():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        n_c = int(rng.integers(1, 4))
        H = rng.standard_normal((n_c, 2))
        pool = cs.ConstraintPool(rng.standard_normal((n, 2)), LinearHead(H),
                                 ad.IdentityOffset(2))
        w = rng.standard_normal(2)
        n_keep = int(rng.integers(1, n + 1))
        V = pool.violation_matrix(w)
        med = np.median(np.abs(V), axis=1)
        best = max(sum(med[list(s)]) for s in itertools.combinations(range(n), n_keep))
        mined = cs.select_mined(V, n_keep)
        got = sum(med[mined])
        assert abs(got - best) <= 1e-12


def test_selections_are_sorted_unique_sample_indices():
    rng = np.random.default_rng(6)
    pool = make_scalar_pool(rng.standard_normal((30, 1)))
    V = pool.violation_matrix(np.zeros(1))
    for active in (cs.select_random(pool, 12, 5), cs.select_mined(V, 12)):
        assert len(active) == 12
        assert np.all(np.diff(active) > 0)
        assert active[0] >= 0 and active[-1] < pool.n_samples


def test_stacked_constraints_take_every_constraint_of_each_listed_sample():
    # unsorted samples with one repeat: every constraint of each listed
    # sample, in the listed order, bit for bit the head's own values
    problem = bm.gen_toy_pose(seed=1, n_samples=50, n_pool=12, in_dim=8, hidden=(16,))
    pool, model = problem.pool, problem.mlp
    w = model.init_params(np.random.default_rng(2))
    samples = np.array([7, 2, 9, 2, 0])
    values = row_values(pool, w, samples)
    assert values.shape == (5 * 6,)
    expect = pool.head.value(model.forward(w, pool.samples[samples])).ravel()
    np.testing.assert_array_equal(values, expect)


def test_stacked_constraints_adjoint_and_fd():
    rng = np.random.default_rng(7)
    mlp = ad.Mlp([5, 16, 51])
    w = mlp.init_params(rng)
    pool = cs.ConstraintPool(rng.standard_normal((6, 5)), cs.SymmetryHead(), mlp)
    active = cs.select_random(pool, 3, 0)
    lin = pool.linearize(w, active)
    assert lin.value.shape == (18,)
    v = rng.standard_normal(pool.n_params)
    u = rng.standard_normal(18)
    lhs = u @ lin.jvp(v)
    rhs = lin.vjp(u) @ v
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
    # directional finite difference on the stacked vector
    vu = v / np.linalg.norm(v)
    h = 1e-6
    fd = (row_values(pool, w + h * vu, active) - row_values(pool, w - h * vu, active)) / (2 * h)
    got = lin.jvp(vu)
    assert np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-9) <= 1e-5


def test_bound_head_gradient_matches_fd():
    rng = np.random.default_rng(9)
    mlp = ad.Mlp([4, 12, 5])
    w = mlp.init_params(rng)
    head = BoundHead([0, 3], [0.2, -0.1])
    pool = cs.ConstraintPool(rng.standard_normal((3, 4)), head, mlp)
    active = np.array([0, 1, 2])
    lin = pool.linearize(w, active)
    v = rng.standard_normal(pool.n_params)
    v /= np.linalg.norm(v)
    h = 1e-6
    fd = (row_values(pool, w + h * v, active) - row_values(pool, w - h * v, active)) / (2 * h)
    got = lin.jvp(v)
    assert np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-9) <= 1e-5
    u = rng.standard_normal(len(lin.value))
    assert abs(u @ got - lin.vjp(u) @ v) <= 1e-10 * max(abs(u @ got), 1.0)


def test_evaluate_stacking_is_sample_major():
    rng = np.random.default_rng(8)
    H = rng.standard_normal((2, 3))
    pool = cs.ConstraintPool(rng.standard_normal((4, 3)), LinearHead(H), OffsetModel(3))
    w = rng.standard_normal(3)
    got = gather(pool.violation_matrix(w), np.array([0, 2]))
    expect = np.concatenate([H @ (w - pool.samples[0]), H @ (w - pool.samples[2])])
    np.testing.assert_allclose(got, expect, atol=1e-12)
    # the stack keeps the listed sample order
    stacked = row_values(pool, w, np.array([2, 0]))
    np.testing.assert_allclose(stacked, np.concatenate([expect[2:], expect[:2]]), atol=1e-12)


def test_active_set_validation():
    pool = make_scalar_pool([[0.0]])
    for bad in ([3], [0, -1]):
        with pytest.raises(IndexError):
            pool.linearize(np.zeros(1), np.array(bad))


def test_pool_validation():
    for empty in (lambda: cs.ConstraintPool(np.zeros((0, 2)), LinearHead(np.eye(2)),
                                            ad.IdentityOffset(2)),
                  lambda: cs.SpherePool(np.zeros((0, 2)), 1.0)):
        with pytest.raises(ValueError, match="at least one sample"):
            empty()
    for radius in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="radius must be positive"):
            cs.SpherePool([[0.0]], radius)
