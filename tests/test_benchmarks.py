import json

import numpy as np
import pytest

from hardtrain import benchmarks as bm
from hardtrain import constraints as cs
from hardtrain import trainers as tr
from hardtrain.krylov import SolverConfig

from util import (AnchorProblem, hypersphere_residuals, risk, risk_gradient,
                  stencil_crosses_kink, symmetry_residuals)


def test_gen_spheres_deterministic():
    a = bm.gen_spheres(64, 10, seed=7)
    b = bm.gen_spheres(64, 10, seed=7)
    np.testing.assert_array_equal(a.pool.samples, b.pool.samples)
    np.testing.assert_array_equal(a.x0, b.x0)
    assert np.linalg.norm(a.x0) == pytest.approx(2 * bm.SPHERE_RADIUS)


def test_gen_spheres_center_norms_match_chi_moment():
    # ||c|| ~ chi_d scaled by 0.1; for d = 1e4 the mean is ~ 0.1 sqrt(d)
    p = bm.gen_spheres(10_000, 200, seed=1)
    mean_norm = np.mean(np.linalg.norm(p.pool.samples, axis=1))
    assert abs(mean_norm - 0.1 * np.sqrt(10_000)) <= 0.05 * 0.1 * np.sqrt(10_000)


def test_gen_spheres_degenerate_centers_at_origin():
    p = bm.gen_spheres(8, 5, seed=0)
    p.pool.samples[:] = 0.0
    w = np.zeros(8)
    w[0] = 10.0
    np.testing.assert_allclose(
        hypersphere_residuals(w, p.pool.samples, 10.0), np.zeros(5), atol=1e-12)


def test_gen_spheres_validation():
    with pytest.raises(ValueError):
        bm.gen_spheres(1, 5)
    with pytest.raises(ValueError):
        bm.gen_spheres(10, 0)


def test_prediction_error_basics():
    y = np.zeros((3, 51))
    assert bm.prediction_error(y, y) == 0.0
    pred = np.zeros((1, 17, 3))
    truth = pred.copy()
    pred[0, 4] = [3.0, 0.0, 0.0]
    assert bm.prediction_error(pred, truth) == pytest.approx(3.0 / 17.0)
    with pytest.raises(ValueError):
        bm.prediction_error(np.zeros((2, 51)), np.zeros((3, 51)))


def test_prediction_error_matches_triple_loop():
    rng = np.random.default_rng(0)
    preds = rng.standard_normal((6, 17, 3))
    truths = rng.standard_normal((6, 17, 3))
    total = 0.0
    for i in range(6):
        for m in range(17):
            total += np.sqrt(sum((preds[i, m, k] - truths[i, m, k]) ** 2 for k in range(3)))
    assert bm.prediction_error(preds, truths) == pytest.approx(total / (6 * 17))


def test_median_violation_basics():
    assert cs.median_violation(np.array([-1.0, 0.0, 2.0])) == 1.0
    assert cs.median_violation(np.zeros(5)) == 0.0
    # an empty active set has no residuals, and no violation
    assert cs.median_violation(np.zeros((0, 6))) == 0.0


def test_median_violation_matches_sort_oracle():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(10_000)
    s = np.sort(np.abs(vals))
    expect = 0.5 * (s[4999] + s[5000])   # even count: mean of central pair
    assert cs.median_violation(vals) == pytest.approx(expect, rel=1e-15)


def test_symmetric_pose_generator_residual_floor():
    poses = bm.sample_symmetric_poses(np.random.default_rng(3), 200)
    worst = max(np.abs(symmetry_residuals(p)).max() for p in poses)
    assert worst <= 1e-9


def test_toy_pose_split_and_shapes():
    p = bm.gen_toy_pose(seed=4, n_samples=500, n_pool=100, in_dim=24, hidden=(32,))
    assert p.n_train == 400 and p.val_x.shape[0] == 100
    assert p.pool.n_samples == 100 and p.pool.n_constraints == 6
    assert p.mlp.widths == (24, 32, 51)
    # labels are noisy, inputs encode the clean pose
    assert p.train_y.shape == (400, 51)


def test_problem_residuals_square_to_the_risk():
    # a problem's one objective: ||r||^2 is its risk and 2 J^T r the gradient
    rng = np.random.default_rng(8)
    spheres = bm.gen_spheres(40, 5, seed=1)
    pose = bm.gen_toy_pose(seed=1, n_samples=60, n_pool=10, in_dim=8, hidden=(12,))
    batch = np.arange(3, 19)
    w = spheres.x0 + rng.standard_normal(spheres.dim)
    cases = [(spheres, idx, w, 0.5 * np.sum((w - spheres.x0) ** 2)) for idx in (None, batch)]
    w = pose.initial_params(rng)
    for idx in (None, batch):
        rows = slice(None) if idx is None else idx
        err = pose.mlp.forward(w, pose.train_x[rows]) - pose.train_y[rows]
        cases.append((pose, idx, w, np.mean(err ** 2)))
    h = 1e-5
    for problem, idx, w, expect in cases:
        f = problem.residual_function(idx)
        assert risk(f, w) == pytest.approx(expect, rel=1e-12, abs=0.0)
        v = rng.standard_normal(len(w))
        v /= np.linalg.norm(v)
        assert problem is spheres or not stencil_crosses_kink(pose.mlp, w, pose.train_x, v, h)
        fd = (risk(f, w + h * v) - risk(f, w - h * v)) / (2 * h)
        assert abs(risk_gradient(f, w) @ v - fd) <= 1e-5 * abs(fd)


def test_problem_spec_round_trip(tmp_path):
    # the spec's fields regenerate the problem bit for bit
    p = bm.gen_spheres(32, 12, seed=9)
    path = tmp_path / "prob.json"
    bm.save_problem_spec(p, path)
    spec = json.loads(path.read_text())
    assert spec["kind"] == "spheres"
    q = bm.gen_spheres(spec["dim"], spec["n_constraints"], spec["seed"])
    np.testing.assert_array_equal(p.pool.samples, q.pool.samples)
    np.testing.assert_array_equal(p.x0, q.x0)

    tp = bm.gen_toy_pose(seed=5, n_samples=300, n_pool=50, in_dim=16, hidden=(24,))
    path2 = tmp_path / "pose.json"
    bm.save_problem_spec(tp, path2)
    spec = json.loads(path2.read_text())
    assert spec["kind"] == "toy_pose"
    tq = bm.gen_toy_pose(spec["seed"], spec["n_samples"], spec["n_pool"], spec["in_dim"],
                         tuple(spec["hidden"]))
    np.testing.assert_array_equal(tp.train_x, tq.train_x)
    np.testing.assert_array_equal(tp.pool.samples, tq.pool.samples)


def test_sphere_comparison_seed_fixed_reproducible():
    h1, s1 = bm.run_sphere_comparison(d=100, iters=30, n_active=5, seed=3,
                                      n_constraints=20)
    h2, s2 = bm.run_sphere_comparison(d=100, iters=30, n_active=5, seed=3,
                                      n_constraints=20)
    np.testing.assert_array_equal(h1.column("median_violation"),
                                  h2.column("median_violation"))
    np.testing.assert_array_equal(s1.column("median_violation"),
                                  s2.column("median_violation"))
    # paired runs share the constraint batch stream
    assert [r.active_fingerprint for r in h1.rows] == \
           [r.active_fingerprint for r in s1.rows]


def test_near_parallel_linearizations_send_step_far():
    # two overlapping circles seen from a point far off their center axis:
    # the linearized constraints intersect far away, so one hard step
    # travels an order of magnitude farther than the distance to either
    # circle (the projection overshoot behind the erratic regime)
    centers = np.array([[0.0, 0.0], [0.05, 0.0]])
    prob = AnchorProblem([5.0, 9.0], cs.SpherePool(centers, 10.0))
    w = prob.x0.copy()
    dist_to_surface = max(abs(hypersphere_residuals(w, centers, 10.0)))
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=1.0, iterations=1,
                         solver=SolverConfig(rtol=1e-12))
    active = np.array([0, 1])
    step = tr.step_hard(tr.HARD_SGD, w, prob, prob.residual_function(None), active, cfg)
    assert np.linalg.norm(step.w - w) >= 10.0 * dist_to_surface


def test_unconstrained_adam_validation_error_decreases_smoothed():
    problem = bm.gen_toy_pose(seed=6, n_samples=600, n_pool=80, in_dim=24,
                              hidden=(48,))
    cfg = tr.TrainConfig(method=tr.SOFT_ADAM, lr=1e-3, soft_lambda=0.0,
                         epochs=40, seed=6)
    report = tr.train(cfg, problem)
    val = report.column("pred_error")
    window = 10
    smoothed = np.convolve(val, np.ones(window) / window, mode="valid")
    drops = np.diff(smoothed)
    assert np.all(drops <= 1e-4), f"worst uptick {drops.max():.2e}"
    assert smoothed[-1] < smoothed[0]


def test_soft_trace_deltas_predominantly_negative_early():
    _, soft = bm.run_sphere_comparison(d=200, iters=120, n_active=10, seed=4,
                                       n_constraints=40)
    early = soft.column("active_delta")[:40]
    assert np.mean(early < 0) >= 0.6


def test_fixed_active_set_avoids_erratic_regime():
    # all constraints active every iteration: the trace settles instead of
    # jumping between incompatible linearizations
    hard, _ = bm.run_sphere_comparison(d=60, iters=120, n_active=25, seed=2,
                                       n_constraints=25)
    mv = hard.column("median_violation")
    assert mv[-1] <= mv[0] / 5.0
    late = np.diff(mv[60:])
    assert np.std(late) <= 0.01
