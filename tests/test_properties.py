"""Property tests on linearizations: the adjoint identity for every
DiffFunction, the Gram product of every constraint family, and the
symmetry of every saddle-point operator variant."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardtrain import autodiff as ad
from hardtrain import benchmarks as bm
from hardtrain import constraints as cs
from hardtrain import kkt, linops

from util import (BoundHead, LinearMap, ModelOutputs, OffsetModel, SphereHead, dense_random_mlp,
                  symmetry_defect)

# fixed example stream, no example database: the suite stays reproducible
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2 ** 32 - 1)


def _mlp(rng, in_dim=None, out_dim=None):
    mlp = ad.Mlp(dense_random_mlp(rng, max_width=16, in_dim=in_dim, out_dim=out_dim))
    return mlp, mlp.init_params(rng)


def _stacked(rng, head, model, in_dim):
    pool = cs.ConstraintPool(rng.standard_normal((5, in_dim)), head, model)
    return cs.StackedConstraints(pool, rng.integers(0, 5, 7))


def _functions(rng):
    """(name, function, point) for every DiffFunction family."""
    mlp, w = _mlp(rng)
    X = rng.standard_normal((3, mlp.in_dim))
    Y = rng.standard_normal((3, mlp.out_dim))
    pose_mlp, pose_w = _mlp(rng, out_dim=51)
    bound_mlp, bound_w = _mlp(rng, out_dim=4)
    d = int(rng.integers(2, 30))
    w_off = rng.standard_normal(d) * 3.0
    sphere_pool = cs.SpherePool(rng.standard_normal((6, d)), 2.0)
    sphere_active = np.sort(rng.choice(6, 4, replace=False))
    A = rng.standard_normal((int(rng.integers(1, 6)), d))
    return [
        ("outputs", ModelOutputs(mlp, X), w),
        ("residuals", ad.ScaledResiduals(mlp, X, Y), w),
        ("linear", LinearMap(A, rng.standard_normal(A.shape[0])), w_off),
        ("anchor", bm._AnchorResiduals(rng.standard_normal(d)), w_off),
        ("symmetry", _stacked(rng, cs.SymmetryHead(), pose_mlp, pose_mlp.in_dim),
         pose_w),
        ("sphere", _stacked(rng, SphereHead(2.0), OffsetModel(d), d),
         w_off),
        ("sphere_rows", sphere_pool.rows(sphere_active), w_off),
        ("bound", _stacked(rng, BoundHead([0, 3], [0.1, -0.2]), bound_mlp,
                           bound_mlp.in_dim), bound_w),
    ]


@PROPERTY
@given(seed=seeds)
def test_adjoint_identity_for_every_diff_function(seed):
    rng = np.random.default_rng(seed)
    for name, f, w in _functions(rng):
        lin = ad.linearize(f, w)
        v = rng.standard_normal(f.n_params)
        u = rng.standard_normal(f.n_outputs)
        jv, uj = lin.jvp(v), lin.vjp(u)
        lhs, rhs = u @ jv, uj @ v
        scale = max(abs(lhs), abs(rhs), np.linalg.norm(u) * np.linalg.norm(jv),
                    np.linalg.norm(uj) * np.linalg.norm(v))
        assert abs(lhs - rhs) <= 1e-10 * scale, name


@PROPERTY
@given(seed=seeds)
def test_gram_matches_the_jacobian_built_from_vjps(seed):
    # every constraint family supplies J diag(d_inv) J^T; the oracle stacks
    # one vjp per output into a dense J
    rng = np.random.default_rng(seed)
    with_gram = set()
    for name, f, w in _functions(rng):
        lin = ad.linearize(f, w)
        if lin.gram is None:
            continue
        with_gram.add(name)
        J = np.array([lin.vjp(e) for e in np.eye(f.n_outputs)])
        for d_inv in (float(rng.uniform(0.1, 10.0)), rng.uniform(0.1, 10.0, f.n_params)):
            expect = (J * d_inv) @ J.T
            err = np.linalg.norm(lin.gram(d_inv) - expect)
            assert err <= 1e-10 * max(np.linalg.norm(expect), 1e-300), (name, np.ndim(d_inv))
    assert with_gram == {"symmetry", "sphere", "sphere_rows", "bound"}


def test_sphere_rows_match_the_generic_stack():
    rng = np.random.default_rng(0)
    d = 9
    pool = cs.SpherePool(rng.standard_normal((5, d)), 3.0)
    active = np.array([3, 1, 3, 0])
    rows = pool.rows(active)
    assert isinstance(rows, cs.SphereRows)
    w = rng.standard_normal(d)
    fast = ad.linearize(rows, w)
    reference = cs.ConstraintPool(pool.samples, SphereHead(3.0), OffsetModel(d))
    generic = ad.linearize(reference.rows(active), w)
    v, u = rng.standard_normal(d), rng.standard_normal(4)
    np.testing.assert_allclose(fast.value, generic.value, rtol=1e-14)
    np.testing.assert_allclose(fast.jvp(v), generic.jvp(v), rtol=1e-12)
    np.testing.assert_allclose(fast.vjp(u), generic.vjp(u), rtol=1e-12, atol=1e-14)


@PROPERTY
@given(seed=seeds, variant=st.sampled_from(["sgd", "gauss_newton", "adam"]))
def test_kkt_operators_are_symmetric(seed, variant):
    rng = np.random.default_rng(seed)
    mlp, w = _mlp(rng, out_dim=51)
    constraint = ad.linearize(_stacked(rng, cs.SymmetryHead(), mlp, mlp.in_dim), w)
    X = rng.standard_normal((4, mlp.in_dim))
    Y = rng.standard_normal((4, 51))
    n = mlp.n_params
    if variant == "sgd":
        grad, diag, curvature = rng.standard_normal(n), 1.0, None
    elif variant == "gauss_newton":
        grad, diag = np.zeros(n), 1.0
        curvature = ad.linearize(ad.ScaledResiduals(mlp, X, Y), w)
    else:
        grad = rng.standard_normal(n)
        v = rng.uniform(0.0, 1.0, n)
        t = int(rng.integers(0, 30)) + 1
        f = np.sqrt(1.0 - 0.999 ** t) / (1.0 - 0.9 ** t)
        diag, curvature = (np.sqrt(v) + 1e-8) / f, None
    state = kkt.KktState(float(rng.uniform(0.1, 3.0)) * diag, grad, constraint, curvature)
    assert symmetry_defect(kkt.kkt_operator(state), n_probes=10, seed=seed) <= 1e-10


@pytest.mark.parametrize("f", [bm._AnchorResiduals(np.zeros(3)), LinearMap(np.eye(3))],
                         ids=["anchor", "linear"])
def test_linearize_closures_check_operand_length(f):
    lin = ad.linearize(f, np.ones(3))
    with pytest.raises(linops.DimensionMismatch):
        lin.jvp(np.ones(2))
    with pytest.raises(linops.DimensionMismatch):
        lin.vjp(np.ones(f.n_outputs + 1))
