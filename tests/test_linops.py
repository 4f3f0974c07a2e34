import numpy as np
import pytest

from hardtrain import linops

from util import LinearMap, MATERIALIZE_CAP, from_dense, identity, materialize, symmetry_defect


def test_apply_identity():
    op = identity(2)
    np.testing.assert_array_equal(linops.apply(op, np.array([3.0, -1.0])), [3.0, -1.0])


def test_apply_zero_operator():
    op = linops.LinearOperator(4, lambda v: np.zeros(4))
    np.testing.assert_array_equal(linops.apply(op, np.ones(4)), np.zeros(4))


def test_apply_diagonal():
    op = from_dense(np.diag([2.0, 3.0]))
    np.testing.assert_allclose(linops.apply(op, np.array([1.0, 1.0])), [2.0, 3.0])


def test_apply_dimension_mismatch_reports_both_lengths():
    op = identity(3)
    with pytest.raises(linops.DimensionMismatch, match="expected 3, got 2"):
        linops.apply(op, np.ones(2))


def test_apply_does_not_mutate_input():
    op = from_dense(np.diag([2.0, 2.0]))
    v = np.array([1.0, 4.0])
    linops.apply(op, v)
    np.testing.assert_array_equal(v, [1.0, 4.0])


def test_materialize_identity():
    np.testing.assert_array_equal(materialize(identity(3)), np.eye(3))


def test_materialize_round_trips_dense():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 7))
    a = a + a.T
    np.testing.assert_array_equal(materialize(from_dense(a)), a)


def test_materialize_refuses_above_cap():
    op = identity(4)
    with pytest.raises(ValueError, match="cap"):
        materialize(op, cap=3)
    # and the default cap allows anything <= 2048
    assert MATERIALIZE_CAP == 2048


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        linops.as_vector([1.0, np.nan])
    with pytest.raises(ValueError, match="non-finite"):
        linops.as_vector([np.inf, 0.0])


def test_as_vector_rejects_matrices():
    with pytest.raises(ValueError, match="1-D"):
        linops.as_vector(np.ones((2, 2)))


def test_operator_rejects_nonpositive_dim():
    with pytest.raises(ValueError):
        linops.LinearOperator(0, lambda v: v)


def test_symmetry_probe_on_library_operators():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 20))
    ops = [
        identity(20),
        from_dense(np.diag(rng.standard_normal(20))),
        from_dense((a + a.T) / 2),
    ]
    for op in ops:
        assert symmetry_defect(op, n_probes=100, seed=7) <= 1e-10


def test_symmetry_probe_flags_asymmetric_operator():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((10, 10))  # not symmetric
    assert symmetry_defect(from_dense(a), n_probes=20, seed=0) > 1e-3


def test_materialize_saddle_point_operator_matches_block_assembly():
    # 2 parameters, 1 linear constraint: the materialized operator must be
    # the hand-assembled bordered block matrix
    from hardtrain import autodiff as ad
    from hardtrain import kkt

    g = np.array([[1.5, -2.0]])
    fn = LinearMap(g)
    state = kkt.KktState(diag=0.9, grad=np.zeros(2),
                         constraint=ad.linearize(fn, np.zeros(2)))
    expect = np.array([
        [0.9, 0.0, 1.5],
        [0.0, 0.9, -2.0],
        [1.5, -2.0, 0.0],
    ])
    np.testing.assert_allclose(materialize(kkt.kkt_operator(state)),
                               expect, atol=1e-15)


def test_elementwise_ops_preserve_length_no_broadcast():
    # library arithmetic is plain numpy on 1-D float64 vectors; a shape
    # mismatch must raise rather than broadcast
    v = linops.as_vector([1.0, 2.0, 3.0])
    w = linops.as_vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v + w
