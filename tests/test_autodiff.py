import numpy as np
import pytest

from hardtrain import autodiff as ad

from util import (LinearMap, ModelOutputs, anchor_residuals, dense_random_mlp, risk,
                  risk_gradient, stencil_crosses_kink)


def straight_line_mlp(widths, w, x):
    """Independent re-evaluation of the network, loop by loop."""
    off = 0
    a = np.asarray(x, dtype=float)
    n_layers = len(widths) - 1
    for l, (din, dout) in enumerate(zip(widths[:-1], widths[1:])):
        W = w[off:off + din * dout].reshape(dout, din)
        off += din * dout
        bias = w[off:off + dout]
        off += dout
        z = W @ a + bias
        a = np.maximum(z, 0.0) if l < n_layers - 1 else z
    return a


def fd_directional(f, w, v, h=1e-5):
    """Central finite difference of f along unit-norm direction v."""
    v = v / np.linalg.norm(v)
    return (ad.value(f, w + h * v) - ad.value(f, w - h * v)) / (2 * h), v


class Square(ad.DiffFunction):
    """f(w) = w**2 elementwise (test helper)."""

    def __init__(self, n):
        self.n_params = n
        self.n_outputs = n

    def value(self, w):
        return w * w

    def linearize(self, w):
        return w * w, lambda v: 2.0 * w * v, lambda u: 2.0 * w * u


def test_mlp_param_count_and_layout():
    mlp = ad.Mlp([4, 7, 3])
    assert mlp.n_params == (4 + 1) * 7 + (7 + 1) * 3
    w = np.arange(mlp.n_params, dtype=float)
    blocks = mlp.unpack(w)
    assert blocks[0][0].shape == (7, 4) and blocks[0][1].shape == (7,)
    assert blocks[1][0].shape == (3, 7) and blocks[1][1].shape == (3,)


def test_mlp_rejects_bad_widths():
    with pytest.raises(ValueError):
        ad.Mlp([4])
    with pytest.raises(ValueError):
        ad.Mlp([4, 0, 2])
    mlp = ad.Mlp([4, 7, 3])
    with pytest.raises(ValueError, match="input width 3 != 4"):
        mlp.forward(np.zeros(mlp.n_params), np.zeros((2, 3)))


def test_value_linear_map():
    f = LinearMap([[1.0, 2.0]])
    np.testing.assert_allclose(ad.value(f, np.array([1.0, 1.0])), [3.0])


def test_value_relu_kills_negative_preactivation():
    mlp = ad.Mlp([1, 1, 1])
    # W0 = 1, b0 = -5 -> z = x - 5 < 0 for x=1 -> ReLU 0 -> output = b1
    w = np.array([1.0, -5.0, 3.0, 0.25])
    out = mlp.forward(w, np.array([[1.0]]))
    np.testing.assert_allclose(out, [[0.25]])


def test_mlp_value_matches_straight_line_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        widths = dense_random_mlp(rng)
        mlp = ad.Mlp(widths)
        w = mlp.init_params(rng)
        x = rng.standard_normal(widths[0])
        got = mlp.forward(w, x[None, :])[0]
        expect = straight_line_mlp(widths, w, x)
        np.testing.assert_array_equal(got, expect)


def test_forward_equals_the_taped_output():
    # the forward-only pass runs the tape's float operations in its order
    rng = np.random.default_rng(3)
    for _ in range(10):
        mlp = ad.Mlp(dense_random_mlp(rng))
        w = mlp.init_params(rng)
        X = rng.standard_normal((5, mlp.in_dim))
        np.testing.assert_array_equal(mlp.forward(w, X), mlp.tape(w, X).out)
    # every hidden pre-activation negative: the ReLUs pass no signal
    mlp = ad.Mlp([2, 3, 2])
    w = np.zeros(mlp.n_params)
    (W0, b0), (_, b1) = mlp.unpack(w)
    W0[:] = 1.0
    b0[:] = -10.0
    b1[:] = [0.5, -0.5]
    X = rng.uniform(-1.0, 1.0, (4, 2))
    out = mlp.forward(w, X)
    np.testing.assert_array_equal(out, mlp.tape(w, X).out)
    np.testing.assert_array_equal(out, np.tile([0.5, -0.5], (4, 1)))
    # NaN inputs propagate the same way through both passes
    X[1, 0] = np.nan
    out = mlp.forward(w, X)
    np.testing.assert_array_equal(out, mlp.tape(w, X).out)
    assert np.isnan(out[1]).all() and np.isfinite(np.delete(out, 1, axis=0)).all()


def test_gradient_quadratic_norm():
    f = anchor_residuals(np.zeros(2))
    w = np.array([1.0, -2.0])
    np.testing.assert_allclose(risk_gradient(f, w), [1.0, -2.0])


def test_gradient_constant_function():
    f = LinearMap(np.zeros((1, 3)), shift=[4.0])
    np.testing.assert_array_equal(risk_gradient(f, np.ones(3)), np.zeros(3))


def test_rop_linear_map():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 6))
    f = LinearMap(A)
    v = rng.standard_normal(6)
    np.testing.assert_allclose(ad.linearize(f, np.zeros(6)).jvp(v), A @ v)


def test_rop_elementwise_square():
    f = Square(2)
    np.testing.assert_allclose(ad.linearize(f, np.array([1.0, 2.0])).jvp(np.array([1.0, 1.0])),
                               [2.0, 4.0])


def test_lop_linear_map_and_basis_rows():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 5))
    f = LinearMap(A)
    u = rng.standard_normal(3)
    np.testing.assert_allclose(ad.linearize(f, np.zeros(5)).vjp(u), u @ A)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        np.testing.assert_allclose(ad.linearize(f, np.zeros(5)).vjp(e), A[i])


def test_mlp_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 30:
        widths = dense_random_mlp(rng, max_width=16)
        mlp = ad.Mlp(widths)
        w = mlp.init_params(rng)
        X = rng.standard_normal((3, widths[0]))
        f = ModelOutputs(mlp, X)
        v = rng.standard_normal(f.n_params)
        vu = v / np.linalg.norm(v)
        if stencil_crosses_kink(mlp, w, X, vu):
            continue
        fd, vu = fd_directional(f, w, vu)
        got = ad.linearize(f, w).jvp(vu)
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(got - fd) / denom <= 1e-5
        checked += 1


def test_scalar_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 30:
        widths = dense_random_mlp(rng, max_width=16, out_dim=4)
        mlp = ad.Mlp(widths)
        w = mlp.init_params(rng)
        X = rng.standard_normal((5, widths[0]))
        Y = rng.standard_normal((5, widths[-1]))
        f = ad.ScaledResiduals(mlp, X, Y)
        g = risk_gradient(f, w)
        v = rng.standard_normal(len(w))
        vu = v / np.linalg.norm(v)
        if stencil_crosses_kink(mlp, w, X, vu):
            continue
        h = 1e-5
        fd = (risk(f, w + h * vu) - risk(f, w - h * vu)) / (2 * h)
        assert abs(g @ vu - fd) / max(abs(fd), 1e-8) <= 1e-5
        checked += 1


def test_adjoint_identity_random_mlps():
    rng = np.random.default_rng(5)
    for _ in range(200):
        widths = dense_random_mlp(rng, max_width=16)
        mlp = ad.Mlp(widths)
        w = mlp.init_params(rng)
        X = rng.standard_normal((2, widths[0]))
        f = ModelOutputs(mlp, X)
        v = rng.standard_normal(f.n_params)
        u = rng.standard_normal(f.n_outputs)
        lhs = u @ ad.linearize(f, w).jvp(v)
        rhs = ad.linearize(f, w).vjp(u) @ v
        scale = max(abs(lhs), abs(rhs), 1e-12)
        assert abs(lhs - rhs) / scale <= 1e-10


def test_gradient_rop_consistency():
    rng = np.random.default_rng(6)
    for _ in range(50):
        widths = dense_random_mlp(rng, max_width=12, out_dim=2)
        mlp = ad.Mlp(widths)
        w = mlp.init_params(rng)
        X = rng.standard_normal((4, widths[0]))
        Y = rng.standard_normal((4, widths[-1]))
        lin = ad.linearize(ad.ScaledResiduals(mlp, X, Y), w)
        v = rng.standard_normal(len(w))
        lhs = lin.vjp(2.0 * lin.value) @ v
        rhs = 2.0 * lin.value @ lin.jvp(v)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_rop_lop_linear_in_vector_argument():
    rng = np.random.default_rng(7)
    mlp = ad.Mlp([3, 8, 4])
    w = mlp.init_params(rng)
    f = ModelOutputs(mlp, rng.standard_normal((2, 3)))
    v1, v2 = rng.standard_normal((2, f.n_params))
    u1, u2 = rng.standard_normal((2, f.n_outputs))
    lin = ad.linearize(f, w)
    np.testing.assert_allclose(
        lin.jvp(2.0 * v1 - v2),
        2.0 * lin.jvp(v1) - lin.jvp(v2), atol=1e-12)
    np.testing.assert_allclose(
        lin.vjp(0.5 * u1 + 3.0 * u2),
        0.5 * lin.vjp(u1) + 3.0 * lin.vjp(u2), atol=1e-12)


def test_length_validation():
    f = Square(3)
    with pytest.raises(Exception):
        ad.value(f, np.ones(2))
    with pytest.raises(Exception):
        ad.linearize(f, np.ones(2))
    with pytest.raises(Exception):
        ad.linearize(f, np.ones(3)).jvp(np.ones(2))
    with pytest.raises(Exception):
        ad.linearize(f, np.ones(3)).vjp(np.ones(2))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    mlp = ad.Mlp([5, 9, 2])
    w = mlp.init_params(rng)
    path = tmp_path / "params.bin"
    ad.save_params(path, w, mlp.layout_hash())
    back = ad.load_params(path, expect_hash=mlp.layout_hash())
    np.testing.assert_array_equal(back, w)


def test_checkpoint_is_little_endian_float64_with_header(tmp_path):
    w = np.array([1.5, -2.0])
    path = tmp_path / "p.bin"
    ad.save_params(path, w, 0xABC)
    raw = path.read_bytes()
    assert raw[:8] == b"HTFLATW1"
    assert int.from_bytes(raw[8:16], "little") == 2
    assert int.from_bytes(raw[16:24], "little") == 0xABC
    np.testing.assert_array_equal(np.frombuffer(raw[24:], dtype="<f8"), w)


def test_checkpoint_rejects_bad_magic_and_hash(tmp_path):
    path = tmp_path / "p.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        ad.load_params(path)
    ad.save_params(path, np.ones(3), 1)
    with pytest.raises(ValueError, match="hash"):
        ad.load_params(path, expect_hash=2)


def test_checkpoint_rejects_truncated_header(tmp_path):
    path = tmp_path / "p.bin"
    ad.save_params(path, np.ones(3), 1)
    raw = path.read_bytes()
    path.write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated checkpoint"):
        ad.load_params(path)
    # a header count is outside input: one beyond the payload is refused,
    # however large, before anything of its size is allocated
    for n in (2**61, 2**59):
        path.write_bytes(raw[:8] + n.to_bytes(8, "little") + raw[16:])
        with pytest.raises(ValueError, match=rf"counts {n} parameters .* but 24 bytes"):
            ad.load_params(path)


def test_checkpoint_rejects_non_finite_parameters(tmp_path):
    path = tmp_path / "p.bin"
    ad.save_params(path, np.ones(3), 1)
    raw = bytearray(path.read_bytes())
    for bad in (np.nan, np.inf):
        raw[32:40] = np.array([bad], dtype="<f8").tobytes()
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="non-finite"):
            ad.load_params(path, expect_hash=1)
