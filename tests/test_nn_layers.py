"""Layer-level tests: shapes, reference implementations, and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from repro.nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.nn.layers import col2im, im2col
from tests import parent_training as parent


def to_float64(*layers):
    """Promote layer parameters/gradients to float64 for numerical checks."""
    for layer in layers:
        for obj in (getattr(layer, "layers", None) or [layer]):
            obj.params = {k: v.astype(np.float64) for k, v in obj.params.items()}
            obj.grads = {k: np.zeros_like(v) for k, v in obj.params.items()}


def numerical_grad(f, x, eps=1e-4):
    """Central-difference gradient of scalar function ``f`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


class TestIm2Col:
    def test_shapes(self):
        x = np.arange(2 * 3 * 6 * 8, dtype=np.float32).reshape(2, 3, 6, 8)
        cols, oh, ow = im2col(x, 3, 3, 1, 0)
        assert (oh, ow) == (4, 6)
        assert cols.shape == (2 * 4 * 6, 3 * 9)

    def test_stride_and_pad(self):
        x = np.ones((1, 1, 5, 5), dtype=np.float32)
        cols, oh, ow = im2col(x, 3, 3, 2, 1)
        assert (oh, ow) == (3, 3)

    def test_patch_contents(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols, oh, ow = im2col(x, 2, 2, 2, 0)
        # First patch is the top-left 2x2 block.
        np.testing.assert_array_equal(cols[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[-1], [10, 11, 14, 15])

    def test_too_large_kernel_raises(self):
        with pytest.raises(ValueError):
            im2col(np.ones((1, 1, 2, 2), dtype=np.float32), 5, 5, 1, 0)

    def test_col2im_adjoint_identity(self):
        # <im2col(x), C> == <x, col2im(C)> (adjointness), checked via random
        # vectors: a standard dot-product test for linear-operator pairs.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 6, 7)).astype(np.float64)
        cols, oh, ow = im2col(x, 3, 3, 2, 1)
        c = rng.standard_normal(cols.shape)
        lhs = float((cols * c).sum())
        back = col2im(c, x.shape, 3, 3, 2, 1, oh, ow)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConv2D:
    def test_matches_scipy_correlate(self):
        rng = np.random.default_rng(1)
        conv = Conv2D(2, 3, 3, rng=rng)
        x = rng.standard_normal((1, 2, 8, 9)).astype(np.float32)
        out = conv.forward(x)
        for oc in range(3):
            expected = np.zeros((6, 7))
            for ic in range(2):
                expected += signal.correlate2d(
                    x[0, ic].astype(np.float64),
                    conv.params["W"][oc, ic].astype(np.float64),
                    mode="valid",
                )
            expected += conv.params["b"][oc]
            np.testing.assert_allclose(out[0, oc], expected, rtol=1e-4, atol=1e-4)

    def test_output_shape_stride_pad(self):
        conv = Conv2D(1, 4, 5, stride=2, pad=2, rng=np.random.default_rng(0))
        out = conv.forward(np.zeros((3, 1, 20, 20), dtype=np.float32))
        assert out.shape == (3, 4, 10, 10)

    def test_rejects_wrong_channels(self):
        conv = Conv2D(2, 4, 3)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 3, 8, 8), dtype=np.float32))

    def test_input_gradient(self):
        rng = np.random.default_rng(2)
        conv = Conv2D(1, 2, 3, stride=1, pad=1, rng=rng)
        to_float64(conv)
        x = rng.standard_normal((2, 1, 5, 5))

        def loss():
            return float((conv.forward(x) ** 2).sum() / 2)

        loss()
        dx = conv.backward(conv.forward(x))
        num = numerical_grad(loss, x)
        np.testing.assert_allclose(dx, num, rtol=1e-2, atol=1e-3)

    def test_weight_gradient(self):
        rng = np.random.default_rng(3)
        conv = Conv2D(2, 2, 3, rng=rng)
        to_float64(conv)
        x = rng.standard_normal((2, 2, 6, 6))

        def loss():
            return float((conv.forward(x) ** 2).sum() / 2)

        out = conv.forward(x)
        conv.zero_grads()
        conv.backward(out)
        num_w = numerical_grad(loss, conv.params["W"])
        num_b = numerical_grad(loss, conv.params["b"])
        np.testing.assert_allclose(conv.grads["W"], num_w, rtol=1e-2, atol=1e-2)
        np.testing.assert_allclose(conv.grads["b"], num_b, rtol=1e-2, atol=1e-2)


class TestDense:
    def test_forward_linear(self):
        d = Dense(3, 2, rng=np.random.default_rng(0))
        d.params["W"][...] = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
        d.params["b"][...] = np.array([0.5, -0.5], dtype=np.float32)
        out = d.forward(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[4.5, 4.5]])

    def test_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            Dense(4, 2).forward(np.zeros((2, 2, 2), dtype=np.float32))

    def test_gradients(self):
        rng = np.random.default_rng(4)
        d = Dense(5, 3, rng=rng)
        to_float64(d)
        x = rng.standard_normal((4, 5))

        def loss():
            return float((d.forward(x) ** 2).sum() / 2)

        out = d.forward(x)
        d.zero_grads()
        dx = d.backward(out)
        np.testing.assert_allclose(dx, numerical_grad(loss, x), rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(
            d.grads["W"], numerical_grad(loss, d.params["W"]), rtol=1e-2, atol=1e-3
        )
        np.testing.assert_allclose(
            d.grads["b"], numerical_grad(loss, d.params["b"]), rtol=1e-2, atol=1e-3
        )

    def test_grad_accumulation(self):
        d = Dense(2, 2, rng=np.random.default_rng(5))
        x = np.ones((1, 2), dtype=np.float32)
        d.forward(x)
        d.backward(np.ones((1, 2), dtype=np.float32))
        g1 = d.grads["W"].copy()
        d.forward(x)
        d.backward(np.ones((1, 2), dtype=np.float32))
        np.testing.assert_allclose(d.grads["W"], 2 * g1)
        d.zero_grads()
        np.testing.assert_allclose(d.grads["W"], 0)


class TestMaxPool:
    def test_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_max(self):
        pool = MaxPool2D(2)
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        pool.forward(x)
        dx = pool.backward(np.array([[[[10.0]]]], dtype=np.float32))
        np.testing.assert_array_equal(dx[0, 0], [[0, 0], [0, 10]])

    def test_backward_splits_ties(self):
        pool = MaxPool2D(2)
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        pool.forward(x)
        dx = pool.backward(np.array([[[[8.0]]]], dtype=np.float32))
        np.testing.assert_allclose(dx[0, 0], [[2, 2], [2, 2]])

    def test_truncates_odd_input(self):
        out = MaxPool2D(2).forward(np.zeros((1, 1, 5, 5), dtype=np.float32))
        assert out.shape == (1, 1, 2, 2)

    def test_gradient_numerical(self):
        rng = np.random.default_rng(6)
        pool = MaxPool2D(2)
        # Distinct values avoid ties, which the numerical check can't handle.
        x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)

        def loss():
            return float((pool.forward(x) ** 2).sum() / 2)

        out = pool.forward(x)
        dx = pool.backward(out)
        np.testing.assert_allclose(dx, numerical_grad(loss, x), rtol=1e-3, atol=1e-4)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            MaxPool2D(0)
        with pytest.raises(ValueError):
            MaxPool2D(4).forward(np.zeros((1, 1, 2, 2), dtype=np.float32))


def _pool_input(n, c, h, w, dtype, tied, strided, seed):
    """A pool input: few distinct values (ties, +-0.0) or distinct normals,
    optionally a non-contiguous view."""
    rng = np.random.default_rng(seed)
    shape = (n, c, h, 2 * w if strided else w)
    if tied:
        x = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 2.0]), size=shape)
    else:
        x = rng.standard_normal(shape)
    x = x.astype(dtype)
    return x[..., ::2] if strided else x


class TestPoolMatchesParentFormulas:
    """The slice kernels promise the 6-D view formulas' values bit for bit
    (``array_equal``: which zero a window of +-0.0 yields is IEEE's choice)."""

    @settings(max_examples=120, deadline=None)
    @given(
        size=st.integers(1, 3),
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        windows=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        extra=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        dtype=st.sampled_from([np.float32, np.float64]),
        tied=st.booleans(),
        strided=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_forward_backward(self, size, n, c, windows, extra, dtype, tied, strided, seed):
        # ``extra`` rows/columns beyond the last whole window are truncated.
        h = windows[0] * size + extra[0] % size
        w = windows[1] * size + extra[1] % size
        x = _pool_input(n, c, h, w, dtype, tied, strided, seed)
        pool, ref = MaxPool2D(size), MaxPool2D(size)
        out, want = pool.forward(x), parent.pool_forward(ref, x)
        assert out.dtype == want.dtype and np.array_equal(out, want)
        assert np.array_equal(pool.infer(x), want)
        dout = np.random.default_rng(seed + 1).standard_normal(want.shape).astype(dtype)
        dx, want_dx = pool.backward(dout), parent.pool_backward(ref, dout)
        assert dx.dtype == want_dx.dtype and dx.shape == x.shape
        assert np.array_equal(dx, want_dx)

    @pytest.mark.parametrize("shape", [(64, 8, 23, 23), (64, 16, 9, 9)])
    def test_snm_geometries(self, shape):
        # The SNM's two pools: odd inputs, 23 -> 11 and 9 -> 4.
        x = _pool_input(*shape, np.float32, False, False, 3)
        x[:, :, :4, :4] = 0.0  # post-ReLU maps are full of tied zeros
        pool, ref = MaxPool2D(2), MaxPool2D(2)
        assert np.array_equal(pool.forward(x), parent.pool_forward(ref, x))
        dout = np.random.default_rng(4).standard_normal(
            (shape[0], shape[1], shape[2] // 2, shape[3] // 2)
        ).astype(np.float32)
        assert np.array_equal(pool.backward(dout), parent.pool_backward(ref, dout))

    def test_constant_windows_split_evenly(self):
        for size in (1, 2, 3):
            x = np.full((1, 2, 2 * size, 2 * size), -0.0, dtype=np.float32)
            pool, ref = MaxPool2D(size), MaxPool2D(size)
            pool.forward(x), parent.pool_forward(ref, x)
            dout = np.array([1.0, -7.0, 3.0, 1e-30], np.float32).repeat(2).reshape(1, 2, 2, 2)
            dx = pool.backward(dout)
            assert np.array_equal(dx, parent.pool_backward(ref, dout))
            assert dx[0, 0, 0, 0] == np.float32(1.0) / np.float32(size * size)


class TestParameterOnlyBackward:
    def _net(self, first, rng):
        if first == "conv":
            return Sequential(
                [Conv2D(2, 3, 3, stride=2, rng=rng), ReLU(), MaxPool2D(2), Flatten(),
                 Dense(3 * 2 * 2, 2, rng=rng)]
            ), rng.standard_normal((4, 2, 11, 11)).astype(np.float32)
        return Sequential([Dense(6, 4, rng=rng), ReLU(), Dense(4, 2, rng=rng)]), (
            rng.standard_normal((5, 6)).astype(np.float32)
        )

    @pytest.mark.parametrize("first", ["conv", "dense"])
    def test_same_grads_no_input_grad(self, first):
        net, x = self._net(first, np.random.default_rng(11))
        dout = np.random.default_rng(12).standard_normal((len(x), 2)).astype(np.float32)

        def grads(**kw):
            net.zero_grads()
            net.forward(x)
            dx = net.backward(dout, **kw)
            return dx, [g.copy() for _, _, gs in net.parameters() for g in gs.values()]

        dx, want = grads()
        assert dx.shape == x.shape
        none, got = grads(input_grad=False)
        assert none is None
        assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
        assert float(np.abs(got[0]).sum()) > 0

    def test_first_layer_returns_none(self):
        rng = np.random.default_rng(13)
        for layer, x in (
            (Conv2D(1, 2, 3, rng=rng), rng.standard_normal((2, 1, 6, 6)).astype(np.float32)),
            (Dense(4, 3, rng=rng), rng.standard_normal((2, 4)).astype(np.float32)),
        ):
            out = layer.forward(x)
            assert layer.backward(out, input_grad=False) is None
            assert layer.backward(out).shape == x.shape

    def test_default_matches_parent_backward(self):
        net, x = self._net("conv", np.random.default_rng(14))
        out = net.forward(x)
        assert np.array_equal(net.backward(out), parent.sequential_backward(net, out))

    def test_empty_network_passes_gradient_through(self):
        dout = np.ones((2, 3), dtype=np.float32)
        assert Sequential([]).backward(dout) is dout


class TestActivationsAndShape:
    @settings(max_examples=50, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        strided=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_relu_forward_matches_parent_formula(self, dtype, strided, seed):
        x = _pool_input(2, 3, 5, 4, dtype, seed % 2 == 0, strided, seed)
        relu, ref = ReLU(), ReLU()
        out, want = relu.forward(x), parent.relu_forward(ref, x)
        assert out.dtype == want.dtype and np.array_equal(out, want)
        assert np.array_equal(relu.infer(x), want)
        assert np.array_equal(relu.backward(want), ref.backward(want))

    def test_relu_forward(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0, 0, 2]])

    def test_relu_backward(self):
        r = ReLU()
        r.forward(np.array([[-1.0, 3.0]], dtype=np.float32))
        dx = r.backward(np.array([[5.0, 5.0]], dtype=np.float32))
        np.testing.assert_array_equal(dx, [[0, 5]])

    def test_flatten_roundtrip(self):
        f = Flatten()
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
        out = f.forward(x)
        assert out.shape == (2, 12)
        back = f.backward(out)
        np.testing.assert_array_equal(back, x)

    def test_dropout_inference_identity(self):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        d.training = False
        x = np.ones((4, 4), dtype=np.float32)
        np.testing.assert_array_equal(d.forward(x), x)

    def test_dropout_training_scales(self):
        d = Dropout(0.5, rng=np.random.default_rng(1))
        x = np.ones((2000,), dtype=np.float32)
        out = d.forward(x)
        kept = out > 0
        assert 0.35 < kept.mean() < 0.65
        np.testing.assert_allclose(out[kept], 2.0)

    def test_dropout_backward_uses_same_mask(self):
        d = Dropout(0.5, rng=np.random.default_rng(2))
        x = np.ones((100,), dtype=np.float32)
        out = d.forward(x)
        dx = d.backward(np.ones_like(x))
        np.testing.assert_array_equal(dx, out)

    def test_dropout_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestEndToEndGradient:
    def test_full_network_gradient(self):
        rng = np.random.default_rng(7)
        net = Sequential(
            [
                Conv2D(1, 2, 3, rng=rng),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(2 * 3 * 3, 2, rng=rng),
            ]
        )
        to_float64(net)
        x = rng.standard_normal((2, 1, 8, 8))

        def loss():
            return float((net.forward(x) ** 2).sum() / 2)

        out = net.forward(x)
        net.zero_grads()
        dx = net.backward(out)
        np.testing.assert_allclose(dx, numerical_grad(loss, x), rtol=2e-2, atol=1e-3)
