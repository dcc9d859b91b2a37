"""Tests for the auto-encoder's network: forward pass, gradients checked
against finite differences, the Adam step, and its weights' round trip."""

import numpy as np
import pytest

from repro.ml import AutoEncoder
from repro.ml.autoencoder import LR

STEP = 1e-6


@pytest.fixture
def block():
    return np.random.default_rng(8).normal(size=(40, 4))


def _net(n_features=3, hidden=(4,), seed=0):
    """A built, untrained auto-encoder. Its biases are drawn too, so that
    no pre-activation sits on ReLU's kink at 0, where a central difference
    and the gradient disagree."""
    ae = AutoEncoder(hidden_neurons=hidden, seed=seed)
    ae._build(n_features)
    rng = np.random.default_rng(seed)
    for b in ae._params[1::2]:
        b[...] = rng.normal(scale=0.1, size=b.shape)
    return ae


def _numeric(ae, x, index):
    """Central differences of the loss in every entry of parameter *index*."""
    p = ae._params[index]
    out = np.zeros_like(p)
    for i in np.ndindex(p.shape):
        orig = p[i]
        p[i] = orig + STEP
        lp = ae._gradients(x)[0]
        p[i] = orig - STEP
        lm = ae._gradients(x)[0]
        p[i] = orig
        out[i] = (lp - lm) / (2 * STEP)
    return out


class TestActivations:
    def test_relu_forward(self):
        ae = _net()
        x = np.random.default_rng(0).normal(size=(5, 3))
        zs = ae._forward(x)
        W, b = ae._params[0::2], ae._params[1::2]
        np.testing.assert_array_equal(zs[0], x @ W[0] + b[0])
        for i in range(1, len(zs)):
            np.testing.assert_array_equal(zs[i], np.maximum(zs[i - 1], 0.0) @ W[i] + b[i])
        assert (zs[-1] < 0).any()  # identity on the last layer


class TestDense:
    def test_output_shape(self):
        zs = _net()._forward(np.zeros((7, 3)))
        assert [z.shape for z in zs] == [(7, 3), (7, 4), (7, 3), (7, 3)]

    def test_param_count(self):
        ae = _net()
        assert ae._params[4].size + ae._params[5].size == 4 * 3 + 3

    def test_glorot_initialisation_bounds(self):
        ae = AutoEncoder(hidden_neurons=(50,), seed=1)
        ae._build(100)
        for W, b in zip(ae._params[0::2], ae._params[1::2]):
            limit = np.sqrt(6.0 / sum(W.shape))
            assert np.abs(W).max() <= limit
            assert np.abs(W).max() > 0.9 * limit
            assert (b == 0).all()

    def test_gradient_check_weights(self):
        ae = _net(seed=2)
        x = np.random.default_rng(2).normal(size=(4, 3))
        _, grads = ae._gradients(x)
        for index in (len(ae._params) - 2, len(ae._params) - 1):  # the output layer
            np.testing.assert_allclose(grads[index], _numeric(ae, x, index), atol=1e-5)

    def test_gradient_check_input(self):
        # What reaches the first layer went back through every later
        # layer's input, so it is right only if each of those is.
        ae = _net(seed=3)
        x = np.random.default_rng(3).normal(size=(6, 3))
        _, grads = ae._gradients(x)
        for index in (0, 1):
            np.testing.assert_allclose(grads[index], _numeric(ae, x, index), atol=1e-5)


class TestLosses:
    def test_mse_value(self):
        ae = _net(n_features=2)
        for p in ae._params:
            p[...] = 0.0  # reconstructs every row as zeros
        loss, _ = ae._gradients(np.array([[1.0, 2.0]]))
        assert loss == 2.5

    def test_mse_gradient_matches_finite_difference(self):
        # The output bias's gradient is the loss's gradient in the output.
        ae = _net(seed=4)
        x = np.random.default_rng(4).normal(size=(3, 3))
        _, grads = ae._gradients(x)
        pred = ae._forward(x)[-1]
        np.testing.assert_allclose(grads[-1], (2 * (pred - x) / pred.size).sum(axis=0))
        np.testing.assert_allclose(grads[-1], _numeric(ae, x, len(ae._params) - 1), atol=1e-5)


class TestOptimizers:
    def test_adam_converges(self):
        ae = _net(seed=5)
        x = np.random.default_rng(5).normal(size=(32, 3))
        first = ae._gradients(x)[0]
        for _ in range(1000):
            ae._adam_step(ae._gradients(x)[1])
        assert ae._gradients(x)[0] < 0.6 * first

    def test_adam_bias_correction_first_step(self):
        # After one step with gradient g, Adam moves each parameter by
        # ~lr * sign(g), whatever |g| is.
        ae = _net()
        before = [p.copy() for p in ae._params]
        signs = [np.where(np.arange(p.size).reshape(p.shape) % 2, 1.0, -1.0) for p in before]
        ae._adam_step([0.5 * s for s in signs])
        for p, b, s in zip(ae._params, before, signs):
            np.testing.assert_allclose(b - p, LR * s, rtol=1e-6)


class TestSequential:
    def test_param_count(self):
        # sizes [4, 4, 2, 4, 4]: (4*4+4) + (4*2+2) + (2*4+4) + (4*4+4)
        assert _net(n_features=4, hidden=(2,)).n_params == 20 + 10 + 12 + 20

    def test_empty_rejected(self):
        # a network with no hidden layer, or one of zero width, is refused
        # before anything is built
        for hidden in ((), (4, 0, 4)):
            with pytest.raises(ValueError):
                AutoEncoder(hidden_neurons=hidden)

    def test_learns_identity_map(self):
        X = np.random.default_rng(5).normal(size=(256, 4))
        ae = AutoEncoder(hidden_neurons=(32, 16, 32), epochs=60, seed=0).fit(X)
        assert ae.training_history[-1] < ae.training_history[0] * 0.4

    def test_full_network_gradient_check(self):
        ae = _net(hidden=(5, 2), seed=7)
        x = np.random.default_rng(7).normal(size=(5, 3))
        _, grads = ae._gradients(x)
        assert len(grads) == len(ae._params)
        for index, grad in enumerate(grads):
            np.testing.assert_allclose(grad, _numeric(ae, x, index), atol=1e-5)

    def test_weights_roundtrip(self, block):
        ae = AutoEncoder(hidden_neurons=(5,), epochs=1, seed=0).fit(block)
        other = AutoEncoder(hidden_neurons=(5,), epochs=1, seed=7).fit(block)
        other.set_weights(ae.get_weights())
        for mine, theirs in zip(ae.get_weights()["arrays"], other.get_weights()["arrays"]):
            np.testing.assert_array_equal(mine, theirs)
        np.testing.assert_array_equal(ae.reconstruct(block), other.reconstruct(block))

    def test_set_weights_wrong_count(self, block):
        ae = AutoEncoder(hidden_neurons=(5,), epochs=1, seed=0).fit(block)
        arrays = ae.get_weights()["arrays"]
        with pytest.raises(ValueError, match="expected"):
            ae.set_weights({"arrays": arrays[:-2]})

    def test_set_weights_wrong_shape(self, block):
        ae = AutoEncoder(hidden_neurons=(5,), epochs=1, seed=0).fit(block)
        arrays = ae.get_weights()["arrays"]
        arrays[2] = np.zeros((3, 5))
        with pytest.raises(ValueError, match="shape"):
            ae.set_weights({"arrays": arrays})
