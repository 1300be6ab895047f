"""Linear, Embedding, LayerNorm, Dropout, activations, init schemes."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, inference_mode
from repro.nn import Dropout, Embedding, LayerNorm, Linear
from repro.nn import init as nn_init


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer(Tensor(rng.normal(size=(7, 4)))).shape == (7, 3)
        assert layer(Tensor(rng.normal(size=(2, 5, 4)))).shape == (2, 5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        zero = layer(Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(zero.data, np.zeros((1, 3)))

    def test_gradients_flow_to_weights(self, rng):
        layer = Linear(4, 3, rng=rng)
        layer(Tensor(rng.normal(size=(5, 4)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_gradcheck_through_layer(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        gradcheck(lambda t: layer(t).sigmoid(), [x])

    def test_glorot_option(self, rng):
        layer = Linear(100, 100, weight_init="glorot", rng=rng)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= limit + 1e-12

    def test_unknown_init_raises(self):
        with pytest.raises(ValueError):
            Linear(2, 2, weight_init="bogus")


class TestEmbedding:
    def test_lookup_shapes(self, rng):
        table = Embedding(10, 4, rng=rng)
        assert table(np.array([1, 2])).shape == (2, 4)
        assert table(np.array([[1, 2, 3], [4, 5, 6]])).shape == (2, 3, 4)

    def test_lookup_values(self, rng):
        table = Embedding(10, 4, rng=rng)
        indices = np.array([3, 3, 7])
        np.testing.assert_array_equal(table(indices).data, table.weight.data[indices])

    def test_out_of_range_raises(self, rng):
        table = Embedding(5, 2, rng=rng)
        with pytest.raises(IndexError):
            table(np.array([5]))
        with pytest.raises(IndexError):
            table(np.array([-1]))

    def test_gradient_scatter(self, rng):
        table = Embedding(6, 3, rng=rng)
        table(np.array([2, 2, 4])).sum().backward()
        grad = table.weight.grad
        np.testing.assert_allclose(grad[2], 2 * np.ones(3))
        np.testing.assert_allclose(grad[4], np.ones(3))
        np.testing.assert_allclose(grad[0], np.zeros(3))

    def test_gaussian_option(self, rng):
        table = Embedding(1000, 8, weight_init="gaussian", rng=rng)
        assert abs(table.weight.data.std() - 0.1) < 0.02


class TestLayerNorm:
    def test_normalizes_last_axis(self, rng):
        layer = LayerNorm(6)
        out = layer(Tensor(rng.normal(loc=5.0, scale=3.0, size=(4, 6))))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-2)

    def test_affine_parameters_learnable(self, rng):
        layer = LayerNorm(4)
        layer(Tensor(rng.normal(size=(3, 4)), requires_grad=True)).sum().backward()
        assert layer.gain.grad is not None
        assert layer.bias.grad is not None

    def test_gradcheck(self, rng):
        layer = LayerNorm(5)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        gradcheck(lambda t: layer(t), [x], atol=1e-4)

    def test_constant_row_stays_finite(self):
        layer = LayerNorm(4)
        out = layer(Tensor(np.ones((1, 4))))
        assert np.isfinite(out.data).all()


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.train(False)
        x = Tensor(rng.normal(size=(10, 10)))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_inference_mode_is_identity_without_touching_the_flag(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = Tensor(rng.normal(size=(10, 10)))
        with inference_mode():
            np.testing.assert_array_equal(layer(x).data, x.data)
        assert layer.training
        assert (layer(x).data == 0).any()

    def test_zero_rate_is_identity(self, rng):
        layer = Dropout(0.0, rng=rng)
        x = Tensor(rng.normal(size=(5, 5)))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_training_mode_zeroes_and_scales(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = Tensor(np.ones((100, 100)))
        out = layer(x).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_expectation_preserved(self, rng):
        layer = Dropout(0.3, rng=rng)
        x = Tensor(np.ones((200, 200)))
        assert abs(layer(x).data.mean() - 1.0) < 0.02

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestInit:
    def test_glorot_bounds(self, rng):
        weights = nn_init.glorot_uniform((50, 30), rng)
        limit = np.sqrt(6.0 / 80)
        assert np.abs(weights).max() <= limit

    def test_gaussian_std(self, rng):
        weights = nn_init.gaussian((200, 200), rng)
        assert abs(weights.std() - 0.1) < 0.01

    def test_zeros(self):
        np.testing.assert_array_equal(nn_init.zeros((3, 2)), np.zeros((3, 2)))

    def test_fans_1d(self):
        assert nn_init._fans((7,)) == (7, 7)
