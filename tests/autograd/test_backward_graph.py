"""Backward-pass machinery: accumulation, detach, no_grad, errors."""

import threading

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    inference_mode,
    is_grad_enabled,
    is_inference,
    no_grad,
)
from repro.autograd.context import enable_grad


class TestBackward:
    def test_scalar_backward_defaults_to_one(self):
        a = Tensor([2.0], requires_grad=True)
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0])

    def test_nonscalar_requires_explicit_grad(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2.0).backward()

    def test_explicit_grad_is_used(self):
        a = Tensor([1.0, 1.0], requires_grad=True)
        (a * 2.0).backward(np.array([1.0, 5.0]))
        np.testing.assert_allclose(a.grad, [2.0, 10.0])

    def test_backward_on_leaf_without_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph(self):
        # y = (a*2) + (a*3): both paths contribute.
        a = Tensor([1.0], requires_grad=True)
        left = a * 2.0
        right = a * 3.0
        (left + right).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_deep_chain_does_not_recurse(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for __ in range(3000):
            x = x + 1.0
        x.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])


class TestGraphControl:
    def test_no_grad_blocks_recording(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad
        assert out._parents == ()

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with enable_grad():
                assert is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_inference_mode_restores_state(self):
        assert not is_inference()
        with inference_mode():
            assert is_inference()
            assert is_grad_enabled()  # an independent switch
        assert not is_inference()
        with pytest.raises(ValueError):
            with inference_mode():
                raise ValueError("boom")
        assert not is_inference()

    def test_inference_mode_is_thread_local(self):
        seen = []
        with inference_mode():
            worker = threading.Thread(target=lambda: seen.append(is_inference()))
            worker.start()
            worker.join(timeout=10)
        assert seen == [False]

    def test_detach_cuts_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad
        c = Tensor([1.0], requires_grad=True)
        (b * c).sum().backward()
        assert a.grad is None
        np.testing.assert_allclose(c.grad, [4.0])

    def test_detach_shares_data(self):
        a = Tensor([1.0, 2.0])
        assert a.detach().data is a.data

    def test_constant_branches_skip_gradient_work(self):
        a = Tensor([1.0], requires_grad=True)
        constant = Tensor([5.0])
        (a * constant).sum().backward()
        assert constant.grad is None


class TestTensorBasics:
    def test_item_and_len(self):
        assert Tensor([[3.5]]).item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_zeros_ones(self):
        assert np.all(Tensor.zeros(2, 3).data == 0)
        assert np.all(Tensor.ones(2, 3).data == 1)
        assert Tensor.zeros(2, 3, requires_grad=True).requires_grad

    def test_numpy_shares_storage(self):
        a = Tensor([1.0, 2.0])
        a.numpy()[0] = 9.0
        assert a.data[0] == 9.0

    def test_as_tensor_passthrough(self):
        from repro.autograd import as_tensor

        a = Tensor([1.0])
        assert as_tensor(a) is a
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)
