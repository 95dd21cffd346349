"""Autodiff core: primitives, backward semantics, gradient checking."""

import gc
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from gldn import tensor as T
from gldn.errors import ConfigError, DimensionError, DomainError, NumericsError
from gldn.tensor import Tensor, backward, concat, grad_check, matmul, permute_axes


def t64(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_product(self):
        # [[1,2]] x [[3],[4]] -> 1*3 + 2*4 = 11
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out.item() == 11.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_batch_extents_mismatch(self):
        with pytest.raises(DimensionError, match="matmul"):
            matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 4))))

    def test_batched_broadcast(self):
        a = np.random.default_rng(0).normal(size=(3, 2, 4))
        b = np.random.default_rng(1).normal(size=(4, 5))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a.astype(np.float32) @ b.astype(np.float32), rtol=1e-5)

    def test_gradients_match_rules(self):
        # dA = dC.B^T, dB = A^T.dC with dC = ones
        rng = np.random.default_rng(2)
        a = t64(rng.normal(size=(3, 4)))
        b = t64(rng.normal(size=(4, 2)))
        loss = matmul(a, b).sum()
        backward(loss)
        g = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ g, rtol=1e-12)


class TestPermute:
    def test_identity_bitwise(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        out = permute_axes(x, (0, 1, 2))
        np.testing.assert_array_equal(out.data, x.data)

    def test_involution_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rank = rng.integers(1, 5)
            shape = tuple(rng.integers(1, 5, size=rank))
            perm = tuple(rng.permutation(rank))
            inverse = tuple(np.argsort(perm))
            x = Tensor(rng.normal(size=shape))
            np.testing.assert_array_equal(permute_axes(permute_axes(x, perm), inverse).data, x.data)

    def test_volume_shape(self):
        x = Tensor(np.zeros((96, 112, 96), dtype=np.float32))
        assert permute_axes(x, (1, 0, 2)).shape == (112, 96, 96)

    def test_not_a_permutation(self):
        with pytest.raises(DimensionError, match="not a permutation"):
            permute_axes(Tensor(np.ones((2, 2))), (0, 0))


class TestConcat:
    def test_channel_concat_shape(self):
        a = Tensor(np.zeros((32, 24, 28, 24), dtype=np.float32))
        b = Tensor(np.zeros((8, 24, 28, 24), dtype=np.float32))
        assert concat([a, b], axis=0).shape == (40, 24, 28, 24)

    def test_single_part_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
        np.testing.assert_array_equal(concat([x], axis=1).data, x.data)

    def test_mismatch(self):
        with pytest.raises(DimensionError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)

    def test_axis_out_of_range(self):
        a = Tensor(np.ones((2, 3)))
        for axis in (2, 7, -3):
            with pytest.raises(DimensionError, match="out of range"):
                concat([a, a], axis=axis)

    def test_zero_parts(self):
        with pytest.raises(DimensionError, match="zero parts"):
            concat([], axis=0)

    def test_concat_split_roundtrip_bitwise(self):
        rng = np.random.default_rng(3)
        parts = [Tensor(rng.normal(size=(rng.integers(1, 5), 3, 2)).astype(np.float32)) for _ in range(4)]
        whole = concat(parts, axis=0)
        start = 0
        for p in parts:
            stop = start + p.shape[0]
            np.testing.assert_array_equal(whole.data[start:stop], p.data)
            start = stop

    def test_gradient_routes_to_parts(self):
        a, b = t64(np.ones((2, 2))), t64(np.ones((3, 2)))
        loss = (concat([a, b], axis=0) * Tensor(np.arange(10, dtype=np.float64).reshape(5, 2))).sum()
        backward(loss)
        np.testing.assert_array_equal(a.grad, [[0, 1], [2, 3]])
        np.testing.assert_array_equal(b.grad, [[4, 5], [6, 7], [8, 9]])


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.random.default_rng(0).normal(size=(3, 4, 2)))
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((3, 4, 2)))

    def test_sum_of_squares(self):
        # d/dx sum(x*x) = 2x
        x = t64([1.0, 2.0, 3.0])
        backward((x * x).sum())
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-12)

    def test_unreachable_parameter_grad_stays_zero(self):
        x = t64([1.0, 2.0])
        other = t64([5.0])
        backward(x.sum())
        np.testing.assert_array_equal(other.grad, [0.0])

    def test_non_scalar_loss(self):
        with pytest.raises(DimensionError, match="scalar"):
            backward(t64([1.0, 2.0]))

    def test_loss_without_graph(self):
        with pytest.raises(ConfigError, match="recorded"):
            backward(Tensor(np.float64(3.0)))

    def test_accumulation_on_repeated_backward(self):
        x = t64([1.0, 2.0, 3.0])
        loss = (x * x).sum()
        backward(loss)
        backward(loss)
        np.testing.assert_allclose(x.grad, [4.0, 8.0, 12.0], rtol=1e-12)

    def test_shared_input_sums_over_paths(self):
        x = t64([2.0])
        y = x * x  # dy/dx through two uses of x = 2x
        backward(y.sum())
        np.testing.assert_allclose(x.grad, [4.0], rtol=1e-12)

    def test_linearity_of_gradients(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 3))

        def losses(x):
            a = (matmul(x, Tensor(w, dtype=np.float64)) * x.sum()).sum()
            b = (x * x * x).sum()
            return a, b

        x1 = t64(data)
        la, lb = losses(x1)
        backward(la + lb)
        x2 = t64(data)
        la, lb = losses(x2)
        backward(la)
        backward(lb)
        np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-12)

    def test_only_leaves_hold_grads(self):
        # d/dw sum(exp(w*x)) = x*exp(w*x), d/dx = w*exp(w*x)
        w = t64([0.5, -1.0])
        x = t64([2.0, 3.0])
        products = w * x
        exps = T.exp(products)
        loss = exps.sum()
        backward(loss)
        assert products.grad is None and exps.grad is None and loss.grad is None
        np.testing.assert_allclose(w.grad, x.data * np.exp(w.data * x.data), rtol=1e-12)
        np.testing.assert_allclose(x.grad, w.data * np.exp(w.data * x.data), rtol=1e-12)

    def test_leaf_loss_gains_one(self):
        x = t64(2.5)
        backward(x)
        assert x.grad == 1.0
        backward(x)
        assert x.grad == 2.0

    def test_unread_op_output_is_freed(self):
        # no backward rule reads `a`, so the tape must not keep its data alive
        x = t64([1.0, 2.0])
        a = T.add(x, x)
        b = T.add(a, x)
        ref = weakref.ref(a.data)
        del a
        gc.collect()
        assert ref() is None
        backward(b.sum())
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_no_grad_records_nothing(self):
        x = t64([1.0])
        with T.no_grad():
            y = x * x
        assert y._node is None and not y.requires_grad


class TestFiniteChecks:
    def test_division_blowup_surfaces(self):
        with pytest.raises(NumericsError):
            Tensor([1.0]) / Tensor([0.0])

    def test_log_of_zero_surfaces(self):
        with pytest.raises(NumericsError):
            T.log(Tensor([0.0]))

    def test_nan_construction_rejected(self):
        with pytest.raises(NumericsError):
            Tensor([np.nan])

    def test_zero_extent_rejected(self):
        with pytest.raises(DimensionError, match="positive"):
            Tensor(np.zeros((2, 0, 3)))

    @pytest.mark.parametrize(
        "data, kind",
        [(Tensor(np.ones(3)), "Tensor"), ("abc", "str")],
        ids=["tensor", "string"],
    )
    def test_non_numeric_data_rejected(self, data, kind):
        with pytest.raises(DomainError, match=f"numeric, got {kind}"):
            Tensor(data)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_reduction_overflow_surfaces(self):
        x = Tensor(np.full(4, 3e38, np.float32), requires_grad=True)
        with pytest.raises(NumericsError, match="tsum"):
            x.sum()
        with pytest.raises(NumericsError, match="tmean"):
            x.mean()


    def test_forward_check_allocates_no_full_size_temporary(self):
        out = np.ones((1, 8, 32, 32, 32), np.float32)  # 1 MiB
        x = Tensor(out, requires_grad=True)
        tracemalloc.start()
        try:
            T.apply_op(out, (x,), lambda g: (g,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes / 16, peak / out.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
class TestEachNonFiniteValueRaises:
    @staticmethod
    def poisoned(bad):
        a = np.ones((2, 3))
        a[1, 2] = bad
        return a

    def test_construction(self, bad):
        with pytest.raises(NumericsError, match="constructed"):
            Tensor(self.poisoned(bad))

    def test_forward_op(self, bad):
        x = t64(np.ones((2, 3)))
        with pytest.raises(NumericsError, match="forward op"):
            T.apply_op(self.poisoned(bad), (x,), lambda g: (g,))

    def test_leaf_gradient(self, bad):
        x = t64(np.ones((2, 3)))
        y = T.apply_op(x.data * 2.0, (x,), lambda g: (self.poisoned(bad),))
        with pytest.raises(NumericsError, match="backward op"):
            backward(y.sum())


class TestFiniteErrorMessage:
    def test_names_op_shape_and_dtype(self):
        with pytest.raises(NumericsError, match=r"div\.<locals>\.bwd.*\(1,\).*float32"):
            Tensor([1.0]) / Tensor([0.0])

    def test_backward_names_op_shape_and_dtype(self):
        def nan_grad(t):
            def poisoned(g):
                return (np.full(t.shape, np.nan),)

            return T.apply_op(t.data * 2.0, (t,), poisoned)

        x = t64(np.ones((2, 3)))
        x.grad[...] = 7.0
        with pytest.raises(NumericsError, match=r"nan_grad\.<locals>\.poisoned.*\(2, 3\).*float64"):
            backward(nan_grad(x).sum())
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 7.0))


class TestBroadcasting:
    def test_unbroadcast_sums_grad(self):
        a = t64(np.ones((3, 4)))
        b = t64(np.ones((1, 4)))
        backward((a * b).sum())
        np.testing.assert_array_equal(b.grad, np.full((1, 4), 3.0))

    def test_scalar_operand(self):
        x = t64([1.0, 2.0])
        backward((x * 3.0).sum())
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])


class TestShapeErrors:
    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
    def test_elementwise_incompatible(self, op):
        with pytest.raises(DimensionError, match=r"\(3,\).*\(4,\)"):
            op(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_reshape_wrong_size(self):
        with pytest.raises(DimensionError, match=r"size 6.*\(4,\)"):
            T.reshape(Tensor(np.ones((2, 3))), (4,))

    @pytest.mark.parametrize("op", [T.tsum, T.tmean])
    def test_reduction_axis_out_of_range(self, op):
        x = Tensor(np.zeros((2, 3)))
        for axis in (2, 5, -3, (0, 5)):
            with pytest.raises(DimensionError, match="out of range"):
                op(x, axis=axis)
        assert op(x, axis=-1).shape == (2,)

    def test_item_of_non_scalar(self):
        with pytest.raises(DimensionError, match="item"):
            Tensor(np.ones(2)).item()


class TestGradCheck:
    def test_sum_of_squares_passes_tight(self):
        x = t64(np.random.default_rng(5).uniform(0.2, 1.0, size=(3, 3)))
        (res,) = grad_check(lambda t: (t * t).sum(), [x], tol=1e-6)
        assert res.passed, res

    def test_wrong_backward_rule_fails(self):
        def bad_square(t):
            # deliberately wrong backward: d(x^2) claimed to be 3x
            out_data = t.data * t.data
            return T.apply_op(out_data, (t,), lambda g: (g * 3.0 * t.data,))

        x = t64(np.random.default_rng(6).uniform(0.5, 1.5, size=(4,)))
        (res,) = grad_check(lambda t: bad_square(t).sum(), [x], tol=1e-4)
        assert not res.passed

    def test_mixed_expression(self):
        rng = np.random.default_rng(7)
        a = t64(rng.uniform(0.5, 1.5, size=(3, 2)))
        b = t64(rng.uniform(0.5, 1.5, size=(2, 3)))

        def f(a, b):
            return (T.exp(matmul(a, b).mean()) + T.log(a.sum()) + T.sqrt((b * b).sum())).sum()

        for res in grad_check(f, [a, b], tol=1e-6):
            assert res.passed, res

    def test_rejects_float32(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ConfigError, match="float64"):
            grad_check(lambda t: t.sum(), [x])

    def test_rejects_input_without_grad(self):
        x = Tensor(np.ones(3, dtype=np.float64))
        with pytest.raises(ConfigError, match="require grad"):
            grad_check(lambda t: t.sum(), [x])

    def test_rejects_non_scalar_target(self):
        with pytest.raises(DimensionError, match="scalar"):
            grad_check(lambda t: t * t, [t64([1.0, 2.0])])

    def test_sampled_subset(self):
        x = t64(np.random.default_rng(8).uniform(0.5, 1.5, size=(40,)))
        (res,) = grad_check(lambda t: (t * t * t).sum(), [x], tol=1e-5, sample=7)
        assert res.passed and res.n_checked == 7


class TestPrimitiveGradients:
    """Every differentiable primitive vs central finite differences, 64-bit."""

    @pytest.mark.parametrize(
        "name,fn",
        [
            ("add", lambda a, b: (a + b).sum()),
            ("sub", lambda a, b: (a - b).sum()),
            ("mul", lambda a, b: (a * b * 2.0).sum()),
            ("div", lambda a, b: (a / b).sum()),
            ("matmul", lambda a, b: matmul(a, T.reshape(b, (b.shape[1], b.shape[0]))).sum()),
        ],
    )
    def test_binary_ops(self, name, fn):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        a = t64(rng.uniform(0.5, 1.5, size=(4, 3)))
        b = t64(rng.uniform(0.5, 1.5, size=(4, 3)))
        wrapped = lambda a, b: fn(a, b) * fn(a, b)  # exercise shared subgraphs too
        for res in grad_check(wrapped, [a, b], tol=1e-6):
            assert res.passed, (name, res)

    @pytest.mark.parametrize(
        "name,fn",
        [
            ("neg", lambda a: (-a).sum()),
            ("exp", lambda a: T.exp(a).sum()),
            ("log", lambda a: T.log(a).sum()),
            ("sqrt", lambda a: T.sqrt(a).sum()),
            ("mean", lambda a: a.mean(axis=1).sum()),
            ("sum_axis", lambda a: (a.sum(axis=0, keepdims=True) * 3.0).sum()),
            ("reshape", lambda a: (a.reshape(12) * a.reshape(12)).sum()),
            ("permute", lambda a: (permute_axes(a, (1, 0)) * 2.0).sum()),
            ("concat", lambda a: concat([a, a * 2.0], axis=1).sum()),
        ],
    )
    def test_unary_ops(self, name, fn):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        a = t64(rng.uniform(0.4, 1.6, size=(4, 3)))
        (res,) = grad_check(fn, [a], tol=1e-6)
        assert res.passed, (name, res)

    def test_random_shapes_small_extents(self):
        # invariant: analytic matches FD within 1e-4 on random shapes, extents <= 6
        rng = np.random.default_rng(11)
        for trial in range(5):
            rank = int(rng.integers(1, 4))
            shape = tuple(int(n) for n in rng.integers(1, 7, size=rank))
            a = t64(rng.uniform(0.3, 1.2, size=shape))

            def f(a):
                return (T.exp(a * 0.3) * a + T.sqrt(a)).mean()

            (res,) = grad_check(f, [a], tol=1e-4)
            assert res.passed, (trial, shape, res)
