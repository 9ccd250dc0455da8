"""Contraction primitives: dot, traces, binary contraction, mode products."""

import numpy as np
import pytest
from reference import contract_all_but_batch_parent, contract_all_but_loop, power_sweeps_loop

from tensorspec.contract import (
    contract,
    contract_all,
    contract_all_but,
    dot,
    mode_product,
    multi_mode_product,
    trace_pair,
)
from tensorspec.tensor import (
    DenseTensor,
    fiber,
    frobenius_inner,
    kronecker,
    outer,
    unit_tensor,
    vectorize,
)


def golden_222():
    arr = np.empty((2, 2, 2))
    arr[:, :, 0] = 1.0
    arr[:, :, 1] = 2.0
    return DenseTensor(arr)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestDot:
    def test_golden(self):
        assert dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0

    def test_coordinate_extraction(self):
        u = rng(0).normal(size=4)
        e2 = unit_tensor([4], (2,))
        assert dot(u, e2) == u[1]

    def test_zero(self):
        assert dot([1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dot([1.0], [1.0, 2.0])


class TestTracePair:
    def test_matrix_trace(self):
        assert trace_pair(DenseTensor([[1.0, 2.0], [3.0, 4.0]]), 1, 2) == 5.0

    def test_outer_trace_is_dot(self):
        r = rng(1)
        x, y = r.normal(size=3), r.normal(size=3)
        assert trace_pair(outer(x, y), 1, 2) == pytest.approx(np.dot(x, y), abs=1e-12)

    def test_trace23_of_outer_is_matmul(self):
        r = rng(2)
        x, y = r.normal(size=(2, 3)), r.normal(size=(3, 4))
        got = trace_pair(outer(x, y), 2, 3)
        assert np.max(np.abs(got.to_array() - x @ y)) <= 1e-12

    def test_trace_equals_eigenvalue_sum(self):
        # A = P diag(lam) P^-1 with well-conditioned random P
        r = rng(3)
        for _ in range(100):
            n = int(r.integers(2, 6))
            q, _ = np.linalg.qr(r.normal(size=(n, n)))
            p = q + 0.1 * r.normal(size=(n, n))
            lam = r.normal(size=n)
            a = p @ np.diag(lam) @ np.linalg.inv(p)
            assert trace_pair(DenseTensor(a), 1, 2) == pytest.approx(lam.sum(), abs=1e-9)

    def test_errors(self):
        t = golden_222()
        with pytest.raises(ValueError):
            trace_pair(t, 1, 1)
        with pytest.raises(IndexError):
            trace_pair(t, 1, 4)
        with pytest.raises(ValueError):
            trace_pair(DenseTensor(np.ones((2, 3))), 1, 2)

    def test_higher_order_linear(self):
        r = rng(4)
        a = DenseTensor(r.normal(size=(2, 3, 3, 2)))
        b = DenseTensor(r.normal(size=(2, 3, 3, 2)))
        lhs = trace_pair(a + b, 2, 3)
        rhs = trace_pair(a, 2, 3) + trace_pair(b, 2, 3)
        assert lhs.allclose(rhs, tol=1e-12)


class TestContract:
    def test_matrix_multiplication(self):
        r = rng(5)
        x, y = r.normal(size=(2, 3)), r.normal(size=(3, 2))
        got = contract(DenseTensor(x), 2, DenseTensor(y), 1)
        assert np.max(np.abs(got.to_array() - x @ y)) <= 1e-12

    def test_column_row_identity(self):
        # XY equals the sum of outer products of X's columns with Y's rows
        r = rng(6)
        x, y = r.normal(size=(3, 4)), r.normal(size=(4, 2))
        acc = DenseTensor.zeros([3, 2])
        for m in range(4):
            acc = acc + outer(x[:, m], y[m, :])
        got = contract(DenseTensor(x), 2, DenseTensor(y), 1)
        assert got.allclose(acc, tol=1e-12)

    def test_unit_vector_slices(self):
        t = golden_222()
        got = contract(t, 3, unit_tensor([2], (2,)), 1)
        assert np.array_equal(got.to_array(), 2.0 * np.ones((2, 2)))

    def test_vector_vector_is_scalar(self):
        assert contract(DenseTensor([1.0, 2.0]), 1, DenseTensor([3.0, 4.0]), 1) == 11.0

    def test_bilinear_and_decomposition_independent(self):
        r = rng(7)
        a1 = DenseTensor(r.normal(size=(2, 3)))
        a2 = DenseTensor(r.normal(size=(2, 3)))
        b = DenseTensor(r.normal(size=(3, 2)))
        lhs = contract(a1 + a2, 2, b, 1)
        rhs = contract(a1, 2, b, 1) + contract(a2, 2, b, 1)
        assert lhs.allclose(rhs, tol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            contract(DenseTensor(np.ones((2, 3))), 2, DenseTensor(np.ones((2, 2))), 1)
        with pytest.raises(IndexError):
            contract(DenseTensor(np.ones((2, 3))), 3, DenseTensor(np.ones((3, 2))), 1)


class TestModeProduct:
    def test_matrix_left_right(self):
        r = rng(8)
        m = r.normal(size=(3, 4))
        l1 = r.normal(size=(2, 3))
        l2 = r.normal(size=(5, 4))
        assert np.max(np.abs(mode_product(DenseTensor(m), 1, l1).to_array() - l1 @ m)) <= 1e-12
        assert np.max(np.abs(mode_product(DenseTensor(m), 2, l2).to_array() - m @ l2.T)) <= 1e-12

    def test_identity(self):
        t = golden_222()
        assert mode_product(t, 2, np.eye(2)) == t

    def test_fiber_action(self):
        # every mode-o fiber gets L applied to it
        r = rng(9)
        t = DenseTensor(r.normal(size=(2, 3, 2)))
        L = r.normal(size=(4, 3))
        got = mode_product(t, 2, L)
        assert got.dims == (2, 4, 2)
        for m1 in range(1, 3):
            for m3 in range(1, 3):
                want = L @ fiber(t, 2, (m1, m3)).to_array()
                assert np.max(np.abs(fiber(got, 2, (m1, m3)).to_array() - want)) <= 1e-12

    def test_commutation_distinct_modes(self):
        r = rng(10)
        for _ in range(20):
            t = DenseTensor(r.normal(size=(2, 3, 2)))
            a = r.normal(size=(4, 2))
            b = r.normal(size=(2, 3))
            lhs = mode_product(mode_product(t, 1, a), 2, b)
            rhs = mode_product(mode_product(t, 2, b), 1, a)
            assert lhs.allclose(rhs, tol=1e-12)

    def test_functoriality_through_one_mode(self):
        r = rng(11)
        for _ in range(20):
            t = DenseTensor(r.normal(size=(3, 2, 2)))
            a = r.normal(size=(4, 5))
            b = r.normal(size=(5, 3))
            lhs = mode_product(t, 1, a @ b)
            rhs = mode_product(mode_product(t, 1, b), 1, a)
            assert lhs.allclose(rhs, tol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            mode_product(golden_222(), 1, np.ones((2, 3)))


class TestMultiModeProduct:
    def test_identity_factors(self):
        t = golden_222()
        assert multi_mode_product(t, [np.eye(2)] * 3) == t

    def test_order_invariance(self):
        r = rng(12)
        g = DenseTensor(r.normal(size=(2, 3, 2)))
        ls = [r.normal(size=(3, 2)), r.normal(size=(2, 3)), r.normal(size=(4, 2))]
        direct = multi_mode_product(g, ls)
        swapped = mode_product(mode_product(mode_product(g, 3, ls[2]), 2, ls[1]), 1, ls[0])
        assert direct.allclose(swapped, tol=1e-12)

    def test_kronecker_vec_identity(self):
        # vec_colex((o L_o)(G)) = (L_O x ... x L_1) vec_colex(G)
        r = rng(13)
        for _ in range(20):
            g = DenseTensor(r.normal(size=(2, 3, 2)))
            ls = [r.normal(size=(3, 2)), r.normal(size=(2, 3)), r.normal(size=(3, 2))]
            lhs = vectorize(multi_mode_product(g, ls), "colex")
            chain = np.kron(ls[2], np.kron(ls[1], ls[0]))
            rhs = chain @ vectorize(g, "colex")
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            multi_mode_product(golden_222(), [np.eye(2)] * 2)


class TestContractAll:
    def test_alias(self):
        r = rng(14)
        a = DenseTensor(r.normal(size=(2, 3)))
        b = DenseTensor(r.normal(size=(2, 3)))
        assert contract_all(a, b) == frobenius_inner(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            contract_all(DenseTensor([1.0]), DenseTensor([1.0, 2.0]))


class TestContractAllBut:
    def test_golden_mode3(self):
        # expansion oracle: ((x1+x2)^2, 2 (x1+x2)^2) at x = (1,1)
        t = golden_222()
        got = contract_all_but(t, 3, [np.array([1.0, 1.0]), np.array([1.0, 1.0])])
        assert np.array_equal(got.to_array(), [4.0, 8.0])

    def test_golden_mode1(self):
        # expansion oracle: (x1+x2)(x1+2 x2) = 2 * 3 for both components
        t = golden_222()
        got = contract_all_but(t, 1, [np.array([1.0, 1.0]), np.array([1.0, 1.0])])
        assert np.array_equal(got.to_array(), [6.0, 6.0])

    def test_unit_vectors_give_fiber(self):
        t = DenseTensor(rng(15).normal(size=(2, 3, 2)))
        got = contract_all_but(t, 2, [unit_tensor([2], (2,)), unit_tensor([2], (1,))])
        assert got.allclose(fiber(t, 2, (2, 1)), tol=0.0)

    def test_multilinear(self):
        r = rng(16)
        t = DenseTensor(r.normal(size=(2, 3, 2)))
        x = r.normal(size=3)
        y1, y2 = r.normal(size=2), r.normal(size=2)
        a, b = 0.3, -2.0
        lhs = contract_all_but(t, 1, [x, a * y1 + b * y2]).to_array()
        rhs = a * contract_all_but(t, 1, [x, y1]).to_array() + b * contract_all_but(t, 1, [x, y2]).to_array()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_length_checks(self):
        t = golden_222()
        with pytest.raises(ValueError):
            contract_all_but(t, 1, [np.ones(2)])
        with pytest.raises(ValueError):
            contract_all_but(t, 1, [np.ones(3), np.ones(2)])
        with pytest.raises(IndexError):
            contract_all_but(t, 5, [np.ones(2), np.ones(2)])

    def test_integer_like_modes(self):
        t = DenseTensor(rng(18).normal(size=(2, 3, 4)))
        xs = [np.ones(2), np.arange(4.0)]
        want = contract_all_but(t, 2, xs).to_array()
        assert np.array_equal(contract_all_but(t, np.int64(2), xs).to_array(), want)
        with pytest.raises(TypeError):
            contract_all_but(t, 1.5, xs)


class TestKroneckerChainProperty:
    def test_matrix_case_reduces_to_kron_vec(self):
        # classical vec(AXB^T) = (B x A) vec(X) with colex vectorization
        r = rng(17)
        x = DenseTensor(r.normal(size=(3, 4)))
        a = r.normal(size=(2, 3))
        b = r.normal(size=(5, 4))
        lhs = vectorize(multi_mode_product(x, [a, b]), "colex")
        rhs = kronecker(b, a).to_array() @ vectorize(x, "colex")
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestContractAllButBatch:
    """The batched kernel against the tensordot loop, one column at a time."""

    SHAPES = [(4, 5), (3, 3), (3, 4, 5), (4, 4, 4), (2, 3, 4, 5), (3, 3, 3, 3), (3, 2, 4, 2, 3)]

    def test_matches_loop_columnwise(self):
        from tensorspec.contract import _contract_all_but_batch, _contract_plan

        g = rng(31)
        for shape in self.SHAPES:
            arr = g.normal(size=shape)
            tol = 1e-12 * np.max(np.abs(arr))
            for o in range(1, len(shape) + 1):
                xs = [g.normal(size=(shape[m - 1], 6)) for m in range(1, len(shape) + 1) if m != o]
                got = _contract_all_but_batch(_contract_plan(arr, (o,)), xs)
                assert got.shape == (shape[o - 1], 6)
                for s in range(6):
                    want = contract_all_but_loop(arr, o, [x[:, s] for x in xs])
                    assert np.max(np.abs(got[:, s] - want)) <= tol

    def test_shared_matrix_is_every_mode(self):
        from tensorspec.contract import _contract_all_but_batch, _contract_plan

        g = rng(32)
        for shape in [(3, 3, 3), (4, 4, 4, 4), (2, 2, 2, 2, 2)]:
            arr = g.normal(size=shape)
            x = g.normal(size=(shape[0], 5))
            for o in range(1, len(shape) + 1):
                shared = _contract_all_but_batch(_contract_plan(arr, (o,)), x)
                listed = _contract_all_but_batch(_contract_plan(arr, (o,)), [x] * (len(shape) - 1))
                assert np.array_equal(shared, listed)

    def test_two_kept_modes(self):
        from tensorspec.contract import _contract_all_but_batch, _contract_plan

        g = rng(33)
        arr = g.normal(size=(2, 3, 4, 5))
        for keep in [(1, 3), (4, 2), (3, 4)]:
            rest = [m for m in range(1, 5) if m not in keep]
            xs = [g.normal(size=(arr.shape[m - 1], 3)) for m in rest]
            got = _contract_all_but_batch(_contract_plan(arr, keep), xs)
            assert got.shape == (arr.shape[keep[0] - 1], arr.shape[keep[1] - 1], 3)
            for s in range(3):
                # keeping modes (o, j) is the loop kernel at mode o, column by column of mode j
                for i in range(arr.shape[keep[1] - 1]):
                    sliced = np.take(arr, i, axis=keep[1] - 1)
                    o = keep[0] - (keep[0] > keep[1])
                    want = contract_all_but_loop(sliced, o, [x[:, s] for x in xs])
                    assert np.max(np.abs(got[:, i, s] - want)) <= 1e-12 * np.max(np.abs(arr))

    def test_no_columns(self):
        from tensorspec.contract import _contract_all_but_batch, _contract_plan

        arr = rng(34).normal(size=(3, 3, 3))
        assert _contract_all_but_batch(_contract_plan(arr, (2,)), np.zeros((3, 0))).shape == (3, 0)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestModeUnfolding:
    """`_mode_unfolding` against the `np.moveaxis` form it replaced and `matricize`, in bits and layout."""

    @staticmethod
    def shapes(order):
        yield (3,) * order
        yield (7,) + (2,) * (order - 1)  # a tall first mode
        yield (2,) * (order - 1) + (9,)  # a tall last mode
        yield (1,) + (3,) * (order - 1)
        yield (3,) * (order - 1) + (1,)
        yield (2, 1, 4, 1, 3)[:order]

    def test_moveaxis_form_and_matricize(self):
        from tensorspec.contract import _mode_unfolding
        from tensorspec.tensor import matricize

        g = rng(40)
        copies = 0
        for order in range(1, 6):
            for shape in self.shapes(order):
                for layout in "CF":
                    arr = np.asarray(g.normal(size=shape), order=layout)
                    for o in range(1, order + 1):
                        got = _mode_unfolding(arr, o)
                        want = np.moveaxis(arr, o - 1, 0).reshape(arr.shape[o - 1], -1, order="F")
                        case = (shape, layout, o)
                        assert same_bits(got, want) and got.strides == want.strides, case
                        # a view keeps the input's contiguity; a copy is F-contiguous
                        view = np.shares_memory(got, arr)
                        assert got.flags.c_contiguous or got.flags.f_contiguous if view else got.flags.f_contiguous, case
                        copies += not view
                        if order > 1:
                            m = matricize(DenseTensor(arr), [o]).to_array()
                            assert same_bits(got, m) and (view or got.strides == m.strides), case
        assert copies
        # the last mode of an F-ordered array, as DenseTensor stores it, is a C-contiguous view
        arr = DenseTensor(g.normal(size=(3, 4, 5))).to_array()
        last = _mode_unfolding(arr, 3)
        assert np.shares_memory(last, arr) and last.flags.c_contiguous and not last.flags.f_contiguous


class TestPlannedKernel:
    """The planned kernel against the parent's kernel, which set up the unfolding on every call: the same bits."""

    SHAPES = [(2, 2, 2), (3, 3, 3), (4, 4, 4, 4), (8, 8, 8), (3, 3, 3, 3, 3), (5, 6, 7)]

    def test_single_and_pair_keeps(self):
        from tensorspec.contract import _contract_all_but_batch, _contract_plan

        g = rng(35)
        for shape in self.SHAPES:
            arr = g.normal(size=shape)
            order = len(shape)
            # at S = 1 BLAS takes its one-column path
            for s in (1, 64):
                for o in range(1, order + 1):
                    for keep in [(o,)] + [(o, j) for j in range(1, order + 1) if j != o]:
                        xs = [g.normal(size=(shape[m - 1], s)) for m in range(1, order + 1) if m not in keep]
                        got = _contract_all_but_batch(_contract_plan(arr, keep), xs)
                        assert same_bits(got, contract_all_but_batch_parent(arr, keep, xs))
                        if shape[0] == shape[-1]:
                            x = xs[0] if xs else g.normal(size=(shape[0], s))
                            got = _contract_all_but_batch(_contract_plan(arr, keep), x)
                            assert same_bits(got, contract_all_but_batch_parent(arr, keep, x))

    def test_stacked_keeps(self):
        from tensorspec.contract import _contract_all_but_batch, _contract_plan

        g = rng(36)
        for shape in self.SHAPES[:5] + [(3, 3)]:
            arr = g.normal(size=shape)
            order = len(shape)
            for s in (1, 64):
                x = g.normal(size=(shape[0], s))
                # the mode-1 slabs of a C-ordered tensor, the only stacks a solver builds
                keeps = [(1, j) for j in range(2, order + 1)]
                got = _contract_all_but_batch(_contract_plan(arr, keeps), x)
                want = np.stack([contract_all_but_batch_parent(arr, k, x) for k in keeps])
                assert same_bits(got, want)

    def test_plan_copies_at_most_one_tensor_per_keep(self):
        from tensorspec.contract import _contract_plan

        arr = rng(37).normal(size=(3, 4, 5))
        # the identity order is a view of the tensor itself
        assert np.shares_memory(_contract_plan(arr, (1,))[0], arr)
        for keep in [(2,), (3,), (3, 1)]:
            assert _contract_plan(arr, keep)[0].size == arr.size
        assert _contract_plan(rng(38).normal(size=(3, 3, 3, 3)), [(2, 1), (2, 3), (2, 4)])[0].size == 3 * 81


class TestPowerSweeps:
    """`_power_sweeps` against the loop that re-slices every sweep: the same bits."""

    @staticmethod
    def unit(x):
        return x / np.linalg.norm(x, axis=0)

    def check(self, update, blocks, p, tol, max_iters):
        from tensorspec.contract import _power_sweeps

        got, status = _power_sweeps(update, blocks, p, tol, max_iters)
        want, want_status = power_sweeps_loop(update, blocks, p, tol, max_iters)
        assert np.array_equal(status, want_status)
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
        return status

    def test_z_maps(self):
        from tensorspec.contract import _contract_all_but_batch, _contract_plan

        g = rng(40)
        a = g.normal(size=(4, 4, 4))
        sym = sum(a.transpose(q) for q in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]) / 6
        x0 = self.unit(g.normal(size=(4, 16)))
        sign = np.tile([1.0, -1.0], 8)
        shift = float(np.sum(np.abs(sym)))

        def shifted(k, cur, cols):
            return sign[cols] * _contract_all_but_batch(_contract_plan(sym, (1,)), cur[0]) + shift * cur[0]

        def unshifted(arr):
            return lambda k, cur, cols: _contract_all_but_batch(_contract_plan(arr, (1,)), cur[0])

        # the unshifted map converges on nonnegative input, not on general input
        for update, stops in [(shifted, True), (unshifted(np.abs(a)), True), (unshifted(a), False)]:
            seen = set()
            # at 1e-14 the shifted maps run every column to the cap
            for tol, max_iters in [(1e-14, 500), (1e-8, 500), (1e-8, 7)]:
                seen |= set(self.check(update, [x0], 2, tol, max_iters).tolist())
            assert seen == ({0, 1} if stops else {0})

    def test_nonnegative_root_with_zero_updates(self):
        from tensorspec.contract import _contract_all_but_batch, _contract_plan

        g = rng(41)
        arr = np.abs(g.normal(size=(3, 3, 3)))
        # mixed-sign starts make F negative somewhere: those columns take a zero update
        x0 = self.unit(g.normal(size=(3, 24)))
        x0[:, :6] = np.abs(x0[:, :6])

        def update(k, cur, cols):
            f = _contract_all_but_batch(_contract_plan(arr, (1,)), cur[0])
            return np.where(np.any(f < 0.0, axis=0), 0.0, np.maximum(f, 0.0) ** 0.5)

        status = self.check(update, [x0], 2, 1e-14, 500)
        assert -1 in status and 1 in status

    def test_tuple_updates(self):
        from tensorspec.contract import _contract_all_but_batch, _contract_plan

        g = rng(42)
        for shape in [(3, 3, 3), (5, 6, 7), (3, 4, 3, 2)]:
            arr = g.normal(size=shape)
            for p in (2, len(shape)):
                power = p - 1

                def update(k, cur, cols):
                    f = _contract_all_but_batch(_contract_plan(arr, (k + 1,)), cur[:k] + cur[k + 1:])
                    return np.sign(f) * np.abs(f) ** (1.0 / power)

                blocks = [self.unit(g.normal(size=(d, 12))) for d in shape]
                for max_iters in (500, 4):
                    status = self.check(update, blocks, p, 1e-13, max_iters)
                    if max_iters == 4:
                        assert 0 in status

    def test_zero_update_keeps_the_block(self):
        from tensorspec.contract import _power_sweeps

        g = rng(44)
        blocks = [self.unit(g.normal(size=(d, 6))) for d in (3, 4)]
        a, b = g.normal(size=(3, 4)), g.normal(size=(4, 3))

        def run(sweeps):
            calls, seen = [], {}

            def update(k, cur, cols):
                calls.append(k)
                y = a @ cur[1] if k == 0 else b @ cur[0]
                if len(calls) == 6:
                    # sweep 3, block 1: column 2 gets a zero update
                    i = int(np.flatnonzero(cols == 2)[0])
                    seen["kept"], seen["first"] = cur[1][:, i].copy(), cur[0][:, i].copy()
                    y[:, i] = 0.0
                return y

            return sweeps(update, blocks, 2, 1e-13, 8), seen

        (got, status), seen = run(_power_sweeps)
        (want, want_status), _ = run(power_sweeps_loop)
        assert status.tolist() == want_status.tolist() == [0, 0, -1, 0, 0, 0]
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
        # the dead column keeps block 1 from before the zero update and block 0 from that sweep
        assert np.array_equal(got[1][:, 2], seen["kept"]) and np.array_equal(got[0][:, 2], seen["first"])

    def test_columns_stop_in_different_sweeps(self):
        g = rng(45)
        q = np.linalg.qr(g.normal(size=(4, 4)))[0]
        a = q @ np.diag([1.0, 0.5, 0.3, 0.1]) @ q.T
        # starts at different distances from the top eigenvector converge at different sweeps
        x0 = self.unit(q[:, :1] + g.normal(size=(4, 5)) * np.array([1e-9, 1e-6, 1e-3, 0.1, 1.0]))
        sizes = []

        def update(k, cur, cols):
            sizes.append(cols.size)
            return a @ cur[0]

        status = self.check(update, [x0], 2, 1e-12, 500)
        assert status.tolist() == [1] * 5
        # the running set narrowed at least three times
        assert len(set(sizes)) >= 4

    def test_no_sweeps_and_no_columns(self):
        x0 = self.unit(rng(43).normal(size=(3, 4)))

        def update(k, cur, cols):
            return cur[0]

        assert np.array_equal(self.check(update, [x0], 2, 1e-14, 0), np.zeros(4, dtype=int))
        assert self.check(update, [x0[:, :0]], 2, 1e-14, 5).size == 0

    @staticmethod
    def sweep_sizes(sweeps, update, blocks, *args):
        """The running column count of every sweep, and the result, of one call."""
        sizes = []

        def counted(k, cur, cols):
            if k == 0:
                sizes.append(cols.size)
            return update(k, cur, cols)

        return sizes, sweeps(counted, blocks, *args)

    def test_one_column_left_inside_a_chunk_goes_on_alone(self):
        from tensorspec.contract import _power_sweeps

        g = rng(46)
        q = np.linalg.qr(g.normal(size=(10, 10)))[0]
        a = q @ np.diag(np.r_[1.0, np.linspace(0.9, 0.5, 8), 0.0]) @ q.T
        # column 0 loses its null-space part in sweep 1 and stops in sweep 2,
        # inside the library's second chunk (sweeps 2 and 3); column 1 runs on
        x0 = self.unit(np.column_stack([q[:, 0] + 0.5 * q[:, 9], g.normal(size=10)]))

        def update(k, cur, cols):
            return a @ cur[0]

        sizes, (got, status) = self.sweep_sizes(_power_sweeps, update, [x0], 2, 1e-12, 500)
        want_sizes, (want, want_status) = self.sweep_sizes(power_sweeps_loop, update, [x0], 2, 1e-12, 500)
        assert status.tolist() == want_status.tolist() == [1, 1]
        assert np.array_equal(got[0], want[0])
        # the loop runs two sweeps on both columns; the library ran a third, then
        # dropped it and ran that sweep again on the survivor alone
        assert want_sizes[:3] == [2, 2, 1] and sizes[:4] == [2, 2, 2, 1]
        assert sizes.count(1) == want_sizes.count(1) > 100

    def test_zero_update_in_a_later_block_inside_a_chunk(self):
        from tensorspec.contract import _power_sweeps

        g = rng(47)
        blocks = [self.unit(g.normal(size=(d, 6))) for d in (3, 4)]
        a, b = g.normal(size=(3, 4)), g.normal(size=(4, 3))

        def run(sweeps):
            calls, seen = [], []

            def update(k, cur, cols):
                calls.append(k)
                y = a @ cur[1] if k == 0 else b @ cur[0]
                if len(calls) == 10:
                    # sweep 5, block 1: column 2 gets a zero update
                    y[:, int(np.flatnonzero(cols == 2)[0])] = 0.0
                if len(calls) == 12:
                    seen.append(2 in cols)
                return y

            # at tol 0 no column converges: the library's chunks are sweeps 1, 2-3, 4-7 and 8-12
            return sweeps(update, blocks, 2, 0.0, 12), seen

        (got, status), seen = run(_power_sweeps)
        (want, want_status), want_seen = run(power_sweeps_loop)
        assert status.tolist() == want_status.tolist() == [0, 0, -1, 0, 0, 0]
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
        # the library still updated the dead column in sweep 6, in the same chunk
        assert seen == [True] and want_seen == [False]

    def test_short_runs_and_no_columns(self):
        from tensorspec.contract import _contract_all_but_batch, _contract_plan

        g = rng(48)
        arr = g.normal(size=(3, 4, 5))

        def update(k, cur, cols):
            return _contract_all_but_batch(_contract_plan(arr, (k + 1,)), cur[:k] + cur[k + 1:])

        blocks = [self.unit(g.normal(size=(d, 10))) for d in arr.shape]
        for max_iters in (1, 2, 3, 17):
            for tol in (1e-13, 1e-2):
                self.check(update, blocks, 2, tol, max_iters)
        assert self.check(update, [b[:, :0] for b in blocks], 2, 1e-13, 17).size == 0

    def test_work_is_the_loops_and_one_chunk(self, monkeypatch):
        import importlib

        from tensorspec.contract import _contract_all_but_batch, _contract_plan, _power_sweeps

        contract_module = importlib.import_module("tensorspec.contract")
        chunk_length = contract_module._chunk_length
        chunks = []

        def spy(*args):
            chunks.append(chunk_length(*args))
            return chunks[-1]

        monkeypatch.setattr(contract_module, "_chunk_length", spy)
        g = rng(49)
        a = g.normal(size=(4, 4, 4))
        sym = sum(a.transpose(q) for q in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]) / 6
        sign = np.tile([1.0, -1.0], 8)
        shift = float(np.sum(np.abs(sym)))
        tensor = g.normal(size=(5, 6, 7))
        cases = [
            (lambda k, cur, cols: sign[cols] * _contract_all_but_batch(_contract_plan(sym, (1,)), cur[0]) + shift * cur[0],
             [self.unit(g.normal(size=(4, 16)))], 1e-8),
            (lambda k, cur, cols: _contract_all_but_batch(_contract_plan(np.abs(a), (1,)), cur[0]) ** 0.5,
             [self.unit(np.abs(g.normal(size=(4, 16))))], 1e-14),
            (lambda k, cur, cols: _contract_all_but_batch(_contract_plan(tensor, (k + 1,)), cur[:k] + cur[k + 1:]),
             [self.unit(g.normal(size=(d, 16))) for d in tensor.shape], 1e-4),
        ]
        for update, blocks, tol in cases:
            chunks[:] = [1]
            sizes, _ = self.sweep_sizes(_power_sweeps, update, blocks, 2, tol, 500)
            want_sizes, _ = self.sweep_sizes(power_sweeps_loop, update, blocks, 2, tol, 500)
            # the sweeps past the loop's are those of at most one chunk
            assert len(want_sizes) <= len(sizes) <= len(want_sizes) + max(chunks)


class TestLstsq:
    """`_lstsq` against `np.linalg.lstsq` with its default cutoff, one matrix at a time."""

    @staticmethod
    def check(a):
        from tensorspec.contract import _lstsq

        for k in (1, 3):
            b = rng(60 + k).normal(size=(a.shape[0], a.shape[1], k))
            got = _lstsq(a, b)
            assert got.shape == (a.shape[0], a.shape[2], k)
            for c in range(a.shape[0]):
                want = np.linalg.lstsq(a[c], b[c], rcond=None)[0]
                assert np.max(np.abs(got[c] - want)) <= 1e-12
            yield b, got

    def test_square_nonsingular_batch(self):
        a = rng(61).normal(size=(8, 4, 4))
        for b, got in self.check(a):
            assert np.array_equal(got, np.linalg.solve(a, b))

    def test_square_batch_with_a_singular_matrix(self):
        a = rng(62).normal(size=(8, 4, 4))
        # a zero row and column: LU raises on the batch
        a[3, 1, :] = 0.0
        a[3, :, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, np.ones((8, 4, 1)))
        rest = np.arange(8) != 3
        for b, got in self.check(a):
            # the other matrices get the bits they get on their own
            assert np.array_equal(got[rest], np.linalg.solve(a[rest], b[rest]))
