import itertools
import warnings

import numpy as np
import pytest

from _kit import RandomSource, random_ilo
from conftest import random_complex, rel_err
from slocc.errors import BadPivot, DimensionMismatch, NonFinite, SingularOperator, ZeroState
from slocc.states import (
    LocalOperatorSet,
    apply_local_operators,
    coefficient_matrix,
    make_state,
    permute_subsystems,
    pivot_index,
)
from slocc.tripartite import TripartiteClass, canonical_vector

GATHER_DIMS = [(2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2), (3, 2), (2, 3, 4)]

GHZ = canonical_vector(TripartiteClass.GHZ)
W = canonical_vector(TripartiteClass.W)


class TestMakeState:
    def test_bell_type_accepted(self):
        st = make_state([2, 2], [1, 0, 0, 1])
        assert st.dims == (2, 2)
        assert np.array_equal(st.amps, [1, 0, 0, 1])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroState):
            make_state([2, 2, 2], [0] * 8)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_state([2, 2], [1, 0, 0, 1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 1)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFinite):
            make_state([2, 2], [1, 0, 0, bad])

    def test_non_integer_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_state([2.9, 2.2], [1, 0, 0, 1])
        with pytest.raises(DimensionMismatch):
            make_state([2, 2.5], [1, 0, 0, 1])

    def test_total_dimension_one_rejected(self):
        with pytest.raises(DimensionMismatch, match="total dimension must be at least 2"):
            make_state((1,), [1])

    def test_integer_valued_dims_accepted(self):
        st = make_state([2.0, np.int64(2)], [1, 0, 0, 1])
        assert st.dims == (2, 2)
        assert all(type(d) is int for d in st.dims)

    def test_amps_immutable(self):
        st = make_state([2, 2], [1, 0, 0, 1])
        with pytest.raises(ValueError):
            st.amps[0] = 5

    def test_dims_product_does_not_wrap(self):
        # 2^32 * 2^32 wraps to 0 in int64; the message carries the true product
        with pytest.raises(DimensionMismatch, match="require 18446744073709551616"):
            make_state((2**32, 2**32), [1, 0])

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [complex(1, np.nan), complex(0, np.inf), complex(2, -np.inf)])
    def test_non_finite_part_rejected_at_any_position(self, position, bad):
        amps = [1, 0, 0, 1j]
        amps[position] = bad
        with pytest.raises(NonFinite, match="NaN or infinite"):
            make_state([2, 2], amps)

    def test_signed_zeros_are_the_zero_state(self):
        with pytest.raises(ZeroState):
            make_state([2, 2, 2], [complex(-0.0, -0.0)] * 4 + [complex(0.0, -0.0)] * 4)

    @pytest.mark.parametrize(
        "amps", [[5e-324, 0, 0, 0], [0, 5e-324j, 0, 0], [1e308 + 1e308j, 0, 0, -1e308 - 1e308j]]
    )
    def test_extreme_parts_accepted_without_warning(self, amps):
        # the largest |part| is read, never a modulus, which would overflow at 1e308 (1 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = make_state([2, 2], amps)
        assert np.array_equal(st.amps, amps)


class TestEquality:
    def test_equal_states(self):
        a = make_state([2, 2], [1, 0, 0, 1j])
        b = make_state((2, 2), np.array([1, 0, 0, 1j]))
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a in [GHZ, b] and b in {a}
        assert len({a, b}) == 1
        assert canonical_vector(TripartiteClass.W) == W

    def test_signed_zeros_are_equal(self):
        states = [
            make_state([2, 2], [1, z, complex(0.0, z), complex(z, -0.0)]) for z in (0.0, -0.0)
        ]
        assert states[0].amps.tobytes() != states[1].amps.tobytes()
        assert states[0] == states[1]
        assert hash(states[0]) == hash(states[1])
        assert len(set(states)) == 1

    def test_distinct_states(self):
        a = make_state([2, 2], [1, 0, 0, 1])
        distinct = [
            make_state([2, 2], [1, 0, 0, -1]),
            make_state([2, 2], [2, 0, 0, 2]),  # equal up to scale is still distinct
            make_state([4], [1, 0, 0, 1]),  # same amplitudes, other dims
            make_state([2, 2, 2], [1, 0, 0, 1, 0, 0, 0, 0]),
        ]
        for other in distinct:
            assert a != other and not a == other
        assert a not in distinct
        assert len({a, *distinct}) == 5
        assert a != "state" and a != None  # noqa: E711


class TestCoefficientMatrix:
    def test_ghz_pivot1(self):
        cm = coefficient_matrix(GHZ, 1)
        assert np.array_equal(cm.entries, [[1, 0, 0, 0], [0, 0, 0, 1]])

    def test_w_pivot1(self):
        cm = coefficient_matrix(W, 1)
        assert np.array_equal(cm.entries, [[0, 1, 1, 0], [1, 0, 0, 0]])

    def test_pivot2_against_index_enumeration(self):
        # |000> + |011>, pivot 2: brute-force oracle by explicit index walk
        st = make_state([2, 2, 2], [1, 0, 0, 1, 0, 0, 0, 0])
        cm = coefficient_matrix(st, 2)
        expected = np.zeros((2, 4), dtype=complex)
        for i1, i2, i3 in itertools.product(range(2), repeat=3):
            flat = i1 * 4 + i2 * 2 + i3
            expected[i2, i1 * 2 + i3] = st.amps[flat]
        assert np.array_equal(cm.entries, expected)
        assert np.array_equal(cm.entries, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert cm.col_subsystems == (1, 3)

    def test_bad_pivot(self):
        with pytest.raises(BadPivot):
            coefficient_matrix(GHZ, 4)
        with pytest.raises(BadPivot):
            coefficient_matrix(GHZ, 0)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 2, 4), (2, 2, 2, 2)])
    def test_reshape_round_trip(self, dims):
        g = RandomSource(hash(dims) % 2**32).generator()
        st = make_state(dims, random_complex(g, int(np.prod(dims))))
        for pivot in range(1, len(dims) + 1):
            cm = coefficient_matrix(st, pivot)
            assert cm.rows * cm.cols == st.amps.size
            back = np.moveaxis(
                cm.entries.reshape((dims[pivot - 1],) + tuple(dims[k - 1] for k in cm.col_subsystems)),
                0,
                pivot - 1,
            ).reshape(-1)
            assert np.array_equal(back, st.amps)

    @pytest.mark.parametrize("dims", GATHER_DIMS)
    def test_gather_matches_moveaxis_reference(self, dims):
        g = RandomSource(sum(dims) * 31 + len(dims)).generator()
        st = make_state(dims, random_complex(g, int(np.prod(dims))))
        for pivot in range(1, len(dims) + 1):
            reference = np.moveaxis(st.tensor(), pivot - 1, 0).reshape(dims[pivot - 1], -1)
            entries = coefficient_matrix(st, pivot).entries
            assert entries.flags.c_contiguous
            assert entries.tobytes() == np.ascontiguousarray(reference).tobytes()

    @pytest.mark.parametrize("dims", GATHER_DIMS)
    def test_entries_and_index_read_only(self, dims):
        st = make_state(dims, np.arange(1, int(np.prod(dims)) + 1))
        before = st.amps.tobytes()
        for pivot in range(1, len(dims) + 1):
            index = pivot_index(dims, pivot)
            assert index is pivot_index(dims, pivot)  # cached
            with pytest.raises(ValueError):
                index[0, 0] = 1
            entries = coefficient_matrix(st, pivot).entries
            with pytest.raises(ValueError):
                entries[0, 0] = 99
            entries.flags.writeable = True  # a copy: writing to it leaves the state alone
            entries[...] = 0
        assert st.amps.tobytes() == before
        assert np.array_equal(coefficient_matrix(st, 1).entries.reshape(-1), st.amps)


class TestApplyLocalOperators:
    @pytest.mark.parametrize("dims", GATHER_DIMS)
    def test_matches_tensordot_reference(self, dims):
        # reference: one np.tensordot mode-k contraction per subsystem
        def reference(state, ops):
            t = state.tensor()
            for k, op in enumerate(ops):
                t = np.moveaxis(np.tensordot(op, t, axes=(1, k)), 0, k)
            return t.reshape(-1)

        src = RandomSource(sum(dims) * 37 + len(dims))
        g = src.generator()
        for trial in range(30):
            st = make_state(dims, random_complex(g, int(np.prod(dims))))
            ops = [random_ilo(d, src.split(trial).split(k)) for k, d in enumerate(dims)]
            if trial % 3 == 0:
                ops = [np.asfortranarray(op) for op in ops]
            out = apply_local_operators(st, ops)
            assert out.dims == dims
            assert out.amps.tobytes() == reference(st, ops).tobytes()

    def test_identity(self):
        out = apply_local_operators(GHZ, [np.eye(2)] * 3)
        assert np.array_equal(out.amps, GHZ.amps)

    def test_shear_on_ghz_term_expansion(self):
        # F maps e1 -> e1, e2 -> e1 + e2, so GHZ -> |000> + |011> + |111>
        f = np.array([[1, 1], [0, 1]])
        out = apply_local_operators(GHZ, [f, np.eye(2), np.eye(2)])
        expected = np.zeros(8)
        expected[[0, 3, 7]] = 1
        assert np.allclose(out.amps, expected)

    def test_scalar_multiple(self):
        out = apply_local_operators(GHZ, [2 * np.eye(2), np.eye(2), np.eye(2)])
        assert np.allclose(out.amps, 2 * GHZ.amps)

    def test_transform_law(self):
        for trial in range(50):
            src = RandomSource(300 + trial)
            g = src.generator()
            st = make_state([2, 2, 2], random_complex(g, 8))
            ops = [random_ilo(2, src.split(k)) for k in range(3)]
            out = apply_local_operators(st, ops)
            lhs = coefficient_matrix(out, 1).entries
            rhs = ops[0] @ coefficient_matrix(st, 1).entries @ np.kron(ops[1], ops[2]).T
            assert rel_err(lhs, rhs) <= 1e-12

    def test_unitary_preserves_norm(self):
        for trial in range(20):
            g = RandomSource(400 + trial).generator()
            st = make_state([2, 2, 2], random_complex(g, 8))
            qs = [np.linalg.qr(random_complex(g, 4).reshape(2, 2))[0] for _ in range(3)]
            out = apply_local_operators(st, qs)
            assert abs(out.norm() - st.norm()) <= 1e-12 * st.norm()

    def test_singular_operator_rejected(self):
        with pytest.raises(SingularOperator):
            apply_local_operators(GHZ, [np.eye(2), np.zeros((2, 2)), np.eye(2)])

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_local_operators(GHZ, [np.eye(2), np.eye(3), np.eye(2)])
        with pytest.raises(DimensionMismatch):
            apply_local_operators(GHZ, [np.eye(2), np.eye(2)])

    def test_operator_set_dets(self):
        ops = LocalOperatorSet([np.eye(2), 2 * np.eye(2)])
        assert ops.det_abs == (1.0, 4.0)


class TestOperatorDeterminant:
    """A 2x2 |det| is abs(a*d - b*c) in Python complex arithmetic."""

    def test_non_square_operator_refused(self):
        with pytest.raises(DimensionMismatch, match=r"must be square, got shape \(2, 3\)"):
            LocalOperatorSet([np.eye(2), np.ones((2, 3))])

    def test_scaled_identity_inside_the_float_range_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ops = LocalOperatorSet([1e150 * np.eye(2)])
        assert ops.det_abs == (abs(complex(1e150) * complex(1e150)),)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e-160, 1e-200])
    def test_scaled_identity_outside_the_float_range_refused(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularOperator):
                LocalOperatorSet([np.eye(2), scale * np.eye(2)])

    def test_modulus_overflow_is_refused_not_raised(self):
        # a*d = 1.5e308 (1 + 1j): both parts finite, the modulus is not
        x = np.sqrt(1.5e308)
        op = np.array([[x, 0], [0, x * (1 + 1j)]])
        with pytest.raises(OverflowError):
            abs(complex(op[0, 0]) * complex(op[1, 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularOperator, match="inf"):
                LocalOperatorSet([op])

    def test_nan_determinant_refused(self):
        # a*d and b*c both overflow to inf, and inf - inf is nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularOperator, match="nan"):
                LocalOperatorSet([np.full((2, 2), 1e200)])

    def test_2x2_is_the_exact_cross_difference(self):
        g = RandomSource(61).generator()
        for _ in range(200):
            op = random_complex(g, 4).reshape(2, 2) * 10.0 ** g.uniform(-100, 100)
            (a, b), (c, d) = op.tolist()
            assert LocalOperatorSet([op]).det_abs == (abs(a * d - b * c),)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_larger_operators_outside_the_float_range_refused(self, n, scale):
        # the LU determinant over- or underflows; it is refused, never warned about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularOperator):
                LocalOperatorSet([np.eye(2), scale * np.eye(n)])

    def test_larger_operators_keep_the_lu_determinant(self):
        g = RandomSource(62).generator()
        for _ in range(50):
            op = random_complex(g, 9).reshape(3, 3)
            assert LocalOperatorSet([op]).det_abs == (abs(complex(np.linalg.det(op))),)


class TestPermuteSubsystems:
    def test_swap_and_back(self):
        g = RandomSource(11).generator()
        st = make_state([2, 3, 4], random_complex(g, 24))
        swapped = permute_subsystems(st, (2, 1, 3))
        assert swapped.dims == (3, 2, 4)
        back = permute_subsystems(swapped, (2, 1, 3))
        assert np.array_equal(back.amps, st.amps)

    def test_invalid_permutation(self):
        with pytest.raises(BadPivot):
            permute_subsystems(GHZ, (1, 1, 2))
