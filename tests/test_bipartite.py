import warnings

import numpy as np
import pytest

from _kit import RandomSource, random_ilo, reconstruct
from conftest import random_complex
from slocc.bipartite import classify_bipartite, schmidt
from slocc.errors import NonFinite, WrongArity
from slocc.states import apply_local_operators, make_state

BELL = make_state([2, 2], [1, 0, 0, 1])


class TestSchmidt:
    def test_bell_coefficients(self):
        form = schmidt(BELL)
        assert np.allclose(form.coeffs, [1.0, 1.0])

    def test_product_in_3x4(self):
        e1 = np.zeros(3)
        e1[0] = 1
        f2 = np.zeros(4)
        f2[1] = 1
        st = make_state([3, 4], np.kron(e1, f2))
        form = schmidt(st)
        assert np.allclose(form.coeffs, [1.0])

    def test_weighted_bell(self):
        st = make_state([2, 2], [2, 0, 0, 1])
        assert np.allclose(schmidt(st).coeffs, [2.0, 1.0])

    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (4, 3), (5, 2)])
    def test_reconstruction_and_orthonormality(self, dims):
        g = RandomSource(sum(dims)).generator()
        st = make_state(dims, random_complex(g, dims[0] * dims[1]))
        form = schmidt(st)
        assert np.linalg.norm(reconstruct(form) - st.amps) <= 1e-10 * st.norm()
        k = form.coeffs.size
        assert np.linalg.norm(form.left_basis.conj().T @ form.left_basis - np.eye(k)) <= 1e-10
        assert np.linalg.norm(form.right_basis.conj().T @ form.right_basis - np.eye(k)) <= 1e-10

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            schmidt(make_state([2, 2, 2], [1] + [0] * 7))


class TestClassify:
    def test_bell_is_rank_two(self):
        cls = classify_bipartite(BELL)
        assert cls.schmidt_rank == 2
        assert cls.label(BELL.dims) == "Psi+"

    def test_random_product_5x7(self):
        g = RandomSource(21).generator()
        st = make_state([5, 7], np.kron(random_complex(g, 5), random_complex(g, 7)))
        assert classify_bipartite(st).schmidt_rank == 1

    def test_rank_three_embedding(self):
        amps = np.zeros(12)
        for i in range(3):
            amps[i * 4 + i] = 1.0
        st = make_state([3, 4], amps)
        cls = classify_bipartite(st)
        assert cls.schmidt_rank == 3
        assert cls.label(st.dims) == "Psi+_3"

    def test_rank_one_iff_product(self):
        for trial in range(100):
            g = RandomSource(500 + trial).generator()
            st = make_state([3, 5], np.kron(random_complex(g, 3), random_complex(g, 5)))
            assert classify_bipartite(st).schmidt_rank == 1

    def test_slocc_invariance_1000_trials(self):
        dims_pool = [(2, 2), (3, 4), (4, 5)]
        failures = 0
        for trial in range(1000):
            src = RandomSource(9000 + trial)
            dims = dims_pool[trial % len(dims_pool)]
            g = src.generator()
            st = make_state(dims, random_complex(g, dims[0] * dims[1]))
            before = classify_bipartite(st).schmidt_rank
            ops = [random_ilo(d, src.split(k)) for k, d in enumerate(dims)]
            after = classify_bipartite(apply_local_operators(st, ops)).schmidt_rank
            if before != after:
                failures += 1
        assert failures == 0

    def test_rank_equals_coefficient_count(self):
        for trial in range(50):
            g = RandomSource(700 + trial).generator()
            st = make_state([4, 5], random_complex(g, 20))
            assert classify_bipartite(st).schmidt_rank == schmidt(st).coeffs.size


def overflowing_states():
    """(scale-1 state, the same ray at largest part 1.5e308) on 2x2, 3x3 and 4x6, at every
    Schmidt rank."""
    g = RandomSource(7500).generator()
    for dims in ((2, 2), (3, 3), (4, 6)):
        for rank in range(1, min(dims) + 1):
            for _ in range(4):
                terms = [np.kron(*(random_complex(g, d) for d in dims)) for _ in range(rank)]
                state = make_state(dims, sum(terms))
                assert classify_bipartite(state).schmidt_rank == rank
                amps = state.amps / np.abs(state.amps.view(float)).max() * 1.5e308
                yield state, make_state(dims, amps)


class TestOverflowingSchmidtCoefficients:
    """A rank does not depend on scale: classify_bipartite reads a state whose sigma_1 leaves
    the float range on its amplitudes times 2^-e. schmidt, whose output is the coefficients,
    refuses it."""

    def test_scale_1_class(self):
        refused = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for state, big in overflowing_states():
                assert classify_bipartite(big) == classify_bipartite(state)
                sigma_1 = np.linalg.svd(big.amps.reshape(big.dims))[1][0]  # schmidt's driver
                if np.isfinite(sigma_1):
                    assert schmidt(big).coeffs[0] == sigma_1
                    continue
                refused.add(big.dims)
                with pytest.raises(NonFinite, match="leave the float range"):
                    schmidt(big)
        assert refused == {(2, 2), (3, 3), (4, 6)}
