"""Bipartite classification by Schmidt rank.

A bipartite pure state in dimensions N1 x N2 belongs to one of
min(N1, N2) classes; the class index is the numerical rank of the
coefficient matrix, i.e. the number of Schmidt coefficients. Rank 1 is the
product class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WrongArity
from .numerics import DEFAULT_POLICY, TolerancePolicy, _leading_svd, numerical_rank
from .states import PureState, _in_range, coefficient_matrix


@dataclass(frozen=True)
class BipartiteClass:
    """Class label Psi+_k; k = 1 is the product class (aka 00 for qubits)."""

    schmidt_rank: int

    def label(self, dims=None) -> str:
        if dims is not None and tuple(dims) == (2, 2):
            return "00" if self.schmidt_rank == 1 else "Psi+"
        return f"Psi+_{self.schmidt_rank}"


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt decomposition: state = sum_k coeffs[k] * left[:,k] (x) right[:,k].

    Coefficients below the rank threshold are dropped; both bases are
    orthonormal.
    """

    coeffs: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray


def _require_bipartite(state: PureState):
    if state.n_subsystems != 2:
        raise WrongArity(f"expected 2 subsystems, got {state.n_subsystems}")


def schmidt(state: PureState, pol: TolerancePolicy = DEFAULT_POLICY) -> SchmidtForm:
    """Schmidt decomposition from the SVD of the pivot-1 coefficient matrix.

    With C = V diag(sigma) W^dagger the state reconstructs as
    sum_k sigma_k v_k (x) conj(w_k), so the right basis is the conjugated
    right singular vectors. The coefficients are the output, so a state whose
    sigma_1 leaves the float range raises :class:`NonFinite`.
    """
    _require_bipartite(state)
    V, sigma, W, _ = _leading_svd(coefficient_matrix(state, 1).entries)
    k = numerical_rank(sigma, pol)
    return SchmidtForm(
        coeffs=sigma[:k].copy(), left_basis=V[:, :k].copy(), right_basis=W[:, :k].conj()
    )


def classify_bipartite(state: PureState, pol: TolerancePolicy = DEFAULT_POLICY) -> BipartiteClass:
    """Class Psi+_k with k the number of Schmidt coefficients (:func:`_read_bipartite`)."""
    return _read_bipartite(state, pol)[0]


def _read_bipartite(state: PureState, pol: TolerancePolicy) -> tuple:
    """The class and the singular values of the state read at its working scale
    (``states._in_range``): a rank does not depend on scale, so where sigma_1 could pass 2^1024,
    the unit ray is read."""
    _require_bipartite(state)
    sigma = _leading_svd(coefficient_matrix(_in_range(state), 1).entries)[1]
    return BipartiteClass(schmidt_rank=numerical_rank(sigma, pol)), sigma

