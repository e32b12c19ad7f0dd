"""Non-finite or mis-sized input to the public numerics, multiqubit and subspaces entries is
refused with a typed SloccError and no warning (the tier-1 warning policy turns a warning
into a failure)."""

import math

import numpy as np
import pytest

from slocc.errors import DimensionMismatch, NonFinite, SingularMatrix
from slocc.multiqubit import hyperdeterminant
from slocc.numerics import inv2, numerical_rank
from slocc.subspaces import (
    one_product_span_basis,
    pencil_quadratic,
    product_factors,
    product_roots,
    projective_quadratic_roots,
)

E11 = [1, 0, 0, 0]
PSI = [0, 1, 1, 0]  # the entangled generator of a one-product span around E11

NON_FINITE = {  # entry -> (error, call on one non-finite value x)
    "inv2": (SingularMatrix, lambda x: inv2([[x, 0], [0, 1]])),
    "numerical_rank": (NonFinite, lambda x: numerical_rank([1.0, abs(x)])),  # real sigma
    "hyperdeterminant": (NonFinite, lambda x: hyperdeterminant([x] + [0] * 7)),
    "quadratic_roots_a": (NonFinite, lambda x: projective_quadratic_roots(x, 1, 1, 1e-8)),
    "quadratic_roots_c": (NonFinite, lambda x: projective_quadratic_roots(1, 1, x, 1e-8)),
    "pencil_quadratic": (NonFinite, lambda x: pencil_quadratic([[x, 0], [0, 1]], np.eye(2))),
    "product_roots": (NonFinite, lambda x: product_roots(np.diag([1, 0]), [[0, 0], [0, x]])),
    "product_factors": (NonFinite, lambda x: product_factors([x, 0, 0, 1])),
    "span_basis_witness": (NonFinite, lambda x: one_product_span_basis(E11, PSI, [x, 0, 0, 0])),
    "span_basis_generator": (NonFinite, lambda x: one_product_span_basis([x, 0, 0, 0], PSI, E11)),
}
WRONG_SIZE = {  # entry -> call on a mis-sized input
    "hyperdeterminant": lambda: hyperdeterminant([1, 2, 3]),
    "pencil_quadratic": lambda: pencil_quadratic([1, 0, 0, 1], np.eye(2)),
    "product_roots": lambda: product_roots(np.eye(3), np.eye(2)),
    "product_factors": lambda: product_factors([1, 0, 0]),
    "span_basis_generator": lambda: one_product_span_basis([1, 0, 0], PSI, E11),
    "span_basis_witness": lambda: one_product_span_basis(E11, PSI, [1, 0, 0, 0, 0]),
}


class TestBoundaryRefusals:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("entry", NON_FINITE)
    def test_non_finite_refused(self, entry, bad):
        error, call = NON_FINITE[entry]
        with pytest.raises(error):
            call(bad)

    @pytest.mark.parametrize("entry", WRONG_SIZE)
    def test_wrong_size_refused(self, entry):
        with pytest.raises(DimensionMismatch):
            WRONG_SIZE[entry]()

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_inv2_at_the_float_range_ends(self, scale):
        # the adjugate of the matrix times 2^-e, e the exponent of its largest part, over its
        # determinant, times 2^-e: the exact power-of-two scaling inv2 applies
        m = scale * np.array([[1 + 2j, 3], [-1j, 2 - 1j]])
        f = math.ldexp(1.0, -math.frexp(np.abs(m.view(float)).max())[1])
        (p, q), (r, s) = (m * f).tolist()
        g = f / (p * s - q * r)
        expected = np.array([[s * g, -q * g], [-r * g, p * g]])
        assert inv2(m).tobytes() == expected.tobytes()
        assert np.allclose(inv2(m) @ m, np.eye(2), rtol=0.0, atol=1e-12)
