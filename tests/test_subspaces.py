import numpy as np
import pytest

from _kit import RandomSource
from conftest import orbit_state, random_complex
from slocc.errors import DependentGenerators, NonFinite, ZeroVector
from slocc.numerics import svd
from slocc.states import coefficient_matrix
from slocc.subspaces import (
    RootKind,
    StructureTag,
    classify_line,
    classify_span,
    one_product_span_basis,
    product_factors,
    product_roots,
    slice_matrix,
    unslice,
)
from slocc.tripartite import TripartiteClass

E11 = np.array([1, 0, 0, 0], dtype=complex)  # e1 (x) e1
E12 = np.array([0, 1, 0, 0], dtype=complex)
E22 = np.array([0, 0, 0, 1], dtype=complex)
PSI = np.array([0, 1, 1, 0], dtype=complex)  # e1 (x) e2 + e2 (x) e1


class TestSlice:
    def test_product(self):
        m = slice_matrix(E11)
        assert np.array_equal(m, [[1, 0], [0, 0]])
        assert np.linalg.matrix_rank(m) == 1

    def test_bell(self):
        assert np.array_equal(slice_matrix([1, 0, 0, 1]), np.eye(2))

    def test_cross(self):
        assert np.array_equal(slice_matrix(PSI), [[0, 1], [1, 0]])

    def test_round_trip(self):
        g = RandomSource(31).generator()
        for _ in range(20):
            w = random_complex(g, 4)
            assert np.array_equal(unslice(slice_matrix(w)), w)


class TestProductRoots:
    def test_ghz_generators_two_distinct(self):
        report = product_roots(slice_matrix(E11), slice_matrix(E22))
        assert report.kind is RootKind.TWO_DISTINCT
        assert set(report.roots) == {(1, 0), (0, 1)}

    def test_w_generators_one_double(self):
        report = product_roots(slice_matrix(PSI), slice_matrix(E11))
        assert report.kind is RootKind.ONE_DOUBLE
        assert report.roots == ((0, 1),)

    def test_factor_span_infinitely_many(self):
        report = product_roots(slice_matrix(E11), slice_matrix(E12))
        assert report.kind is RootKind.INFINITELY_MANY
        assert report.roots == ()

    def test_dependent_generators(self):
        with pytest.raises(DependentGenerators):
            product_roots(slice_matrix(E11), slice_matrix(2 * E11))

    def test_roots_normalized(self):
        g = RandomSource(32).generator()
        for _ in range(50):
            report = product_roots(
                slice_matrix(random_complex(g, 4)), slice_matrix(random_complex(g, 4))
            )
            for alpha, beta in report.roots:
                assert max(abs(alpha), abs(beta)) == 1.0


class TestClassifySpan:
    def test_two_products(self):
        st = classify_span(E11, E22)
        assert st.tag is StructureTag.TWO_PRODUCTS
        assert len(st.witnesses) == 2

    def test_left_factor(self):
        st = classify_span(E11, E12)
        assert st.tag is StructureTag.LEFT_FACTOR
        overlap = abs(np.vdot(st.factor, [1, 0]))
        assert overlap >= 1 - 1e-12

    def test_right_factor(self):
        st = classify_span(E11, np.array([0, 0, 1, 0], dtype=complex))
        assert st.tag is StructureTag.RIGHT_FACTOR
        assert abs(np.vdot(st.factor, [1, 0])) >= 1 - 1e-12

    def test_one_product_plus_entangled(self):
        st = classify_span(PSI, E11)
        assert st.tag is StructureTag.ONE_PRODUCT_PLUS_ENTANGLED
        assert len(st.witnesses) == 1
        assert np.allclose(st.witnesses[0] / st.witnesses[0][0], E11)

    def test_witnesses_are_products(self):
        g = RandomSource(33).generator()
        for _ in range(500):
            w1 = random_complex(g, 4)
            w2 = random_complex(g, 4)
            st = classify_span(w1, w2)
            # a span always shows at least one product direction
            assert st.tag is not StructureTag.ENTANGLED_LINE
            for wit in st.witnesses:
                s = svd(slice_matrix(wit)).sigma
                assert s[1] <= 1e-8 * s[0]

    def test_invariant_under_generator_mixing(self):
        g = RandomSource(34).generator()
        for _ in range(200):
            w1 = random_complex(g, 4)
            w2 = random_complex(g, 4)
            tag = classify_span(w1, w2).tag
            while True:
                mix = random_complex(g, 4).reshape(2, 2)
                if abs(np.linalg.det(mix)) > 0.1:
                    break
            v1 = mix[0, 0] * w1 + mix[0, 1] * w2
            v2 = mix[1, 0] * w1 + mix[1, 1] * w2
            assert classify_span(v1, v2).tag is tag


class TestClassifyLine:
    def test_product_line(self):
        assert classify_line(E11).tag is StructureTag.PRODUCT_LINE

    def test_entangled_line(self):
        assert classify_line([1, 0, 0, 1]).tag is StructureTag.ENTANGLED_LINE

    def test_entangled_by_determinant(self):
        # det of the slice [[0, 1], [1, 0.5]] is -1, so rank 2
        assert classify_line([0, 1, 1, 0.5]).tag is StructureTag.ENTANGLED_LINE

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            classify_line([0, 0, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFinite):
            classify_line([1, 0, bad, 1])


class TestOneProductBasis:
    def test_w_orbit_span_decomposition(self):
        for trial in range(300):
            state, _ = orbit_state(TripartiteClass.W, RandomSource(1500 + trial))
            res = svd(coefficient_matrix(state, 1).entries)
            w1, w2 = res.W[:, 0], res.W[:, 1]
            span = classify_span(w1, w2)
            assert span.tag is StructureTag.ONE_PRODUCT_PLUS_ENTANGLED
            basis = one_product_span_basis(w1, w2, span.witnesses[0])
            assert basis.leak <= 1e-8
            # the symmetric entangled generator really lies in the span
            gram = np.column_stack([w1, w2])
            coeff, *_ = np.linalg.lstsq(gram, basis.entangled, rcond=None)
            assert np.linalg.norm(gram @ coeff - basis.entangled) <= 1e-8 * np.linalg.norm(
                basis.entangled
            )

    def test_product_factors_split(self):
        g = RandomSource(35).generator()
        for _ in range(50):
            a = random_complex(g, 2)
            b = random_complex(g, 2)
            w = np.kron(a, b)
            fa, fb = product_factors(w)
            assert np.linalg.norm(np.kron(fa, fb) - w) <= 1e-10 * np.linalg.norm(w)
            assert abs(np.linalg.norm(fa) - 1.0) <= 1e-12

    def test_product_factors_split_near_products(self):
        # relative noise of 1e-12 on a (x) b moves the split by about as much
        g = RandomSource(36).generator()
        for _ in range(200):
            w = np.kron(random_complex(g, 2), random_complex(g, 2))
            noise = random_complex(g, 4)
            w = w + 1e-12 * np.linalg.norm(w) * noise / np.linalg.norm(noise)
            fa, fb = product_factors(w)
            assert np.linalg.norm(np.kron(fa, fb) - w) <= 1e-10 * np.linalg.norm(w)
            assert abs(np.linalg.norm(fa) - 1.0) <= 1e-12
        with pytest.raises(ZeroVector):
            product_factors(np.zeros(4))
