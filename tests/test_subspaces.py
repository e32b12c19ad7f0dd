import math
import warnings

import numpy as np
import pytest

from _kit import RandomSource, root_kind
from conftest import numpy_span_basis, orbit_state, random_complex
import slocc.subspaces
from slocc.errors import (
    DependentGenerators,
    DimensionMismatch,
    NonFinite,
    SloccError,
    ToleranceBreakdown,
    ZeroVector,
)
from slocc.numerics import TolerancePolicy, svd
from slocc.states import coefficient_matrix, make_state
from slocc.subspaces import (
    _EPS,
    RootKind,
    RootReport,
    _root_kind,
    StructureTag,
    classify_line,
    classify_span,
    one_product_span_basis,
    projective_quadratic_roots,
    product_factors,
    product_roots,
    slice_matrix,
    span_structure,
    unslice,
)
from slocc.tripartite import TripartiteClass, classify3

E11 = np.array([1, 0, 0, 0], dtype=complex)  # e1 (x) e1
E12 = np.array([0, 1, 0, 0], dtype=complex)
E21 = np.array([0, 0, 1, 0], dtype=complex)
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

    def test_three_vector_refused(self):
        for fn in (slice_matrix, classify_line):
            with pytest.raises(DimensionMismatch, match="expected a 4-vector, got length 3"):
                fn([1, 0, 0])

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

    def test_vanishing_pencil_without_a_factor_breaks_down(self):
        # a factor span is named from ranks first, so span_structure never reads a vanishing
        # pencil as the continuum of products
        vanishing = RootReport(RootKind.INFINITELY_MANY, (), (0j, 0j, 0j))
        with pytest.raises(ToleranceBreakdown, match="no factor was read"):
            span_structure(E11, E22, vanishing)

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

    def test_one_gram_test_per_call(self, monkeypatch):
        # the caller's generators pass the Gram test; the unit ones are not tested again
        calls = []
        original = slocc.subspaces._check_independent

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(slocc.subspaces, "_check_independent", counting)
        spans = [(E11, E22), (PSI, E11), (E11, E12), (E11, E21), (2 * E11, 1e-200 * E22)]
        g = RandomSource(37).generator()
        spans += [(random_complex(g, 4), random_complex(g, 4)) for _ in range(20)]
        for w1, w2 in spans:
            calls.clear()
            classify_span(w1, w2)
            assert len(calls) == 1

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


class TestFactorSpanReadFromRanks:
    """A span's common factor is a rank-1 [V1 | V2] (left) or [V1^T | V2^T] (right),
    read as classify3 reads a rank-1 pivot 2 or 3, not from a pencil tolerance."""

    POLICIES = [
        TolerancePolicy(),
        TolerancePolicy(rank_rel_tol=1e-6, deg_tol=1e-5),
        TolerancePolicy(rank_rel_tol=1e-5, deg_tol=1e-4),
        TolerancePolicy(rank_rel_tol=1e-4, deg_tol=1e-3),
    ]
    # span{a, b + delta e}: a factor span at delta = 0, left for the first and third
    # and right for the second; away from it, two product directions for the first two
    # and one for the third
    BANDS = [(E11, E12, E22), (E11, E21, E22), (E11, E12, E21)]
    DELTAS = np.logspace(-16, -1, 121)

    def test_near_factor_band_agrees_with_classify3(self):
        tags = set()
        for pol in self.POLICIES:
            for a, b, e in self.BANDS:
                for delta in self.DELTAS:
                    v1, v2 = a, b + delta * e
                    span = classify_span(v1, v2, pol)
                    # pivot-1 rows conj(v1), conj(v2): its right singular span is span{v1, v2}
                    state = make_state([2, 2, 2], np.concatenate([v1.conj(), v2.conj()]))
                    assert span.tag is classify3(state, pol).structure.tag, (pol, delta)
                    tags.add(span.tag)
                    if span.tag is StructureTag.LEFT_FACTOR:
                        assert np.array_equal(span.factor, product_factors(v1)[0])
                    elif span.tag is StructureTag.RIGHT_FACTOR:
                        right = product_factors(v1)[1]
                        assert np.array_equal(span.factor, right / np.linalg.norm(right))
        assert tags == {
            StructureTag.LEFT_FACTOR,
            StructureTag.RIGHT_FACTOR,
            StructureTag.TWO_PRODUCTS,
            StructureTag.ONE_PRODUCT_PLUS_ENTANGLED,
        }

    def test_factor_of_random_factor_spans(self):
        g = RandomSource(37).generator()
        for _ in range(100):
            a, b1, b2 = (random_complex(g, 2) for _ in range(3))
            left = classify_span(np.kron(a, b1), np.kron(a, b2))
            assert left.tag is StructureTag.LEFT_FACTOR
            assert np.array_equal(left.factor, product_factors(np.kron(a, b1))[0])
            right = classify_span(np.kron(b1, a), np.kron(b2, a))
            assert right.tag is StructureTag.RIGHT_FACTOR
            expected = product_factors(np.kron(b1, a))[1]
            assert np.array_equal(right.factor, expected / np.linalg.norm(expected))

    def test_pencil_read_on_its_own_scale(self):
        report = product_roots(slice_matrix(E11), slice_matrix(E12 + 1e-12 * E22))
        assert report.kind is not RootKind.INFINITELY_MANY

    @pytest.mark.parametrize("w1, w2", [(E11, 0 * E11), (0 * E11, E12), (E11, 3j * E11)])
    def test_zero_or_parallel_generators_refused(self, w1, w2):
        with pytest.raises(DependentGenerators):
            classify_span(w1, w2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_generators_refused(self, bad):
        with pytest.raises(NonFinite):
            classify_span(E11, [0, 1, bad, 0])
        with pytest.raises(NonFinite):
            classify_span([bad, 0, 0, 1], E12)


class TestSpanScaleInvariance:
    """Span readings hold at the ends of the float range: the Gram test, the unit
    generators and the pencil roots are read on exactly prescaled numbers, so
    nothing under- or overflows."""

    SPANS = [(E11, E12), (E11, E22), (E11, E21)]  # LeftFactor, TwoProducts, RightFactor

    @pytest.mark.parametrize("s", [1e-200, 1e200])
    @pytest.mark.parametrize("w1, w2", SPANS, ids=["left", "two", "right"])
    def test_span_reads_its_scale_one_tag_and_factor(self, w1, w2, s):
        expected = classify_span(w1, w2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = classify_span(w1, s * w2)
        assert got.tag is expected.tag
        if expected.factor is None:
            assert got.factor is None
        else:
            assert got.factor.tobytes() == expected.factor.tobytes()

    @pytest.mark.parametrize("s", [1e-200, 1e200])
    def test_product_roots_of_a_scaled_generator(self, s):
        expected = product_roots(slice_matrix(E11), slice_matrix(E22))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = product_roots(slice_matrix(E11), slice_matrix(s * E22))
        assert got.kind is expected.kind is RootKind.TWO_DISTINCT
        assert got.roots == expected.roots
        assert got.coeffs == (0.0, s, 0.0)

    @pytest.mark.parametrize("k", [-900, -600, 600, 900])
    def test_common_scale_keeps_every_reading(self, k):
        # a power of two scales witnesses exactly, so their bytes can be compared
        g = RandomSource(41).generator()
        tags = set()
        for trial in range(60):
            w1, w2 = random_complex(g, 4), random_complex(g, 4)
            if trial % 3 == 1:
                w1 = np.kron(w1[:2], w1[2:])  # a product generator
            elif trial % 3 == 2:
                w1, w2 = np.kron(w1[:2], w2[2:]), np.kron(w2[:2], w2[2:])  # a right factor
            expected = classify_span(w1, w2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = classify_span(2.0**k * w1, 2.0**k * w2)
            tags.add(got.tag)
            assert got.tag is expected.tag
            assert [w.tobytes() for w in got.witnesses] == [
                (2.0**k * w).tobytes() for w in expected.witnesses
            ]
            assert (got.factor is None) == (expected.factor is None)
            if got.factor is not None:
                assert got.factor.tobytes() == expected.factor.tobytes()
        assert StructureTag.RIGHT_FACTOR in tags and StructureTag.TWO_PRODUCTS in tags

    def test_pencil_beyond_the_float_range_refused(self):
        W1, W2 = slice_matrix(E11 + E22), slice_matrix(1e200 * (E12 + E21))  # det(W2) = -1e400
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFinite, match="float range"):
                product_roots(W1, W2)

    def test_finite_moduli_beyond_the_float_range_decided(self):
        # finite parts whose modulus passes 2^1024 read as the same pencil at a quarter scale
        a = complex(1.7e308, 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cases = (((a, 1, 1), RootKind.ONE_DOUBLE), ((a, 0, -a), RootKind.TWO_DISTINCT))
            for coeffs, kind in cases:
                got = projective_quadratic_roots(*coeffs, 1e-8)
                assert got == projective_quadratic_roots(*[z / 4 for z in coeffs], 1e-8)
                assert got[0] is kind
            x, W2 = math.sqrt(1.5e308), slice_matrix(E12 + E21)
            W1 = np.diag([x * (1 + 1j), x])  # det(W1) = 1.5e308 (1 + 1j)
            got, want = product_roots(W1, W2), product_roots(W1 / 2, W2 / 2)
        assert (got.kind, got.roots) == (want.kind, want.roots)
        assert got.coeffs[0] == 4 * want.coeffs[0]

    @pytest.mark.parametrize("b", [1e-200, 1e160, 1e200])
    def test_discriminant_read_on_the_coefficients_scale(self, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kind, roots = projective_quadratic_roots(0.0, b, 0.0, 1e-8)
        assert kind is RootKind.TWO_DISTINCT
        assert roots == ((1.0, 0.0), (0.0, 1.0))


class TestRootKindRule:
    """The kind rule that tag-only readings share with projective_quadratic_roots gives
    its kind, and the exact-rational kind, at every scale and on both sides of each
    threshold, with no warning."""

    @staticmethod
    def cases():
        g = RandomSource(45).generator()
        for trial in range(1500):
            a, b, c = random_complex(g, 3)
            zeroed = [(a, b, c), (0.0, b, c), (a, 0.0, c), (a, b, 0.0), (0.0, b, 0.0)][trial % 5]
            yield zeroed, (1e-8, 1e-3, 1e-14)[trial % 3]
        yield (0.0, 0.0, 0.0), 1e-8
        for side in (1.0 - 1e-6, 1.0 + 1e-6):
            for phase in (1.0, 1j, np.exp(0.7j)):
                # |a| at _EPS s, the discriminant far from zero
                yield (side * _EPS * phase, 0.7j, 1.0), 1e-8
                # |b| at _EPS s with |a| below it, deg_tol under |disc| ~ 2 _EPS s^2
                yield (0.5 * _EPS, side * _EPS * phase, phase), 1e-14
                # |disc| = |4 - 4c| at deg_tol s^2 = 4 deg_tol, exact in floats
                for tol in (1e-8, 1e-4):
                    yield tuple(z * phase for z in (1.0, 2.0, 1.0 - side * tol)), tol

    def test_matches_the_roots_and_the_exact_rule(self):
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for coeffs, tol in self.cases():
                for k in (-1000, 0, 1000):
                    scaled = [z * 2.0**k for z in coeffs]
                    kind = _root_kind(*scaled, tol)[0]
                    assert kind is projective_quadratic_roots(*scaled, tol)[0], (coeffs, k)
                    assert kind is root_kind(*scaled, tol), (coeffs, tol, k)
                    seen.add(kind)
        assert seen == set(RootKind)


class TestSpanPencilOnUnitGenerators:
    """span{w1, s w2} is span{w1, w2}: its pencil is read on the unit generators, so
    the reading does not depend on the generators' relative size."""

    @pytest.mark.parametrize(
        "s1, s2",
        [*((1.0, s) for s in (1e-300, 1e-200, 1e-20, 1e-4, 1e4, 1e20, 1e200, 1e300)),
         (1e-300, 1e300), (1e300, 1e-300)],
    )
    def test_two_product_span_at_every_relative_scale(self, s1, s2):
        def direction(v):
            v = v / np.abs(v).max()
            return v / np.linalg.norm(v)

        g = RandomSource(46).generator()
        for _ in range(200):
            w1, w2 = (np.kron(random_complex(g, 2), random_complex(g, 2)) for _ in range(2))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = classify_span(s1 * w1, s2 * w2)
            assert got.tag is StructureTag.TWO_PRODUCTS
            # the two product directions are the generators' own, one witness each
            overlaps = np.abs([[np.vdot(direction(w), direction(x)) for x in got.witnesses]
                               for w in (w1, w2)])
            assert max(overlaps.trace(), np.fliplr(overlaps).trace()) >= 2.0 - 1e-12


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

    def test_fields_match_the_numpy_basis(self):
        # the scalar basis against its numpy reference (conftest), field by field
        fields = ("left", "right", "left_comp", "right_comp", "entangled")
        for trial in range(300):
            state, _ = orbit_state(TripartiteClass.W, RandomSource(1500 + trial))
            res = svd(coefficient_matrix(state, 1).entries)
            w1, w2 = res.W[:, 0], res.W[:, 1]
            witness = classify_span(w1, w2).witnesses[0]
            got, want = one_product_span_basis(w1, w2, witness), numpy_span_basis(w1, w2, witness)
            for name in fields:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype == complex and a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max(), (trial, name)
            assert abs(got.leak - want.leak) <= 1e-15  # a relative coordinate, rounding-level
        for args in ((2 * E11, 3j * E11, E11), (E11, E22, E11)):
            with pytest.raises(SloccError) as got:
                one_product_span_basis(*args)
            with pytest.raises(type(got.value), match=str(got.value)):
                numpy_span_basis(*args)

    def test_generators_parallel_to_the_witness_refused(self):
        with pytest.raises(DependentGenerators, match="span collapses onto the witness"):
            one_product_span_basis(2 * E11, 3j * E11, E11)

    def test_two_product_span_refused(self):
        with pytest.raises(ToleranceBreakdown, match="no cross component"):
            one_product_span_basis(E11, E22, E11)

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
