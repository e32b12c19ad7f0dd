"""Each span generator's scale is read once: classify_span takes its Gram test, its factor, its
pencil and its witnesses from the unit rays (the parts times 2^-e) that _check_independent
returns. product_factors and one_product_span_basis read their input at 2^-e and take what
they return back to 2^e exactly, so they hold at both ends of the float range. Also the one
integer rule of class_count_bound."""

import warnings

import numpy as np
import pytest

import slocc.subspaces
from conftest import random_complex
from slocc.errors import NonFinite
from slocc.multiqubit import class_count_bound
from slocc.numerics import DEFAULT_POLICY, TolerancePolicy
from slocc.subspaces import (
    StructureTag,
    _scaled,
    classify_span,
    one_product_span_basis,
    product_factors,
)

E11 = np.array([1, 0, 0, 0], dtype=complex)
E12 = np.array([0, 1, 0, 0], dtype=complex)
E21 = np.array([0, 0, 1, 0], dtype=complex)
E22 = np.array([0, 0, 0, 1], dtype=complex)
PSI = np.array([0, 1, 1, 0], dtype=complex)
POLICIES = [DEFAULT_POLICY, TolerancePolicy(1e-6, 1e-5), TolerancePolicy(1e-4, 1e-3)]
FIELDS = ("left_comp", "right_comp", "entangled")  # the fields that carry the span's scale


def strict(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


def one_product_span(g):
    """Generators a (x) b and x a (x) b + y (a (x) b' + a' (x) b), and a witness on a (x) b."""
    a, b, a2, b2 = (random_complex(g, 2) for _ in range(4))
    x, y = random_complex(g, 2)
    w1 = np.kron(a, b)
    return w1, x * w1 + y * (np.kron(a, b2) + np.kron(a2, b)), (0.7 + 0.1j) * w1


class TestOneScaleReadPerGenerator:
    SPANS = {"left": (E11, E12), "right": (E11, E21), "two": (E11, E22), "one": (PSI, E11)}

    @pytest.mark.parametrize("s", [1.0, 1e-300])
    @pytest.mark.parametrize("name", list(SPANS))
    def test_scaled_twice_per_call(self, name, s, monkeypatch):
        calls = []

        def counting(v):
            calls.append(v)
            return _scaled(v)

        monkeypatch.setattr(slocc.subspaces, "_scaled", counting)
        w1, w2 = self.SPANS[name]
        span = classify_span(s * w1, s * w2)
        assert len(calls) == 2
        assert span.tag is classify_span(w1, w2).tag

    def test_factor_is_read_from_the_first_ray(self):
        g = np.random.default_rng(71)
        for _ in range(50):
            a, b1, b2 = (random_complex(g, 2) for _ in range(3))
            for w1, w2 in ((np.kron(a, b1), np.kron(a, b2)), (np.kron(b1, a), np.kron(b2, a))):
                span = classify_span(w1, w2)
                ray = product_factors(_scaled(w1))
                if span.tag is StructureTag.LEFT_FACTOR:
                    expected = ray[0]
                else:
                    assert span.tag is StructureTag.RIGHT_FACTOR
                    expected = ray[1] / np.linalg.norm(ray[1])
                assert span.factor.tobytes() == expected.tobytes()


class TestRangeEnd:
    """Spans whose first generator has its largest part at 1.25e308 read as that generator's
    unit ray does: the same tag and a unit factor, with no warning."""

    def test_first_generator_at_the_top_of_the_float_range(self):
        g = np.random.default_rng(73)
        tags = set()
        for trial in range(60):
            a, b, c, d = (random_complex(g, 2) for _ in range(4))
            w1, w2 = [(random_complex(g, 4), random_complex(g, 4)), (np.kron(a, b), np.kron(c, d)),
                      (np.kron(a, b), np.kron(a, c)), (np.kron(b, a), np.kron(c, a))][trial % 4]
            big = w1 / np.abs(w1.view(float)).max() * 1.25e308
            for pol in POLICIES:
                got, ray = strict(classify_span, big, w2, pol), classify_span(_scaled(big), w2, pol)
                assert got.tag is ray.tag is classify_span(w1, w2, pol).tag
                tags.add(got.tag)
                if got.factor is not None:
                    assert got.factor.tobytes() == ray.factor.tobytes()
                    assert abs(np.linalg.norm(got.factor) - 1.0) <= 1e-15
        assert {StructureTag.LEFT_FACTOR, StructureTag.RIGHT_FACTOR} <= tags

    def test_left_factor_past_the_column_norm(self):
        span = strict(classify_span, [1.5e308, 0, 1.5e308, 0], [0, 1, 0, 1])
        assert span.tag is StructureTag.LEFT_FACTOR
        assert np.allclose(span.factor, [2**-0.5, 2**-0.5], rtol=0, atol=1e-15)

    def test_right_factor_past_the_column_norm(self):
        span = strict(classify_span, [1.5e308] * 4, [1, 1, -1, -1])
        assert span.tag is StructureTag.RIGHT_FACTOR
        assert np.allclose(span.factor, [2**-0.5, 2**-0.5], rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "w", [[1.5e308, 0, 1.5e308, 0], [1.5e308 + 1.5e308j, 0, 0, 1.5e308]], ids=["zero", "abs"]
    )
    def test_product_factors_whose_b_leaves_the_float_range_refused(self, w):
        # b's norm is the column norm, past 2^1024 here
        with pytest.raises(NonFinite, match="float range"):
            strict(product_factors, w)

    def test_product_factors_at_the_top_of_the_float_range(self):
        a, b = strict(product_factors, [1.2e308 + 0.9e308j, 0, 0, 0])  # modulus 1.5e308
        assert np.allclose(a, [0.8 + 0.6j, 0], rtol=0, atol=1e-15)
        assert np.allclose(b, [1.5e308, 0], rtol=1e-15, atol=0)

    def test_span_basis_of_a_complex_witness_at_the_top(self):
        x = 1.5e308 + 1.5e308j
        basis = strict(one_product_span_basis, [x, 0, 0, 0], PSI, [x, 0, 0, 0])
        assert basis.leak == 0.0
        assert basis.entangled.tolist() == PSI.tolist()
        assert np.allclose(basis.left, [(1 + 1j) / 2**0.5, 0], rtol=0, atol=1e-15)

    def test_span_basis_of_generators_at_the_top(self):
        x = 1.5e308
        basis = strict(one_product_span_basis, [x, 0, 0, 0], [0, x, x, 0], E11)
        unit = one_product_span_basis(E11, PSI, E11)
        assert basis.leak == unit.leak == 0.0
        assert basis.left.tobytes() == unit.left.tobytes()
        assert basis.right.tobytes() == unit.right.tobytes()
        for name in FIELDS:
            assert getattr(basis, name).tolist() == (x * getattr(unit, name)).tolist(), name

    def test_span_basis_past_the_float_range_refused(self):
        # around e1 (x) (e1 + e2) the left complement of [0, x, x, x] is sqrt(2) x e2
        x = 1.5e308
        with pytest.raises(NonFinite, match="float range"):
            strict(one_product_span_basis, [x, x, 0, 0], [0, x, x, x], [1, 1, 0, 0])


class TestExactAtFarScales:
    """A power of two 2^k scales what carries the input's scale by exactly 2^k and leaves the
    rest, the unit factor a, the unit b of the span basis and its leak, byte for byte."""

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_product_factors(self, k):
        g = np.random.default_rng(75)
        for trial in range(100):
            w = random_complex(g, 4)
            if trial % 3 == 1:
                w = np.kron(w[:2], w[2:])
            elif trial % 3 == 2:  # parts from 1 down to 1e-5: normal at 2^-1000, products not
                w = (g.choice([-1.0, 1.0], 8) * 10.0 ** -g.uniform(0, 5, 8)).view(complex)
            a1, b1 = product_factors(w)
            a, b = strict(product_factors, 2.0**k * w)
            assert a.tobytes() == a1.tobytes()
            assert b.tobytes() == (2.0**k * b1).tobytes()

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_one_product_span_basis(self, k):
        g = np.random.default_rng(77)
        for _ in range(100):
            w1, w2, witness = one_product_span(g)
            unit = one_product_span_basis(w1, w2, witness)
            far = strict(one_product_span_basis, 2.0**k * w1, 2.0**k * w2, witness)
            assert far.leak == unit.leak
            assert far.left.tobytes() == unit.left.tobytes()
            assert far.right.tobytes() == unit.right.tobytes()
            for name in FIELDS:
                assert getattr(far, name).tobytes() == (2.0**k * getattr(unit, name)).tobytes()

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_witness_scale_does_not_matter(self, k):
        g = np.random.default_rng(79)
        for _ in range(50):
            w1, w2, witness = one_product_span(g)
            unit = one_product_span_basis(w1, w2, witness)
            far = strict(one_product_span_basis, w1, w2, 2.0**k * witness)
            assert far.leak == unit.leak
            for name in ("left", "right", *FIELDS):
                assert getattr(far, name).tobytes() == getattr(unit, name).tobytes()


class TestClassCountBoundIntegers:
    def test_nan_named_as_a_non_integer(self):
        with pytest.raises(ValueError, match=r"m_n and n must be integers, got \(nan, 3\)"):
            class_count_bound(float("nan"), 3)

    def test_infinity_named_as_a_non_integer(self):
        with pytest.raises(ValueError, match=r"m_n and n must be integers, got \(6, -inf\)"):
            class_count_bound(6, float("-inf"))
