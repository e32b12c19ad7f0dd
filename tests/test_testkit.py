import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _kit import MANY, RandomSource, brute_product_count, random_ilo, random_state
from slocc.errors import DependentGenerators
from slocc.subspaces import RootKind, product_roots, slice_matrix
from slocc.tripartite import TripartiteClass, classify3

KIND_TO_COUNT = {
    RootKind.TWO_DISTINCT: 2,
    RootKind.ONE_DOUBLE: 1,
    RootKind.INFINITELY_MANY: MANY,
}


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(1).generator().standard_normal(8)
        b = RandomSource(1).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_split_differs(self):
        a = RandomSource(1).split(0).generator().standard_normal(4)
        b = RandomSource(1).split(1).generator().standard_normal(4)
        assert not np.array_equal(a, b)


class TestRandomState:
    def test_deterministic(self):
        s1 = random_state([2, 2, 2], RandomSource(1))
        s2 = random_state([2, 2, 2], RandomSource(1))
        assert np.array_equal(s1.amps, s2.amps)

    def test_seed_one_three_qubits_is_ghz_class(self):
        # generic draws sit in the full-measure class
        assert classify3(random_state([2, 2, 2], RandomSource(1))).tag is TripartiteClass.GHZ

    def test_general_dims(self):
        st = random_state([3, 4], RandomSource(2))
        assert st.dims == (3, 4)
        assert st.amps.size == 12


class TestRandomIlo:
    def test_condition_capped(self):
        for i in range(20):
            m = random_ilo(2, RandomSource(10).split(i))
            s = np.linalg.svd(m, compute_uv=False)
            assert s[0] / s[-1] <= 1e3

    def test_deterministic(self):
        assert np.array_equal(random_ilo(2, RandomSource(7)), random_ilo(2, RandomSource(7)))

    def test_inverse_identity(self):
        m = random_ilo(3, RandomSource(8))
        assert np.linalg.norm(m @ np.linalg.inv(m) - np.eye(3)) <= 1e-10

    def test_cond_cap_validation(self):
        with pytest.raises(ValueError):
            random_ilo(2, RandomSource(9), cond_cap=0.5)


class TestBruteProductCount:
    def test_ghz_generators(self):
        assert brute_product_count([1, 0, 0, 0], [0, 0, 0, 1]) == 2

    def test_w_generators(self):
        assert brute_product_count([0, 1, 1, 0], [1, 0, 0, 0]) == 1

    def test_factor_span(self):
        assert brute_product_count([1, 0, 0, 0], [0, 1, 0, 0]) == MANY

    def test_dependent_generators(self):
        with pytest.raises(DependentGenerators):
            brute_product_count([1, 0, 0, 0], [2, 0, 0, 0])

    def test_agrees_with_analytic_roots(self):
        src = RandomSource(777)
        for i in range(300):
            g = src.split(i).generator()
            w1 = g.standard_normal(4) + 1j * g.standard_normal(4)
            w2 = g.standard_normal(4) + 1j * g.standard_normal(4)
            report = product_roots(slice_matrix(w1), slice_matrix(w2))
            assert brute_product_count(w1, w2, 10_000, 20) == KIND_TO_COUNT[report.kind]


def test_package_loads_no_test_kit():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, slocc, slocc.cli; print('slocc.testkit' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
