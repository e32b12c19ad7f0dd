import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slocc.numerics
from _kit import RandomSource, eig2, is_degenerate, random_ilo
from conftest import orbit_state, random_complex
from slocc.errors import EmptySpectrum, NonFinite, SingularMatrix
from slocc.numerics import (
    SvdResult,
    TolerancePolicy,
    _leading_svd,
    inv2,
    numerical_rank,
    singular_values,
    svd,
)

finite_complex = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


class TestSvd:
    def test_already_diagonal(self):
        res = svd([[1, 0], [0, 0]])
        assert np.allclose(res.sigma, [1.0, 0.0])

    def test_ghz_coefficient_matrix(self):
        res = svd([[1, 0, 0, 0], [0, 0, 0, 1]])
        assert np.allclose(res.sigma, [1.0, 1.0])
        # right singular vectors span {e1 (x) e1, e2 (x) e2}
        span = res.W[:, :2] @ res.W[:, :2].conj().T
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1.0
        assert np.allclose(span, expected, atol=1e-12)

    def test_random_reconstruction_and_unitarity(self):
        for trial in range(50):
            g = RandomSource(90 + trial).generator()
            m, n = g.integers(1, 5), g.integers(1, 6)
            a = g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))
            res = svd(a)
            assert res.residual <= 1e-10
            assert np.linalg.norm(res.V.conj().T @ res.V - np.eye(m)) <= 1e-10
            assert np.linalg.norm(res.W.conj().T @ res.W - np.eye(n)) <= 1e-10
            assert np.all(np.diff(res.sigma) <= 1e-14)
            recon = (res.V[:, : min(m, n)] * res.sigma) @ res.W[:, : min(m, n)].conj().T
            assert np.linalg.norm(a - recon) <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_phase_convention(self):
        g = RandomSource(4).generator()
        a = g.standard_normal((3, 5)) + 1j * g.standard_normal((3, 5))
        res = svd(a)
        for k in range(3):
            col = res.V[:, k]
            lead = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
            assert abs(lead.imag) <= 1e-12 and lead.real > 0

    def test_deterministic(self):
        g = RandomSource(5).generator()
        a = g.standard_normal((2, 4)) + 1j * g.standard_normal((2, 4))
        r1 = svd(a)
        r2 = svd(a)
        assert np.array_equal(r1.V, r2.V)
        assert np.array_equal(r1.W, r2.W)
        assert np.array_equal(r1.sigma, r2.sigma)

    def test_matches_per_column_reference(self):
        # reference: phases pinned one column at a time with numpy calls
        def pin(M, k):
            col = M[:, k]
            lead = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
            phase = lead / abs(lead)
            M[:, k] = col / phase
            return phase

        g = RandomSource(9).generator()
        for trial in range(300):
            m, n = [(2, 2), (2, 4), (2, 8), (4, 2), (3, 5)][trial % 5]
            a = g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))
            if trial % 3 == 0:
                a[-1] = 0  # rank-deficient: null-space columns on both sides
            U, s, Vh = np.linalg.svd(a, full_matrices=True)
            W = Vh.conj().T
            for j in range(m):
                phase = pin(U, j)
                if j < min(m, n):
                    W[:, j] = W[:, j] / phase
            for j in range(min(m, n), n):
                pin(W, j)
            res = svd(a)
            assert np.array_equal(res.sigma, s)
            assert np.array_equal(res.V, U) and np.array_equal(res.W, W)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            svd([[np.nan, 0], [0, 1]])

    def test_shapes_refused(self):
        for bad in (np.zeros(2), np.zeros((0, 2)), np.zeros((1, 2, 2))):
            with pytest.raises(NonFinite, match="nonempty 2-d matrix"):
                svd(bad)

    def test_residual_is_lazy_reconstruction_error(self):
        g = RandomSource(8).generator()
        for m, n in ((2, 2), (2, 4), (2, 8), (4, 2), (3, 5)):
            a = g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))
            res = svd(a)
            original = a.copy()
            a[0, 0] += 1.0  # svd keeps a private copy, so this must not leak in
            assert "residual" not in vars(res)
            k = min(m, n)
            recon = res.V[:, :k] @ np.diag(res.sigma) @ res.W[:, :k].conj().T
            expected = np.linalg.norm(original - recon) / np.linalg.norm(original)
            assert abs(res.residual - expected) <= 1e-15
        assert svd(np.zeros((2, 3))).residual == 0.0

    def test_residual_is_scale_free(self):
        # 2^k Q with its SVD scaled by 2^k has the same residual, bit for bit, without warnings
        g = RandomSource(81).generator()
        for m, n in ((2, 2), (2, 4), (2, 8), (4, 2), (3, 5)):
            c_order = g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))
            for q in (c_order, np.asfortranarray(c_order)):
                res = svd(q)
                assert res.residual > 0.0
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for k in range(-1000, 1001, 25):
                        scaled = SvdResult(
                            V=res.V,
                            sigma=np.ldexp(res.sigma, k),
                            W=res.W,
                            matrix=np.ldexp(q.real, k) + 1j * np.ldexp(q.imag, k),
                        )
                        assert scaled.residual == res.residual
                        if abs(k) <= 900:
                            assert 0.0 < svd(2.0**k * q).residual <= 1e-14


def _phase(vector):
    """Phase of the first component above 1e-8 in size, as Python complex (1 if none)."""
    for z in vector.tolist():
        if abs(z) > 1e-8:
            return z * (1.0 / abs(z))
    return 1.0


def pinned_reference(matrix):
    """np.linalg.svd of the complex matrix, phases pinned one column at a time.

    Column j of U is divided by its own phase, and so is the paired column of
    W = Vh^H; each null column of W is divided by the conjugated phase of its
    row of Vh.
    """
    a = np.array(matrix, dtype=complex)
    U, s, Vh = np.linalg.svd(a, full_matrices=True)
    V, W = np.empty_like(U), np.empty_like(Vh.T)
    m, n = a.shape
    for j in range(m):
        phase = _phase(U[:, j])
        V[:, j] = U[:, j] / phase
        if j < n:
            W[:, j] = Vh[j].conj() / phase
    for j in range(m, n):
        W[:, j] = Vh[j].conj() / _phase(Vh[j]).conjugate()
    return V, s, W


SVD_SHAPES = [(1, 4), (1, 1), (4, 1), (2, 2), (2, 4), (2, 8), (4, 2), (3, 5)]


class TestSvdMatchesNumpy:
    """svd returns numpy's LAPACK decomposition byte for byte, only with phases pinned."""

    @staticmethod
    def assert_same_bytes(res, matrix):
        U, s, W = pinned_reference(matrix)
        for got, want in ((res.V, U), (res.sigma, s), (res.W, W)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert res.matrix.tobytes() == np.asarray(matrix, dtype=complex).tobytes()

    @pytest.mark.parametrize("shape", SVD_SHAPES)
    def test_random_and_rank_deficient(self, shape):
        g = RandomSource(17).generator()
        m, n = shape
        for trial in range(40):
            a = g.standard_normal(shape) + 1j * g.standard_normal(shape)
            if trial % 4 == 1:
                a = np.outer(a[:, 0], a[0])  # rank 1
            elif trial % 4 == 2 and m > 1:
                a[1:] = 0  # all-zero rows
            elif trial % 4 == 3 and n > 1:
                a[:, -1] = a[:, 0]  # repeated column
            self.assert_same_bytes(svd(a), a)

    @pytest.mark.parametrize("shape", SVD_SHAPES)
    def test_every_scale(self, shape):
        g = RandomSource(18).generator()
        a = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        for k in range(-300, 301, 25):
            scaled = a * 10.0**k
            self.assert_same_bytes(svd(scaled), scaled)
        self.assert_same_bytes(svd(np.zeros(shape)), np.zeros(shape))

    def test_memory_layouts(self):
        g = RandomSource(19).generator()
        big = g.standard_normal((8, 24)) + 1j * g.standard_normal((8, 24))
        for m, n in SVD_SHAPES:
            for a in (
                np.asfortranarray(big[:m, :n]),
                big[: 2 * m : 2, : 3 * n : 3],  # strided view
                big[:n, :m].T,  # transposed view
                big[m - 1 :: -1, :n] if m > 1 else big[:1, n - 1 :: -1],  # negative stride
            ):
                assert a.shape == (m, n)
                before = a.copy()
                self.assert_same_bytes(svd(a), a)
                assert np.array_equal(a, before)

    def test_real_and_integer_inputs(self):
        g = RandomSource(20).generator()
        for m, n in SVD_SHAPES:
            real = g.standard_normal((m, n))
            ints = g.integers(-5, 6, (m, n))
            for a in (real, ints, ints.astype(np.int8), real.astype(np.float32), ints.tolist()):
                res = svd(a)
                assert res.V.dtype == res.W.dtype == complex and res.sigma.dtype == float
                self.assert_same_bytes(res, a)

    @pytest.mark.parametrize("entry", [1e-310, 1e307])
    def test_inside_raising_error_state(self, entry):
        # numpy's svd ignores over/underflow inside LAPACK whatever the caller's error state
        g = RandomSource(21).generator()
        for m, n in SVD_SHAPES:
            a = entry * (g.integers(-3, 4, (m, n)) + 1j * g.integers(-3, 4, (m, n)))
            a[0, 0] = entry
            with np.errstate(all="raise"):
                np.linalg.svd(a, full_matrices=True)
                res = svd(a)
                assert np.geterr() == {
                    "divide": "raise", "over": "raise", "under": "raise", "invalid": "raise"
                }
            self.assert_same_bytes(res, a)

    @pytest.mark.parametrize("outer", ["ignore", "warn", "raise"])
    def test_nonconvergence_is_linalg_error(self, monkeypatch, outer):
        # numpy's SVD gufunc reports a failed convergence as an invalid operation
        def not_converged(a, signature):
            nan = np.subtract(np.inf, np.inf)
            m, n = a.shape
            return (
                np.full((m, m), nan, complex),
                np.full(min(m, n), nan),
                np.full((n, n), nan, complex),
            )

        monkeypatch.setattr(slocc.numerics, "_lapack_svd", not_converged)
        with np.errstate(all=outer), pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            svd([[1, 2], [3, 4]])

    def test_outer_error_state_restored(self):
        def handler(err, flag):
            pass

        with np.errstate(all="warn", call=handler):
            before = np.geterr(), np.geterrcall()
            svd([[1, 2, 3, 4], [5, 6, 7, 8]])
            assert (np.geterr(), np.geterrcall()) == before

    def test_non_finite_and_bad_shapes_refused(self):
        for bad in ([[1e308 * 10, 0]], [[0, np.nan]], [[complex(0, np.inf)]]):
            with pytest.raises(NonFinite):
                svd(bad)
        for bad in ([], [1, 2], np.zeros((2, 0)), np.zeros((2, 2, 2))):
            with pytest.raises(NonFinite):
                svd(bad)

    def test_outputs_read_only(self):
        res = svd([[1, 2], [3, 4j]])
        for arr in (res.V, res.sigma, res.W, res.matrix):
            with pytest.raises(ValueError):
                arr[0] = 0


def svd_inputs(shape):
    """The matrices TestSvdMatchesNumpy decomposes at one shape: random and rank-deficient,
    every scale, four memory layouts, real and integer inputs."""
    g = RandomSource(17).generator()
    m, n = shape
    for trial in range(40):
        a = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        if trial % 4 == 1:
            a = np.outer(a[:, 0], a[0])
        elif trial % 4 == 2 and m > 1:
            a[1:] = 0
        elif trial % 4 == 3 and n > 1:
            a[:, -1] = a[:, 0]
        yield a
    a = g.standard_normal(shape) + 1j * g.standard_normal(shape)
    yield from (a * 10.0**k for k in range(-300, 301, 25))
    yield np.zeros(shape)
    big = g.standard_normal((8, 24)) + 1j * g.standard_normal((8, 24))
    yield np.asfortranarray(big[:m, :n])
    yield big[: 2 * m : 2, : 3 * n : 3]
    yield big[:n, :m].T
    yield big[m - 1 :: -1, :n] if m > 1 else big[:1, n - 1 :: -1]
    ints = g.integers(-5, 6, shape)
    yield from (g.standard_normal(shape), ints, ints.astype(np.int8), ints.tolist())


class TestLeadingSvdMatchesNumpy:
    """The kernel every package caller reads returns svd()'s V, sigma and W[:, :k] byte for
    byte, k = min(m, n), and LAPACK's Vh, with svd()'s refusals and nonconvergence error."""

    @staticmethod
    def assert_same_bytes(matrix):
        U, s, W = pinned_reference(matrix)
        before = np.array(matrix, dtype=complex)
        V, sigma, Wk, Vh = _leading_svd(matrix)
        for got, want in ((V, U), (sigma, s), (Wk, W[:, : s.size])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert Vh.shape == (W.shape[0],) * 2
        assert np.array_equal(np.asarray(matrix, dtype=complex), before)

    @pytest.mark.parametrize("shape", SVD_SHAPES)
    def test_every_input_of_svd(self, shape):
        for a in svd_inputs(shape):
            self.assert_same_bytes(a)

    @pytest.mark.parametrize("entry", [1e-310, 1e307])
    def test_inside_raising_error_state(self, entry):
        g = RandomSource(21).generator()
        for m, n in SVD_SHAPES:
            a = entry * (g.integers(-3, 4, (m, n)) + 1j * g.integers(-3, 4, (m, n)))
            a[0, 0] = entry
            with np.errstate(all="raise"):
                _leading_svd(a)
            self.assert_same_bytes(a)

    @pytest.mark.parametrize("outer", ["ignore", "warn", "raise"])
    def test_nonconvergence_is_linalg_error(self, monkeypatch, outer):
        def not_converged(a, signature):
            nan = np.subtract(np.inf, np.inf)
            m, n = a.shape
            U, Vh = np.full((m, m), nan, complex), np.full((n, n), nan, complex)
            return U, np.full(min(m, n), nan), Vh

        monkeypatch.setattr(slocc.numerics, "_lapack_svd", not_converged)
        with np.errstate(all=outer), pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _leading_svd([[1, 2], [3, 4]])

    def test_non_finite_and_bad_shapes_refused(self):
        bad = [[[1e308 * 10, 0]], [[0, np.nan]], [[complex(0, np.inf)]], [], [1, 2]]
        for a in (*bad, np.zeros((2, 0)), np.zeros((2, 2, 2))):
            with pytest.raises(NonFinite):
                _leading_svd(a)


def parent_pivot_ratios(s1, s2, w1, w2):
    """The earlier _pivot_ratios, which read each squared modulus once per pivot."""
    rho = s2 / s1
    v = [rho * z for z in w2]
    dets = abs(w1[0] * w1[3] - w1[1] * w1[2]) ** 2 + abs(v[0] * v[3] - v[1] * v[2]) ** 2
    ratios = []
    for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3))):
        x0, x1, x2, x3, y0, y1, y2, y3 = w1[i], w1[j], v[i], v[j], w1[k], w1[l], v[k], v[l]
        minors = dets + abs(x0 * y2 - x2 * y0) ** 2 + abs(x0 * y3 - x3 * y0) ** 2
        minors += abs(x1 * y2 - x2 * y1) ** 2 + abs(x1 * y3 - x3 * y1) ** 2
        g11 = abs(x0) ** 2 + abs(x1) ** 2 + abs(x2) ** 2 + abs(x3) ** 2
        g22 = abs(y0) ** 2 + abs(y1) ** 2 + abs(y2) ** 2 + abs(y3) ** 2
        g12 = x0 * y0.conjugate() + x1 * y1.conjugate() + x2 * y2.conjugate()
        g12 = abs(g12 + x3 * y3.conjugate())
        ratios.append(2.0 * math.sqrt(minors) / (g11 + g22 + math.hypot(g11 - g22, 2.0 * g12)))
    return ratios


class TestPivotRatiosBitIdentical:
    """_pivot_ratios reads each squared modulus once and keeps every operation and its order:
    its ratios are the earlier formula's, bit for bit."""

    @staticmethod
    def assert_identical(s1, s2, w1, w2):
        got = slocc.numerics._pivot_ratios(s1, s2, w1, w2)
        want = parent_pivot_ratios(s1, s2, w1, w2)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_random_orthonormal_pairs(self):
        g = RandomSource(7200).generator()
        for trial in range(2000):
            q = np.linalg.qr(random_complex(g, 8).reshape(4, 2))[0]
            s1, s2 = sorted(np.abs(g.standard_normal(2)) * 10.0 ** g.uniform(-300, 300, 2))[::-1]
            self.assert_identical(s1, s2 if trial % 5 else 0.0, *q.T.tolist())  # s2 = 0: rank 1

    def test_pivot_1_of_every_class(self):
        from slocc.tripartite import TripartiteClass

        for k, tag in enumerate(TripartiteClass):  # rank-1 pivots 1, 2 or 3 in the factored classes
            for trial in range(100):
                state, _ = orbit_state(tag, RandomSource(7300 + 100 * k + trial))
                _, s, W, _ = _leading_svd(state.amps.reshape(2, 4))
                self.assert_identical(*s.tolist(), *W.T.tolist())

    def test_factor_sides_of_a_span(self):
        # classify_span's reading: unit generators f (x) x_l or x_l (x) f, s1 = s2 = 1
        g = RandomSource(7400).generator()
        for trial in range(500):
            f, x1, x2 = (random_complex(g, 2) for _ in range(3))
            pair = [np.kron(f, x) if trial % 2 else np.kron(x, f) for x in (x1, x2)]
            w1, w2 = (v / np.linalg.norm(v) for v in pair)
            self.assert_identical(1.0, 1.0, w1.tolist(), w2.tolist())


class TestNumericalRank:
    def test_two_equal(self):
        assert numerical_rank([1.0, 1.0]) == 2

    def test_below_relative_threshold(self):
        assert numerical_rank([1.0, 1e-15]) == 1

    def test_w_state_pivot_matrix(self):
        res = svd([[0, 1, 1, 0], [1, 0, 0, 0]])
        assert numerical_rank(res.sigma) == 2

    def test_empty_raises(self):
        with pytest.raises(EmptySpectrum):
            numerical_rank([])
        with pytest.raises(EmptySpectrum):
            numerical_rank([0.0, 0.0])

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, derandomize=True)
    def test_scale_invariant(self, scale):
        sigma = np.array([3.0, 1.2, 1e-13])
        assert numerical_rank(sigma * scale) == numerical_rank(sigma) == 2

    def test_matches_numpy_count_reference(self):
        def reference(sigma, pol):
            s = np.asarray(sigma, dtype=float)
            if s.size == 0 or s[0] <= 0.0:
                return EmptySpectrum
            return int(np.count_nonzero(s > pol.rank_rel_tol * s[0]))

        g = np.random.default_rng(20260)
        for trial in range(5000):
            pol = TolerancePolicy(rank_rel_tol=10.0 ** g.uniform(-12, -0.01))
            n = int(g.integers(0, 5))
            sigma = np.sort(np.abs(g.standard_normal(n)))[::-1] * 10.0 ** g.uniform(-300, 300)
            if n and trial % 3 == 0:  # values on and next to the cut
                cut = pol.rank_rel_tol * sigma[0]
                sigma[1:] = g.choice([cut, np.nextafter(cut, 0), np.nextafter(cut, np.inf)], n - 1)
            if n and trial % 7 == 0:
                sigma[0] = g.choice([0.0, -0.0, -1.0])
            expected = reference(sigma, pol)
            for form in (sigma, sigma.tolist(), tuple(sigma)):
                if expected is EmptySpectrum:
                    with pytest.raises(EmptySpectrum):
                        numerical_rank(form, pol)
                else:
                    got = numerical_rank(form, pol)
                    assert type(got) is int and got == expected


class TestEig2:
    def test_nilpotent(self):
        assert eig2([[0, 1], [0, 0]]) == (0, 0)

    def test_diagonal(self):
        assert eig2([[1, 0], [0, 2]]) == (2, 1)

    def test_rotation_generator(self):
        lam1, lam2 = eig2([[0, 1], [-1, 0]])
        assert lam1 == pytest.approx(1j)
        assert lam2 == pytest.approx(-1j)

    @given(entries=st.tuples(finite_complex, finite_complex, finite_complex, finite_complex))
    @settings(max_examples=200, derandomize=True)
    def test_characteristic_polynomial(self, entries):
        m = np.array(entries).reshape(2, 2)
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        for lam in eig2(m):
            assert abs(lam * lam - tr * lam + det) <= 1e-10 * (1 + abs(tr) + abs(det))

    def test_ordering(self):
        g = RandomSource(6).generator()
        for _ in range(100):
            m = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
            lam1, lam2 = eig2(m)
            assert abs(lam1) >= abs(lam2) - 1e-12


class TestDegeneracy:
    def test_both_zero(self):
        assert is_degenerate((0, 0), scale=1.0)

    def test_separated(self):
        assert not is_degenerate((2, 1), scale=1.0)

    def test_tiny_gap(self):
        assert is_degenerate((1, 1 + 1e-12), scale=1.0)


class TestInv2:
    def test_identity(self):
        assert np.allclose(inv2(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(inv2([[2, 0], [0, 4]]), [[0.5, 0], [0, 0.25]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inv2([[0, 1], [0, 0]])

    def test_random_inverse(self):
        g = RandomSource(7).generator()
        for _ in range(50):
            m = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
            assert np.allclose(inv2(m) @ m, np.eye(2), atol=1e-9)

    def test_scale_free(self):
        # power-of-two scaling is exact, so inv2(2^k M) == 2^-k inv2(M) bit for bit
        g = RandomSource(82).generator()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for trial in range(40):
                m = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
                if trial % 2:
                    m = np.asfortranarray(m)
                ref = inv2(m)
                for k in range(-900, 901, 30):
                    assert inv2(2.0**k * m).tobytes() == (2.0**-k * ref).tobytes()

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300])
    def test_diagonal_at_extreme_scales(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv = inv2(np.diag([scale, 2 * scale]))
        assert np.allclose(inv * scale, np.diag([1.0, 0.5]), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("scale", [1e-300, 1, 1e300])
    def test_singular_at_every_scale(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix):
                inv2(scale * np.array([[1, 2], [2, 4 + 1e-12]]))

    def test_agrees_with_numpy_inverse(self):
        # random ILOs (condition number <= 1e3) and matrices of every condition number up
        # to 1e3, at 2^k for k in {-1000, -500, 0, 500, 1000}; both inverses carry an error
        # of order eps * cond, which passes 1e-14 from cond ~ 45 up
        g = RandomSource(91).generator()
        mats = [random_ilo(2, RandomSource(90).split(t), 1e3) for t in range(200)]
        for _ in range(200):
            q1, q2 = (np.linalg.qr(random_complex(g, 4).reshape(2, 2))[0] for _ in range(2))
            mats.append(q1 @ np.diag([1.0, 10.0 ** -g.uniform(0.0, 3.0)]) @ q2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in mats:
                s = np.linalg.svd(m, compute_uv=False)
                bound = max(1e-14, np.finfo(float).eps * s[0] / s[1])
                for k in (-1000, -500, 0, 500, 1000):
                    mk = np.ldexp(m.real, k) + 1j * np.ldexp(m.imag, k)
                    ref = np.linalg.inv(mk)
                    assert np.abs(inv2(mk) - ref).max() <= bound * np.abs(ref).max(), k

    def test_inverse_outside_float_range_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix, match="float range"):
                inv2(np.diag([1e-310, 1e-310]))


class TestTolerancePolicy:
    @pytest.mark.parametrize("field", ["rank_rel_tol", "deg_tol", "residual_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-9, 1.0, 2.0])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            TolerancePolicy(**{field: value})


class TestSingularValues:
    """singular_values is np.linalg.svd(..., compute_uv=False) byte for byte, stacked or not."""

    def test_matches_numpy(self):
        g = RandomSource(721).generator()
        for trial in range(200):
            m, n = [(2, 4), (2, 8), (3, 3), (4, 2), (2, 2)][trial % 5]
            stack = random_complex(g, 7 * m * n).reshape(7, m, n)
            stack[trial % 7] = np.outer(random_complex(g, m), random_complex(g, n))  # rank 1
            stack[(trial + 3) % 7, 0] = 0.0
            stack *= 10.0 ** (trial % 41 * 15 - 300)
            for a in (stack, stack[trial % 7], stack.swapaxes(1, 2)):
                want = np.linalg.svd(a, compute_uv=False)
                got = singular_values(a)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("outer", ["ignore", "warn", "raise"])
    def test_nonconvergence_is_linalg_error(self, monkeypatch, outer):
        def not_converged(a, signature):
            return np.full(a.shape[:-2] + (min(a.shape[-2:]),), np.subtract(np.inf, np.inf))

        monkeypatch.setattr(slocc.numerics, "_lapack_sigma", not_converged)
        with np.errstate(all=outer), pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            singular_values(np.eye(2, dtype=complex))


def _overflow_readings():
    """Entry points reading a state's largest singular value, with one random state each:
    a 2x3 state, a GHZ-class orbit state, a 4-qubit state and GHZ (x) a qubit at position 3."""
    from slocc.bipartite import classify_bipartite
    from slocc.multiqubit import descriptor, factor_support
    from slocc.states import apply_local_operators, make_state
    from slocc.tripartite import TripartiteClass, canonical_vector, classify3, reduce_to_canonical

    g = np.random.default_rng(5)
    ops = [random_complex(g, 4).reshape(2, 2) for _ in range(3)]
    ghz = apply_local_operators(canonical_vector(TripartiteClass.GHZ), ops)
    four = make_state((2,) * 4, random_complex(g, 16))
    bip = make_state((2, 3), random_complex(g, 6))
    rest = canonical_vector(TripartiteClass.GHZ).amps.reshape(2, 2, 2)
    amps = np.moveaxis(np.multiply.outer(rest, random_complex(g, 2)), 3, 2).ravel()
    ops = [random_complex(g, 4).reshape(2, 2) for _ in range(4)]
    factored = apply_local_operators(make_state((2,) * 4, amps), ops)
    return {
        "classify_bipartite": (bip, lambda s: classify_bipartite(s).schmidt_rank),
        "classify3": (ghz, lambda s: classify3(s).tag),
        "reduce_to_canonical": (ghz, lambda s: reduce_to_canonical(s)[0].tag),
        "descriptor": (four, lambda s: descriptor(s).signature()),
        "factor_support": (factored, lambda s: (factor_support(s) or (None,))[0]),
    }


class TestOverflowingSingularValues:
    """Finite parts near the float range's end can give LAPACK an inf or NaN sigma_1, with no
    error: every entry point decides as at scale 1 or raises NonFinite, never a wrong class."""

    @pytest.mark.parametrize("top", [1.2e308, 1.5e308, 1.79e308])
    @pytest.mark.parametrize(
        "entry",
        ["classify_bipartite", "classify3", "reduce_to_canonical", "descriptor", "factor_support"],
    )
    def test_decided_as_at_scale_1_or_refused(self, entry, top):
        from slocc.states import make_state

        state, read = _overflow_readings()[entry]
        expected = read(state)
        amps = state.amps / np.abs(state.amps.view(float)).max() * top
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = make_state(state.dims, amps)
            try:
                got = read(scaled)
            except NonFinite as exc:
                assert str(exc) == "singular values leave the float range"
            else:
                assert got == expected

    def test_numerical_rank_refuses_a_non_finite_first_value(self):
        for first in (np.inf, np.nan):
            with pytest.raises(NonFinite, match="leave the float range"):
                numerical_rank([first, 1.0])


def rank1_cases(g):
    """Rank-1 2x4 matrices a b^T with complex phases: generic, with a zero row, with a zero
    column, with parts at 2^+-1000, and plus noise up to rank_rel_tol of sigma_1."""
    tol = TolerancePolicy().rank_rel_tol
    for trial in range(600):
        a, b = random_complex(g, 2), random_complex(g, 4)
        kind = trial % 6
        if kind == 1:
            a[trial % 2] = 0.0
        if kind == 2:
            b[trial % 4] = 0.0
        c = np.outer(a, b)
        if kind == 3:
            c *= 2.0 ** (1000 if trial % 2 else -1000)
        if kind == 4:  # parts of both ends in one matrix: the small row reads as zero
            c[trial % 2] *= 2.0**-1000
            c[1 - trial % 2] *= 2.0**1000 / np.abs(c).max()
        if kind == 5:
            noise = random_complex(g, 8).reshape(2, 4)
            c += g.uniform() * tol * np.linalg.norm(c) * noise / np.linalg.norm(noise)
        yield c


class TestTopDirection:
    """A rank-1 pivot's one left direction, read as the top eigenvector of its 2x2 Gram matrix
    in Python scalars, is svd()'s first left singular vector."""

    def test_matches_the_first_left_singular_vector(self):
        g = RandomSource(7100).generator()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in rank1_cases(g):
                a = np.array(slocc.numerics._top_direction(c.tolist()))
                v = svd(c).V[:, 0]
                assert abs(np.linalg.norm(a) - 1.0) <= 1e-15
                assert abs(np.vdot(a, v)) >= 1.0 - 1e-13
                assert np.abs(a - v).max() <= 1e-13  # phase pinned as svd() pins it

    def test_named_cases(self):
        top = slocc.numerics._top_direction
        assert top([[0j, 2j, 0j, 0j], [0j, 0j, 0j, 0j]]) == [1.0, 0.0]
        assert top([[0j] * 4, [0j, 0j, -3.0, 0j]]) == [0.0, 1.0]
        a = top([[1 + 1j, 0j, 2.0, 0j], [2j, 0j, 2 + 2j, 0j]])  # row 2 = (1 + 1j) * row 1
        assert abs(a[1] / a[0] - (1 + 1j)) <= 1e-15 and a[0].imag == 0.0 < a[0].real
        assert top([[1.0, 0j], [0j, 1.0]]) == [1.0, 0.0]  # G = I: any unit vector; e1


class TestTimesPow2:
    """The package's one builder of a vector at another power of two: ``math.ldexp`` part by
    part, byte for byte, signed zeros and subnormal results included, and a refusal with no
    warning where a part passes 2^1024."""

    @staticmethod
    def parts(g, e: int) -> list:
        # each result's exponent drawn from [-1080, 1024], so none leaves the float range
        floats = [math.ldexp(g.uniform(0.5, 1.0) * g.choice([-1.0, 1.0]), k)
                  for k in np.clip(g.integers(-1080, 1025, 64) - e, -1073, 1024).tolist()]
        floats[:4] = [0.0, -0.0, -0.0, 0.0]  # complex(0, -0), (-0, 0)
        d = min(e, 0)  # e < 0: subnormal results, one a tie at 2^-1075; e > 0: subnormal parts
        floats[4:8] = [math.ldexp(0.75, -1060 - d), -0.0, -math.ldexp(0.5, -1074 - d), 0.5]
        return [complex(x, y) for x, y in zip(floats[::2], floats[1::2])]

    @pytest.mark.parametrize("e", [-1023, -600, -1, 1, 600, 1023, 1024])
    def test_matches_math_ldexp_byte_for_byte(self, e):
        parts = self.parts(RandomSource(7200 + e).generator(), e)
        want = np.array([complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in parts])
        tiny = want if e < 0 else np.array(parts)
        assert any(0.0 < abs(x) < 2.0**-1022 for x in tiny.view(float).tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for given in (parts, np.array(parts)):
                assert slocc.numerics._times_pow2(given, e).tobytes() == want.tobytes()

    @pytest.mark.parametrize("outer", ["ignore", "warn", "raise"])
    def test_past_the_float_range_is_non_finite(self, outer):
        with warnings.catch_warnings(), np.errstate(all=outer):
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                slocc.numerics._times_pow2([1.5 + 0j], 1024)
            with pytest.raises(NonFinite):
                slocc.numerics._times_pow2(np.array([0j, complex(0.0, -2.0**-1074)]), 2099)
