import warnings

import numpy as np
import pytest

import slocc.subspaces
import slocc.tripartite
from _kit import RandomSource, eig2, random_ilo
from conftest import numpy_span_basis, orbit_state, random_complex, up_to_scale
from slocc.errors import (
    EmptySpectrum,
    InconsistentRanks,
    ReductionFailed,
    SingularMatrix,
    SingularOperator,
    SloccError,
    ToleranceBreakdown,
    WrongArity,
)
from slocc.multiqubit import hyperdeterminant
from slocc.numerics import TolerancePolicy, _leading_svd, inv2, svd
from slocc.states import (
    PureState,
    apply_local_operators,
    coefficient_matrix,
    make_state,
    permute_subsystems,
)
from slocc.subspaces import (
    RootKind,
    StructureTag,
    SubspaceStructure,
    classify_line,
    classify_span,
    product_factors,
    product_roots,
    slice_matrix,
    span_structure,
)
from slocc.tripartite import (
    TripartiteClass,
    _classify3_rows,
    canonical_vector,
    classify3,
    reduce_to_canonical,
)

# class, canonical amplitudes, canonical pivot-1 matrix, span structure
TABLE = [
    (TripartiteClass.C000, [0], [[1, 0, 0, 0], [0, 0, 0, 0]], StructureTag.PRODUCT_LINE),
    (TripartiteClass.C01_PSI23, [0, 3], [[1, 0, 0, 1], [0, 0, 0, 0]], StructureTag.ENTANGLED_LINE),
    (TripartiteClass.C02_PSI13, [0, 5], [[1, 0, 0, 0], [0, 1, 0, 0]], StructureTag.LEFT_FACTOR),
    (TripartiteClass.C03_PSI12, [0, 6], [[1, 0, 0, 0], [0, 0, 1, 0]], StructureTag.RIGHT_FACTOR),
    (TripartiteClass.GHZ, [0, 7], [[1, 0, 0, 0], [0, 0, 0, 1]], StructureTag.TWO_PRODUCTS),
    (TripartiteClass.W, [1, 2, 4], [[0, 1, 1, 0], [1, 0, 0, 0]], StructureTag.ONE_PRODUCT_PLUS_ENTANGLED),
]

RANKS = {
    TripartiteClass.C000: (1, 1, 1),
    TripartiteClass.C01_PSI23: (1, 2, 2),
    TripartiteClass.C02_PSI13: (2, 1, 2),
    TripartiteClass.C03_PSI12: (2, 2, 1),
    TripartiteClass.GHZ: (2, 2, 2),
    TripartiteClass.W: (2, 2, 2),
}


class TestCanonicalVector:
    @pytest.mark.parametrize("tag,nonzero,matrix,structure", TABLE)
    def test_table_row(self, tag, nonzero, matrix, structure):
        state = canonical_vector(tag)
        expected = np.zeros(8)
        expected[nonzero] = 1
        assert np.array_equal(state.amps, expected)
        assert np.array_equal(coefficient_matrix(state, 1).entries, matrix)

    def test_ghz_and_w_kets(self):
        assert list(np.flatnonzero(canonical_vector(TripartiteClass.GHZ).amps)) == [0, 7]
        assert list(np.flatnonzero(canonical_vector(TripartiteClass.W).amps)) == [1, 2, 4]
        assert list(np.flatnonzero(canonical_vector(TripartiteClass.C03_PSI12).amps)) == [0, 6]

    @pytest.mark.parametrize("tag", list(TripartiteClass))
    def test_repeated_calls_equal_and_read_only(self, tag):
        first, second = canonical_vector(tag), canonical_vector(tag)
        assert first.dims == second.dims == (2, 2, 2)
        assert first.amps.dtype == second.amps.dtype == complex
        assert first.amps.tobytes() == second.amps.tobytes()
        with pytest.raises(ValueError):
            first.amps[0] = 5
        with pytest.raises(AttributeError):
            first.amps = np.zeros(8)


class TestClassify3:
    @pytest.mark.parametrize("tag,nonzero,matrix,structure", TABLE)
    def test_canonical_fixture(self, tag, nonzero, matrix, structure):
        report = classify3(canonical_vector(tag))
        assert report.tag is tag
        assert report.ranks == RANKS[tag]
        assert report.structure.tag is structure
        assert not report.near_boundary

    def test_w_orbit_every_time(self):
        for trial in range(100):
            state, _ = orbit_state(TripartiteClass.W, RandomSource(2000 + trial))
            assert classify3(state).tag is TripartiteClass.W

    def test_random_generic_state_is_ghz(self):
        # GHZ is the full-measure class, so random draws land there
        g = RandomSource(2100).generator()
        for _ in range(50):
            state = make_state([2, 2, 2], random_complex(g, 8))
            assert classify3(state).tag is TripartiteClass.GHZ

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            classify3(make_state([2, 2], [1, 0, 0, 1]))
        with pytest.raises(WrongArity):
            classify3(make_state([2, 2, 3], [1] + [0] * 11))

    def test_spectrum_reported_in_rank2_branch(self):
        report = classify3(canonical_vector(TripartiteClass.W))
        assert report.spectrum_used is not None
        lam1, lam2 = report.spectrum_used.eigenvalues
        assert abs(lam1) <= 1e-8 and abs(lam2) <= 1e-8

    @pytest.mark.parametrize("tag", [TripartiteClass.GHZ, TripartiteClass.W])
    def test_pivot_consistency(self, tag):
        # permuting the qubits must not change the GHZ/W verdict
        for trial in range(50):
            state, _ = orbit_state(tag, RandomSource(2200 + trial))
            for order in ((2, 1, 3), (3, 2, 1), (2, 3, 1)):
                assert classify3(permute_subsystems(state, order)).tag is tag

    def test_svd_gauge_invariance(self):
        # with equal singular values the pair (w1, w2) is free up to a
        # unitary mix; the span structure must not depend on the choice
        g = RandomSource(2300).generator()
        w1 = np.array([1, 0, 0, 0], dtype=complex)
        w2 = np.array([0, 0, 0, 1], dtype=complex)
        for _ in range(20):
            q = np.linalg.qr(random_complex(g, 4).reshape(2, 2))[0]
            v1 = q[0, 0] * w1 + q[0, 1] * w2
            v2 = q[1, 0] * w1 + q[1, 1] * w2
            assert classify_span(v1, v2).tag is StructureTag.TWO_PRODUCTS


class TestComputedOnce:
    """The pivot SVDs are computed once per call and passed down."""

    @pytest.mark.parametrize("tag", [TripartiteClass.GHZ, TripartiteClass.W])
    def test_three_svds_per_call(self, tag, monkeypatch):
        calls, public = [], []

        def counting(fn, log):
            def wrapper(matrix):
                log.append(np.shape(matrix))
                return fn(matrix)

            return wrapper

        monkeypatch.setattr(slocc.tripartite, "_leading_svd", counting(_leading_svd, calls))
        for module in (slocc.numerics, slocc.tripartite, slocc.subspaces):
            monkeypatch.setattr(module, "svd", counting(svd, public), raising=False)
        for trial in range(20):
            state, _ = orbit_state(tag, RandomSource(2500 + trial))
            for fn in (classify3, reduce_to_canonical):
                calls.clear()
                fn(state)
                assert calls == [(2, 4)]  # the pivot-1 SVD; pivots 2, 3 read minors
        assert public == []  # the package reads the kernel, never the public svd

    @pytest.mark.parametrize("tag", [TripartiteClass.GHZ, TripartiteClass.W])
    def test_pencil_solved_once_per_call(self, tag, monkeypatch):
        counts = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        # the pencil is read once, by _root_kind, and never through the public entries
        names = ("pencil_quadratic", "projective_quadratic_roots", "product_roots", "_root_kind")
        for name in names:
            wrapped = counting(name, getattr(slocc.subspaces, name))
            for module in (slocc.subspaces, slocc.tripartite):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        for trial in range(20):
            state, _ = orbit_state(tag, RandomSource(2700 + trial))
            for fn in (classify3, reduce_to_canonical):
                counts.clear()
                fn(state)
                assert counts == {"_root_kind": 1}

    def test_tags_solve_no_pencil(self, monkeypatch):
        # _classify3_rows reads a GHZ/W pencil's kind from its coefficients, never its roots
        names = ("product_roots", "projective_quadratic_roots", "_check_independent")
        counts = count_calls(monkeypatch, names)
        tags = [TripartiteClass.GHZ, TripartiteClass.W] * 10
        rows = [orbit_state(tag, RandomSource(2900 + k))[0].amps for k, tag in enumerate(tags)]
        rows += [canonical_vector(tag).amps for tag in tags[:2]]
        assert _classify3_rows(np.array(rows)) == tags + tags[:2]
        assert counts == {}

    def test_pencil_spectrum_matches_explicit_eigenvalues(self):
        for trial in range(100):
            state, _ = orbit_state(TripartiteClass.GHZ, RandomSource(2600 + trial))
            spectrum = classify3(state).spectrum_used
            W = svd(coefficient_matrix(state, 1).entries).W
            W1, W2 = slice_matrix(W[:, 0]), slice_matrix(W[:, 1])
            if spectrum.product == "W1^-1 @ W2":
                expected = eig2(inv2(W1) @ W2)
            else:
                assert spectrum.product == "W2^-1 @ W1"
                expected = eig2(inv2(W2) @ W1)
            got = spectrum.eigenvalues
            assert abs(got[0]) >= abs(got[1])
            err = min(
                max(abs(got[0] - expected[0]), abs(got[1] - expected[1])),
                max(abs(got[0] - expected[1]), abs(got[1] - expected[0])),
            )
            assert err <= 1e-8 * max(abs(expected[0]), abs(expected[1]))

    def test_inverse_of_the_second_slice_when_the_first_is_a_product(self):
        # 2|001> + |100> + |111> is a W state whose w1 is a product vector: det W1 = 0,
        # so the spectrum is read from W2^-1 @ W1, whose eigenvalues are both 0
        state = make_state([2, 2, 2], [0, 2, 0, 0, 1, 0, 0, 1])
        report = classify3(state)
        assert report.tag is TripartiteClass.W
        W = svd(coefficient_matrix(state, 1).entries).W
        W1, W2 = slice_matrix(W[:, 0]), slice_matrix(W[:, 1])
        assert classify_line(W[:, 0]).tag is StructureTag.PRODUCT_LINE
        spectrum = report.spectrum_used
        assert spectrum.product == "W2^-1 @ W1"
        assert spectrum.eigenvalues == (0, 0)
        assert np.abs(eig2(inv2(W2) @ W1)).max() <= 1e-15

    def test_huge_amplitudes_raise_no_warning(self):
        amps = canonical_vector(TripartiteClass.W).amps * 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify3(make_state([2, 2, 2], amps)).tag is TripartiteClass.W


FACTORED = [
    TripartiteClass.C000,
    TripartiteClass.C01_PSI23,
    TripartiteClass.C02_PSI13,
    TripartiteClass.C03_PSI12,
]


def count_calls(monkeypatch, names):
    """Count calls to the named subspaces functions, wherever they are bound."""
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        wrapped = counting(name, getattr(slocc.subspaces, name))
        for module in (slocc.subspaces, slocc.tripartite):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    return counts


class TestFactoredClassesReadFromRanks:
    """The rank pattern names 000, 0_1, 0_2 and 0_3; their structure and
    factors come from the pivot SVDs already computed."""

    @pytest.mark.parametrize("tag", FACTORED)
    def test_no_pencil_and_no_line_test(self, tag, monkeypatch):
        counts = count_calls(
            monkeypatch,
            (
                "product_roots",
                "pencil_quadratic",
                "projective_quadratic_roots",
                "classify_line",
                "product_factors",
            ),
        )
        for trial in range(20):
            state, _ = orbit_state(tag, RandomSource(2800 + trial))
            assert classify3(state).tag is tag
        assert counts == {}

    @pytest.mark.parametrize("tag", [FACTORED[0], FACTORED[2], FACTORED[3]])
    def test_reduction_takes_factors_from_the_pivots(self, tag, monkeypatch):
        calls, public = [], []

        def counting(fn, log):
            def wrapper(matrix):
                log.append(np.shape(matrix))
                return fn(matrix)

            return wrapper

        monkeypatch.setattr(slocc.tripartite, "_leading_svd", counting(_leading_svd, calls))
        for module in (slocc.numerics, slocc.tripartite, slocc.subspaces):
            monkeypatch.setattr(module, "svd", counting(svd, public), raising=False)
        counts = count_calls(monkeypatch, ("product_factors",))
        for trial in range(20):
            state, _ = orbit_state(tag, RandomSource(2900 + trial))
            calls.clear()
            report, ilos = reduce_to_canonical(state)
            assert report.tag is tag and ilos.residual <= 1e-8
            # the pivot-1 SVD only: a rank-1 pivot's direction is read from its Gram matrix
            assert calls == [(2, 4)]
        assert counts == {}
        assert public == []

    @pytest.mark.parametrize("tag", [FACTORED[2], FACTORED[3]])
    def test_factor_lies_in_the_span(self, tag):
        # a LeftFactor f divides both generators as f (x) x, a RightFactor as x (x) f
        for trial in range(20):
            state, _ = orbit_state(tag, RandomSource(3000 + trial))
            report = classify3(state)
            f = report.structure.factor
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-12
            for w in svd(coefficient_matrix(state, 1).entries).W.T[:2]:
                m = w.reshape(2, 2)
                if tag is TripartiteClass.C02_PSI13:
                    rest = m - np.outer(f, f.conj() @ m)
                else:
                    rest = m - np.outer(m @ f.conj(), f)
                assert np.linalg.norm(rest) <= 1e-10


class TestReportSelfConsistency:
    def test_structure_matches_class_near_rank_boundary(self):
        # noise of 0.3-3x rank_rel_tol puts a pivot's sigma ratio at the
        # rank cut, where a second reading of the same distinction could
        # disagree with the ranks
        pol = TolerancePolicy(rank_rel_tol=1e-6, deg_tol=1e-5)
        paired = {tag: structure for tag, _, _, structure in TABLE}
        checked = 0
        for index, tag in enumerate(FACTORED[1:]):
            for trial in range(100):
                src = RandomSource(3100).split(index).split(trial)
                state, _ = orbit_state(tag, src)
                noise = random_complex(src.split(9).generator(), 8)
                size = (0.3, 1.0, 3.0)[trial % 3] * pol.rank_rel_tol * state.norm()
                noisy = make_state([2, 2, 2], state.amps + size * noise / np.linalg.norm(noise))
                try:
                    report = classify3(noisy, pol)
                except SloccError:
                    continue
                checked += 1
                assert report.structure.tag is paired[report.tag], (tag, trial, report.tag)
        assert checked >= 250


class TestScale:
    """The reduction does not depend on the overall scale of the amplitudes."""

    @pytest.mark.parametrize("tag", list(TripartiteClass))
    def test_reduces_at_every_scale(self, tag):
        amps = canonical_vector(tag).amps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-150, 151):
                report, ilos = reduce_to_canonical(make_state([2, 2, 2], amps * 10.0**k))
                assert report.tag is tag, k
                assert ilos.residual <= 1e-8, k

    @pytest.mark.parametrize("tag", [t for t, r in RANKS.items() if r[0] == 2])
    @pytest.mark.parametrize("k", [-200, 200])
    def test_pivot_det_out_of_float_range_still_reduces(self, tag, k):
        # F1 carries 1/sigma twice on rank-2 pivots, so |det F1| ~ 10^(-2k) unless the
        # operators are built on amplitudes scaled by a power of two
        state = make_state([2, 2, 2], canonical_vector(tag).amps * 10.0**k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, ilos = reduce_to_canonical(state)
        assert report.tag is tag and ilos.residual <= 1e-8

    @pytest.mark.parametrize("tag", [t for t, r in RANKS.items() if r[0] == 1])
    def test_rank1_orbit_states_reduce_at_every_scale(self, tag):
        # F1 = V^dagger / sigma_1 leaves a relative residual, so orbit states whose pivot-1
        # sigma_2 is rounding noise reduce at every scale the operator dets can carry
        states = [orbit_state(tag, RandomSource(4200 + trial))[0].amps for trial in range(20)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-140, 141, 10):
                for amps in states:
                    report, ilos = reduce_to_canonical(make_state([2, 2, 2], amps * 10.0**k))
                    assert report.tag is tag, k
                    assert ilos.residual <= 1e-8, k
            for k in (-300, -200, 200, 300):  # |det F1| = sigma_1^-2 would leave the float range
                for amps in states:
                    report, ilos = reduce_to_canonical(make_state([2, 2, 2], amps * 10.0**k))
                    assert report.tag is tag and ilos.residual <= 1e-8, k

    @pytest.mark.parametrize("tag", [t for t, r in RANKS.items() if r[0] == 2])
    def test_rank2_orbit_states_reduce_at_every_scale(self, tag):
        # the scale enters only F1, as 1/sigma, so orbit states with two pivot-1 singular
        # values reduce at every scale the operator dets can carry
        states = [orbit_state(tag, RandomSource(4300 + trial))[0].amps for trial in range(20)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-140, 141, 20):
                for amps in states:
                    report, ilos = reduce_to_canonical(make_state([2, 2, 2], amps * 10.0**k))
                    assert report.tag is tag, k
                    assert ilos.residual <= 1e-8, k
            for k in (-300, -200, 200, 300):  # |det F1| ~ 1/(sigma_1 sigma_2) would leave it
                for amps in states:
                    report, ilos = reduce_to_canonical(make_state([2, 2, 2], amps * 10.0**k))
                    assert report.tag is tag and ilos.residual <= 1e-8, k

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_far_scales_reduce_as_the_unit_scaled_state(self, k):
        # beyond |det F1| ~ 2^+-1010 the operators and the residual are read on the
        # amplitudes scaled by the power of two 2^-e of their largest part: the state
        # times 2^k reduces with the operators of amps * 2^-e, up to the SVD's rounding
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for trial in range(60):
                tag = list(TripartiteClass)[trial % 6]
                amps = orbit_state(tag, RandomSource(4500 + trial))[0].amps
                unit = 2.0 ** -slocc.tripartite._exponent(amps.tolist())
                _, expected = reduce_to_canonical(make_state([2, 2, 2], amps * unit))
                report, ilos = reduce_to_canonical(make_state([2, 2, 2], amps * 2.0**k))
                assert report.tag is tag and ilos.residual <= 1e-8
                for got, want in zip(ilos.ops, expected.ops):
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_nan_residual_is_a_reduction_failure(self, monkeypatch):
        def nan_out(state, ops):
            return PureState(state.dims, np.full(8, np.nan, dtype=complex))

        monkeypatch.setattr(slocc.tripartite, "apply_local_operators", nan_out)
        with pytest.raises(ReductionFailed, match="nan"):
            reduce_to_canonical(canonical_vector(TripartiteClass.GHZ))


class TestHyperdeterminantOracle:
    @pytest.mark.parametrize("index,tag", list(enumerate(TripartiteClass)))
    def test_nonzero_exactly_on_ghz(self, index, tag):
        # Cayley's hyperdeterminant (the 3-tangle) vanishes exactly off the
        # GHZ class: an invariant independent of the SVD-based decision
        for trial in range(200):
            state, _ = orbit_state(tag, RandomSource(3000 + 1000 * index + trial))
            tangle = abs(hyperdeterminant(state.amps)) / state.norm() ** 4
            assert (tangle > 1e-10) == (classify3(state).tag is TripartiteClass.GHZ)


def near_w_state(eps):
    """span{e1e2 + e2e1, e1e1 + eps*e2e2}: pencil discriminant ~ 4*eps."""
    amps = np.zeros(8, dtype=complex)
    amps[1] = amps[2] = 1
    amps[4] = 1
    amps[7] = eps
    return make_state([2, 2, 2], amps)


class TestBoundaryBehavior:
    def test_near_boundary_flag_window(self):
        # discriminant 4*eps against the 1e-8 threshold, flag within 100x
        assert classify3(near_w_state(0.1)).tag is TripartiteClass.GHZ
        assert not classify3(near_w_state(0.1)).near_boundary
        ghz_side = classify3(near_w_state(1e-8))
        assert ghz_side.tag is TripartiteClass.GHZ and ghz_side.near_boundary
        w_side = classify3(near_w_state(1e-9))
        assert w_side.tag is TripartiteClass.W and w_side.near_boundary
        deep_w = classify3(near_w_state(1e-12))
        assert deep_w.tag is TripartiteClass.W and not deep_w.near_boundary

    def test_near_boundary_states_still_reduce(self):
        # no refusal to answer near the class boundary
        for eps in (1e-7, 1e-9):
            report, ilos = reduce_to_canonical(near_w_state(eps))
            assert ilos.residual <= 1e-8

    def test_inconsistent_ranks_signals_tolerance_failure(self):
        # sigma ratios per pivot: 0.045, 0.499, 0.503; a cut between the
        # last two reads exactly two pivots as rank 1
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[3], amps[5] = 1.0, 0.5, 0.05
        state = make_state([2, 2, 2], amps)
        with pytest.raises(InconsistentRanks):
            classify3(state, TolerancePolicy(rank_rel_tol=0.501))

    def test_full_rank_pencil_read_on_its_own_scale(self):
        # 0_2 and 0_3 orbit states plus noise at 3x and 10x rank_rel_tol read ranks
        # (2, 2, 2) under a loose policy; their pencil is small but nonzero, so they are GHZ
        # and never a ToleranceBreakdown, which would re-read the rank distinction
        full_rank = 0
        for tol in (1e-6, 1e-5):
            pol = TolerancePolicy(rank_rel_tol=tol, deg_tol=10 * tol)
            for index, tag in enumerate((TripartiteClass.C02_PSI13, TripartiteClass.C03_PSI12)):
                for trial in range(60):
                    src = RandomSource(4400).split(index).split(trial)
                    state, _ = orbit_state(tag, src)
                    noise = random_complex(src.split(9).generator(), 8)
                    size = (3.0, 10.0)[trial % 2] * tol * state.norm()
                    amps = state.amps + size * noise / np.linalg.norm(noise)
                    report = classify3(make_state([2, 2, 2], amps), pol)
                    if report.ranks == (2, 2, 2):
                        full_rank += 1
                        assert report.tag is TripartiteClass.GHZ, (tol, tag, trial)
                    else:
                        assert report.tag is tag, (tol, tag, trial)
        assert full_rank >= 200

    def test_reduction_failed_at_squeezed_tolerance(self):
        state = near_w_state(1e-9)
        _, ilos = reduce_to_canonical(state)
        squeezed = TolerancePolicy(residual_tol=ilos.residual / 10.0)
        with pytest.raises(ReductionFailed):
            reduce_to_canonical(state, squeezed)


def unit_scaled(amps):
    """Amplitudes times the exact power of two 2^-e of their largest part."""
    return amps * 2.0 ** -slocc.tripartite._exponent(amps.ravel().tolist())


def projective_distance(out, tag):
    """|out - z canon| / |out| with z the projection of out onto the canonical vector."""
    out, canon = unit_scaled(out.reshape(-1)), canonical_vector(tag).amps
    z = np.vdot(canon, out) / np.vdot(canon, canon)
    return float(np.linalg.norm(out - z * canon) / np.linalg.norm(out))


class TestResidualReadDirectly:
    """The reported residual is the projective distance of F1 (x) F2 (x) F3 psi, summed
    term by term: a "total minus on-support" form cancels to ~1e-8 of rounding noise."""

    def check(self, state, tag):
        report, ilos = reduce_to_canonical(state)
        assert report.tag is tag
        unit = make_state((2, 2, 2), unit_scaled(state.amps))  # the residual is projective
        # the same image, its distance read by numpy: equal up to the summation order
        same = projective_distance(apply_local_operators(unit, ilos.ops).amps, tag)
        assert abs(ilos.residual - same) <= 1e-15 + 1e-6 * same
        # an einsum over the tensor rounds differently, by up to ~1e-14 in the distance
        out = np.einsum("ai,bj,ck,ijk->abc", *ilos.ops, unit.amps.reshape(2, 2, 2))
        einsum = projective_distance(out, tag)
        assert abs(ilos.residual - einsum) <= 1e-13 + 1e-6 * einsum

    @pytest.mark.parametrize("tag", list(TripartiteClass))
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e300, 1e-300])
    def test_orbit_states(self, tag, scale):
        for trial in range(10):
            amps = orbit_state(tag, RandomSource(4600 + trial))[0].amps
            self.check(make_state((2, 2, 2), amps * scale), tag)

    def test_near_w_state(self):
        self.check(near_w_state(1e-9), TripartiteClass.W)


class TestReduce:
    def test_canonical_ghz_fixed_point(self):
        report, ilos = reduce_to_canonical(canonical_vector(TripartiteClass.GHZ))
        assert report.tag is TripartiteClass.GHZ
        assert ilos.residual <= 1e-10
        for f in ilos.ops:
            assert np.allclose(f, np.eye(2), atol=1e-10)

    def test_sheared_ghz(self):
        f = np.array([[1, 1], [0, 1]], dtype=complex)
        state = apply_local_operators(
            canonical_vector(TripartiteClass.GHZ), [f, np.eye(2), np.eye(2)]
        )
        report, ilos = reduce_to_canonical(state)
        assert report.tag is TripartiteClass.GHZ
        assert ilos.residual <= 1e-8
        out = apply_local_operators(state, ilos.ops)
        assert up_to_scale(canonical_vector(TripartiteClass.GHZ).amps, out.amps, 1e-8)

    def test_degenerate_class_reaches_its_canonical(self):
        state = make_state([2, 2, 2], [1, 0, 0, 1, 0, 0, 0, 0])
        report, ilos = reduce_to_canonical(state)
        assert report.tag is TripartiteClass.C01_PSI23
        out = apply_local_operators(state, ilos.ops)
        assert up_to_scale(canonical_vector(report.tag).amps, out.amps, 1e-8)

    def test_singular_operator_is_a_reduction_failure(self, monkeypatch):
        state, _ = orbit_state(TripartiteClass.GHZ, RandomSource(2450))

        def singular(matrix, pol):
            raise SingularMatrix("2x2 matrix is singular")

        monkeypatch.setattr(slocc.tripartite, "inv2", singular)
        message = "reducing operators are numerically singular: 2x2 matrix is singular"
        with pytest.raises(ReductionFailed, match=message) as info:
            reduce_to_canonical(state)
        assert isinstance(info.value.__cause__, SingularMatrix)
        # a zero operator passes inv2 but not LocalOperatorSet's determinant test
        monkeypatch.setattr(slocc.tripartite, "inv2", lambda matrix, pol: np.zeros((2, 2)))
        with pytest.raises(ReductionFailed, match="reducing operators are numerically singular") as info:
            reduce_to_canonical(state)
        assert isinstance(info.value.__cause__, SingularOperator)

    @pytest.mark.parametrize("tag", list(TripartiteClass))
    def test_orbit_reduction(self, tag):
        for trial in range(40):
            state, _ = orbit_state(tag, RandomSource(2400 + trial))
            report, ilos = reduce_to_canonical(state)
            assert report.tag is tag
            assert ilos.residual <= 1e-8
            for f in ilos.ops:
                assert abs(np.linalg.det(f)) > 1e-12 * np.linalg.norm(f) ** 2
            out = apply_local_operators(state, ilos.ops)
            assert up_to_scale(canonical_vector(tag).amps, out.amps, 1e-8)


def reference_classify3(state, pol):
    """The decision with the earlier front end: ``coefficient_matrix`` gathers,
    a numpy rank count and an eagerly computed spectrum."""

    def rank(sigma):
        s = np.asarray(sigma, dtype=float)
        if s.size == 0 or s[0] <= 0.0:
            raise EmptySpectrum("rank needs at least one positive singular value")
        return int(np.count_nonzero(s > pol.rank_rel_tol * s[0]))

    svds = [svd(coefficient_matrix(state, p).entries) for p in (1, 2, 3)]
    ranks = tuple(rank(res.sigma) for res in svds)
    sigma = tuple(float(s) for s in svds[0].sigma)
    w1, w2 = svds[0].W[:, 0], svds[0].W[:, 1]
    spectrum, near = None, False
    if ranks == (1, 1, 1):
        tag, structure = TripartiteClass.C000, SubspaceStructure(StructureTag.PRODUCT_LINE, (w1.copy(),))
    elif ranks == (1, 2, 2):
        tag, structure = TripartiteClass.C01_PSI23, SubspaceStructure(StructureTag.ENTANGLED_LINE)
    elif ranks == (2, 1, 2):
        tag = TripartiteClass.C02_PSI13
        structure = SubspaceStructure(StructureTag.LEFT_FACTOR, factor=svds[1].V[:, 0].conj())
    elif ranks == (2, 2, 1):
        tag = TripartiteClass.C03_PSI12
        structure = SubspaceStructure(StructureTag.RIGHT_FACTOR, factor=svds[2].V[:, 0].conj())
    elif ranks != (2, 2, 2):
        raise InconsistentRanks(
            f"ranks {ranks}: exactly two pivots read rank 1, impossible for a valid state"
        )
    else:
        W1, W2 = slice_matrix(w1), slice_matrix(w2)
        roots = product_roots(W1, W2, pol)
        if roots.kind is RootKind.INFINITELY_MANY:
            raise ToleranceBreakdown(
                "pencil determinant vanishes identically although all pivots read rank 2"
            )
        tag = TripartiteClass.GHZ if roots.kind is RootKind.TWO_DISTINCT else TripartiteClass.W
        a, b, c = roots.coeffs
        s = max(abs(a), abs(b), abs(c))
        threshold = pol.deg_tol * s * s
        near = threshold / 100.0 < abs(b * b - 4.0 * a * c) <= threshold * 100.0
        spectrum = slocc.tripartite._pencil_spectrum(
            roots, np.linalg.norm(W1), np.linalg.norm(W2), pol
        )
        structure = span_structure(w1, w2, roots)
    return tag, ranks, sigma, structure, spectrum, near


def report_fields(tag, ranks, sigma, structure, spectrum, near):
    """Every report field as exact, comparable values (floats and arrays as bytes)."""
    assert all(type(x) is float for x in sigma)
    return (
        tag,
        ranks,
        tuple(x.hex() for x in sigma),
        structure.tag,
        tuple(w.tobytes() for w in structure.witnesses),
        None if structure.factor is None else structure.factor.tobytes(),
        None if spectrum is None else (spectrum.product, np.array(spectrum.eigenvalues).tobytes()),
        near,
    )


def outcome(fn, *args):
    try:
        return report_fields(*fn(*args))
    except SloccError as exc:
        return type(exc), str(exc)


def unpack(report):
    return (
        report.tag,
        report.ranks,
        report.sigma,
        report.structure,
        report.spectrum_used,
        report.near_boundary,
    )


class TestMatchesReferenceFrontEnd:
    """The direct gathers, the float rank count and the lazy spectrum leave
    every report field byte for byte as the earlier front end had it."""

    @pytest.mark.parametrize(
        "pol",
        [
            TolerancePolicy(),
            TolerancePolicy(rank_rel_tol=1e-6, deg_tol=1e-5),
            TolerancePolicy(rank_rel_tol=1e-4, deg_tol=1e-3),
        ],
        ids=["default", "1e-6", "1e-4"],
    )
    @pytest.mark.parametrize("scale", [1.0, 1e140, 1e-140])
    def test_every_field_identical(self, pol, scale):
        seen = set()
        for tag in TripartiteClass:
            for trial in range(30):
                base, _ = orbit_state(tag, RandomSource(5100 + trial))
                state = make_state([2, 2, 2], base.amps * scale)
                expected = outcome(reference_classify3, state, pol)
                assert outcome(lambda s, p: unpack(classify3(s, p)), state, pol) == expected
                try:
                    report, _ = reduce_to_canonical(state, pol)
                except ReductionFailed:
                    continue
                except SloccError as exc:
                    assert (type(exc), str(exc)) == expected
                    continue
                assert report_fields(*unpack(report)) == expected
                seen.add(report.tag)
        assert seen == set(TripartiteClass)


class TestReductionFromDecisionNumbers:
    """The reduction builds its operators from the SVDs and the pencil the
    decision already computed: no further SVD and no least-squares solve."""

    @pytest.mark.parametrize("tag", [TripartiteClass.GHZ, TripartiteClass.W])
    def test_three_pivot_svds_and_no_lstsq(self, tag, monkeypatch):
        calls, public, lstsq_calls, lstsq = [], [], [], np.linalg.lstsq

        def counting(fn, log):
            def wrapper(matrix):
                log.append(np.shape(matrix))
                return fn(matrix)

            return wrapper

        def counting_lstsq(*args, **kwargs):
            lstsq_calls.append(args)
            return lstsq(*args, **kwargs)

        kernel = counting(_leading_svd, calls)
        for module in (slocc.tripartite, slocc.subspaces):
            monkeypatch.setattr(module, "_leading_svd", kernel, raising=False)
        for module in (slocc.numerics, slocc.tripartite, slocc.subspaces):
            monkeypatch.setattr(module, "svd", counting(svd, public), raising=False)
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        for trial in range(20):
            state, _ = orbit_state(tag, RandomSource(5500 + trial))
            calls.clear()
            report, ilos = reduce_to_canonical(state)
            assert report.tag is tag and ilos.residual <= 1e-8
            assert calls == [(2, 4)]
        assert lstsq_calls == []
        assert public == []


class TestSpectrumOnFirstAccess:
    """``spectrum_used`` is a diagnostic: the decision never computes it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = slocc.tripartite._pencil_spectrum

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(slocc.tripartite, "_pencil_spectrum", counting)
        return calls

    @pytest.mark.parametrize("tag", [TripartiteClass.GHZ, TripartiteClass.W])
    def test_computed_once_when_read(self, tag, calls):
        for trial in range(10):
            state, _ = orbit_state(tag, RandomSource(5200 + trial))
            for report in (classify3(state), reduce_to_canonical(state)[0]):
                calls.clear()
                assert report.tag is tag
                assert calls == []
                spectrum = report.spectrum_used
                assert spectrum is not None and len(calls) == 1
                assert report.spectrum_used is spectrum and len(calls) == 1

    def test_descriptor_never_computes_it(self, calls):
        from slocc.multiqubit import cluster_state_4, descriptor, ghz_state

        for state in (ghz_state(4), cluster_state_4()):
            descriptor(state)
        assert calls == []

    @pytest.mark.parametrize("tag", FACTORED)
    def test_none_for_factored_classes(self, tag, calls):
        for trial in range(10):
            state, _ = orbit_state(tag, RandomSource(5300 + trial))
            for report in (classify3(state), reduce_to_canonical(state)[0]):
                assert report.tag is tag and report.spectrum_used is None
        assert calls == []


class TestExplainedOnFirstRead:
    """classify3 builds the decision only; the structure and the pencil roots are built on
    their first read, once, and the reduction reads them as before."""

    @pytest.mark.parametrize("tag", [TripartiteClass.C02_PSI13, TripartiteClass.C03_PSI12])
    def test_factor_svd_on_first_read(self, tag, monkeypatch):
        calls, public = [], []

        def counting(fn, log):
            def wrapper(matrix):
                log.append(np.shape(matrix))
                return fn(matrix)

            return wrapper

        monkeypatch.setattr(slocc.tripartite, "_leading_svd", counting(_leading_svd, calls))
        for module in (slocc.numerics, slocc.tripartite, slocc.subspaces):
            monkeypatch.setattr(module, "svd", counting(svd, public), raising=False)
        for trial in range(20):
            state, _ = orbit_state(tag, RandomSource(6000 + trial))
            calls.clear()
            report = classify3(state)
            assert report.tag is tag and calls == [(2, 4)]
            structure = report.structure
            assert calls == [(2, 4), (2, 4)]
            assert report.structure is structure and calls == [(2, 4), (2, 4)]
            calls.clear()
            report, _ = reduce_to_canonical(state)
            report.structure
            assert calls == [(2, 4), (2, 4)]
        assert public == []

    @pytest.mark.parametrize("tag", [TripartiteClass.GHZ, TripartiteClass.W])
    def test_roots_solved_on_first_read(self, tag, monkeypatch):
        counts = count_calls(monkeypatch, ("_solve", "span_structure"))
        for trial in range(20):
            state, _ = orbit_state(tag, RandomSource(6100 + trial))
            counts.clear()
            report = classify3(state)
            assert report.tag is tag and counts == {}
            report.structure, report.pencil, report.spectrum_used
            report.structure, report.pencil, report.spectrum_used
            assert counts == {"_solve": 1, "span_structure": 1}
            counts.clear()
            report, _ = reduce_to_canonical(state)
            assert counts == {"_solve": 1}  # the reduction reads the pencil, not the structure
            report.structure, report.pencil, report.spectrum_used
            assert counts == {"_solve": 1, "span_structure": 1}

    @pytest.mark.parametrize("tag", [TripartiteClass.GHZ, TripartiteClass.W])
    def test_pencil_vectors_read_only(self, tag):
        # the pencil hands out pivot 1's right singular vectors w1, w2 themselves
        state, _ = orbit_state(tag, RandomSource(6150))
        for report in (classify3(state), reduce_to_canonical(state)[0]):
            _, w1, w2, _ = report.pencil
            want = svd(coefficient_matrix(state, 1).entries).W[:, :2].T
            assert np.array(w1).tobytes() + np.array(w2).tobytes() == want.tobytes()
            for w in (w1, w2):
                with pytest.raises(ValueError):
                    w[0] = 0


class TestReportEquality:
    """Reports are values: equal readings compare equal and hash alike."""

    def test_reports_of_one_state_are_equal_and_hash_alike(self):
        reports = []
        for tag in TripartiteClass:
            orbit, _ = orbit_state(tag, RandomSource(5400))
            for state in (canonical_vector(tag), orbit):
                first = classify3(state)
                again = classify3(make_state(state.dims, state.amps.copy()))
                assert first is not again and first.tag is tag
                assert first == again and hash(first) == hash(again)
                assert first.structure == again.structure
                assert hash(first.structure) == hash(again.structure)
                reports.append(first)
        for a in reports:
            for b in reports:
                if a.tag is not b.tag:
                    assert a != b and a.structure != b.structure

    def test_reports_differing_only_in_structure_are_unequal(self):
        # |000> + |111> and |010> + |101> read the same decision but different witnesses
        ghz = classify3(make_state((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 1]))
        flipped = classify3(make_state((2, 2, 2), [0, 0, 1, 0, 0, 1, 0, 0]))
        assert (ghz.tag, ghz.ranks, ghz.near_boundary) == (flipped.tag, flipped.ranks, False)
        assert [x.hex() for x in ghz.sigma] == [x.hex() for x in flipped.sigma]
        assert ghz.structure != flipped.structure
        assert ghz != flipped

    def test_repr_is_the_dataclass_text(self):
        for tag in TripartiteClass:
            r = classify3(orbit_state(tag, RandomSource(6200))[0])
            assert repr(r) == (
                f"ClassificationReport(tag={r.tag!r}, ranks={r.ranks!r}, sigma={r.sigma!r}, "
                f"structure={r.structure!r}, near_boundary={r.near_boundary!r})"
            )

    def test_equal_whichever_structure_was_read_first(self):
        for tag in TripartiteClass:
            state, _ = orbit_state(tag, RandomSource(6300))
            for read_first in (0, 1, None):
                pair = classify3(state), classify3(state)
                if read_first is not None:
                    pair[read_first].structure
                assert pair[0] == pair[1] and pair[1] == pair[0]
                assert hash(pair[0]) == hash(pair[1])

    def test_structure_equality_reads_the_arrays(self):
        w = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        line = SubspaceStructure(StructureTag.PRODUCT_LINE, (w,))
        assert line == SubspaceStructure(StructureTag.PRODUCT_LINE, (w.copy(),))
        assert line != SubspaceStructure(StructureTag.PRODUCT_LINE, (2 * w,))
        assert line != SubspaceStructure(StructureTag.PRODUCT_LINE, (w, w))
        assert line != SubspaceStructure(StructureTag.PRODUCT_LINE)
        assert line != SubspaceStructure(StructureTag.LEFT_FACTOR, factor=w[:2])
        assert line != "ProductLine"
        negative_zero = SubspaceStructure(StructureTag.PRODUCT_LINE, (np.array([1, -0.0, 0, 0j]),))
        assert line == negative_zero and hash(line) == hash(negative_zero)
        factor = SubspaceStructure(StructureTag.LEFT_FACTOR, factor=w[:2])
        assert factor == SubspaceStructure(StructureTag.LEFT_FACTOR, factor=w[:2].copy())
        assert factor != SubspaceStructure(StructureTag.LEFT_FACTOR, factor=w[1::-1])
        assert factor != SubspaceStructure(StructureTag.RIGHT_FACTOR, factor=w[:2])


class TestReductionReadsTheReport:
    """reduce_to_canonical is classify3 plus operators: its report is classify3's."""

    @pytest.mark.parametrize("pol", [
        TolerancePolicy(),
        TolerancePolicy(rank_rel_tol=1e-6, deg_tol=1e-5),
        TolerancePolicy(rank_rel_tol=1e-4, deg_tol=1e-3),
    ])
    def test_reduction_report_is_the_classification(self, pol):
        for tag in TripartiteClass:
            states = [canonical_vector(tag)]
            states += [orbit_state(tag, RandomSource(5900 + trial))[0] for trial in range(20)]
            for state in states:
                report, ilos = reduce_to_canonical(state, pol)
                expected = classify3(state, pol)
                assert report.tag is tag and ilos.residual <= pol.residual_tol
                assert report == expected and hash(report) == hash(expected)


class TestBatchedDecision:
    """_classify3_rows decides a stack of states as classify3 decides each one."""

    def test_tags_match_classify3(self):
        for pol in (TolerancePolicy(), TolerancePolicy(rank_rel_tol=1e-4, deg_tol=1e-3)):
            states = [
                orbit_state(tag, RandomSource(5600 + trial))[0]
                for trial in range(10)
                for tag in TripartiteClass
            ]
            tags = _classify3_rows(np.array([s.amps for s in states]), pol)
            assert tags == [classify3(s, pol).tag for s in states]

    def test_first_failing_row_raises(self):
        ghz = canonical_vector(TripartiteClass.GHZ).amps
        inconsistent = np.zeros(8, dtype=complex)
        inconsistent[[0, 3, 5]] = 1.0, 0.5, 0.05
        loose = TolerancePolicy(rank_rel_tol=0.501)
        with pytest.raises(InconsistentRanks) as first:
            _classify3_rows(np.array([ghz, inconsistent, ghz]), loose)
        with pytest.raises(InconsistentRanks) as single:
            classify3(make_state((2, 2, 2), inconsistent), loose)
        assert str(first.value) == str(single.value)

    def test_pivot_ratios_match_the_pivot_svds(self):
        # near-rank-1 pivots 2 and 3: a 0_2 or 0_3 orbit state plus noise of relative size r
        g = RandomSource(5700).generator()
        worst = 0.0
        for trial in range(2000):
            tag = (TripartiteClass.C02_PSI13, TripartiteClass.C03_PSI12)[trial % 2]
            state, _ = orbit_state(tag, RandomSource(5800 + trial))
            noise = random_complex(g, 8)
            size = 10.0 ** g.uniform(-16, 0) * state.norm()
            amps = state.amps + size * noise / np.linalg.norm(noise)
            amps *= 2.0 ** (500 * (trial % 3 - 1))
            res = svd(amps[slocc.tripartite._PIVOT_INDEX[0]])
            w1, w2 = res.W[:, 0].tolist(), res.W[:, 1].tolist()
            ratios = slocc.tripartite._pivot_ratios(*res.sigma.tolist(), w1, w2)
            for p, ratio in zip((2, 3), ratios):
                sigma = svd(amps[slocc.tripartite._PIVOT_INDEX[p - 1]]).sigma
                worst = max(worst, abs(ratio - sigma[1] / sigma[0]))
        assert worst <= 4e-15


PIVOT1 = slocc.tripartite._PIVOT_INDEX[0]
POLICIES = [
    TolerancePolicy(),
    TolerancePolicy(rank_rel_tol=1e-6, deg_tol=1e-5),
    TolerancePolicy(rank_rel_tol=1e-4, deg_tol=1e-3),
]


def numpy_operators(report, res, pol):
    """GHZ's and W's F1, F2, F3 as they were built on numpy arrays (``product_factors``, column
    stacks, ``@`` and the numpy span basis), kept as the reference of the scalar build."""

    def column_inverses(pairs):
        return (inv2(list(zip(x.tolist(), y.tolist())), pol) for x, y in pairs)

    structure = report.structure
    if report.tag is TripartiteClass.GHZ:
        (a1, b1), (a2, b2) = (product_factors(w.conj()) for w in structure.witnesses)
        f2, f3 = column_inverses(((a1, a2), (b1, b2)))
        RT = np.array(report.pencil[0].roots).conj()
        return (RT / res.sigma[:2]) @ res.V.conj().T, f2, f3
    u1, u2 = res.W[:, :2].conj().T
    basis = numpy_span_basis(u1, u2, structure.witnesses[0].conj())
    f2, f3 = column_inverses(((basis.left, basis.left_comp), (basis.right, basis.right_comp)))
    a, b = basis.left.tolist(), basis.right.tolist()
    T = basis.entangled.conj().tolist(), [(x * y).conjugate() for x in a for y in b]
    n = [sum(t.real * t.real + t.imag * t.imag for t in tj) for tj in T]
    C = res.matrix.tolist()
    CT = [[sum(c * t for c, t in zip(row, tj)) / nj for tj, nj in zip(T, n)] for row in C]
    return inv2(CT, pol), f2, f3


def assert_close_operators(got, want, rel):
    for f, g in zip(got, want):
        assert np.abs(f - g).max() <= rel * np.abs(g).max()


class TestScalarOperators:
    """GHZ's and W's operators, built on Python scalars, are the numpy build's."""

    @pytest.mark.parametrize("pol", POLICIES[:2], ids=["default", "1e-6"])
    @pytest.mark.parametrize("tag", [TripartiteClass.GHZ, TripartiteClass.W])
    def test_match_the_numpy_build(self, tag, pol):
        for trial in range(100):
            state, _ = orbit_state(tag, RandomSource(7200 + trial))
            report, ilos = reduce_to_canonical(state, pol)
            assert report.tag is tag
            expected = numpy_operators(report, svd(state.amps[PIVOT1]), pol)
            assert_close_operators(ilos.ops, expected, 1e-12)


class TestFactorDirections:
    """A factored qubit's operator reads its pivot's one direction from the 2x2 Gram matrix:
    the reduction takes no pivot-2 or pivot-3 SVD, and at every scale reaches the canonical
    vector with the operators the SVD's direction would give."""

    @pytest.mark.parametrize("pol", POLICIES, ids=["default", "1e-6", "1e-4"])
    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
    def test_reduce_at_every_scale(self, pol, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tag in (TripartiteClass.C000, TripartiteClass.C02_PSI13, TripartiteClass.C03_PSI12):
                for trial in range(20):
                    amps = orbit_state(tag, RandomSource(7300 + trial))[0].amps
                    report, ilos = reduce_to_canonical(make_state((2, 2, 2), amps * scale), pol)
                    assert report.tag is tag and ilos.residual <= pol.residual_tol, (tag, trial)

    @pytest.mark.parametrize(
        "tag", [TripartiteClass.C000, TripartiteClass.C02_PSI13, TripartiteClass.C03_PSI12]
    )
    def test_operators_of_the_svd_direction(self, tag):
        index = slocc.tripartite._PIVOT_INDEX
        for trial in range(50):
            state, _ = orbit_state(tag, RandomSource(7350 + trial))
            _, ilos = reduce_to_canonical(state)
            for p in (2, 3):
                if RANKS[tag][p - 1] == 1:  # onto_e1 of the pivot's first left singular vector
                    v0, v1 = svd(state.amps[index[p - 1]]).V[:, 0]
                    want = np.array([[v0.conjugate(), v1.conjugate()], [-v1, v0]])
                    assert np.abs(ilos.ops.ops[p - 1] - want).max() <= 1e-13


class TestOverflowingSigmaReadScaled:
    """An inf or NaN pivot-1 sigma_1 is read again on the amplitudes times 2^-e: classify3 and
    reduce_to_canonical decide the state as at scale 1, with no warning."""

    @pytest.mark.parametrize("top", [1.5e308, 1.79e308])
    @pytest.mark.parametrize("tag", list(TripartiteClass))
    def test_decided_on_the_scaled_ray(self, tag, top):
        overflowed = 0
        for trial in range(5):
            amps = orbit_state(tag, RandomSource(7400 + trial))[0].amps
            big = make_state((2, 2, 2), amps / np.abs(amps.view(float)).max() * top)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = classify3(big)
                reduced, ilos = reduce_to_canonical(big)
            assert report.tag is tag and report.ranks == RANKS[tag]
            assert reduced == report and ilos.residual <= 1e-8
            if np.isfinite(svd(big.amps[PIVOT1]).sigma[0]):
                continue  # read as it is
            overflowed += 1
            scaled = make_state((2, 2, 2), slocc.subspaces._scaled(big.amps))
            assert report_fields(*unpack(report)) == report_fields(*unpack(classify3(scaled)))
            assert_close_operators(ilos.ops, reduce_to_canonical(scaled)[1].ops, 0.0)
        assert overflowed >= 4  # the non-finite reading is what is tested


class TestVanishingPencilAtFullRank:
    """Ranks (2, 2, 2) rule out a factor, so a slice pencil that vanishes identically there is
    a tolerance breakdown, in classify3 and in the line points' decision alike."""

    def test_breaks_down(self, monkeypatch):
        def vanishing(v1, v2, deg_tol):
            return (0j, 0j, 0j), slocc.subspaces._root_kind(0j, 0j, 0j, deg_tol)

        monkeypatch.setattr(slocc.tripartite, "_span_pencil", vanishing)
        state = canonical_vector(TripartiteClass.GHZ)
        with pytest.raises(ToleranceBreakdown, match="vanishes identically"):
            classify3(state)
        with pytest.raises(ToleranceBreakdown, match="vanishes identically"):
            _classify3_rows(state.amps[None] / state.norm())


class TestScaleChosenOnce:
    """_classify3 alone chooses a 3-qubit state's working scale: where pivot 1's s1 s_r leaves
    (2^-1010, 2^1010), classify3 and reduce_to_canonical read the amplitudes times 2^-e once,
    so report and operators are byte for byte those of the unit-scaled ray."""

    @staticmethod
    def states():
        for trial in range(24):
            yield orbit_state(list(TripartiteClass)[trial % 6], RandomSource(7500 + trial))[0].amps
        g = RandomSource(7530).generator()
        for _ in range(6):
            yield random_complex(g, 8)

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_far_scales_read_as_the_unit_scaled_ray(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for amps in self.states():
                far = make_state((2, 2, 2), amps * 2.0**k)
                unit = make_state((2, 2, 2), slocc.subspaces._scaled(far.amps))
                got, want = classify3(far), classify3(unit)
                assert report_fields(*unpack(got)) == report_fields(*unpack(want))
                (_, got), (_, want) = reduce_to_canonical(far), reduce_to_canonical(unit)
                assert [f.tobytes() for f in got.ops] == [f.tobytes() for f in want.ops]
                assert got.residual == want.residual

    @pytest.mark.parametrize("k", [-500, 0, 500])
    def test_inside_the_window_read_as_given(self, k):
        for amps in self.states():
            state = make_state((2, 2, 2), amps * 2.0**k)
            sigma = _leading_svd(state.amps[PIVOT1])[1].tolist()
            assert classify3(state).sigma == tuple(sigma)

    def test_read_again_at_most_once(self, monkeypatch):
        # 0.5 |000> + 2.5e-305 |111>, the re-read, still leaves the window: it decides
        calls = []

        def counting(matrix):
            calls.append(matrix)
            return _leading_svd(matrix)

        monkeypatch.setattr(slocc.tripartite, "_leading_svd", counting)
        state = make_state((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 5e-305])
        with pytest.raises(InconsistentRanks, match=r"ranks \(2, 1, 1\)"):
            classify3(state, TolerancePolicy(rank_rel_tol=1e-305))
        assert len(calls) == 2
