import collections
import json
import math
import tracemalloc
import warnings
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

import slocc.multiqubit
import slocc.numerics
import slocc.states
import slocc.tripartite
from _kit import (
    RandomSource,
    cayley_hyperdeterminant,
    random_ilo,
    reference_descriptor,
    reference_factor_support,
    tangle_quartic,
    tangle_roots,
)
from conftest import random_complex, rel_err
from slocc.errors import (
    ArityMismatch,
    DegenerateParameter,
    InconsistentRanks,
    SingularMatrix,
    SloccError,
    UnsupportedDepth,
    WrongArity,
)
from slocc.multiqubit import (
    class_count_bound,
    cluster_state_4,
    descriptor,
    example_4partite_canonical,
    factor_support,
    ghz_state,
    hyperdeterminant,
    same_broad_class,
)
from slocc.numerics import TolerancePolicy
from slocc.states import apply_local_operators, coefficient_matrix, make_state, pivot_index
from slocc.tripartite import TripartiteClass, _classify3_rows, canonical_vector, classify3

GHZ4 = ghz_state(4)
CLUSTER = cluster_state_4()
CENSUS_TABLE = json.loads((Path(__file__).with_name("data") / "census4.json").read_text())
BREAKDOWN_CASES = json.loads(
    (Path(__file__).with_name("data") / "tolerance_breakdown4.json").read_text()
)


def four_qubit_orbit(state, src, cond_cap=1e3):
    ops = [random_ilo(2, src.split(k), cond_cap) for k in range(4)]
    return apply_local_operators(state, ops)


def census_representatives():
    """|0>psi1 + |1>psi2 for each unordered pair of 3-qubit classes.

    psi2 carries one fixed ILO on qubits 2-4, so that a pair of equal
    classes still spans a two-dimensional right singular subspace.
    """
    relative = [random_ilo(2, RandomSource(900).split(k)) for k in range(3)]
    reps = {}
    for t1, t2 in combinations_with_replacement(TripartiteClass, 2):
        psi2 = apply_local_operators(canonical_vector(t2), relative).amps
        amps = np.concatenate([canonical_vector(t1).amps, psi2])
        reps[f"{t1.value} + {t2.value}"] = make_state((2,) * 4, amps)
    return reps


CENSUS = census_representatives()


class TestHyperdeterminant:
    def test_ghz_nonzero(self):
        assert hyperdeterminant(canonical_vector(TripartiteClass.GHZ).amps) == pytest.approx(1.0)

    def test_w_zero(self):
        assert hyperdeterminant(canonical_vector(TripartiteClass.W).amps) == pytest.approx(0.0)

    def test_degenerate_class_zero(self):
        assert hyperdeterminant(canonical_vector(TripartiteClass.C01_PSI23).amps) == pytest.approx(0.0)

    def test_read_at_its_own_scale(self):
        # the entries are read at 2^-e and the value scaled back by 2^(4e), exactly: finite
        # input reads inf only where the value leaves the float range
        ghz = canonical_vector(TripartiteClass.GHZ).amps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hyperdeterminant([1e200] * 8) == 0  # a product tensor
            for k in (-200, 200):
                assert hyperdeterminant(ghz * 2.0**k) == 2.0 ** (4 * k) * hyperdeterminant(ghz)
            g = RandomSource(616).generator()
            for _ in range(50):
                v = random_complex(g, 8)
                for k in (-200, 200):
                    assert hyperdeterminant(v * 2.0**k) == 2.0 ** (4 * k) * hyperdeterminant(v)
            assert hyperdeterminant(ghz * 2.0**255) == 2.0**1020
            assert hyperdeterminant(ghz * 2.0**256) == math.inf

    def test_minor_form_and_line_quartic_match_cayley(self):
        from slocc.multiqubit import _minor_table, _tangle_quartic

        for tag in TripartiteClass:
            amps = canonical_vector(tag).amps
            assert hyperdeterminant(amps) == cayley_hyperdeterminant(amps)
        g = RandomSource(615).generator()
        for _ in range(1000):
            v, w1, w2 = (random_complex(g, 8) for _ in range(3))
            got = hyperdeterminant(v)
            assert abs(got - cayley_hyperdeterminant(v)) <= 1e-13 * np.linalg.norm(v) ** 4
            quartic = _tangle_quartic(_minor_table(w1, w2, 3))
            for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
                want = cayley_hyperdeterminant(t * w1 + w2)
                scale = (abs(t) * np.linalg.norm(w1) + np.linalg.norm(w2)) ** 4
                assert abs(np.polyval(quartic, t) - want) <= 1e-13 * scale


class TestDescriptor:
    def test_ghz4_profile(self):
        d = descriptor(GHZ4)
        assert d.dim_w == 2
        assert d.generic_class == "GHZ"
        assert d.exceptional_classes == ("000", "000")

    def test_cluster_profile(self):
        d = descriptor(CLUSTER)
        assert d.dim_w == 2
        assert d.generic_class == "GHZ"
        assert d.exceptional_classes == ("0_1 Psi+_23", "0_1 Psi+_23")

    def test_pivot_factored_state_is_a_line(self):
        state = make_state((2,) * 4, np.kron([1, 0], ghz_state(3).amps))
        d = descriptor(state)
        assert d.dim_w == 1
        assert d.line_class == "GHZ"

    def test_exceptional_points_recorded(self):
        d = descriptor(GHZ4)
        assert len(d.exceptional_points) == 2

    def test_generic_random_state(self):
        # a generic 4-qubit line is GHZ with four isolated W-class points
        g = RandomSource(600).generator()
        for _ in range(10):
            state = make_state((2,) * 4, random_complex(g, 16))
            d = descriptor(state)
            assert d.dim_w <= 2
            assert len(d.exceptional_classes) <= 4

    def test_rejects_small_and_deep(self):
        with pytest.raises(WrongArity):
            descriptor(ghz_state(3))
        with pytest.raises(UnsupportedDepth):
            descriptor(ghz_state(5))
        with pytest.raises(WrongArity, match="qubit subsystems required"):
            descriptor(make_state((3, 2, 2, 2), np.ones(24)))
        with pytest.raises(WrongArity, match="at least 2 qubits"):
            ghz_state(1)

    def test_five_qubits_with_depth(self):
        d = descriptor(ghz_state(5), max_qubits=5)
        assert d.n_qubits == 5 and d.dim_w == 2
        assert d.exceptional_classes == (
            "4q|dimW=1|line=000",
            "4q|dimW=1|line=000",
        )


class TestGenericProbe:
    @pytest.mark.parametrize("state", [GHZ4, CLUSTER], ids=["GHZ4", "cluster"])
    def test_generic_class_read_once(self, state, monkeypatch):
        # the line's minor table names the generic class and both exceptional rank drops
        calls = []

        def counting(points, *args, **kwargs):
            calls.append(points)
            return _classify3_rows(points, *args, **kwargs)

        monkeypatch.setattr(slocc.multiqubit, "_classify3_rows", counting)
        descriptor(state)
        assert calls == []

    def test_probe_error_propagates(self, monkeypatch):
        def failing(points, *args, **kwargs):
            raise SingularMatrix("probe")

        # a random line's tangle roots lie far from any rank drop: they take a row decision
        state = make_state((2,) * 4, random_complex(RandomSource(790).generator(), 16))
        monkeypatch.setattr(slocc.multiqubit, "_classify3_rows", failing)
        with pytest.raises(SingularMatrix):
            descriptor(state)

    def test_farthest_probe_matches_chordal_reference(self):
        from _kit import _chordal_distance
        from slocc.multiqubit import _PROBES, _generic_point, _unit_point

        g = RandomSource(610).generator()
        assert np.array_equal(_generic_point([]), _PROBES[0])
        for trial in range(300):
            merged = [_unit_point(random_complex(g, 2)) for _ in range(trial % 7)]
            reference = max(
                map(tuple, _PROBES),
                key=lambda p: min((_chordal_distance(p, c) for c in merged), default=1.0),
            )
            assert np.array_equal(_generic_point(merged), reference)


class TestCensus:
    """Signatures of the 21 generator-pair representatives (21 = m(m+1)/2, m = 6)."""

    def test_signature_table(self):
        assert {name: descriptor(s).signature() for name, s in CENSUS.items()} == CENSUS_TABLE

    @pytest.mark.parametrize("name", sorted(CENSUS))
    def test_orbit_stable(self, name):
        for k in range(5):
            moved = four_qubit_orbit(CENSUS[name], RandomSource(1000 + k))
            assert descriptor(moved).signature() == CENSUS_TABLE[name]


class TestSameBroadClass:
    def test_ghz4_vs_cluster(self):
        assert same_broad_class(descriptor(GHZ4), descriptor(CLUSTER)) is False

    def test_reflexive(self):
        d = descriptor(GHZ4)
        assert same_broad_class(d, d)

    def test_same_ilo_on_every_qubit(self):
        f = random_ilo(2, RandomSource(601))
        moved = apply_local_operators(GHZ4, [f, f, f, f])
        assert same_broad_class(descriptor(GHZ4), descriptor(moved))

    def test_orbit_invariance(self):
        d_ghz = descriptor(GHZ4)
        d_clu = descriptor(CLUSTER)
        for trial in range(30):
            src = RandomSource(700 + trial)
            assert same_broad_class(d_ghz, descriptor(four_qubit_orbit(GHZ4, src)))
            assert same_broad_class(d_clu, descriptor(four_qubit_orbit(CLUSTER, src.split(99))))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            same_broad_class(descriptor(GHZ4), descriptor(ghz_state(5), max_qubits=5))


class TestFactorSupport:
    def test_factor_on_second_qubit(self):
        bell = np.array([1, 0, 0, 1])
        state = make_state((2,) * 4, np.kron(np.kron([1, 0], [1, 0]), bell))
        position, factor, reduced = factor_support(state)
        assert position == 2
        assert abs(np.vdot(factor, [1, 0])) >= 1 - 1e-10
        assert classify3(reduced).tag is TripartiteClass.C01_PSI23

    def test_complex_factor_conjugation(self):
        phi = np.array([1, 1j]) / np.sqrt(2)
        bell = np.array([1, 0, 0, 1])
        state = make_state((2,) * 4, np.kron(np.kron([1, 0], phi), bell))
        position, factor, reduced = factor_support(state)
        assert position == 2
        assert abs(np.vdot(factor, phi)) >= 1 - 1e-10
        # direct check: factor (x) reduced reproduces the state
        t = np.tensordot(factor, reduced.tensor(), axes=0)
        assert np.linalg.norm(np.moveaxis(t, 0, 1).reshape(-1) - state.amps) <= 1e-10

    def test_genuinely_entangled_states_have_none(self):
        assert factor_support(GHZ4) is None
        assert factor_support(CLUSTER) is None

    def test_factor_position_matches_profile(self):
        # a factor at p makes the profile's generic (or line) class the
        # degenerate class with the factor at local position p - 1
        bell = np.array([1, 0, 0, 1])
        ghz3 = ghz_state(3).amps.reshape(2, 2, 2)
        # GHZ on qubits (1, 3, 4), factor on qubit 2
        state_t = np.einsum("acd,b->abcd", ghz3, np.array([0.6, 0.8j]))
        state = make_state((2,) * 4, state_t.reshape(-1))
        position, _, reduced = factor_support(state)
        assert position == 2
        assert classify3(reduced).tag is TripartiteClass.GHZ
        d = descriptor(state)
        assert d.dim_w == 2
        assert d.generic_class == "0_1 Psi+_23"


class TestFactorSupportReadsPivots:
    """Qubit p factors out exactly when its own pivot matrix reads rank 1."""

    @staticmethod
    def factored_state():
        # GHZ on qubits 1-3 with a factor on qubit 4, under a random ILO
        amps = np.kron(canonical_vector(TripartiteClass.GHZ).amps, [1, 2j])
        ops = [random_ilo(2, RandomSource(620).split(k)) for k in range(4)]
        return apply_local_operators(make_state((2,) * 4, amps), ops), ops[3] @ [1, 2j]

    @pytest.mark.parametrize("name", ["GHZ4", "cluster", "factored"])
    def test_one_svd_per_non_pivot_qubit(self, name, monkeypatch):
        state = {"GHZ4": GHZ4, "cluster": CLUSTER, "factored": self.factored_state()[0]}[name]
        calls, public = [], []

        def recording(fn, log):
            def wrapper(matrix):
                log.append(np.array(matrix))
                return fn(matrix)

            return wrapper

        kernel, svd = slocc.numerics._leading_svd, slocc.numerics.svd
        monkeypatch.setattr(slocc.multiqubit, "_leading_svd", recording(kernel, calls))
        for module in (slocc.numerics, slocc.multiqubit):
            monkeypatch.setattr(module, "svd", recording(svd, public), raising=False)
        support = factor_support(state)
        assert (support is None) == (name != "factored")
        # ranks come from the minors; only the rank-1 pivot 4 of the factored state takes an SVD
        assert len(calls) == (1 if name == "factored" else 0)
        for matrix in calls:
            assert np.array_equal(matrix, coefficient_matrix(state, 4).entries)
        assert public == []

    def test_factor_on_last_qubit(self):
        state, phi = self.factored_state()
        position, factor, reduced = factor_support(state)
        assert position == 4
        assert abs(np.vdot(factor, phi)) >= (1 - 1e-10) * np.linalg.norm(phi)
        assert classify3(reduced).tag is TripartiteClass.GHZ


class TestClassCountBound:
    def test_three_qubit_feed(self):
        result = class_count_bound(6, 3)
        assert result.bound == 45
        assert result.genuine == 21
        assert result.degenerate == 24

    def test_two_qubit_feed(self):
        assert class_count_bound(2, 2).bound == 9

    def test_single_class(self):
        assert class_count_bound(1, 2).bound == 4

    def test_large_values_exact(self):
        result = class_count_bound(10**12, 10**6)
        assert result.bound == 10**12 * (10**12 + 2 * 10**6 + 3) // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            class_count_bound(0, 3)
        with pytest.raises(ValueError):
            class_count_bound(3, 1)

    @pytest.mark.parametrize(
        "m_n, n",
        [
            (6.7, 3),
            (6, 3.9),
            (6.5, 3.5),
            ("6", 3),
            (float("nan"), 3),
            (float("inf"), 3),
            (6, float("-inf")),
            (True, 3),
        ],
    )
    def test_non_integral_inputs_refused(self, m_n, n):
        with pytest.raises(ValueError):
            class_count_bound(m_n, n)

    def test_integral_values_of_other_types_accepted(self):
        assert class_count_bound(6.0, np.int64(3)) == class_count_bound(6, 3)


class TestContinuousFamily:
    def test_three_term_structure(self):
        psi = np.array([1, 1]) / np.sqrt(2)
        state = example_4partite_canonical(psi)
        # three ket terms: the 001 block carries psi, plus 1000 and 1111
        assert np.allclose(state.amps[2:4], psi)
        assert state.amps[8] == 1 and state.amps[15] == 1
        others = np.delete(state.amps, [2, 3, 8, 15])
        assert np.all(others == 0)

    def test_basis_parameter_rejected(self):
        with pytest.raises(DegenerateParameter):
            example_4partite_canonical([1, 0])
        with pytest.raises(DegenerateParameter):
            example_4partite_canonical([0, 1])
        with pytest.raises(DegenerateParameter, match="2-vector, got length 3"):
            example_4partite_canonical([1, 1, 1])

    def test_profile(self):
        d = descriptor(example_4partite_canonical([0.8, 0.6]))
        assert d.dim_w == 2
        assert d.generic_class == "GHZ"
        assert d.exceptional_classes == ("000",)

    def test_broad_class_ignores_parameter(self):
        d1 = descriptor(example_4partite_canonical([1, 1]))
        d2 = descriptor(example_4partite_canonical([0.3, 1 - 0.2j]))
        assert same_broad_class(d1, d2)


def _reference_minor_quadratics(A, B):
    """Scalar reference: (a, b, c) of every 2x2 minor of alpha*A + beta*B."""
    quads = []
    for p in range(A.shape[1]):
        for q in range(p + 1, A.shape[1]):
            a = A[0, p] * A[1, q] - A[0, q] * A[1, p]
            c = B[0, p] * B[1, q] - B[0, q] * B[1, p]
            b = A[0, p] * B[1, q] + B[0, p] * A[1, q] - A[0, q] * B[1, p] - B[0, q] * A[1, p]
            quads.append((complex(a), complex(b), complex(c)))
    return quads


def _reference_eval_quadratic(coeffs, point):
    a, b, c = coeffs
    alpha, beta = point
    return abs(a * alpha * alpha + b * alpha * beta + c * beta * beta)


def _reference_rank_drop_candidates(w1, w2, n_sub, pol):
    """Scalar reference: solve every minor of every pivot, keep the common roots."""
    from slocc.multiqubit import _unit_point
    from slocc.states import coefficient_matrix
    from slocc.subspaces import RootKind, projective_quadratic_roots

    candidates = []
    for pivot in range(1, n_sub + 1):
        A = coefficient_matrix(make_state((2,) * n_sub, w1), pivot).entries
        B = coefficient_matrix(make_state((2,) * n_sub, w2), pivot).entries
        quads = _reference_minor_quadratics(A, B)
        scale = max(max(abs(a), abs(b), abs(c)) for a, b, c in quads)
        if scale <= 1e-13 * (np.linalg.norm(A) + np.linalg.norm(B)) ** 2:
            continue
        pivot_roots = []
        for coeffs in quads:
            if max(abs(x) for x in coeffs) <= 1e-12 * scale:
                continue
            kind, roots = projective_quadratic_roots(*coeffs, deg_tol=pol.deg_tol)
            if kind is not RootKind.INFINITELY_MANY:
                pivot_roots.extend(roots)
        for root in pivot_roots:
            unit = _unit_point(root)
            if all(_reference_eval_quadratic(q, unit) <= pol.deg_tol * scale for q in quads):
                candidates.append(unit)
    return candidates


def _reference_merge(candidates):
    from _kit import _chordal_distance
    from slocc.multiqubit import _MERGE_DISTANCE

    merged = []
    for cand in candidates:
        if all(_chordal_distance(cand, kept) > _MERGE_DISTANCE for kept in merged):
            merged.append(cand)
    return merged


def _line(state):
    from slocc.numerics import svd
    from slocc.states import coefficient_matrix

    res = svd(coefficient_matrix(state, 1).entries)
    return res.W[:, 0], res.W[:, 1]


def _sine_distance(p, q):
    """Chordal distance without the sqrt(eps) floor of sqrt(1 - |<p, q>|^2)."""
    p = np.asarray(p, dtype=complex) / np.linalg.norm(p)
    q = np.asarray(q, dtype=complex) / np.linalg.norm(q)
    return float(np.linalg.norm(q - np.vdot(p, q) * p))


def _candidate_lines():
    """Structured and random lines: every rank-drop and tangle branch is hit."""
    states = [GHZ4, CLUSTER, example_4partite_canonical([0.8, 0.6j]), *CENSUS.values()]
    g = RandomSource(620).generator()
    tags = list(TripartiteClass)
    for k in range(200):
        if k % 2:
            states.append(make_state((2,) * 4, random_complex(g, 16)))
            continue
        # |0>psi1 + |1>psi2 with both 3-qubit generators in random orbits
        halves = [
            apply_local_operators(
                canonical_vector(tags[g.integers(len(tags))]),
                [random_ilo(2, RandomSource(621, (k, h, j))) for j in range(3)],
            ).amps
            for h in range(2)
        ]
        states.append(make_state((2,) * 4, np.concatenate(halves)))
    return states


class TestCandidateSearch:
    def test_matches_scalar_reference(self):
        from slocc.multiqubit import _merge, _minor_table, _rank_drop_candidates, _tangle_candidates
        from slocc.multiqubit import _tangle_quartic
        from slocc.numerics import DEFAULT_POLICY as pol

        lines = [(s, 4) for s in _candidate_lines()] + [(ghz_state(5), 5)]
        with_drops = 0
        for state, n in lines:
            w1, w2 = _line(state)
            table, norm = _minor_table(w1, w2, n - 1), np.linalg.norm(w1) + np.linalg.norm(w2)
            tangle = _tangle_candidates(_tangle_quartic(table), norm) if n == 4 else []
            drops, _ = _rank_drop_candidates(table, norm, pol)
            reference = _reference_merge(_reference_rank_drop_candidates(w1, w2, n - 1, pol) + tangle)
            merged = [tuple(p) for p in _merge(drops + tangle)]
            assert len(merged) == len(reference)
            unmatched = list(reference)
            for point in merged:
                dist = [_sine_distance(point, r) for r in unmatched]
                assert min(dist) <= 1e-9
                unmatched.pop(int(np.argmin(dist)))
            with_drops += bool(drops)
        assert with_drops >= 100

    @pytest.mark.parametrize("seed", [None, *range(630, 635)])
    def test_one_root_solve_per_pivot(self, seed, monkeypatch):
        from slocc.multiqubit import projective_quadratic_roots

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return projective_quadratic_roots(*args, **kwargs)

        monkeypatch.setattr(slocc.multiqubit, "projective_quadratic_roots", counting)
        states = (
            [GHZ4, CLUSTER]
            if seed is None
            else [make_state((2,) * 4, random_complex(RandomSource(seed).generator(), 16))]
        )
        for state in states:
            calls.clear()
            descriptor(state)
            assert len(calls) <= 3


class TestTangleRootsFromTheCompanion:
    """The tangle quartic read from the line's one minor table is the pivot-2 quartic, and
    its roots, solved from the companion matrix, are np.roots' byte for byte before they
    are normalized: t = 0 roots for trailing zeros, (1, 0) for a degree below 4."""

    @staticmethod
    def lines():
        g = RandomSource(740).generator()
        for _ in range(1000):
            yield random_complex(g, 8), random_complex(g, 8)
        for state in (GHZ4, CLUSTER, *_census_images(21)):
            yield _line(state)
        w, ghz = (canonical_vector(TripartiteClass(t)).amps for t in ("W", "GHZ"))
        for _ in range(20):  # hyperdeterminant(w1) = 0: degree 3 or less in t
            yield w, random_complex(g, 8)
            yield random_complex(g, 8), w  # hyperdeterminant(w2) = 0: a t = 0 root
            product = np.kron(random_complex(g, 2), np.kron(random_complex(g, 2), random_complex(g, 2)))
            yield product, ghz
        yield w, ghz
        yield w, np.roll(w, 1)

    def test_quartic_and_roots_match_np_roots(self, monkeypatch):
        from slocc.multiqubit import _minor_table, _tangle_candidates, _tangle_quartic

        monkeypatch.setattr(slocc.multiqubit, "_unit_point", lambda point: point)
        shapes = set()
        for w1, w2 in self.lines():
            table, norm = _minor_table(w1, w2, 3), np.linalg.norm(w1) + np.linalg.norm(w2)
            quartic = _tangle_quartic(table)
            assert quartic.tobytes() == tangle_quartic(w1, w2).tobytes()
            floor = 1e-12 * (np.linalg.norm(w1) + np.linalg.norm(w2)) ** 4
            want = tangle_roots(quartic, floor)
            got = _tangle_candidates(quartic, norm)
            assert np.array(got, dtype=complex).tobytes() == np.array(want, dtype=complex).tobytes()
            shapes.add((len(want), (1.0, 0.0) in want, any(t == 0 for t, _ in want[1:])))
        assert {(4, False, False), (4, True, False), (4, False, True), (3, True, True)} <= shapes

    @pytest.mark.parametrize("outer", ["ignore", "warn", "raise"])
    def test_nonconvergence_is_linalg_error(self, monkeypatch, outer):
        # numpy's eigenvalue gufunc reports a failed convergence as an invalid operation
        from slocc.multiqubit import _minor_table, _tangle_candidates, _tangle_quartic

        def not_converged(a, signature):
            return np.full(a.shape[:-1], np.subtract(np.inf, np.inf), complex)

        monkeypatch.setattr(slocc.numerics, "_lapack_eigvals", not_converged)
        w1, w2 = _line(GHZ4)
        table, norm = _minor_table(w1, w2, 3), np.linalg.norm(w1) + np.linalg.norm(w2)
        with np.errstate(all=outer), pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _tangle_candidates(_tangle_quartic(table), norm)


def _census_images(count):
    names = sorted(CENSUS)
    return [
        four_qubit_orbit(CENSUS[names[k % len(names)]], RandomSource(640 + k)) for k in range(count)
    ]


class TestExceptionalPointOrder:
    def test_sorted_by_numeric_key_without_negative_zero(self):
        for state in [GHZ4, CLUSTER, *_census_images(50)]:
            d = descriptor(state)
            points = [np.array(p, dtype=complex) for p in d.exceptional_points]
            for p in points:
                parts = p.view(float)
                assert not np.signbit(parts[parts == 0.0]).any()
            keys = [tuple(np.round(p, 9).view(float)) for p in points]
            for k in range(len(points) - 1):
                if d.exceptional_classes[k] == d.exceptional_classes[k + 1]:
                    assert keys[k] <= keys[k + 1]

    @pytest.mark.parametrize("state", [GHZ4, CLUSTER], ids=["GHZ4", "cluster"])
    def test_basis_points(self, state):
        assert descriptor(state).exceptional_points == ((0, 1), (1, 0))


class TestLooseToleranceAtFullRank:
    """At ranks (2, 2, 2) a line point's slice pencil vanishes only when it is
    exactly zero: the ranks already ruled out a factor. Under the command
    line's --tol 1e-5 policy these 4-qubit orbit states once raised
    ToleranceBreakdown at a line point."""

    @pytest.mark.parametrize("case", BREAKDOWN_CASES, ids=[c["case"] for c in BREAKDOWN_CASES])
    def test_descriptor_keeps_its_signature(self, case):
        amps = [complex(re, im) for re, im in case["amps"]]
        state = make_state((2,) * 4, amps)
        assert descriptor(state).signature() == case["signature"]
        loose = TolerancePolicy(rank_rel_tol=1e-5, deg_tol=1e-4)
        assert descriptor(state, loose).signature() == case["signature"]


INCONSISTENT_CASES = json.loads(
    (Path(__file__).with_name("data") / "inconsistent_ranks4.json").read_text()
)
POLICIES = {
    "default": TolerancePolicy(),
    "1e-6": TolerancePolicy(rank_rel_tol=1e-6, deg_tol=1e-5),
    "1e-4": TolerancePolicy(rank_rel_tol=1e-4, deg_tol=1e-3),
}


def quad_representatives():
    """The ten 4-qubit representatives the quad-mix benchmark draws its orbits from."""
    e0 = np.array([1.0, 0.0])
    w3 = canonical_vector(TripartiteClass.W).amps
    ghz3 = canonical_vector(TripartiteClass.GHZ).amps
    epr = np.array([1.0, 0.0, 0.0, 1.0])
    w4 = np.zeros(16)
    w4[[1, 2, 4, 8]] = 1.0
    g = RandomSource(640).generator()
    four = (2,) * 4
    return {
        "GHZ4": GHZ4,
        "Phi4": CLUSTER,
        "canonical4": example_4partite_canonical(random_complex(g, 2)),
        "W(x)0": make_state(four, np.kron(w3, e0)),
        "0(x)W": make_state(four, np.kron(e0, w3)),
        "GHZ3(x)0": make_state(four, np.kron(ghz3, e0)),
        "EPR(x)EPR": make_state(four, np.kron(epr, epr)),
        "W4": make_state(four, w4),
        "generic": make_state(four, random_complex(g, 16)),
        "product": make_state(four, np.eye(16)[0]),
    }


def outcome(fn, *args):
    try:
        return fn(*args)
    except SloccError as exc:
        return type(exc), str(exc)


def descriptor_fields(d):
    return d.signature(), np.array(d.exceptional_points, dtype=complex).tobytes()


def support_fields(support):
    if support is None:
        return None
    position, factor, reduced = support
    return position, factor.tobytes(), reduced.dims, reduced.amps.tobytes()


class TestBatchedMatchesReference:
    """The batched line decision and the minor-table factor search give what the
    per-point descriptor and the per-pivot-SVD factor search give, byte for byte."""

    @pytest.mark.parametrize("pol", POLICIES.values(), ids=POLICIES.keys())
    @pytest.mark.parametrize("name", quad_representatives().keys())
    def test_orbit_images(self, name, pol):
        rep = quad_representatives()[name]
        for trial in range(6):
            state = four_qubit_orbit(rep, RandomSource(650 + trial))
            got = outcome(lambda s: descriptor_fields(descriptor(s, pol)), state)
            assert got == outcome(lambda s: descriptor_fields(reference_descriptor(s, pol)), state)
            got = outcome(lambda s: support_fields(factor_support(s, pol)), state)
            assert got == outcome(lambda s: support_fields(reference_factor_support(s, pol)), state)

    @pytest.mark.parametrize("pol", POLICIES.values(), ids=POLICIES.keys())
    def test_factor_near_the_rank_cut(self, pol):
        # a factor at qubit 2, 3 or 4 plus noise of 0.3 to 10 rank_rel_tol puts that pivot's
        # sigma ratio on either side of the cut; the rebuild test is loosened to match
        pol = TolerancePolicy(pol.rank_rel_tol, pol.deg_tol, residual_tol=100 * pol.rank_rel_tol)
        g = RandomSource(670).generator()
        ghz3 = canonical_vector(TripartiteClass.GHZ).amps.reshape(2, 2, 2)
        found = set()
        for trial in range(120):
            position = 2 + trial % 3
            tensor = np.moveaxis(np.multiply.outer(ghz3, random_complex(g, 2)), 3, position - 1)
            state = four_qubit_orbit(make_state((2,) * 4, tensor.ravel()), RandomSource(680 + trial))
            noise = random_complex(g, 16)
            size = (0.3, 1.0, 3.0, 10.0)[trial % 4] * pol.rank_rel_tol * state.norm()
            state = make_state(state.dims, state.amps + size * noise / np.linalg.norm(noise))
            got = support_fields(factor_support(state, pol))
            assert got == support_fields(reference_factor_support(state, pol))
            found.add(None if got is None else got[0])
        assert found == {None, 2, 3, 4}

    @pytest.mark.parametrize("case", INCONSISTENT_CASES, ids=lambda case: case["case"])
    def test_inconsistent_ranks_raise_alike(self, case):
        # the tangle roots that once read ranks (1, 1, 2) here snap onto the line's 000 point
        state = make_state((2,) * 4, [complex(re, im) for re, im in case["amps"]])
        pol = TolerancePolicy(rank_rel_tol=case["rank_rel_tol"], deg_tol=case["deg_tol"])
        expected = descriptor(state).signature()
        assert expected == "4q|dimW=2|generic=GHZ|exc=[000]"
        assert descriptor(state, pol).signature() == expected
        assert reference_descriptor(state, pol).signature() == expected

    def test_five_qubits(self):
        g = RandomSource(660).generator()
        states = [ghz_state(5)] + [make_state((2,) * 5, random_complex(g, 32)) for _ in range(3)]
        for state in states:
            for pol in POLICIES.values():
                got = outcome(lambda s: descriptor_fields(descriptor(s, pol, 5)), state)
                assert got == outcome(
                    lambda s: descriptor_fields(reference_descriptor(s, pol, 5)), state
                )


class TestSignatureKeptUnderLoosePolicies:
    """A tangle root of the line lying on a rank-drop point is that point, so a loose
    policy does not read the quartic's spread multiple root as extra points."""

    @pytest.mark.parametrize("name", quad_representatives().keys())
    def test_orbit_images(self, name):
        rep = quad_representatives()[name]
        cli = [TolerancePolicy(t, min(10.0 * t, 0.5)) for t in (1e-9, 1e-7, 1e-5, 1e-3)]
        for trial in range(6):
            state = four_qubit_orbit(rep, RandomSource(650 + trial))
            expected = descriptor(state).signature()
            for pol in [*POLICIES.values(), *cli]:
                assert descriptor(state, pol).signature() == expected


class TestFactorSupportRanksFromSingularValues:
    """Pivot ranks read from one stacked singular-value call decide as the per-pivot
    SVDs of the reference do, at every scale, with no table of 2x2 minors."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_near_rank_one_pivot_at_every_scale(self, n):
        g = RandomSource(700 + n).generator()
        cols = 2 ** (n - 1)
        count = 2000
        ratio = 10.0 ** g.uniform(-16, 0, count)  # r from 1e-16 to 1
        scale = 2.0 ** g.choice([-1000, -500, 0, 500, 1000], count)
        tols = (1e-12, 1e-9, 1e-6, 1e-4)
        found = set()
        for i, (r, k) in enumerate(zip(ratio, scale)):
            tol = tols[i % 4]
            # ratios within 1e-14 of a tolerance may read either side of it
            if abs(r - tol) <= 1e-14:
                continue
            pol = TolerancePolicy(rank_rel_tol=tol)
            u = np.linalg.qr(random_complex(g, 4).reshape(2, 2))[0]
            v = np.linalg.qr(random_complex(g, 2 * cols).reshape(cols, 2))[0]
            p = 2 + i % (n - 1)
            amps = np.zeros(2 * cols, dtype=complex)
            amps[pivot_index((2,) * n, p)] = ((u * [1.0, r]) @ v.conj().T) * k
            state = make_state((2,) * n, amps)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = support_fields(factor_support(state, pol))
                assert got == support_fields(reference_factor_support(state, pol))
            found.add(None if got is None else got[0])
        assert found == {None, *range(2, n + 1)}

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_every_factor_position_under_ilos(self, n):
        # reduced's bytes are tensordot's: a product with the gathered pivot matrix
        # moves their last bits, at p = n among others
        src = RandomSource(740 + n)
        g = src.generator()
        for p in range(2, n + 1):
            for trial in range(4):
                rest = random_complex(g, 2 ** (n - 1)).reshape((2,) * (n - 1))
                tensor = np.moveaxis(np.multiply.outer(rest, random_complex(g, 2)), n - 1, p - 1)
                ops = [random_ilo(2, src.split(100 * p + 10 * trial + k)) for k in range(n)]
                state = apply_local_operators(make_state((2,) * n, tensor.ravel()), ops)
                for pol in POLICIES.values():
                    got = support_fields(factor_support(state, pol))
                    assert got is not None and got[0] == p
                    assert got == support_fields(reference_factor_support(state, pol))

    @pytest.mark.parametrize("name", ["GHZ4", "cluster", "factored", "product", "GHZ6"])
    def test_one_singular_values_call_per_call(self, name, monkeypatch):
        state = {
            "GHZ4": GHZ4,
            "cluster": CLUSTER,
            "factored": TestFactorSupportReadsPivots.factored_state()[0],
            "product": make_state((2,) * 5, np.eye(32)[0]),
            "GHZ6": ghz_state(6),
        }[name]
        calls = []

        def recording(matrices):
            calls.append(np.array(matrices))
            return slocc.numerics.singular_values(matrices)

        monkeypatch.setattr(slocc.multiqubit, "singular_values", recording)
        support = factor_support(state)
        assert (support is None) == (name in ("GHZ4", "cluster", "GHZ6"))
        # every pivot 2..N, stacked, in one call
        assert len(calls) == 1
        n = state.n_subsystems
        pivots = [coefficient_matrix(state, p).entries for p in range(2, n + 1)]
        assert np.array_equal(calls[0], np.stack(pivots))

    def test_ten_qubits_in_bounded_memory(self):
        g = RandomSource(730).generator()
        generic = make_state((2,) * 10, random_complex(g, 2**10))
        tracemalloc.start()
        try:
            support = factor_support(generic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert support is None
        assert peak < 8e6
        factored = make_state((2,) * 10, np.kron(random_complex(g, 2**9), random_complex(g, 2)))
        got = support_fields(factor_support(factored))
        assert got is not None and got[0] == 10
        assert got == support_fields(reference_factor_support(factored))

    def test_no_minor_table(self, monkeypatch):
        def refused(n):
            raise AssertionError("factor_support gathered the 2x2-minor table")

        monkeypatch.setattr(slocc.multiqubit, "minor_index", refused)
        monkeypatch.setattr(slocc.states, "minor_index", refused)
        state, _ = TestFactorSupportReadsPivots.factored_state()
        assert factor_support(state)[0] == 4
        assert factor_support(GHZ4) is None
        assert factor_support(ghz_state(6)) is None


SEVEN_POLICIES = [
    *POLICIES.values(),
    *(TolerancePolicy(t, min(10.0 * t, 0.5)) for t in (1e-9, 1e-7, 1e-5, 1e-3)),
]


class TestGenericClassFromTheLine:
    """At N = 4 the generic class is read from the line's minor table (whole-line pivot
    ranks and whether the tangle quartic vanishes identically), not at a probe point."""

    def test_census_image_keeps_ghz_at_the_loosest_policy(self):
        # one line point's pencil reads W here at --tol 1e-3 (relative discriminant 8.3e-3),
        # while the line's tangle quartic is 5.6e-3 of its least pivot scale squared, not 1e-8
        state = four_qubit_orbit(CENSUS["000 + 0_2 Psi+_13"], RandomSource(5007))
        expected = "4q|dimW=2|generic=GHZ|exc=[000,0_2 Psi+_13]"
        assert descriptor(state).signature() == expected
        assert descriptor(state, TolerancePolicy(1e-3, 1e-2)).signature() == expected

    def test_generic_class_identical_under_seven_policies(self):
        states = []
        for i, rep in enumerate(CENSUS.values()):
            states.append(rep)
            states += [four_qubit_orbit(rep, RandomSource(5000 + 3 * i + j)) for j in range(3)]
        assert len(states) == 84
        for state in states:
            expected = descriptor(state).generic_class
            assert expected is not None
            got = [descriptor(state, pol).generic_class for pol in SEVEN_POLICIES]
            assert got == [expected] * 7

    def test_no_classify3_row_without_candidates(self, monkeypatch):
        rows = []

        def counting(points, *args, **kwargs):
            rows.append(len(points))
            return _classify3_rows(points, *args, **kwargs)

        monkeypatch.setattr(slocc.multiqubit, "_classify3_rows", counting)
        state = four_qubit_orbit(quad_representatives()["EPR(x)EPR"], RandomSource(650))
        assert descriptor(state).signature() == "4q|dimW=2|generic=0_1 Psi+_23|exc=[]"
        assert sum(rows) == 0

    @pytest.mark.parametrize(
        "rep, noise, pol, expected",
        [
            # pivot 1's minors sit at the noise level, within rank_rel_tol but far above the
            # rank-drop search's 1e-13 floor: rank 1 on the whole line
            ("EPR(x)EPR", 1e-10, TolerancePolicy(), "0_1 Psi+_23"),
            ("EPR(x)EPR", 1e-6, TolerancePolicy(1e-3, 1e-2), "0_1 Psi+_23"),
            # resolved noise: the tangle quartic is O(noise^2), as is pivot 1's scale squared
            ("EPR(x)EPR", 1e-8, TolerancePolicy(), "GHZ"),
            # the quartic is O(noise) off a W line, within 1e-8 of the scales squared
            ("W4", 1e-10, TolerancePolicy(), "W"),
        ],
    )
    def test_noisy_line_reads_as_its_generic_points(self, rep, noise, pol, expected):
        state = four_qubit_orbit(quad_representatives()[rep], RandomSource(650))
        kick = random_complex(RandomSource(651).generator(), 16)
        amps = state.amps + noise * np.linalg.norm(state.amps) / np.linalg.norm(kick) * kick
        assert descriptor(make_state(state.dims, amps), pol).generic_class == expected

    def test_inconsistent_line_ranks_raise_as_classify3_does(self, monkeypatch):
        # pivots 2 and 3 rank-deficient on the whole line while pivot 1 is not
        minor_table = slocc.multiqubit._minor_table

        def flattened(*args):
            return [np.concatenate((x[:1], 0 * x[1:])) for x in minor_table(*args)]

        monkeypatch.setattr(slocc.multiqubit, "_minor_table", flattened)
        message = "ranks (2, 1, 1): exactly two pivots read rank 1, impossible for a valid state"
        with pytest.raises(InconsistentRanks) as err:
            descriptor(GHZ4)
        assert str(err.value) == message

    def test_five_qubits_keep_the_probe_row(self, monkeypatch):
        rows = []
        point_classes = slocc.multiqubit._point_classes

        def recording(vecs, n_sub, *args):
            rows.append((n_sub, len(vecs)))
            return point_classes(vecs, n_sub, *args)

        monkeypatch.setattr(slocc.multiqubit, "_point_classes", recording)
        d = descriptor(ghz_state(5), max_qubits=5)
        assert d.exceptional_classes == ("4q|dimW=1|line=000",) * 2
        # two candidates plus the probe point, each a 4-qubit state with its own descriptor
        assert rows[0] == (4, 3)


class TestSingularValuesBeyondTheFloatRange:
    """A 4-qubit state whose sigma_1 leaves the float range is read on its amplitudes times
    an exact power of two, as at scale 1, by descriptor and factor_support alike."""

    @pytest.mark.parametrize("top", [1.2e308, 1.5e308, 1.79e308])
    def test_read_as_at_scale_1(self, top):
        g = RandomSource(760).generator()
        rest = canonical_vector(TripartiteClass.GHZ).amps.reshape(2, 2, 2)
        factored = make_state((2,) * 4, np.multiply.outer(rest, random_complex(g, 2)).ravel())
        ops = [random_ilo(2, RandomSource(761).split(k)) for k in range(4)]
        generic = make_state((2,) * 4, random_complex(g, 16))
        for state in (generic, apply_local_operators(factored, ops)):
            support = factor_support(state)
            expected = descriptor(state).signature(), support and support[0]
            scaled = make_state(state.dims, state.amps / np.abs(state.amps.view(float)).max() * top)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                support = factor_support(scaled)
                assert (descriptor(scaled).signature(), support and support[0]) == expected
        assert expected[1] == 4
        # factor (x) reduced rebuilds the same ray: the state times 2^-e, e the exponent
        # of its largest part
        _, factor, reduced = support
        e = np.frexp(np.abs(scaled.amps.view(float)).max())[1]
        rebuilt = np.multiply.outer(reduced.amps, factor).ravel()
        assert rel_err(rebuilt, scaled.amps * 2.0**-e) < 1e-12


def _numpy_merge(candidates):
    """The merge on numpy arrays that the Python-scalar ``_merge`` replaced, kept verbatim
    as its reference."""
    from slocc.multiqubit import _MERGE_DISTANCE

    points = np.array(candidates, dtype=complex).reshape(-1, 2)
    far = np.sqrt(np.maximum(0.0, 1.0 - np.abs(points.conj() @ points.T) ** 2)) > _MERGE_DISTANCE
    kept = []
    for i, row in enumerate(far.tolist()):
        if all(row[j] for j in kept):
            kept.append(i)
    return points[kept]


def _census_image_set():
    """The 21 census states and their 63 images under ``RandomSource(5000 + 3i + j)``."""
    states = []
    for i, rep in enumerate(CENSUS.values()):
        states.append(rep)
        states += [four_qubit_orbit(rep, RandomSource(5000 + 3 * i + j)) for j in range(3)]
    return states


class TestLineReadOnce:
    """A 4-qubit line is read once: one tangle quartic per line, and the candidates merged on
    Python scalars exactly as the numpy merge kept them."""

    @pytest.mark.parametrize("name", ["GHZ4", "Phi4", "W4", "generic", "random"])
    def test_one_tangle_quartic_per_line(self, name, monkeypatch):
        calls = []
        quartic = slocc.multiqubit._tangle_quartic

        def counting(table):
            calls.append(1)
            return quartic(table)

        monkeypatch.setattr(slocc.multiqubit, "_tangle_quartic", counting)
        reps = quad_representatives()
        state = (
            make_state((2,) * 4, random_complex(RandomSource(790).generator(), 16))
            if name == "random"
            else reps[name]
        )
        assert descriptor(state).dim_w == 2
        # the quartic gives both the roots and the GHZ/W test of a ranks-(2, 2, 2) line
        assert len(calls) == 1

    def test_no_tangle_quartic_on_a_one_dimensional_line(self, monkeypatch):
        calls = []
        monkeypatch.setattr(slocc.multiqubit, "_tangle_quartic", lambda table: calls.append(1))
        assert descriptor(quad_representatives()["0(x)W"]).signature() == "4q|dimW=1|line=W"
        assert calls == []

    def test_scalar_merge_matches_numpy_merge(self, monkeypatch):
        from slocc.multiqubit import _merge, _minor_table, _rank_drop_candidates, _tangle_candidates
        from slocc.multiqubit import _tangle_quartic

        lists = []
        for state in [*_candidate_lines(), *_census_image_set()]:
            w1, w2 = _line(state)
            table, norm = _minor_table(w1, w2, 3), np.linalg.norm(w1) + np.linalg.norm(w2)
            drops, _ = _rank_drop_candidates(table, norm, SEVEN_POLICIES[0])
            tangle = _tangle_candidates(_tangle_quartic(table), norm)
            lists += [drops, drops + tangle, tangle + drops]

        def recording(candidates):
            lists.append(list(candidates))
            return _merge(candidates)

        # and every list descriptor itself merges, under the seven policies
        monkeypatch.setattr(slocc.multiqubit, "_merge", recording)
        for state in _census_image_set():
            for pol in SEVEN_POLICIES:
                descriptor(state, pol)
        assert sum(len(c) > 1 for c in lists) > 500
        for candidates in lists:
            got, want = _merge(candidates), _numpy_merge(candidates)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_merge_edge_cases(self):
        from slocc.multiqubit import _merge

        empty = _merge([])
        assert empty.shape == (0, 2) and empty.dtype == np.complex128

        def apart(d):  # two unit points at chordal distance sin(d)
            return [[1.0 + 0j, 0j], [complex(math.cos(d)), complex(math.sin(d))]]

        assert _merge(apart(1e-7)).tolist() == apart(1e-7)[:1]
        assert _merge(apart(1e-5)).tolist() == apart(1e-5)
        s = math.sqrt(0.5)
        points = [(0j, 1 + 0j), (1 + 0j, 0j), (complex(s, 0.0), complex(0.0, s)), (0j, 1 + 0j)]
        assert _merge(points).tolist() == [list(p) for p in points[:3]]
        g = RandomSource(791).generator()
        for _ in range(50):
            pts = [tuple(p / np.linalg.norm(p)) for p in random_complex(g, (6, 2))]
            pts += [pts[g.integers(6)]]
            as_python = [(complex(a), complex(b)) for a, b in pts]
            want = _numpy_merge(pts).tobytes()
            assert type(pts[0][0]) is np.complex128 and type(as_python[0][0]) is complex
            assert _merge(pts).tobytes() == want == _merge(as_python).tobytes()


class TestLooseToleranceRankDrops:
    @pytest.mark.xfail(
        strict=True,
        reason="open defect: under deg_tol 1e-2 the rank-drop search accepts a root of pivot "
        "2's largest minor quadratic that classify3 does not read as a rank drop, and reads a "
        "third W point (exc=[000,W,W,W])",
    )
    def test_000_plus_w_image_keeps_its_signature(self):
        state = four_qubit_orbit(CENSUS["000 + W"], RandomSource(5016))
        expected = descriptor(state).signature()
        assert descriptor(state, TolerancePolicy(1e-3, 1e-2)).signature() == expected


def _kept_drops(state, pol):
    """``descriptor``'s line of a 4-qubit state (w1, w2), its minor table and its kept rank
    drops, the merge's prefix; None where the line is one-dimensional."""
    from slocc.multiqubit import _merge, _minor_table, _rank_drop_candidates
    from slocc.numerics import _leading_svd, numerical_rank

    _, sigma, W, _ = _leading_svd(state.amps[pivot_index(state.dims, 1)])
    if numerical_rank(sigma, pol) == 1:
        return None
    w1, w2 = W.T
    table = _minor_table(w1, w2, 3)
    drops, _ = _rank_drop_candidates(table, np.linalg.norm(w1) + np.linalg.norm(w2), pol)
    return w1, w2, table, _merge(drops)


def _noisy(state, size, g):
    kick = random_complex(g, state.amps.size)
    amps = state.amps + size * np.linalg.norm(state.amps) / np.linalg.norm(kick) * kick
    return make_state(state.dims, amps)


class TestDropClassesFromTheTable:
    """At N = 4 the class of each kept rank drop is read on the line's minor table: pivot k's
    sigma_2 / sigma_1 is 2 sqrt(M) / (1 + sqrt(1 - 4M)), M the sum of its squared minors at the
    unit point. Only drops of table ranks (2, 2, 2) and far tangle roots take a row decision."""

    @staticmethod
    def lines():
        states = _census_image_set()
        for k, rep in enumerate(quad_representatives().values()):
            states += [four_qubit_orbit(rep, RandomSource(820 + 12 * k + j)) for j in range(12)]
        g = RandomSource(821).generator()
        return states + [_noisy(s, size, g) for size in (1e-8, 1e-6, 1e-4) for s in states]

    def test_table_class_is_the_row_decision(self):
        from slocc.multiqubit import _table_classes

        read = collections.Counter()
        for state in self.lines():
            for pol in SEVEN_POLICIES:
                line = _kept_drops(state, pol)
                if line is None:
                    continue
                w1, w2, table, kept = line
                for point in kept:
                    got = outcome(lambda: _table_classes(table, [point.tolist()], pol.rank_rel_tol))
                    row = point[None, :1] * w1 + point[None, 1:] * w2  # as descriptor forms it
                    want = outcome(lambda: [_classify3_rows(row, pol)[0].value])
                    if got == [None]:  # ranks (2, 2, 2): GHZ and W are the row decision's
                        assert want in (["GHZ"], ["W"])
                        read["(2, 2, 2)"] += 1
                    else:
                        assert got == want
                        read[got[0] if isinstance(got, list) else got[0].__name__] += 1
        assert read["(2, 2, 2)"] >= 1 and read["InconsistentRanks"] >= 1
        assert all(read[tag.value] >= 50 for tag in list(TripartiteClass)[:4])

    def test_epr_type_points_read_without_a_domain_error(self):
        # at the 0_1 Psi+_23 point of these lines pivots 2 and 3 read sigma_1 = sigma_2, so M
        # is 1/4 and 1 - 4M may round below 0; on the noisy lines of every Psi+ generator
        # (RandomSource(824)) some readings round M to 0.2500000000000003
        from slocc.multiqubit import _table_classes

        states = [
            s
            for i, (name, rep) in enumerate(CENSUS.items())
            if name.startswith("0_1 Psi+_23 + ")
            for s in [rep, *(four_qubit_orbit(rep, RandomSource(5000 + 3 * i + j)) for j in range(3))]
        ]
        assert len(states) == 20
        g = RandomSource(824).generator()
        states += [_noisy(rep, 1e-8, g) for name, rep in CENSUS.items() if "Psi+" in name]
        epr = 0
        for state in states:
            for pol in SEVEN_POLICIES:
                w1, w2, table, kept = _kept_drops(state, pol)
                assert len(_table_classes(table, kept.tolist(), pol.rank_rel_tol)) == len(kept)
                a, b, c = table
                for u, v in kept.tolist():
                    m = (np.abs(a * u * u + b * u * v + c * v * v) ** 2).sum(axis=1)
                    epr += bool(np.any(np.abs(m - 0.25) <= 1e-15))
                assert descriptor(state, pol).signature() == reference_descriptor(state, pol).signature()
        assert epr >= 5 * 7

    def test_m_rounded_above_a_quarter_reads_rank_2(self):
        from slocc.multiqubit import _table_classes

        x = 0.5000000000000001
        assert 1.0 - 4.0 * x * x < 0.0
        table = [np.zeros((3, 6), dtype=complex) for _ in range(3)]
        for pivot in (1, 2):
            table[0][pivot, 0] = x  # at the point (1, 0) only the alpha^2 coefficients count
        assert _table_classes(table, [(1 + 0j, 0j)], 1e-9) == ["0_1 Psi+_23"]

    @pytest.mark.parametrize("name", ["GHZ4", "Phi4"])
    def test_images_decide_no_row_and_no_point_svd(self, name, monkeypatch):
        rows, shapes = [], []
        classify3_rows, leading_svd = _classify3_rows, slocc.numerics._leading_svd

        def counting(points, *args, **kwargs):
            rows.append(len(points))
            return classify3_rows(points, *args, **kwargs)

        def recording(matrix):
            shapes.append(matrix.shape)
            return leading_svd(matrix)

        monkeypatch.setattr(slocc.multiqubit, "_classify3_rows", counting)
        monkeypatch.setattr(slocc.multiqubit, "_leading_svd", recording)
        monkeypatch.setattr(slocc.tripartite, "_leading_svd", recording)
        for trial in range(6):
            state = four_qubit_orbit(quad_representatives()[name], RandomSource(650 + trial))
            rows.clear()
            shapes.clear()
            assert descriptor(state).exceptional_classes  # rank drops, each named by the table
            assert rows == [] and shapes == [(2, 8)]

    @pytest.mark.parametrize("seed", range(830, 835))
    def test_random_state_takes_one_row_per_far_tangle_root(self, seed, monkeypatch):
        from slocc.multiqubit import _merge, _tangle_candidates, _tangle_quartic

        state = make_state((2,) * 4, random_complex(RandomSource(seed).generator(), 16))
        w1, w2, table, kept = _kept_drops(state, TolerancePolicy())
        assert kept.size == 0
        norm = np.linalg.norm(w1) + np.linalg.norm(w2)
        far = _merge(_tangle_candidates(_tangle_quartic(table), norm))
        rows = []

        def counting(points, *args, **kwargs):
            rows.append(len(points))
            return _classify3_rows(points, *args, **kwargs)

        monkeypatch.setattr(slocc.multiqubit, "_classify3_rows", counting)
        d = descriptor(state)
        assert rows == [len(far)] and d.exceptional_classes == ("W",) * len(far)


class TestReducedFromOneProduct:
    """factor_support's reduced state is the one product np.tensordot makes, frozen as a new
    array: position, factor and reduced bytes equal the np.tensordot + make_state reference
    (``reference_factor_support``) at every factor position, including p = N, whose operand is a
    strided view of the amplitudes, and at scales that take the overflow re-read."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_position_and_scale(self, n):
        from slocc.numerics import singular_values
        from slocc.subspaces import _scaled

        src = RandomSource(850 + n)
        g = src.generator()
        for p in range(2, n + 1):
            rest = random_complex(g, 2 ** (n - 1)).reshape((2,) * (n - 1))
            tensor = np.moveaxis(np.multiply.outer(rest, random_complex(g, 2)), n - 1, p - 1)
            ops = [random_ilo(2, src.split(10 * p + k)) for k in range(n)]
            state = apply_local_operators(make_state((2,) * n, tensor.ravel()), ops)
            top = np.abs(state.amps.view(float)).max()
            for scale in (1.0, 1e-300, 1e300, 1.5e308 / top):
                scaled = read = make_state(state.dims, state.amps * scale)
                if scale > 1e300:  # sigma_1 overflows: the call reads the ray times 2^-e
                    assert not math.isfinite(singular_values(coefficient_matrix(scaled, p).entries)[0])
                    read = make_state(state.dims, _scaled(scaled.amps))
                for pol in POLICIES.values():
                    support = factor_support(scaled, pol)
                    assert support is not None and support[0] == p
                    assert support_fields(support) == support_fields(reference_factor_support(read, pol))
                    reduced = support[2].amps
                    assert not reduced.flags.writeable
                    assert not np.shares_memory(reduced, scaled.amps)
                    assert not np.shares_memory(reduced, read.amps)
