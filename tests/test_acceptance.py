"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import time

import numpy as np
import pytest

from _kit import MANY, RandomSource, brute_product_count, random_ilo
from slocc.bipartite import classify_bipartite
from slocc.multiqubit import (
    class_count_bound,
    cluster_state_4,
    descriptor,
    example_4partite_canonical,
    ghz_state,
    same_broad_class,
)
from slocc.numerics import TolerancePolicy, svd
from slocc.states import apply_local_operators, coefficient_matrix, make_state
from slocc.subspaces import (
    RootKind,
    StructureTag,
    classify_span,
    one_product_span_basis,
    product_roots,
    slice_matrix,
)
from slocc.tripartite import TripartiteClass, canonical_vector, classify3, reduce_to_canonical

SEED_ORBITS = 515_001
SEED_BIPARTITE = 515_004
SEED_SUBSPACES = 515_005
SEED_WSPANS = 515_006
SEED_4QUBIT = 515_007
SEED_FAMILY = 515_009

CANONICAL_MATRICES = {
    TripartiteClass.C000: [[1, 0, 0, 0], [0, 0, 0, 0]],
    TripartiteClass.C01_PSI23: [[1, 0, 0, 1], [0, 0, 0, 0]],
    TripartiteClass.C02_PSI13: [[1, 0, 0, 0], [0, 1, 0, 0]],
    TripartiteClass.C03_PSI12: [[1, 0, 0, 0], [0, 0, 1, 0]],
    TripartiteClass.GHZ: [[1, 0, 0, 0], [0, 0, 0, 1]],
    TripartiteClass.W: [[0, 1, 1, 0], [1, 0, 0, 0]],
}

TABLE_RANKS = {
    TripartiteClass.C000: (1, 1, 1),
    TripartiteClass.C01_PSI23: (1, 2, 2),
    TripartiteClass.C02_PSI13: (2, 1, 2),
    TripartiteClass.C03_PSI12: (2, 2, 1),
    TripartiteClass.GHZ: (2, 2, 2),
    TripartiteClass.W: (2, 2, 2),
}

TABLE_STRUCTURES = {
    TripartiteClass.C000: StructureTag.PRODUCT_LINE,
    TripartiteClass.C01_PSI23: StructureTag.ENTANGLED_LINE,
    TripartiteClass.C02_PSI13: StructureTag.LEFT_FACTOR,
    TripartiteClass.C03_PSI12: StructureTag.RIGHT_FACTOR,
    TripartiteClass.GHZ: StructureTag.TWO_PRODUCTS,
    TripartiteClass.W: StructureTag.ONE_PRODUCT_PLUS_ENTANGLED,
}


def report(number, ok, message):
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {number} failed: {message}"


def canonical_table_failures(pol):
    failures = []
    for tag in TripartiteClass:
        state = canonical_vector(tag)
        rep = classify3(state, pol)
        if rep.tag is not tag:
            failures.append(f"{tag.value}: classified {rep.tag.value}")
        if rep.ranks != TABLE_RANKS[tag]:
            failures.append(f"{tag.value}: ranks {rep.ranks}")
        if rep.structure.tag is not TABLE_STRUCTURES[tag]:
            failures.append(f"{tag.value}: structure {rep.structure.tag.value}")
        if not np.array_equal(coefficient_matrix(state, 1).entries, CANONICAL_MATRICES[tag]):
            failures.append(f"{tag.value}: canonical matrix mismatch")
    return failures


def orbit_sample(tag_index, trial):
    src = RandomSource(SEED_ORBITS).split(tag_index).split(trial)
    ops = [random_ilo(2, src.split(k)) for k in range(3)]
    tag = list(TripartiteClass)[tag_index]
    return apply_local_operators(canonical_vector(tag), ops), tag


def orbit_failures(pol, trials):
    failures = 0
    for tag_index in range(6):
        for trial in range(trials):
            state, tag = orbit_sample(tag_index, trial)
            if classify3(state, pol).tag is not tag:
                failures += 1
    return failures


def test_criterion_1_canonical_table():
    start = time.perf_counter()
    failures = canonical_table_failures(TolerancePolicy())
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    report(1, ok, f"six canonical fixtures, table ranks/structures/matrices; {elapsed:.2f}s")


def test_criterion_2_orbit_invariance():
    start = time.perf_counter()
    failures = orbit_failures(TolerancePolicy(), trials=1000)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    report(2, ok, f"6000 ILO-orbit samples, {failures} misclassifications; {elapsed:.1f}s")


def test_criterion_3_reduction_soundness():
    start = time.perf_counter()
    failures = 0
    worst = 0.0
    for tag_index in range(6):
        for trial in range(1000):
            state, tag = orbit_sample(tag_index, trial)
            try:
                rep, ilos = reduce_to_canonical(state)
            except Exception:
                failures += 1
                continue
            worst = max(worst, ilos.residual)
            if rep.tag is not tag or ilos.residual > 1e-8:
                failures += 1
                continue
            for f in ilos.ops:
                if abs(np.linalg.det(f)) <= 1e-12 * np.linalg.norm(f) ** 2:
                    failures += 1
                    break
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report(3, ok, f"6000 reductions, {failures} failures, worst residual {worst:.2e}; {elapsed:.1f}s")


def test_criterion_4_bipartite_rank_law():
    failures = 0
    for k in range(1, 5):
        base = np.zeros(20, dtype=complex)
        for i in range(k):
            base[i * 5 + i] = 1.0
        canonical = make_state([4, 5], base)
        for trial in range(125):
            src = RandomSource(SEED_BIPARTITE).split(k).split(trial)
            ops = [random_ilo(4, src.split(0)), random_ilo(5, src.split(1))]
            state = apply_local_operators(canonical, ops)
            if classify_bipartite(state).schmidt_rank != k:
                failures += 1
    ok = failures == 0
    report(4, ok, f"rank law in C4 x C5, k = 1..4, 500 trials, {failures} failures")


def test_criterion_5_product_vector_oracles_agree():
    kind_to_count = {
        RootKind.TWO_DISTINCT: 2,
        RootKind.ONE_DOUBLE: 1,
        RootKind.INFINITELY_MANY: MANY,
    }
    disagreements = 0
    start = time.perf_counter()
    for trial in range(10_000):
        g = RandomSource(SEED_SUBSPACES).split(trial).generator()
        w1 = g.standard_normal(4) + 1j * g.standard_normal(4)
        w2 = g.standard_normal(4) + 1j * g.standard_normal(4)
        analytic = kind_to_count[product_roots(slice_matrix(w1), slice_matrix(w2)).kind]
        brute = brute_product_count(w1, w2, 10_000, 20)
        if analytic != brute:
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0
    report(5, ok, f"10000 random spans, {disagreements} oracle disagreements; {elapsed:.0f}s")


def test_criterion_6_one_product_span_decomposition():
    w_index = list(TripartiteClass).index(TripartiteClass.W)
    failures = 0
    worst_leak = 0.0
    for trial in range(10_000):
        src = RandomSource(SEED_WSPANS).split(trial)
        ops = [random_ilo(2, src.split(k)) for k in range(3)]
        state = apply_local_operators(canonical_vector(TripartiteClass.W), ops)
        res = svd(coefficient_matrix(state, 1).entries)
        w1, w2 = res.W[:, 0], res.W[:, 1]
        span = classify_span(w1, w2)
        if span.tag is not StructureTag.ONE_PRODUCT_PLUS_ENTANGLED:
            failures += 1
            continue
        basis = one_product_span_basis(w1, w2, span.witnesses[0])
        worst_leak = max(worst_leak, basis.leak)
        if basis.leak > 1e-8:
            failures += 1
    ok = failures == 0
    report(6, ok, f"10000 W-orbit spans, {failures} failures, worst leak {worst_leak:.2e}")
    assert w_index == 5


def test_criterion_7_four_qubit_separation():
    ghz4 = ghz_state(4)
    cluster = cluster_state_4()
    d_ghz = descriptor(ghz4)
    d_cluster = descriptor(cluster)
    separated = not same_broad_class(d_ghz, d_cluster)
    failures = 0
    for trial in range(200):
        src = RandomSource(SEED_4QUBIT).split(trial)
        ops_a = [random_ilo(2, src.split(k)) for k in range(4)]
        ops_b = [random_ilo(2, src.split(10 + k)) for k in range(4)]
        if not same_broad_class(d_ghz, descriptor(apply_local_operators(ghz4, ops_a))):
            failures += 1
        if not same_broad_class(d_cluster, descriptor(apply_local_operators(cluster, ops_b))):
            failures += 1
    ok = separated and failures == 0
    report(
        7,
        ok,
        f"GHZ4 vs cluster separated: {separated}; 400 orbit descriptors, {failures} mismatches",
    )


def test_criterion_8_bound_reproduction():
    result = class_count_bound(6, 3)
    ok = result.bound == 45 and result.genuine == 21 and result.degenerate == 24
    report(8, ok, f"bound(6, 3) = {result.bound} = {result.genuine} + {result.degenerate}")


def test_criterion_9_continuous_family_convention():
    g = RandomSource(SEED_FAMILY).generator()
    descriptors = []
    while len(descriptors) < 20:
        psi = g.standard_normal(2) + 1j * g.standard_normal(2)
        if min(abs(psi[0]), abs(psi[1])) < 0.05 * np.linalg.norm(psi):
            continue
        descriptors.append(descriptor(example_4partite_canonical(psi)))
    mismatches = sum(
        0 if same_broad_class(descriptors[i], descriptors[j]) else 1
        for i in range(20)
        for j in range(i + 1, 20)
    )
    ok = mismatches == 0
    report(9, ok, f"20 family members, {mismatches} pairwise broad-class mismatches")


@pytest.mark.parametrize("rank_tol", [1e-7, 1e-9, 1e-11])
def test_criterion_10_tolerance_robustness(rank_tol):
    pol = TolerancePolicy(rank_rel_tol=rank_tol)
    table = canonical_table_failures(pol)
    orbits = orbit_failures(pol, trials=1000)
    ok = not table and orbits == 0
    report(10, ok, f"criteria 1-2 at rank_rel_tol = {rank_tol:g}: {len(table)} + {orbits} failures")
