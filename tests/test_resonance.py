import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from foliatk import linalg
from foliatk.errors import IrrationalEigenvalues, ValidationError
from foliatk.resonance import (
    ResonancePartition,
    _search_steps,
    analyze_linear_part,
    build_normal_form,
    diagonal_model_form,
    find_resonances,
    invariant_hypersurface_check,
    partition,
    validate_eigenvector,
    verify_normal_form,
)


def brute_relations(values, target):
    """Independent search: full product of bounded ranges."""
    ranges = [range(target // v + 1) for v in values]
    out = []
    for m in itertools.product(*ranges):
        if sum(e * v for e, v in zip(m, values)) == target and sum(m) >= 2:
            out.append(m)
    return sorted(out)


def test_validate_eigenvector():
    assert validate_eigenvector([3, 1, 2]) == (1, 2, 3)
    for bad in ([], [0], [-1], [True], [Fraction(1, 2)]):
        with pytest.raises(ValidationError):
            validate_eigenvector(bad)


def test_find_resonances_matches_brute_force():
    rng = random.Random(41)
    for _ in range(50):
        width = rng.randint(1, 5)
        lams = sorted(rng.randint(1, 12) for _ in range(width))
        s = rng.randrange(width)
        assert find_resonances(lams, s) == brute_relations(lams, lams[s])


def test_find_resonances_pinned():
    assert find_resonances([1, 2, 3], 2) == [(1, 1, 0), (3, 0, 0)]
    assert find_resonances([1, 1], 0) == []
    with pytest.raises(ValidationError):
        find_resonances([1, 2], 2)


def test_search_steps_count_the_prefixes_within_the_target():
    rng = random.Random(48)
    for _ in range(100):
        values = [rng.randint(1, 9) for _ in range(rng.randint(0, 3))]
        target = rng.randint(1, 20)
        prefixes = sum(
            1
            for depth in range(1, len(values) + 1)
            for m in itertools.product(*(range(target // v + 1) for v in values[:depth]))
            if sum(e * v for e, v in zip(m, values)) <= target
        )
        assert _search_steps(values, target) == prefixes


def test_relation_budget():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    with pytest.raises(ValidationError, match="RELATION_BUDGET"):
        find_resonances(primes + [200], 9)
    with pytest.raises(ValidationError, match="RELATION_BUDGET"):
        partition(list(range(10, 20)) + [300])
    # nearby inputs are answered: every relation, counted by coin change
    ways = [1] + [0] * 60
    for v in primes:
        for t in range(v, 61):
            ways[t] += ways[t - v]
    assert len(find_resonances(primes + [60], 9)) == ways[60]
    # the last position is fixed by the remainder, not searched
    assert partition([1, 10**7]).relations == {1: ((10**7,),)}
    assert find_resonances([1, 10**7], 1) == [(10**7, 0)]


def test_invariant_hypersurface_matches_relation_property():
    rng = random.Random(42)
    for _ in range(30):
        width = rng.randint(1, 4)
        lams = tuple(sorted(rng.randint(1, 6) for _ in range(width)))
        s = rng.randrange(width)
        relations = set(find_resonances(lams, s))
        bound = lams[s]
        for m in itertools.product(*(range(bound // v + 1) for v in lams)):
            if sum(m) < 2:
                continue
            assert invariant_hypersurface_check(lams, m, s) == (m in relations)


def test_invariant_hypersurface_guards():
    with pytest.raises(ValidationError):
        invariant_hypersurface_check([1, 2], (1,), 0)
    with pytest.raises(ValidationError):
        invariant_hypersurface_check([1, 2], (0, -1), 0)
    with pytest.raises(ValidationError):
        invariant_hypersurface_check([1, 2], (0, 0), 5)


def test_partition_pinned_cases():
    radial = partition([1, 1, 1])
    assert radial.nr_positions == (0, 1, 2) and radial.r_positions == ()
    assert radial.relations == {}

    p = partition([1, 2, 3])
    assert p.nr_values == (1,) and p.r_values == (2, 3)
    assert p.relations == {1: ((2,),), 2: ((3,),)}

    q = partition([2, 4, 5])
    assert q.nr_values == (2, 5) and q.r_values == (4,)
    assert q.relations == {1: ((2, 0),)}


def test_partition_greedy_invariants():
    rng = random.Random(43)
    for _ in range(40):
        width = rng.randint(1, 5)
        lams = sorted(rng.randint(1, 9) for _ in range(width))
        part = partition(lams)
        assert sorted(part.nr_positions + part.r_positions) == list(range(width))
        seen = []
        for pos in range(width):
            if pos in part.nr_positions:
                # joined because nothing before it explains it
                assert not brute_relations(seen, lams[pos])
                seen.append(lams[pos])
        for s, pos in enumerate(part.r_positions, start=1):
            sols = brute_relations(list(part.nr_values), lams[pos])
            assert sols and tuple(sols) == part.relations[s]


def test_build_normal_form_prefix_case():
    data = build_normal_form(partition([1, 2, 3]))
    assert data.permutation == (0, 1, 2)
    assert data.reordered == (1, 2, 3)
    assert data.nr_count == 1
    assert [h.to_str() for h in data.h] == ["x0^2", "x0^3"]
    assert data.H.to_str() == "x0^5"
    assert data.G.to_str() == "x0^6"
    assert verify_normal_form(data)


def test_build_normal_form_interleaved_case():
    data = build_normal_form(partition([2, 4, 5]))
    assert data.permutation == (0, 2, 1)
    assert data.reordered == (2, 5, 4)
    assert data.nr_count == 2
    assert data.G.to_str() == "x0^3*x1"
    assert verify_normal_form(data)


def test_build_normal_form_radial_case():
    data = build_normal_form(partition([3, 3, 3]))
    assert data.psi == ()
    assert data.G.to_str() == "x0*x1*x2"
    assert verify_normal_form(data)


def test_build_normal_form_choices():
    part = partition([2, 3, 12])
    assert part.relations == {1: ((0, 4), (3, 2), (6, 0))}
    default = build_normal_form(part)
    assert default.choices == {1: (0, 4)}
    picked = build_normal_form(part, {1: (3, 2)})
    assert picked.h[0].to_str() == "x0^3*x1^2"
    assert verify_normal_form(default) and verify_normal_form(picked)
    with pytest.raises(ValidationError):
        build_normal_form(part, {1: (1, 1)})
    with pytest.raises(ValidationError):
        build_normal_form(part, {2: (0, 4)})


def test_build_normal_form_rejects_non_radial_duplicates():
    with pytest.raises(ValidationError):
        build_normal_form(partition([1, 2, 2]))


def test_normal_form_identity_randomized():
    rng = random.Random(44)
    seen = 0
    while seen < 20:
        width = rng.randint(2, 4)
        lams = rng.sample(range(1, 10), width)
        data = build_normal_form(partition(lams))
        assert verify_normal_form(data)
        seen += 1


def test_diagonal_model_form_pinned():
    assert diagonal_model_form([1, 2]).to_str() == "-2*x1*dx0 + x0*dx1"


def rand_matrix(rng, n):
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]


def test_char_poly_satisfies_cayley_hamilton():
    rng = random.Random(45)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n)
        coeffs = linalg.char_poly(a)

        def mat_mul(x, y):
            return [
                [sum(x[i][t] * y[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]

        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        acc = [[0] * n for _ in range(n)]
        power = ident
        for c in reversed(coeffs):
            acc = [
                [acc[i][j] + c * power[i][j] for j in range(n)] for i in range(n)
            ]
            power = mat_mul(power, a)
        assert all(v == 0 for row in acc for v in row)


def test_analyze_linear_part_pinned():
    decomposed = analyze_linear_part([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert decomposed.kind == "decomposes"
    assert decomposed.eigenvalues == (Fraction(1), Fraction(2))
    assert decomposed.blocks[Fraction(1)] == (1, 1)
    assert decomposed.blocks[Fraction(2)] == (2, 2)
    assert decomposed.diagonalizable

    jordan = analyze_linear_part([[1, 1], [0, 1]])
    assert jordan.kind == "indecomposable"
    assert jordan.blocks[Fraction(1)] == (2, 1)
    assert not jordan.diagonalizable

    scalar = analyze_linear_part([[3, 0], [0, 3]])
    assert scalar.kind == "projectively_flat"

    with pytest.raises(IrrationalEigenvalues):
        analyze_linear_part([[0, -1], [1, 0]])

    nilpotent = analyze_linear_part([[0, 1], [0, 0]])
    assert nilpotent.kind == "indecomposable"
    assert nilpotent.blocks[Fraction(0)] == (2, 1)

    halves = analyze_linear_part([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert halves.eigenvalues == (Fraction(1, 3), Fraction(1, 2))


@pytest.mark.parametrize("matrix, message", [
    ([[0.1, 0], [0, 1]], "matrix entry [0][0] = 0.1 is a float, not an exact int or Fraction"),
    ([[1, 0], [0, True]], "matrix entry [1][1] = True is a bool, not an exact int or Fraction"),
    ([[1, 0], [0]], "matrix must be square: row 1 has length 1, not 2"),
    ([], "matrix must be square and nonempty"),
], ids=["float", "bool", "ragged", "empty"])
def test_analyze_linear_part_refuses_inexact_and_ragged_matrices(matrix, message):
    with pytest.raises(ValidationError) as info:
        analyze_linear_part(matrix)
    assert str(info.value) == message


def test_an_unsplit_factor_too_long_to_print_is_named_by_its_degree():
    # t^2 + c, with c one digit longer than the int-to-str limit allows
    c = 10 ** sys.get_int_max_str_digits()
    with pytest.raises(IrrationalEigenvalues, match="^characteristic polynomial does not split "
                       "over the rationals: a factor of degree 2 has no rational root$"):
        analyze_linear_part([[1, 0, 0], [0, 0, -c], [0, 1, 0]])


@pytest.mark.parametrize("matrix", [
    [[0] * 60 for _ in range(60)],
    [[2**100000, 0], [0, 1]],
    [[Fraction(1, 2**100000), 0], [0, 1]],
], ids=["size", "entry-bits", "denominator-bits"])
def test_matrix_budget_refuses_at_once(matrix):
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="MATRIX_BUDGET"):
        analyze_linear_part(matrix)
    assert time.perf_counter() - start < 1.0


def dense_similar_matrix(rng, diag, links, bits):
    """A dense integer matrix similar to the Jordan-form ``diag`` with ones
    at ``links``: conjugate by elementary integer row and column operations
    until an entry has ``bits`` bits."""
    n = len(diag)
    a = [[diag[i] if i == j else int((i, j) in links) for j in range(n)] for i in range(n)]
    while max(abs(v) for row in a for v in row).bit_length() < bits:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]  # row i += c * row j
        for row in a:
            row[j] -= c * row[i]  # column j -= c * column i
    return a


def test_dense_24x24_matrix_near_the_budget_is_answered():
    diag = [v for v in (-2, -1, 0, 1, 2, 3) for _ in range(4)]
    matrix = dense_similar_matrix(random.Random(7), diag, {(0, 1), (4, 5), (5, 6)}, 40)
    bits = max(abs(v) for row in matrix for v in row).bit_length()
    assert all(v for row in matrix for v in row)
    assert 0.9 * linalg.MATRIX_BUDGET < linalg.analysis_price(24, bits) <= linalg.MATRIX_BUDGET
    analysis = analyze_linear_part(matrix)
    assert analysis.kind == "decomposes" and not analysis.diagonalizable
    assert analysis.blocks == {Fraction(-2): (4, 3), Fraction(-1): (4, 2), Fraction(0): (4, 4),
                               Fraction(1): (4, 4), Fraction(2): (4, 4), Fraction(3): (4, 4)}


def test_analyze_linear_part_triangular_randomized():
    rng = random.Random(46)
    for _ in range(30):
        n = rng.randint(2, 4)
        diag = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        a = [
            [diag[i] if i == j else (Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
        analysis = analyze_linear_part(a)
        assert analysis.eigenvalues == tuple(sorted(set(diag)))
        for lam in analysis.eigenvalues:
            algebraic, geometric = analysis.blocks[lam]
            assert algebraic == diag.count(lam)
            assert 1 <= geometric <= algebraic


def test_partition_result_shape():
    part = partition([1, 2, 3])
    assert isinstance(part, ResonancePartition)
    assert part.lambdas == (1, 2, 3)
