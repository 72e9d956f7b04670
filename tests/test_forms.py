import contextlib
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from foliatk import forms, polynomials
from foliatk.errors import DegreeMismatch, DimensionMismatch, ValidationError
from foliatk.foliation import blow_up_map
from foliatk.forms import (
    DiffForm, PolyVectorField, _indices, _prefix_parity, contact_form, contract_differentials,
    first_integral_check, interior_product, pullback, total_differential, wedge_sum,
)
from foliatk.polynomials import MultiPoly
from helpers import (
    cheap_zero_group_form, jacobian, plain_class_and_power, rand_form, rand_homogeneous,
    rand_point, rand_poly, reference_d, reference_wedge, tuple_merge_sign, wedge_term_pairs,
)


def test_coefficient_keys_must_increase():
    with pytest.raises(ValueError):
        DiffForm(3, 2, {(1, 0): MultiPoly.constant(3, 1)})
    with pytest.raises(ValueError):
        DiffForm(3, 2, {(1, 1): MultiPoly.constant(3, 1)})


def test_zero_form_degree_clamped_to_dimension():
    z = DiffForm.zero(2, 5)
    assert z.degree == 2 and z.is_zero


def test_zero_forms_equal_across_degrees():
    a = DiffForm.zero(3, 1)
    b = DiffForm.zero(3, 3)
    assert a == b and hash(a) == hash(b)
    assert DiffForm.zero(2, 1) != DiffForm.zero(3, 1)


def test_add_requires_matching_degree_unless_zero():
    a = DiffForm.basis_covector(3, 0)
    b = DiffForm.from_poly(MultiPoly.constant(3, 1))
    with pytest.raises(DegreeMismatch):
        a + b
    assert a + DiffForm.zero(3, 5) == a


def test_wedge_graded_anticommutative():
    rng = random.Random(21)
    for _ in range(40):
        dim = rng.randint(2, 4)
        p = rng.randint(0, dim)
        q = rng.randint(0, dim)
        alpha = rand_form(rng, dim, p)
        beta = rand_form(rng, dim, q)
        sign = -1 if (p * q) % 2 else 1
        assert alpha.wedge(beta) == beta.wedge(alpha) * sign


def test_wedge_associative_and_bilinear():
    rng = random.Random(22)
    for _ in range(30):
        dim = rng.randint(2, 4)
        alpha = rand_form(rng, dim, rng.randint(0, 2))
        beta = rand_form(rng, dim, rng.randint(0, 2))
        gamma = rand_form(rng, dim, rng.randint(0, 2))
        assert alpha.wedge(beta).wedge(gamma) == alpha.wedge(beta.wedge(gamma))
        if beta.degree == gamma.degree:
            assert alpha.wedge(beta + gamma) == alpha.wedge(beta) + alpha.wedge(gamma)


def test_wedge_above_top_degree_is_zero():
    a = DiffForm.basis_covector(2, 0).wedge(DiffForm.basis_covector(2, 1))
    b = DiffForm.basis_covector(2, 0)
    top = a.wedge(b)
    assert top.is_zero and top.degree == 2


def test_exterior_derivative_squares_to_zero():
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.randint(1, 4)
        alpha = rand_form(rng, dim, rng.randint(0, dim))
        dd = alpha.exterior_derivative().exterior_derivative()
        assert dd.is_zero


def test_exterior_derivative_leibniz():
    rng = random.Random(24)
    for _ in range(40):
        dim = rng.randint(2, 4)
        f = rand_poly(rng, dim)
        p = rng.randint(0, dim - 1)
        alpha = rand_form(rng, dim, p)
        fa = alpha * f
        df = DiffForm.from_poly(f).exterior_derivative()
        assert fa.exterior_derivative() == df.wedge(alpha) + alpha.exterior_derivative() * f


def test_interior_product_antiderivation():
    rng = random.Random(25)
    for _ in range(40):
        dim = rng.randint(2, 4)
        p = rng.randint(1, dim - 1)
        q = rng.randint(1, dim - 1)
        field = PolyVectorField([rand_poly(rng, dim, 1, 2) for _ in range(dim)])
        alpha = rand_form(rng, dim, p)
        beta = rand_form(rng, dim, q)
        lhs = interior_product(field, alpha.wedge(beta))
        sign = -1 if p % 2 else 1
        rhs = interior_product(field, alpha).wedge(beta) + alpha.wedge(interior_product(field, beta)) * sign
        assert lhs == rhs


def test_interior_product_twice_vanishes():
    rng = random.Random(26)
    for _ in range(30):
        dim = rng.randint(2, 4)
        p = rng.randint(2, dim)
        field = PolyVectorField([rand_poly(rng, dim, 1, 2) for _ in range(dim)])
        alpha = rand_form(rng, dim, p)
        assert interior_product(field, interior_product(field, alpha)).is_zero


def test_interior_product_rejects_zero_forms():
    field = PolyVectorField.radial(2)
    with pytest.raises(DegreeMismatch):
        interior_product(field, DiffForm.from_poly(MultiPoly.constant(2, 1)))


def test_pullback_commutes_with_d_and_wedge():
    rng = random.Random(27)
    for _ in range(25):
        dim = rng.randint(2, 3)
        src = rng.randint(2, 3)
        images = [rand_poly(rng, src, 2, 2) for _ in range(dim)]
        alpha = rand_form(rng, dim, rng.randint(0, dim))
        beta = rand_form(rng, dim, rng.randint(0, dim))
        assert pullback(images, alpha.exterior_derivative()) == pullback(images, alpha).exterior_derivative()
        assert pullback(images, alpha.wedge(beta)) == pullback(images, alpha).wedge(pullback(images, beta))


def test_evaluate_and_max_modulus():
    omega = DiffForm(2, 1, {
        (0,): MultiPoly.variable(2, 1) * Fraction(-1),
        (1,): MultiPoly.variable(2, 0),
    })
    vals = omega.evaluate([Fraction(2), Fraction(3)])
    assert vals == {(0,): Fraction(-3), (1,): Fraction(2)}
    assert omega.max_modulus_at([Fraction(2), Fraction(3)]) == 3


@pytest.mark.parametrize("power", [0, -1, True, 1.5, Fraction(2)], ids=repr)
def test_max_modulus_refuses_a_power_that_is_not_a_positive_int(power):
    """A wedge power is an int of at least 1: 0, -1 and True are refused,
    not read as the form's own value, and 1.5 is refused, not left to
    escape as a TypeError."""
    x = [MultiPoly.variable(3, i) for i in range(3)]
    omega = DiffForm(3, 1, {(0,): x[1] * 3, (1,): x[0]})
    assert omega.max_modulus_at([1, 2, 3]) == omega.max_modulus_at([1, 2, 3], 1) == 6
    with pytest.raises(ValidationError, match=re.escape(repr(power))):
        omega.max_modulus_at([1, 2, 3], power)


def test_max_modulus_of_a_power_matches_the_built_power():
    """``max_modulus_at(p, k)`` takes the ``k``-th wedge power of the
    constant form ``omega(p)``; it equals the largest coefficient of
    ``omega^k`` built in full and then evaluated: exactly at rational
    points, to round-off at complex ones."""
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        dim = rng.randint(2, 6)
        omega = rand_form(rng, dim, 2, entries=rng.randint(1, 5))
        point = rand_point(rng, dim)
        for k in (1, 2, 3):
            power = omega
            for _ in range(k - 1):
                power = power.wedge(omega)
            plain = max((abs(v) for v in power.evaluate(point).values()), default=0)
            assert omega.max_modulus_at(point, k) == plain
            tilted = [v * (1 + 1j) for v in point]
            plain = max((abs(v) for v in power.evaluate(tilted).values()), default=0)
            assert omega.max_modulus_at(tilted, k) == pytest.approx(plain, rel=1e-12, abs=1e-9)
            checked += plain > 0 and k > 1
    assert checked >= 10


def test_radial_field_and_jacobian():
    rad = PolyVectorField.radial(3)
    assert rad.jacobian_trace() == MultiPoly.constant(3, 3)
    diag = PolyVectorField.diagonal([Fraction(1), Fraction(2), Fraction(5)])
    assert diag.jacobian_trace() == MultiPoly.constant(3, 8)
    jac = jacobian(diag)
    assert jac[1][1] == MultiPoly.constant(3, 2)
    assert jac[0][1].is_zero


def test_mixed_dimension_raises():
    a = DiffForm.basis_covector(2, 0)
    b = DiffForm.basis_covector(3, 0)
    with pytest.raises(DimensionMismatch):
        a.wedge(b)


def test_to_str_pinned():
    omega = DiffForm(2, 1, {
        (0,): MultiPoly.variable(2, 1) * Fraction(-1),
        (1,): MultiPoly.variable(2, 0),
    })
    assert omega.to_str() == "-x1*dx0 + x0*dx1"
    two_term_coeff = DiffForm(2, 1, {(0,): MultiPoly(2, {(1, 0): 1, (0, 1): 1})})
    assert two_term_coeff.to_str() == "(x0 + x1)*dx0"
    assert DiffForm.zero(3, 2).to_str() == "0"


def _pencil():
    x0, x1 = MultiPoly.variable(3, 0), MultiPoly.variable(3, 1)
    return DiffForm(3, 1, {(0,): -x1, (1,): x0})


def test_coeffs_refuses_assignment():
    form = _pencil()
    with pytest.raises(TypeError):
        form.coeffs[(0,)] = MultiPoly.variable(3, 2)
    with pytest.raises(TypeError):
        del form.coeffs[(1,)]


def test_a_form_is_unchanged_by_assigning_into_coeffs():
    form, twin, dx2 = _pencil(), _pencil(), DiffForm.basis_covector(3, 2)
    with contextlib.suppress(TypeError):
        form.coeffs[(0,)] = MultiPoly.variable(3, 2)
    assert form.to_str() == twin.to_str() == "-x1*dx0 + x0*dx1"
    assert form.wedge(dx2) == twin.wedge(dx2)
    assert form.exterior_derivative() == twin.exterior_derivative()
    assert form == twin and hash(form) == hash(twin)


def test_print_order_is_tuple_order_where_mask_order_differs():
    # dx1^^dx2 is stored under mask 6 and dx0^^dx3 under mask 9
    one = MultiPoly.constant(4, 1)
    dx = [DiffForm.basis_covector(4, i) for i in range(4)]
    for form in [DiffForm(4, 2, {(1, 2): one, (0, 3): one}),
                 wedge_sum([(1, dx[1], dx[2]), (1, dx[0], dx[3])])]:
        assert sorted(form._coeffs) == [6, 9]
        assert [idx for idx, _ in form.sorted_coeffs()] == [(0, 3), (1, 2)]
        assert list(form.evaluate([0] * 4)) == [(0, 3), (1, 2)]
        assert form.to_str() == "dx0^^dx3 + dx1^^dx2"


def _mask(idx):
    return sum(1 << i for i in idx)


def test_merge_sign_is_the_permutation_parity():
    """Index masks: ``A`` and ``B`` overlap exactly when ``a & b`` is
    nonzero; otherwise ``dx_A ^ dx_B`` lands on ``a | b`` with the sign
    ``(-1)^popcount(P_A & b)``, the parity of the sorting permutation.  The
    wedge of the two basis forms shows the same sign."""
    rng = random.Random(19)
    one = MultiPoly.constant(12, 1)
    for _ in range(300):
        indices = rng.sample(range(12), rng.randint(0, 12))
        cut = rng.randint(0, len(indices))
        left, right = tuple(sorted(indices[:cut])), tuple(sorted(indices[cut:]))
        word = left + right
        inversions = sum(a > b for a, b in combinations(word, 2))
        a, b = _mask(left), _mask(right)
        assert a & b == 0 and _indices(a | b) == tuple(sorted(word))
        assert (-1) ** (_prefix_parity(a) & b).bit_count() == (-1) ** inversions
        assert tuple_merge_sign(left, right) == ((-1) ** inversions, tuple(sorted(word)))
        product = DiffForm(12, len(left), {left: one}).wedge(DiffForm(12, len(right), {right: one}))
        assert product.coeffs == {tuple(sorted(word)): one * (-1) ** inversions}
    assert _mask((0, 2)) & _mask((2,)) and tuple_merge_sign((0, 2), (2,)) is None
    assert DiffForm(3, 2, {(0, 2): MultiPoly.constant(3, 1)}).wedge(
        DiffForm.basis_covector(3, 2)).is_zero


def test_prefix_parity_of_every_mask_up_to_twelve_indices():
    for mask in range(1 << 12):
        expected = 0
        for i in _indices(mask):
            expected ^= (1 << i) - 1
        assert _prefix_parity(mask) == expected
    top = (1 << 256) - 1
    assert _indices(top) == tuple(range(256))
    assert _prefix_parity(top) == sum(1 << b for b in range(256) if (255 - b) % 2)


def test_wedge_and_d_equal_the_tuple_reference():
    """``wedge``, ``wedge_sum``, squares of even forms and ``d`` against the
    tuple merge of ``helpers``, by structural equality, in 1-12 variables."""
    rng = random.Random(101)
    for _ in range(120):
        dim = rng.randint(1, 12)
        p, q = rng.randint(0, dim), rng.randint(0, dim)
        a = rand_form(rng, dim, p, entries=4, coeff_terms=2)
        b = rand_form(rng, dim, q, entries=4, coeff_terms=2)
        c = rand_form(rng, dim, p, entries=3, coeff_terms=2)
        ab = a.wedge(b)
        assert ab.coeffs == reference_wedge(a, b).coeffs and ab == reference_wedge(a, b)
        assert a.exterior_derivative().coeffs == reference_d(a).coeffs
        assert ab.exterior_derivative().coeffs == reference_d(ab).coeffs
        summed = wedge_sum([(3, a, b), (-2, c, b)])
        expected = reference_wedge(a, b) * 3 - reference_wedge(c, b) * 2
        assert summed.coeffs == expected.coeffs
        # the square of an even form is taken over unordered pairs
        even = a if p % 2 == 0 else a.exterior_derivative()
        assert even.wedge(even).coeffs == reference_wedge(even, even).coeffs


def test_a_form_times_a_polynomial_is_priced_whole(monkeypatch):
    monkeypatch.setattr(polynomials, "TERM_PAIR_BUDGET", 100)
    five = MultiPoly(3, {(i, 0, 0): 1 for i in range(5)})
    ten = MultiPoly(3, {(0, j, 0): 1 for j in range(10)})
    # two coefficients of 5 terms times 10 terms fill the budget, three pass it
    two = DiffForm(3, 1, {(0,): five, (1,): five})
    assert (two * ten).coeffs == {(0,): five * ten, (1,): five * ten}
    three = DiffForm(3, 1, {(0,): five, (1,): five, (2,): five})
    for scale in (lambda: three * ten, lambda: ten * three):
        with pytest.raises(ValidationError, match="150 term pairs, more than TERM_PAIR_BUDGET"):
            scale()
    # a scalar adds no term pairs
    assert (three * 2).coeffs == {i: five * 2 for i in three.coeffs}


def test_stored_exterior_derivative_is_safe():
    rng = random.Random(23)
    for _ in range(30):
        dim = rng.randint(1, 4)
        form = rand_form(rng, dim, rng.randint(0, dim))
        twin = DiffForm(dim, form.degree, dict(form.coeffs))
        stored = form.exterior_derivative()
        assert form.exterior_derivative() is stored
        # an equal form with nothing stored computes the same d afresh
        assert stored == DiffForm(dim, form.degree, dict(form.coeffs)).exterior_derivative()
        # equality and hashing ignore whether d has been stored
        assert form == twin and twin == form and hash(form) == hash(twin)
        assert {form: 1}[twin] == 1
        for name, value in [("degree", 0), ("coeffs", {}), ("_d", stored), ("other", 1)]:
            with pytest.raises(AttributeError):
                setattr(form, name, value)
        assert form.exterior_derivative() is stored


def test_wedge_vanishes_matches_plain_wedges():
    rng = random.Random(29)
    x = [MultiPoly.variable(4, i) for i in range(4)]
    cheap = cheap_zero_group_form()
    pairs = [(cheap, cheap.exterior_derivative())]
    for _ in range(60):
        dim = rng.randint(1, 4)
        a = rand_form(rng, dim, rng.randint(0, dim), entries=3)
        b = rand_form(rng, dim, rng.randint(0, dim), entries=3)
        h = rand_poly(rng, dim)
        # a ^ h a vanishes for a form of odd degree; a ^ (a + b) mixes in b
        pairs += [(a, b), (a, a * h), (a, a + b) if a.degree == b.degree else (b, a)]
    pairs.append((DiffForm(4, 1, {(0,): x[1]}), DiffForm(4, 1, {(0,): x[2]})))
    verdicts = [a.wedge_vanishes(b) for a, b in pairs]
    assert verdicts == [a.wedge(b).is_zero for a, b in pairs]
    assert True in verdicts and False in verdicts


def test_cheap_zero_group_form_reaches_the_whole_wedge():
    """The fixture of the zero-test oracles: the group with the fewest term
    pairs sums to zero, so a test that trusted it would call the nonzero
    ``omega ^ d omega`` zero."""
    omega = cheap_zero_group_form()
    domega = omega.exterior_derivative()
    pairs = wedge_term_pairs(omega, domega)
    cheapest = min(pairs, key=pairs.get)
    assert sorted(pairs.values()).count(pairs[cheapest]) == 1
    wedge = omega.wedge(domega)
    assert cheapest not in wedge.coeffs and not wedge.is_zero
    assert not omega.wedge_vanishes(domega)


def test_a_nonzero_probe_prices_only_its_group(monkeypatch):
    monkeypatch.setattr(polynomials, "TERM_PAIR_BUDGET", 10)
    five = MultiPoly(3, {(i, 0, 0): 1 for i in range(5)})
    ten = MultiPoly(3, {(0, j, 0): 1 for j in range(10)})
    dx2 = DiffForm.basis_covector(3, 2)
    # 5 pairs land on dx0^dx2 and 10 on dx1^dx2: the probe fits and is nonzero
    a = DiffForm(3, 1, {(0,): five, (1,): ten})
    assert not a.wedge_vanishes(dx2)
    with pytest.raises(ValidationError, match="15 term pairs"):
        a.wedge(dx2)
    # a zero probe is followed by the whole wedge, priced as one call
    monkeypatch.setattr(polynomials, "TERM_PAIR_BUDGET", 100)
    spread = DiffForm(3, 1, {(0,): five, (1,): five, (2,): five})
    with pytest.raises(ValidationError, match="150 term pairs"):
        spread.wedge_vanishes(spread)


def square_from_terms(alpha):
    """``alpha ^ alpha`` over ordered pairs of coefficients, term by term:
    each disjoint ``(I, J)`` adds the sign of sorting ``I + J`` times every
    product of a term of ``alpha_I`` with a term of ``alpha_J``."""
    dim = alpha.ambient_dim
    out = {}
    for ia, pa in alpha.coeffs.items():
        for ib, pb in alpha.coeffs.items():
            if set(ia) & set(ib):
                continue
            word = ia + ib
            sign = (-1) ** sum(a > b for a, b in combinations(word, 2))
            terms = out.setdefault(tuple(sorted(word)), {})
            for ea, ca in pa.terms.items():
                for eb, cb in pb.terms.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    terms[e] = terms.get(e, 0) + sign * ca * cb
    return DiffForm(dim, min(2 * alpha.degree, dim), {i: MultiPoly(dim, t) for i, t in out.items()})


def test_the_square_of_an_even_form_takes_each_pair_once(monkeypatch):
    """``alpha ^ alpha`` against the square built from ``terms``, for random
    forms of degree 1-4 on 4-7 variables; for degree 2 and 4 the kernel
    multiplies half the term pairs of the ordered square."""
    rng = random.Random(29)
    multiplied = [0]
    real = polynomials._sum_triples

    def counting(dim, triples):
        multiplied[0] += sum(len(a.terms) * len(b.terms) for _, a, b in triples)
        return real(dim, triples)

    monkeypatch.setattr(polynomials, "_sum_triples", counting)
    nonzero = 0
    for _ in range(40):
        dim, degree = rng.randint(4, 7), rng.randint(1, 4)
        alpha = rand_form(rng, dim, degree, entries=rng.randint(2, 6))
        multiplied[0] = 0
        square = alpha.wedge(alpha)
        assert square == square_from_terms(alpha)
        if degree % 2 == 0:
            assert 2 * multiplied[0] == sum(wedge_term_pairs(alpha, alpha).values())
            nonzero += not square.is_zero
        else:
            assert square.is_zero
    assert nonzero >= 5


def test_a_square_is_priced_at_half_its_ordered_pairs(monkeypatch):
    """The square of an even form counts each unordered pair of
    coefficients once against ``TERM_PAIR_BUDGET``: a budget of half the
    ordered term pairs admits it, while the same product of two equal but
    distinct forms is refused until the budget covers every ordered pair."""
    alpha = rand_form(random.Random(31), 5, 2, entries=5)
    ordered = sum(wedge_term_pairs(alpha, alpha).values())
    assert ordered > 0 and ordered % 2 == 0
    twin = DiffForm(alpha.ambient_dim, alpha.degree, dict(alpha.coeffs))
    monkeypatch.setattr(polynomials, "TERM_PAIR_BUDGET", ordered // 2)
    square = alpha.wedge(alpha)
    with pytest.raises(ValidationError, match=f"{ordered} term pairs"):
        alpha.wedge(twin)
    monkeypatch.setattr(polynomials, "TERM_PAIR_BUDGET", ordered // 2 - 1)
    with pytest.raises(ValidationError, match=f"{ordered // 2} term pairs"):
        alpha.wedge(alpha)
    monkeypatch.setattr(polynomials, "TERM_PAIR_BUDGET", ordered)
    assert alpha.wedge(twin) == square and not square.is_zero


def test_the_radial_zero_test_needs_its_precondition():
    """``eta = dx_j`` has no coefficient whose index avoids ``j``, yet is not
    zero: the lemma behind the radial test needs ``iota_R eta = 0``, and
    ``iota_R dx_j = x_j``."""
    dim = 3
    one = DiffForm.from_poly(MultiPoly.constant(dim, 1))
    radial = PolyVectorField.radial(dim)
    for j in range(dim):
        dx = DiffForm.basis_covector(dim, j)
        eta = dx.wedge(one)
        assert not eta.is_zero and all(j in idx for idx in eta.coeffs)
        assert interior_product(radial, eta) == DiffForm.from_poly(MultiPoly.variable(dim, j))
        assert not dx.is_projective()
        assert not dx.wedge_vanishes(one)
    x = [MultiPoly.variable(dim, i) for i in range(dim)]
    assert DiffForm(dim, 1, {(0,): -x[1], (1,): x[0]}).is_projective()
    assert not DiffForm(dim, 1, {(0,): -x[1] * x[1], (1,): x[0] * x[1] + x[2]}).is_projective()


def test_is_projective_matches_the_full_contraction():
    """``is_projective`` is a coefficient degree and ``iota_R omega = 0``;
    against a fresh copy's ``coefficient_degree`` and ``interior_product``
    on random forms of degree 1-4, on the projective forms ``iota_R alpha``
    and on those plus one monomial term."""
    rng = random.Random(43)
    verdicts = []
    for _ in range(60):
        dim = rng.randint(2, 6)
        degree = rng.randint(1, min(dim, 4))
        radial = PolyVectorField.radial(dim)
        e = rng.randint(1, 2)
        slots = list(combinations(range(dim), min(degree + 1, dim)))
        alpha = DiffForm(dim, len(slots[0]), {idx: rand_homogeneous(rng, dim, e)
                                              for idx in rng.sample(slots, min(2, len(slots)))})
        contracted = interior_product(radial, alpha)
        slot = rng.choice(list(combinations(range(dim), contracted.degree)))
        bump = DiffForm(dim, contracted.degree, {slot: rand_homogeneous(rng, dim, e + 1, terms=1)})
        for form in (rand_form(rng, dim, degree, entries=3), contracted, contracted + bump):
            if form.degree == 0:
                continue
            twin = DiffForm(dim, form.degree, dict(form.coeffs))
            plain = (twin.coefficient_degree() is not None
                     and interior_product(radial, twin).is_zero)
            assert form.is_projective() == plain
            verdicts.append(plain)
    assert True in verdicts and False in verdicts


def test_wedges_leave_nothing_allocated_in_forms():
    """Index masks live on the forms that use them: over 200 wedges of
    fresh random 2-forms in 40 variables, dropped as they are made, the
    memory allocated in ``forms`` does not grow.  The first 200 fill the
    free lists of dicts and tuples, which keep a bounded number of freed
    objects that tracemalloc still counts; a cache of index pairs would
    grow by hundreds of KB."""
    rng = random.Random(89)

    def wedges(count):
        for _ in range(count):
            rand_form(rng, 40, 2, entries=4).wedge(rand_form(rng, 40, 2, entries=4))

    def allocated():
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, forms.__file__)])
        return sum(stat.size for stat in snapshot.statistics("filename"))

    tracemalloc.start()
    try:
        wedges(200)
        before = allocated()
        wedges(200)
        growth = allocated() - before
    finally:
        tracemalloc.stop()
    assert growth < 1024, growth


@pytest.mark.parametrize("c", [Fraction(3, 2), 1.5, True, Fraction(2)], ids=repr)
def test_wedge_sum_refuses_a_multiplier_that_is_not_an_int(monkeypatch, c):
    x1 = DiffForm.from_poly(MultiPoly.variable(2, 1))
    dx0 = DiffForm.basis_covector(2, 0)
    assert wedge_sum([(-2, x1, dx0)]) == x1.wedge(dx0) * -2
    monkeypatch.setattr(MultiPoly, "sums_of_products", None)  # refused before any product
    with pytest.raises(ValidationError, match=re.escape(repr(c))):
        wedge_sum([(1, x1, dx0), (c, x1, dx0)])


@pytest.mark.parametrize("exponent", [Fraction(3, 2), 1.5, True, Fraction(2)], ids=repr)
def test_first_integral_check_refuses_an_exponent_that_is_not_an_int(monkeypatch, exponent):
    x = [MultiPoly.variable(3, i) for i in range(3)]
    omega = DiffForm(3, 1, {(0,): -x[1], (1,): x[0]})
    assert first_integral_check(x[0], x[1], omega, -1, -1)
    monkeypatch.setattr(MultiPoly, "sums_of_products", None)  # refused before any product
    for a, b in ((exponent, 1), (1, exponent)):
        with pytest.raises(ValidationError, match=re.escape(repr(exponent))):
            first_integral_check(x[0], x[1], omega, a, b)


def test_constructions_refuse_empty_input():
    with pytest.raises(ValidationError, match=re.escape("[]")):
        wedge_sum([])
    with pytest.raises(ValidationError, match=re.escape("[]")):
        contract_differentials(PolyVectorField.radial(3), [])


KEPT_SLOTS = ("_is_projective", "_coefficient_degree", "_class_bound")


def kept_facts(form):
    """The facts ``form`` keeps, by slot; a construction that proves none
    and no query yet leaves this empty."""
    return {slot: getattr(form, slot) for slot in KEPT_SLOTS if hasattr(form, slot)}


def assert_kept_facts_hold(form, kept):
    """Each kept fact equals what a fresh copy of the form computes, and a
    kept class bound bounds the class by its definition, which both the
    form and the copy find."""
    copy = DiffForm(form.ambient_dim, form.degree, form.coeffs)
    assert kept_facts(copy) == {}
    if "_is_projective" in kept:
        assert kept["_is_projective"] == copy.is_projective()
    if "_coefficient_degree" in kept:
        assert kept["_coefficient_degree"] == copy.coefficient_degree()
    if form.degree == 1:
        plain = plain_class_and_power(form)[0]
        assert form.class_chain() == copy.class_chain() == plain <= kept.get("_class_bound", plain)


def test_a_built_component_keeps_what_its_construction_proves():
    """``contract_differentials`` against the Euler field, with at least
    two homogeneous generators and a nonzero result, keeps that the form is
    projective and its coefficient degree ``sum d_j - r``; a hand-built
    field equal to the Euler field counts as it."""
    rng = random.Random(97)
    built = 0
    for _ in range(40):
        dim = rng.randint(3, 6)
        degrees = [rng.randint(1, 3) for _ in range(rng.randint(2, dim - 1))]
        gens = [rand_homogeneous(rng, dim, d) for d in degrees]
        field = PolyVectorField.radial(dim)
        if rng.random() < 0.5:
            field = PolyVectorField([MultiPoly.variable(dim, i) for i in range(dim)])
        omega = contract_differentials(field, gens)
        if omega.is_zero:
            continue
        kept = kept_facts(omega)
        assert kept == {"_is_projective": True,
                        "_coefficient_degree": sum(degrees) - len(degrees) + 1}
        assert_kept_facts_hold(omega, kept)
        built += 1
    assert built >= 20


def test_a_contact_form_keeps_what_its_construction_proves():
    """``contact_form`` keeps the class bound ``r`` and, for generators of
    one degree ``m``, that it is projective with coefficient degree ``2m -
    1``; on ``2r`` to ``2r + 3`` variables, with one generator a multiple of
    another in some draws, which puts the class below ``r``."""
    rng = random.Random(101)
    below = set()
    for r in (1, 2, 3):
        for dim in range(2 * r, 2 * r + 4):
            for dependent in (False, False, True):
                m = rng.randint(1, 2)
                gens = [rand_homogeneous(rng, dim, m) for _ in range(2 * r)]
                if dependent:
                    gens[-1] = gens[0] * rng.randint(1, 3)
                omega, differentials = contact_form(gens)
                assert differentials == tuple(total_differential(f) for f in gens)
                if omega.is_zero:
                    assert kept_facts(omega) == {}
                    continue
                kept = kept_facts(omega)
                assert kept == {"_class_bound": r, "_is_projective": True, "_coefficient_degree": 2 * m - 1}
                assert_kept_facts_hold(omega, kept)
                if dependent:
                    assert omega.class_chain() < r
                    below.add(r)
    assert below == {2, 3}


def test_constructions_that_prove_nothing_keep_nothing():
    """A field other than the Euler field, an inhomogeneous generator or a
    single generator leaves ``contract_differentials`` keeping nothing, and
    a contact form from an inhomogeneous generator, or from generators of
    two degrees, keeps only its class bound."""
    x = [MultiPoly.variable(4, i) for i in range(4)]
    radial = PolyVectorField.radial(4)
    cases = [
        contract_differentials(PolyVectorField.diagonal([1, 0, 0]), blow_up_map(2)),
        contract_differentials(PolyVectorField.diagonal([2, 3, 5, 0]), x[:3]),
        contract_differentials(radial, [x[0] + x[1] ** 2, x[2], x[3]]),
        contract_differentials(radial, [x[0] * x[1]]),
    ]
    for form in cases:
        assert not form.is_zero and kept_facts(form) == {}
        assert_kept_facts_hold(form, {})
    for gens in ([x[0] + x[1] ** 2, x[1], x[2], x[3]], [x[0], x[1] ** 2, x[2], x[3]]):
        omega, _ = contact_form(gens)
        assert kept_facts(omega) == {"_class_bound": 2}
        assert_kept_facts_hold(omega, kept_facts(omega))
        assert not omega.is_projective() and omega.class_chain() == 2
