import cmath
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from foliatk.errors import (
    DenominatorNearZeroOnTorus,
    DenominatorOutOfFloatRange,
    DimensionMismatch,
    NonIsolatedSuspected,
    ToolkitError,
    ValidationError,
)
from foliatk.forms import PolyVectorField
from foliatk.polynomials import MultiPoly
from foliatk import residue
from foliatk.residue import (
    GRID_BLOCK,
    PRODUCT_BUDGET,
    QUADRATURE_BUDGET,
    ResidueQuery,
    _grid_value,
    _log_terms,
    build_residue_report,
    chern_integrality,
    closed_form_residue,
    codim1_component_solver,
    codim1_realizable_products,
    diagonal_weights,
    grothendieck_residue_numeric,
    kupka_degree,
    residue_with_sweep,
)


def perturbed_field():
    # X = (z0 + z1^2, z1): isolated zero at the origin, not separable
    z0 = MultiPoly.variable(2, 0)
    z1 = MultiPoly.variable(2, 1)
    return PolyVectorField([z0 + z1 * z1, z1])


def test_closed_form_residue_pinned():
    assert closed_form_residue([1, 1]) == 4
    assert closed_form_residue([1, 2]) == Fraction(9, 2)
    assert closed_form_residue([1, 2, 3]) == 36
    with pytest.raises(ValidationError):
        closed_form_residue([])
    with pytest.raises(ValidationError):
        closed_form_residue([1, 0])


def test_log_terms_match_the_fraction_of_each_term():
    """``_log_terms`` reads each term's reduced numerator and denominator
    off the polynomial; sign and log are bit for bit those of the term's
    ``Fraction``, also for coefficients past the float range."""
    rng = random.Random(47)
    x = [MultiPoly.variable(3, i) for i in range(3)]
    polys = [(x[0] * Fraction(3, 14) + x[1] * Fraction(-5, 21) + x[2] ** 2 + Fraction(7, 6)) ** 4,
             x[0] * Fraction(10 ** 400, 3) - x[1] * Fraction(2, 10 ** 350)]
    for _ in range(20):
        polys.append(MultiPoly(3, {tuple(rng.randint(0, 3) for _ in range(3)):
                                   Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 60))
                                   for _ in range(5)}))
    for poly in polys:
        expected = [(exps, -1.0 if c < 0 else 1.0,
                     math.log(abs(c.numerator)) - math.log(c.denominator))
                    for exps, c in poly.sorted_terms()]
        assert _log_terms(poly) == expected


def test_kupka_degree_pinned():
    assert kupka_degree([1, 1], 4) == 4
    assert kupka_degree([2, 3], 5) == 6
    assert kupka_degree([1, 2], 3) == 2
    with pytest.raises(ValidationError):
        kupka_degree([1, 2], 0)


@pytest.mark.parametrize("call", [
    lambda w: closed_form_residue(w),
    lambda w: chern_integrality(w, 3),
    lambda w: kupka_degree(w, 3),
], ids=["closed-form", "chern", "kupka-degree"])
@pytest.mark.parametrize("weight, kind", [(0.1, "float"), (True, "bool")])
def test_weights_must_be_exact(call, weight, kind):
    """A weight is an int or ``Fraction``, as a coefficient is: a float is
    not read as a binary fraction, nor a bool as 1."""
    with pytest.raises(TypeError, match=f"got {kind}"):
        call([weight, 2])


def test_degree_times_residue_is_c_power():
    rng = random.Random(51)
    for _ in range(30):
        width = rng.randint(1, 4)
        lams = [rng.randint(1, 6) for _ in range(width)]
        c = rng.randint(1, 9)
        assert kupka_degree(lams, c) * closed_form_residue(lams) == Fraction(c) ** width


def test_chern_integrality():
    report = chern_integrality([1, 2], 3)
    assert report.values == (1, 2)
    assert report.realizable
    report = chern_integrality([1, 1], 3)
    assert report.values == (Fraction(3, 2), Fraction(3, 2))
    assert not report.realizable and report.integer_flags == (False, False)
    rng = random.Random(52)
    for _ in range(30):
        width = rng.randint(1, 4)
        lams = [rng.randint(1, 6) for _ in range(width)]
        c = rng.randint(1, 9)
        assert sum(chern_integrality(lams, c).values) == c


def test_codim1_solver():
    assert codim1_component_solver(6, 8) == ((2, 4),)
    assert codim1_component_solver(4, 4) == ((2, 2),)
    assert codim1_component_solver(5, 7) == ()
    with pytest.raises(ValidationError):
        codim1_component_solver(1, 1)
    with pytest.raises(ValidationError):
        codim1_component_solver(4, 0)
    for c in range(2, 40):
        for d in range(1, c * c // 4 + 2):
            brute = tuple((a, c - a) for a in range(1, c // 2 + 1) if a * (c - a) == d)
            assert codim1_component_solver(c, d) == brute, (c, d)
    c = 10 ** 11
    assert codim1_component_solver(c, 5) == ()
    assert codim1_component_solver(c, 5 * (c - 5)) == ((5, c - 5),)


def test_codim1_realizable_products():
    assert codim1_realizable_products(6) == (5, 8, 9)
    for c in range(2, 21):
        products = codim1_realizable_products(c)
        assert len(products) == c // 2
        for d in products:
            assert codim1_component_solver(c, d)
    for c in range(2, 200):
        expected = tuple(sorted({a * (c - a) for a in range(1, c // 2 + 1)}))
        assert codim1_realizable_products(c) == expected
    with pytest.raises(ValidationError, match="PRODUCT_BUDGET"):
        codim1_realizable_products(2 * PRODUCT_BUDGET + 2)


def test_residue_query_validation():
    field = PolyVectorField.diagonal([1, 2])
    with pytest.raises(DimensionMismatch):
        ResidueQuery(field=field, radii=(1.0,))
    with pytest.raises(ValidationError):
        ResidueQuery(field=field, radii=(1.0, -1.0))
    with pytest.raises(ValidationError):
        ResidueQuery(field=field, radii=(1.0, 1.0), samples_per_circle=3)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            ResidueQuery(field=field, radii=(1.0, bad))
    with pytest.raises(ValidationError):
        residue_with_sweep(ResidueQuery(field=field, radii=(1.0, 1.0)), (1.0, math.inf))


def test_guards_trip_on_nan(monkeypatch):
    """A NaN radius fails every certificate and a NaN tolerance the sweep;
    a NaN sample surfaces in the sum of either path, which must be finite."""
    field = PolyVectorField.diagonal([1, 2])
    for radii in [(math.nan, 1.0), (1.0, math.nan)]:
        for i, comp in enumerate(field.components):
            with pytest.raises(DenominatorNearZeroOnTorus, match=f"X_{i} = "):
                residue._certify(field, i, _log_terms(comp), [math.log(r) for r in radii])
    with pytest.raises(NonIsolatedSuspected):
        residue_with_sweep(ResidueQuery(field=field, radii=(1.0, 1.0)), (1.0,), math.nan)
    monkeypatch.setattr(residue, "_axis_samples", lambda count, start=0, stop=None:
                        np.full((count if stop is None else stop) - start, complex(math.nan, 0)))
    for grid in (field, perturbed_field()):  # per axis, then the grid
        with pytest.raises(DenominatorNearZeroOnTorus, match="not finite"):
            grothendieck_residue_numeric(ResidueQuery(grid, (0.5, 0.5), 8))


def test_quadrature_budget_is_checked_before_sampling(monkeypatch):
    class Sampled(Exception):
        pass

    def sample(count, *block):
        raise Sampled

    monkeypatch.setattr(residue, "_axis_samples", sample)
    diagonal = PolyVectorField.diagonal([1, 2])
    z = [MultiPoly.variable(4, i) for i in range(4)]
    grid4 = PolyVectorField([z[0] + z[1] * z[1], z[1], z[2], z[3]])
    side = math.isqrt(QUADRATURE_BUDGET)  # the m=2 grid fills the budget exactly
    over = [(perturbed_field(), side + 1), (diagonal, QUADRATURE_BUDGET // 2 + 1),
            (grid4, 256), (diagonal, 10**100)]
    for field, count in over:
        query = ResidueQuery(field=field, radii=(1.0,) * field.ambient_dim,
                             samples_per_circle=count)
        with pytest.raises(ValidationError, match="QUADRATURE_BUDGET"):
            grothendieck_residue_numeric(query)
    z3 = [MultiPoly.variable(3, i) for i in range(3)]
    grid3 = PolyVectorField([z3[0] + z3[1] * z3[1], z3[1], z3[2]])
    within = [(perturbed_field(), side), (diagonal, QUADRATURE_BUDGET // 2),
              (grid3, 128), (PolyVectorField.diagonal([1, 2, 3]), 1024)]
    for field, count in within:  # at radius 0.5 every field is certified
        query = ResidueQuery(field=field, radii=(0.5,) * field.ambient_dim,
                             samples_per_circle=count)
        with pytest.raises(Sampled):
            grothendieck_residue_numeric(query)


def test_diagonal_residue_matches_closed_form():
    for lams in ([1, 1], [1, 2], [2, 3, 4]):
        field = PolyVectorField.diagonal(lams)
        query = ResidueQuery(field=field, radii=(1.0,) * len(lams))
        value = grothendieck_residue_numeric(query)
        assert abs(value - float(closed_form_residue(lams))) < 1e-9
        assert abs(value.imag) < 1e-9


def test_separable_and_grid_paths_agree():
    """The grid sums a separable field's unit torus to its per-axis value,
    at any radii."""
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    for field, radii in [(PolyVectorField.diagonal([1, 2]), (1.0, 1.0)),
                         (PolyVectorField.diagonal([1, 2]), (1e-300, 1e300)),
                         (PolyVectorField([z0 * 3 + z0 ** 3, z1 * -2 + z1 ** 2]), (0.2, 1e-200))]:
        plan = residue.QuadraturePlan(field, 256)
        components, numerator = plan.unit_torus(radii)
        grid = _grid_value(components, numerator, 256, plan.circle)
        fast = grothendieck_residue_numeric(ResidueQuery(field=field, radii=radii))
        assert abs(grid - fast) < 1e-9 * abs(fast), (radii, grid, fast)


# 96 in three variables has rows of 96^2 > GRID_BLOCK points, which the
# grid path splits along axis 1 into unequal blocks
GRID_SAMPLE_COUNTS = (4, 5, 7, 8, 33, 64, 96, 255, 256)
GRID_RADIUS = 1e-3


def random_grid_field(rng, m):
    """Diagonal linear part, a 1/1000 coupling to the next variable and two
    quadratic terms in other variables per component: not separable, and at
    ``GRID_RADIUS`` every term beyond the diagonal is below 1/1000 of it, so
    the trapezoid sum's aliasing error at 4 samples is near 1e-12."""
    z = [MultiPoly.variable(m, i) for i in range(m)]
    components = []
    for i in range(m):
        comp = z[i] * MultiPoly.constant(m, rng.choice([-4, -3, -2, 2, 3, 4]))
        if i + 1 < m:
            comp = comp + z[i + 1] * MultiPoly.constant(m, Fraction(rng.choice([-1, 1]), 1000))
        for _ in range(2):
            j = rng.choice([k for k in range(m) if k != i])
            comp = comp + z[j] * z[rng.randrange(m)] * MultiPoly.constant(
                m, Fraction(rng.choice([-2, -1, 1, 2]), 2))
        components.append(comp)
    return PolyVectorField(components)


def linear_part_residue(field):
    """``tr(J(0))^m / det J(0)``, exact, for a field with a nondegenerate zero."""
    m = field.ambient_dim
    jac = [[comp.terms.get(tuple(int(k == j) for k in range(m)), Fraction(0))
            for j in range(m)] for comp in field.components]
    det = Fraction(1)  # upper-triangular linear part
    for i in range(m):
        det *= jac[i][i]
    return sum(jac[i][i] for i in range(m)) ** m / det


def full_grid(radii, count):
    """Every point of the sample torus, one array per axis."""
    circle = np.exp(2j * np.pi * np.arange(count) / count)
    return np.meshgrid(*[r * circle for r in radii], indexing="ij")


def evaluate_on_grid(poly, grid):
    total = np.zeros(grid[0].shape, dtype=complex)
    for exps, coeff in poly.terms.items():
        term = complex(coeff)
        for axis, e in zip(grid, exps):
            term = term * axis ** e
        total += term
    return total


def brute_force_grid_sum(field, radii, count):
    """The trapezoid sum over every point of the full grid, straight from the
    definition: mean of ``tr(J)^m * prod z_i / prod X_i``."""
    grid = full_grid(radii, count)
    value = evaluate_on_grid(field.jacobian_trace() ** field.ambient_dim, grid)
    for axis, comp in zip(grid, field.components):
        value = value * axis / evaluate_on_grid(comp, grid)
    return complex(np.mean(value))


def test_grid_path_matches_linear_part_and_brute_force():
    rng = random.Random(1101)
    for m in (2, 3):
        for count in GRID_SAMPLE_COUNTS:
            if count ** m > QUADRATURE_BUDGET:
                continue
            for _ in range(2):
                field = random_grid_field(rng, m)
                radii = (GRID_RADIUS,) * m
                value = grothendieck_residue_numeric(
                    ResidueQuery(field=field, radii=radii, samples_per_circle=count))
                want = float(linear_part_residue(field))
                brute = brute_force_grid_sum(field, radii, count)
                scale = max(1.0, abs(want))
                assert value.imag == 0.0, (m, count)
                assert abs(value - want) < 1e-9 * scale, (m, count, value, want)
                # the same sum in another order: round-off apart only
                assert abs(value - brute) < 1e-11 * scale, (m, count, value, brute)


def test_grid_path_with_traceless_field_is_exactly_zero():
    z0 = MultiPoly.variable(2, 0)
    z1 = MultiPoly.variable(2, 1)
    two, three = MultiPoly.constant(2, 2), MultiPoly.constant(2, 3)
    # tr J = 1 - 1; then no component involves the row variable z0, so a
    # block of one row (the last of 256 samples) sums the scalar 0
    for field in (PolyVectorField([z0 + z1 * z1, -z1]), PolyVectorField([two + z1, three])):
        assert field.jacobian_trace().terms == {}
        for count in (4, 5, 256):
            value = grothendieck_residue_numeric(
                ResidueQuery(field=field, radii=(0.5, 0.5), samples_per_circle=count))
            assert value == 0 and value.imag == 0.0


def perturbed_in(m):
    # X = (z0 + z1^2, z1, ..., z_{m-1}): not separable
    z = [MultiPoly.variable(m, i) for i in range(m)]
    return PolyVectorField([z[0] + z[1] ** 2] + z[1:])


@pytest.mark.parametrize("field, count", [
    (perturbed_field(), 2048),
    (perturbed_in(3), 161),
    (perturbed_in(11), 4),  # a slice of axis 1 is 4^9 points
    (PolyVectorField.diagonal([1, 2]), QUADRATURE_BUDGET // 2),
], ids=["grid-2x2048", "grid-3x161", "grid-11x4", "per-axis-2x2^21"])
def test_quadrature_memory_stays_flat_at_the_budget(field, count):
    # a block array is GRID_BLOCK * 16 bytes = 64 KiB; a few of them and the
    # per-axis tables fit in 1 MiB, whatever the number of torus points
    bound = 2**20
    query = ResidueQuery(field=field, radii=(0.5,) * field.ambient_dim,
                         samples_per_circle=count)
    grothendieck_residue_numeric(ResidueQuery(field=field, radii=query.radii,
                                              samples_per_circle=min(count, 8)))
    tracemalloc.start()
    try:
        grothendieck_residue_numeric(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"traced peak {peak} bytes"


def coupled_ring(m):
    # X_i = z_i + z_i z_{i+1 mod m}: every variable in two components, and a
    # numerator tr(J)^m with terms in all of them (252 for m = 5)
    z = [MultiPoly.variable(m, i) for i in range(m)]
    return PolyVectorField([z[i] + z[i] * z[(i + 1) % m] for i in range(m)])


@pytest.mark.parametrize("count", [12, 16, 21])
def test_grid_tables_are_made_per_slab(count):
    # the coefficient tables hold one slab of the other axes, at most
    # GRID_BLOCK points each, not samples^(m-1) points
    field = coupled_ring(5)
    query = ResidueQuery(field=field, radii=(0.5,) * 5, samples_per_circle=count)
    assert len((field.jacobian_trace() ** 5).terms) == 252
    grothendieck_residue_numeric(ResidueQuery(field=field, radii=query.radii, samples_per_circle=4))
    tracemalloc.start()
    try:
        grothendieck_residue_numeric(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"traced peak {peak} bytes"


def renamed_field(field, order):
    """``field`` with variable ``order[j]`` renamed ``z_j``, its components
    in the new order."""
    m = field.ambient_dim
    return PolyVectorField([
        MultiPoly(m, {tuple(exps[k] for k in order): coeff
                      for exps, coeff in field.components[k].terms.items()})
        for k in order])


def test_the_grid_is_the_same_along_any_row_axis():
    """Renaming the variables (components, exponents and radii together)
    changes only the axis the rows run along and the order of the sum: the
    value agrees to round-off with the field's own and with the sum over
    the full grid, and each axis is picked as the row axis for some field."""
    rng = random.Random(1901)
    axes = set()
    for _ in range(4):
        field = random_grid_field(rng, 3)
        radii = tuple(GRID_RADIUS * rng.choice([0.5, 1.0, 2.0]) for _ in range(3))
        for count in (8, 33, 64):
            value = grothendieck_residue_numeric(ResidueQuery(field, radii, count))
            scale = max(1.0, abs(value))
            for order in itertools.permutations(range(3)):
                renamed = renamed_field(field, order)
                moved = tuple(radii[k] for k in order)
                axes.add(residue.QuadraturePlan(renamed, count).axis)
                other = grothendieck_residue_numeric(ResidueQuery(renamed, moved, count))
                brute = brute_force_grid_sum(renamed, moved, count)
                assert abs(other - value) < 1e-12 * scale, (order, count, other, value)
                assert abs(other - brute) < 1e-12 * scale, (order, count, other, brute)
    assert axes == {0, 1, 2}


@pytest.mark.parametrize("count", [8, 16])
def test_a_row_constant_component_is_still_guarded(count):
    """``z1 + z2`` has two terms of equal modulus, so no bound proves it,
    and it vanishes where ``z2 = -z1``, on every row; the torus is refused
    whichever component it is, although the grid would evaluate it once
    per slab, not once per row."""
    z = [MultiPoly.variable(3, i) for i in range(3)]
    for components, constant in [([z[0], z[1] + z[2], z[2]], 1),
                                 ([z[0] + z[1], z[1], z[2]], None),
                                 ([z[0], z[1], z[1] + z[2]], 2)]:
        field = PolyVectorField(components)
        plan = residue.QuadraturePlan(field, count)
        if constant is not None:
            assert plan.axis not in components[constant].involved_variables()
        with pytest.raises(DenominatorNearZeroOnTorus):
            grothendieck_residue_numeric(ResidueQuery(field, (1.0,) * 3, count))


def test_the_sweep_plans_once_and_rows_skip_row_constant_components(monkeypatch):
    """One ``tr(J_X)`` per sweep; on the grid, a component that does not
    involve the row variable is tabulated once per slab and never evaluated
    per row."""
    traces = []
    jacobian_trace = PolyVectorField.jacobian_trace
    monkeypatch.setattr(PolyVectorField, "jacobian_trace",
                        lambda self: traces.append(self) or jacobian_trace(self))
    z = [MultiPoly.variable(3, i) for i in range(3)]
    # rows along z0, which X_0 alone involves; X_1 and X_2 are row-constant
    field = PolyVectorField([z[0] * 3 + z[1] * z[2], z[1] * -2 + z[2] ** 2, z[2] * 5])
    query = ResidueQuery(field=field, radii=(0.1, 0.1, 0.1), samples_per_circle=96)
    residue_with_sweep(query, (0.8, 1.0, 1.2))
    assert len(traces) == 1
    assert residue.QuadraturePlan(field, 96).axis == 0

    tables, rows = [], []
    first_axis_tables, horner = residue._first_axis_tables, residue._horner
    monkeypatch.setattr(residue, "_first_axis_tables",
                        lambda terms, *rest: tables.append(terms) or first_axis_tables(terms, *rest))
    monkeypatch.setattr(residue, "_horner", lambda t, z0: rows.append(t) or horner(t, z0))
    value = grothendieck_residue_numeric(query)
    assert abs(value - (3 - 2 + 5) ** 3 / (3 * -2 * 5)) < 1e-9
    # 96^2 points per row: slabs of 42, 42 and 12 indices of z1, 49 rows each
    slabs, blocks = 3, 3 * (96 // 2 + 1)
    assert len(tables) == slabs * 4  # the numerator and each component, once per slab
    assert len(rows) == blocks * 2  # the numerator and X_0, once per row


def blockwise_separable_value(components, numerator, count):
    """The per-axis sum made the plain way: fresh samples for every block,
    each power ``s ** e`` per (axis, exponent) and again for every mean, and
    ``np.sum``; the same float operations in the same order as the
    quadrature, so the two agree bit for bit."""
    m = len(components)
    moments = [sorted({exps[i] + 1 for exps, _ in numerator}) for i in range(m)]
    sums = {}
    with np.errstate(all="ignore"):
        for start in range(0, count, GRID_BLOCK):
            circle = residue._axis_samples(count, start, min(start + GRID_BLOCK, count))
            for i in range(m):
                powers, values = {}, 0
                for exps, term in components[i]:
                    for k, e in enumerate(exps):
                        if e:
                            if (k, e) not in powers:
                                powers[k, e] = circle ** e
                            term = term * powers[k, e]
                    values = values + term
                for p in moments[i]:
                    part = np.sum(circle ** p / values)
                    sums[i, p] = sums[i, p] + part if start else part
        total = complex(0)
        for exps, term in numerator:
            for i, e in enumerate(exps):
                term *= complex(sums[i, e + 1] / count)
            total += term
    return total


@st.composite
def separable_fields(draw):
    """Fields whose component ``i`` is a polynomial in ``z_i`` alone with a
    dominant term ``c z_i^k`` (``k`` from 0 to 3) and up to three smaller
    ones, with radii; most pass the certificate."""
    m = draw(st.integers(1, 3))
    components = []
    for i in range(m):
        z = MultiPoly.variable(m, i)
        top = draw(st.integers(0, 3))
        comp = z ** top * MultiPoly.constant(m, draw(st.sampled_from([-40, -12, 10, 25])))
        for e in draw(st.lists(st.integers(0, 5).filter(lambda e: e != top), max_size=3, unique=True)):
            comp = comp + z ** e * MultiPoly.constant(
                m, Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 4))))
        components.append(comp)
    radii = tuple(draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])) for _ in range(m))
    return PolyVectorField(components), radii


@settings(max_examples=60, derandomize=True, deadline=None)
@given(separable_fields(), st.sampled_from([4, 256, 4096, 4097, 9000]))
def test_the_per_axis_sum_keeps_its_bits(case, count):
    """Sampling the first block once per plan and each power once per block
    changes no bit of the per-axis value, in one block or several."""
    field, radii = case
    plan = residue.QuadraturePlan(field, count)
    assert plan.separable
    try:
        components, numerator = plan.unit_torus(radii)
    except DenominatorNearZeroOnTorus:
        assume(False)
    want = blockwise_separable_value(components, numerator, count)
    assert grothendieck_residue_numeric(ResidueQuery(field, radii, count)) == want


@pytest.mark.parametrize("field, count, calls", [
    (PolyVectorField.diagonal([1, 2]), 256, 1),
    (perturbed_field(), 256, 1),
    (PolyVectorField.diagonal([1, 2]), GRID_BLOCK, 1),
    (PolyVectorField.diagonal([1, 2]), 9000, 1 + 3 * 2),  # blocks of 4096, 4096 and 808
], ids=["per-axis-256", "grid-256", "per-axis-4096", "per-axis-9000"])
def test_a_sweep_samples_its_first_block_once(monkeypatch, field, count, calls):
    """A plan samples the first block of the unit circle once for the whole
    sweep; the per-axis path makes each later block at every radius."""
    made = []
    axis_samples = residue._axis_samples
    monkeypatch.setattr(residue, "_axis_samples",
                        lambda *args: made.append(args) or axis_samples(*args))
    query = ResidueQuery(field=field, radii=(0.5, 0.5), samples_per_circle=count)
    residue_with_sweep(query, (0.8, 1.0, 1.2))
    assert len(made) == calls, made


def test_the_grid_circle_fits_in_the_first_block():
    assert math.isqrt(QUADRATURE_BUDGET) < GRID_BLOCK, (
        "the grid reads its whole circle from the plan's first block, "
        "QuadraturePlan.circle, which holds at most GRID_BLOCK samples")


def test_the_power_comes_after_the_size_checks(monkeypatch):
    """A plan builds ``tr(J_X)^m`` only at the first radius whose checks
    pass, so ``QUADRATURE_BUDGET`` and the certificate are refused first;
    a plan made for another field or sample count is refused."""
    class Powered(Exception):
        pass

    def power(self, exponent):
        raise Powered

    monkeypatch.setattr(MultiPoly, "__pow__", power)
    field = perturbed_field()
    with pytest.raises(ValidationError, match="QUADRATURE_BUDGET"):
        residue_with_sweep(ResidueQuery(field, (0.5, 0.5), 4096))
    with pytest.raises(DenominatorNearZeroOnTorus):  # x1^2 outweighs x0
        residue_with_sweep(ResidueQuery(field, (1e10, 1e150), 8))
    with pytest.raises(Powered):
        residue_with_sweep(ResidueQuery(field, (0.5, 0.5), 8))
    plan = residue.QuadraturePlan(field, 8)
    for query in (ResidueQuery(field, (0.5, 0.5), 16),
                  ResidueQuery(perturbed_field(), (0.5, 0.5), 8)):
        with pytest.raises(ValidationError, match="another field or sample count"):
            grothendieck_residue_numeric(query, plan)


def random_torus_field(rng, m):
    """Components of two to four terms, so that on a random torus one term
    dominates some of them and not others."""
    components = []
    for _ in range(m):
        comp = MultiPoly.constant(m, 0)
        for _ in range(rng.randint(2, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(m))
            coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9))
            comp = comp + MultiPoly(m, {exps: coeff})
        components.append(comp)
    return PolyVectorField(components)


def test_a_proved_guard_holds_on_the_whole_grid():
    """Whenever ``_certify`` proves ``X_i``, ``|X_i|`` stays at or above
    ``DENOMINATOR_GUARD`` times its largest term at every point of the full
    grid, evaluated term by term from the definition, and above zero on
    grids of the face ``{|z_i| = r_i, |z_j| <= r_j}``, whose other radii
    are shrunk; its unit-torus coefficients are at most 1 in modulus, the
    top one +-1, and sum to the certified ratio.  Every other component is
    refused, naming it."""
    rng = random.Random(1801)
    proved = refused = 0
    for _ in range(300):
        m = rng.randint(1, 3)
        field = random_torus_field(rng, m)
        radii = tuple(rng.choice([0.5, 1.0, 2.0]) for _ in range(m))
        grid = full_grid(radii, 16)
        for i, comp in enumerate(field.components):
            try:
                scaled, top, ratio = residue._certify(field, i, _log_terms(comp),
                                                      [math.log(r) for r in radii])
            except DenominatorNearZeroOnTorus as exc:
                assert str(exc).startswith(f"X_{i} = {comp.to_str()} ")
                refused += 1
                continue
            moduli = sorted(abs(c) for _, c in scaled)
            assert moduli[-1] == 1.0 and all(x < 1.0 for x in moduli[:-1]), (comp, radii)
            assert dict(scaled)[top[0]] == top[1] and abs(sum(moduli) - ratio) < 1e-12
            largest = max(abs(complex(c)) * math.prod(r ** e for r, e in zip(radii, exps))
                          for exps, c in comp.terms.items())
            low = np.min(np.abs(evaluate_on_grid(comp, grid)))
            assert low >= residue.DENOMINATOR_GUARD * largest, (comp, radii)
            for shrink in (0.0, 0.3, 0.7):
                face = [r if j == i else r * shrink for j, r in enumerate(radii)]
                assert np.min(np.abs(evaluate_on_grid(comp, full_grid(face, 16)))) > 0
            proved += 1
    assert proved > 100 and refused > 100, (proved, refused)
    # the tori that the quadrature tests run on are all certified
    rng = random.Random(1802)
    cases = [(PolyVectorField.diagonal([1, 2]), (1.0, 1.0)),
             (perturbed_field(), (0.5, 0.5)),
             (perturbed_in(3), (0.5, 0.5, 0.5))]
    for m in (2, 3, 3):
        cases.append((random_grid_field(rng, m), (GRID_RADIUS,) * m))
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    cases.append((PolyVectorField([z0 * 3 + z0 ** 3, z1 * -2 + z1 ** 2]), (0.2, 0.2)))
    for field, radii in cases:
        for i, comp in enumerate(field.components):
            residue._certify(field, i, _log_terms(comp), [math.log(r) for r in radii])


def test_fields_without_a_dominant_own_power_are_refused():
    """Where the largest term involves another variable, where it does not
    outweigh the others, or where the component is past the size cap, the
    torus is refused before any sample exists, on both paths, with a
    message for each reason; a zero ``X_i`` has no largest term.  A term
    too small for a float is no reason: ``z0^10`` at radius 1e-150 is
    certified, and only its torus sum bound, about 10^1350, refuses it."""
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    another = r"has no dominant term in x\d alone on the torus \(largest: "
    outweigh = r"is not certified on the torus: its largest term, .*, does not outweigh the sum"
    cases = [(PolyVectorField([z0 + z1, z1]), 0, 1.0, outweigh),  # grid, zero where z0 = -z1
             (perturbed_field(), 0, 1.0, outweigh),  # grid, zero where z0 = -z1^2
             (perturbed_field(), 0, 1.25, another),  # grid, z1^2 is the largest
             (PolyVectorField([z0 + z0 * z0, z1]), 0, 1.0, outweigh),  # per axis, zero at -1
             (PolyVectorField([z0, MultiPoly.constant(2, 0)]), 1, 1.0, another + "none"),
             (PolyVectorField([z0 ** 600, z1]), 0, 1.0,
              r"is past the size cap: terms \+ 2\^11 \* degree = 1228801 > 2\^20")]
    for field, i, r, reason in cases:
        message = f"X_{i} = {re.escape(field.components[i].to_str())} {reason}"
        with pytest.raises(DenominatorNearZeroOnTorus, match=message):
            residue._certify(field, i, _log_terms(field.components[i]), [math.log(r)] * 2)
        with pytest.raises(DenominatorNearZeroOnTorus, match=message):
            grothendieck_residue_numeric(ResidueQuery(field=field, radii=(r, r)))
    tiny = PolyVectorField([z0 ** 10, z1])
    residue._certify(tiny, 0, _log_terms(tiny.components[0]), [math.log(1e-150)] * 2)
    with pytest.raises(DenominatorOutOfFloatRange, match="10\\^1350.0"):
        grothendieck_residue_numeric(ResidueQuery(field=tiny, radii=(1e-150, 1e-150)))


def exact_residue_sum(field, radii):
    """``sum tr(J(a))^m / det J(a)`` over the zeros ``a`` of a 2-variable
    field inside the polydisc of ``radii``, from a lex Groebner basis in
    shape position (``z0 - p(z1)``, ``g(z1)``) and the roots of ``g`` to 30
    digits; None when the basis is not in that shape or a zero is not
    simple."""
    import sympy

    s0, s1 = sympy.symbols("s0 s1")
    comps = [sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                   for e, c in comp.terms.items()}, s0, s1).as_expr()
             for comp in field.components]
    basis = sympy.groebner(comps, s0, s1, order="lex")
    if len(basis) != 2 or sympy.degree(basis[0], s0) != 1 or basis[1].has(s0):
        return None
    p = sympy.solve(basis[0], s0)[0]
    jac = sympy.Matrix(comps).jacobian([s0, s1])
    h, det = jac.trace() ** 2, jac.det()
    total = 0
    for root in sympy.Poly(basis[1], s1).nroots(n=30, maxsteps=500):
        point = {s1: root, s0: p.subs(s1, root)}
        d = complex(det.subs(point).evalf(30))
        if abs(d) < 1e-6:
            return None
        if all(abs(complex(point[s].evalf(30))) < r for s, r in zip((s0, s1), radii)):
            total += complex(h.subs(point).evalf(30)) / d
    return total


def test_a_certified_torus_sums_the_residues_inside():
    """On certified tori of 2-variable fields whose zeros are simple, the
    quadrature equals ``sum tr J(a)^2 / det J(a)`` over the zeros inside
    the polydisc (the Rouche principle for residues), to 1e-9; the fields
    the certificate refuses are skipped.  One pinned field has four zeros
    inside and sums to 8."""
    pytest.importorskip("sympy")
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    pinned = PolyVectorField([z0 ** 2 + z1 * Fraction(1, 100), z1 ** 2 + z0 * Fraction(1, 50)])
    assert abs(grothendieck_residue_numeric(ResidueQuery(pinned, (0.5, 0.5))) - 8) < 1e-9
    assert abs(exact_residue_sum(pinned, (0.5, 0.5)) - 8) < 1e-9
    rng = random.Random(2201)
    checked = 0
    while checked < 12:
        components = []
        for i in range(2):
            # a power of z_i leads, or now and then a monomial the certificate refuses
            lead = ((rng.randint(0, 2), rng.randint(0, 2)) if rng.random() < 0.3
                    else tuple(rng.randint(1, 2) if j == i else 0 for j in range(2)))
            comp = MultiPoly.monomial(2, lead, rng.choice([-3, -2, 1, 2]))
            for _ in range(rng.randint(1, 3)):
                exps = (rng.randint(0, 2), rng.randint(0, 2))
                comp = comp + MultiPoly.monomial(2, exps, Fraction(rng.choice([-9, -4, 3, 7]), 40))
            components.append(comp)
        field = PolyVectorField(components)
        radii = (rng.choice([0.4, 0.6]), rng.choice([0.4, 0.6]))
        try:
            value = grothendieck_residue_numeric(ResidueQuery(field, radii))
        except DenominatorNearZeroOnTorus:
            continue
        want = exact_residue_sum(field, radii)
        if want is None:
            continue
        assert abs(value - want) < 1e-9 * max(1.0, abs(want)), (field, radii, value, want)
        checked += 1


def test_perturbed_residue_is_stable():
    query = ResidueQuery(field=perturbed_field(), radii=(0.5, 0.5))
    value = grothendieck_residue_numeric(query)
    assert abs(value - 4.0) < 1e-9


def test_residue_deterministic():
    query = ResidueQuery(field=perturbed_field(), radii=(0.5, 0.5))
    assert grothendieck_residue_numeric(query) == grothendieck_residue_numeric(query)


def test_denominator_guard_trips():
    # at radii (1,1) the grid contains exact zeros of z0 + z1^2
    query = ResidueQuery(field=perturbed_field(), radii=(1.0, 1.0))
    with pytest.raises(DenominatorNearZeroOnTorus):
        grothendieck_residue_numeric(query)
    # separable path: z0 + 1 vanishes at the angle-pi sample
    z0 = MultiPoly.variable(2, 0)
    z1 = MultiPoly.variable(2, 1)
    shifted = PolyVectorField([z0 + MultiPoly.constant(2, 1), z1])
    with pytest.raises(DenominatorNearZeroOnTorus):
        grothendieck_residue_numeric(ResidueQuery(field=shifted, radii=(1.0, 1.0)))


def test_the_torus_guard_scales_with_the_torus():
    """On a diagonal field every quotient ``z_i / X_i`` is the constant
    ``1 / lambda_i``, so the residue is the same on every torus: the guard
    compares each ``|X_i|`` with its largest term there, not with an
    absolute floor.  A field with a zero on the torus still trips it at any
    scale, on both paths."""
    diagonal = PolyVectorField.diagonal([1, 2])
    for r in (1e-5, 1e-7, 1e-100):
        for radii in [(r, r)] + [tuple(f * r for _ in range(2)) for f in residue.DEFAULT_SWEEP]:
            value = grothendieck_residue_numeric(ResidueQuery(field=diagonal, radii=radii))
            assert abs(value - 4.5) < 1e-9
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    for r in (1e-7, 1.0, 1e7):
        shifted = PolyVectorField([z0 + MultiPoly.constant(2, Fraction(r)), z1])  # zero at angle pi
        with pytest.raises(DenominatorNearZeroOnTorus):
            grothendieck_residue_numeric(ResidueQuery(field=shifted, radii=(r, r)))
        grid = PolyVectorField([z0 * z0 + z1 * z1, z1])  # zero where z0 = +-i z1
        with pytest.raises(DenominatorNearZeroOnTorus):
            grothendieck_residue_numeric(ResidueQuery(field=grid, radii=(r, r)))


def test_denominators_past_the_float_range_are_refused():
    """On the unit torus no radius reaches a sample: the diagonal field
    gives 4.5 from the largest radius to the smallest.  Only a torus sum
    whose bound passes the float range is refused, before sampling, on
    either path: a coefficient 10^400 makes the residue about 10^400."""
    diagonal = PolyVectorField.diagonal([1, 2])
    for r in (1e200, 1e308, 5e-324):
        value = grothendieck_residue_numeric(ResidueQuery(field=diagonal, radii=(r, r)))
        assert abs(value - 4.5) < 1e-9, (r, value)
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    huge = z0 * MultiPoly.constant(2, 10 ** 400)
    for field in (PolyVectorField([huge, z1]), PolyVectorField([huge + z1 ** 2, z1])):
        with pytest.raises(DenominatorOutOfFloatRange, match="10\\^400.0"):
            grothendieck_residue_numeric(ResidueQuery(field=field, radii=(1.0, 1.0)))


def test_tori_of_extreme_radii_give_finite_values_or_refuse():
    """Random fields in one to three variables, each component led by a
    power of its own variable, on tori of radii 10^k for k in [-300, 300]:
    every quadrature returns a finite value or raises a ``ToolkitError``,
    and most certified tori are answered."""
    rng = random.Random(2301)
    answered = refused = 0
    for _ in range(150):
        m = rng.randint(1, 3)
        components = []
        for i in range(m):
            lead = tuple(rng.randint(1, 3) if j == i else 0 for j in range(m))
            comp = MultiPoly.monomial(m, lead, rng.choice([-3, 1, 2]))
            for _ in range(rng.randint(0, 3)):
                exps = tuple(rng.randint(0, 3) for _ in range(m))
                coeff = Fraction(rng.choice([-1, 1]), rng.choice([1, 7])) * Fraction(10) ** \
                    rng.randint(-30, 30)
                comp = comp + MultiPoly.monomial(m, exps, coeff)
            components.append(comp)
        field = PolyVectorField(components)
        radii = tuple(10.0 ** rng.randint(-300, 300) for _ in range(m))
        try:
            value = grothendieck_residue_numeric(ResidueQuery(field, radii, 16))
        except ToolkitError:
            refused += 1
            continue
        assert cmath.isfinite(value), (field, radii, value)
        answered += 1
    assert answered > 50 and refused > 20, (answered, refused)


def test_tori_that_read_nan_at_the_parent_give_the_residue():
    """Sampled at their radii, these tori overflowed or underflowed to a
    NaN sum.  (z0 + z0^400, z1, z2) at radius 2 now gives a finite value
    (wrong at 256 samples: its numerator of degree 1197 aliases).  The
    residue of (x0 + x0^300 x1 + x1^2, x1 + x0^200) at 1e-300 is
    tr J(0)^2 / det J(0) = 4."""
    z = [MultiPoly.variable(3, i) for i in range(3)]
    wide = PolyVectorField([z[0] + z[0] ** 400, z[1], z[2]])
    assert cmath.isfinite(grothendieck_residue_numeric(ResidueQuery(wide, (2.0,) * 3)))
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    tiny = PolyVectorField([z0 + z0 ** 300 * z1 + z1 ** 2, z1 + z0 ** 200])
    assert grothendieck_residue_numeric(ResidueQuery(tiny, (1e-300, 1e-300), 32)) == 4.0


def test_sweep_returns_base_value_and_spread():
    field = PolyVectorField.diagonal([1, 2])
    query = ResidueQuery(field=field, radii=(1.0, 1.0))
    base, spread = residue_with_sweep(query, (0.8, 1.0, 1.2))
    assert abs(base - 4.5) < 1e-9
    assert spread < 1e-9
    with pytest.raises(ValidationError):
        residue_with_sweep(query, ())


def test_sweep_flags_escaping_pole():
    """Growing the torus of (z0 + z1^2, z1) to radius 1.25 makes z1^2 the
    largest term of X_0, so that torus is refused.  (2 z0 + z0^2, z1) is
    certified at radius 1 and at 2.5, where its zero at z0 = -2 has
    entered the polydisc: 9/2 there becomes 9/2 - 1/2, and the sweep must
    notice."""
    query = ResidueQuery(field=perturbed_field(), radii=(0.5, 0.5))
    with pytest.raises(DenominatorNearZeroOnTorus, match=r"X_0 = x0 \+ x1\^2"):
        residue_with_sweep(query, (1.0, 2.5))
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    field = PolyVectorField([z0 * 2 + z0 ** 2, z1])
    values = [grothendieck_residue_numeric(ResidueQuery(field, (r, r))) for r in (1.0, 2.5)]
    assert abs(values[0] - 4.5) < 1e-9 and abs(values[1] - 4.0) < 1e-9, values
    with pytest.raises(NonIsolatedSuspected):
        residue_with_sweep(ResidueQuery(field, (1.0, 1.0)), (1.0, 2.5))


def test_diagonal_weights_detector():
    assert diagonal_weights(PolyVectorField.diagonal([1, 2])) == (1, 2)
    assert diagonal_weights(perturbed_field()) is None
    z0 = MultiPoly.variable(1, 0)
    assert diagonal_weights(PolyVectorField([z0 * z0])) is None


def test_build_residue_report_diagonal():
    report = build_residue_report(lambdas=[1, 2], c=3)
    assert abs(report.numeric - 4.5) < 1e-9
    assert report.closed_form == Fraction(9, 2)
    assert report.kupka_degree == 2
    assert report.integrality is not None and report.integrality.realizable
    assert report.radius_sweep_spread < 1e-9


def test_build_residue_report_field_only():
    report = build_residue_report(
        field=perturbed_field(), radii=(0.5, 0.5), sweep_factors=(0.8, 1.0, 1.2)
    )
    assert abs(report.numeric - 4.0) < 1e-9
    assert report.closed_form is None
    assert report.kupka_degree is None and report.integrality is None
    with pytest.raises(ValidationError):
        build_residue_report()
