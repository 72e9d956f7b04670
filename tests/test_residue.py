import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from foliatk.errors import (
    DenominatorNearZeroOnTorus,
    DenominatorOutOfFloatRange,
    DimensionMismatch,
    NonIsolatedSuspected,
    ValidationError,
)
from foliatk.forms import PolyVectorField
from foliatk.polynomials import MultiPoly
from foliatk import residue
from foliatk.residue import (
    PRODUCT_BUDGET,
    QUADRATURE_BUDGET,
    ResidueQuery,
    _axis_samples,
    _complex_terms,
    _grid_value,
    _separable_value,
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


def test_kupka_degree_pinned():
    assert kupka_degree([1, 1], 4) == 4
    assert kupka_degree([2, 3], 5) == 6
    assert kupka_degree([1, 2], 3) == 2
    with pytest.raises(ValidationError):
        kupka_degree([1, 2], 0)


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


def test_guards_trip_on_nan():
    field = PolyVectorField.diagonal([1, 2])
    numerator = field.jacobian_trace() ** 2
    nan_axis = np.full(8, complex(math.nan, 0))
    samples = [nan_axis, _axis_samples(1.0, 8)]
    components = [_complex_terms(comp) for comp in field.components]
    with pytest.raises(DenominatorNearZeroOnTorus):
        _grid_value(components, numerator, (1.0, 1.0), samples)
    with pytest.raises(DenominatorNearZeroOnTorus):
        _separable_value(components, numerator, (math.nan, 1.0), 8)
    with pytest.raises(NonIsolatedSuspected):
        residue_with_sweep(ResidueQuery(field=field, radii=(1.0, 1.0)), (1.0,), math.nan)


def test_quadrature_budget_is_checked_before_sampling(monkeypatch):
    class Sampled(Exception):
        pass

    def sample(radius, count, *block):
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
    for field, count in within:
        query = ResidueQuery(field=field, radii=(1.0,) * field.ambient_dim,
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
    field = PolyVectorField.diagonal([1, 2])
    samples = [_axis_samples(1.0, 256), _axis_samples(1.0, 256)]
    numerator = field.jacobian_trace() ** 2
    grid = _grid_value([_complex_terms(comp) for comp in field.components], numerator,
                       (1.0, 1.0), samples)
    fast = grothendieck_residue_numeric(ResidueQuery(field=field, radii=(1.0, 1.0)))
    assert abs(grid - fast) < 1e-9


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
    field = PolyVectorField([z0 + z1 * z1, -z1])  # tr J = 1 - 1
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
    and it vanishes where ``z2 = -z1``, on every row; the grid must check
    it although it is evaluated once per slab, not once per row."""
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


def test_the_power_comes_after_the_size_checks(monkeypatch):
    """A plan builds ``tr(J_X)^m`` only at the first radius whose checks
    pass, so ``QUADRATURE_BUDGET`` and the float range are refused first;
    a plan made for another field or sample count is refused."""
    class Powered(Exception):
        pass

    def power(self, exponent):
        raise Powered

    monkeypatch.setattr(MultiPoly, "__pow__", power)
    field = perturbed_field()
    with pytest.raises(ValidationError, match="QUADRATURE_BUDGET"):
        residue_with_sweep(ResidueQuery(field, (0.5, 0.5), 4096))
    with pytest.raises(DenominatorOutOfFloatRange):
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
    """Whenever ``_guard`` proves a component, ``|X_i|`` stays at or above the
    threshold ``DENOMINATOR_GUARD`` times its largest term at every point of
    the full grid, evaluated term by term from the definition."""
    rng = random.Random(1801)
    proved = sampled = 0
    for _ in range(300):
        m = rng.randint(1, 3)
        field = random_torus_field(rng, m)
        radii = tuple(rng.choice([0.5, 1.0, 2.0]) for _ in range(m))
        grid = full_grid(radii, 16)
        for comp in field.components:
            if residue._guard(_complex_terms(comp), radii) is None:
                largest = max(abs(complex(c)) * math.prod(r ** e for r, e in zip(radii, exps))
                              for exps, c in comp.terms.items())
                low = np.min(np.abs(evaluate_on_grid(comp, grid)))
                assert low >= residue.DENOMINATOR_GUARD * largest, (comp, radii)
                proved += 1
            else:
                sampled += 1
    assert proved > 100 and sampled > 100, (proved, sampled)


def test_the_proof_keeps_every_bit(monkeypatch):
    """The proof only skips checks: with it disabled every sample is checked
    and the residue is the same to the bit, on both paths."""
    rng = random.Random(1802)
    cases = [(PolyVectorField.diagonal([1, 2]), (1.0, 1.0), 256),
             (perturbed_field(), (0.5, 0.5), 256),
             (perturbed_in(3), (0.5, 0.5, 0.5), 96)]
    for m, count in ((2, 64), (3, 33), (3, 96)):
        cases.append((random_grid_field(rng, m), (GRID_RADIUS,) * m, count))
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    cases.append((PolyVectorField([z0 * 3 + z0 ** 3, z1 * -2 + z1 ** 2]), (0.2, 0.2), 512))

    def bits(value):
        return value.real.hex(), value.imag.hex()

    real = residue._guard
    assert all(real(_complex_terms(comp), radii) is None
               for field, radii, _ in cases for comp in field.components)
    values = [bits(grothendieck_residue_numeric(ResidueQuery(field, radii, count)))
              for field, radii, count in cases]
    # doubling every term keeps the largest one, and so the threshold, but
    # drops the bound T_1 - (S - T_1) to 2 (T_1 - S) <= 0: nothing is proved
    monkeypatch.setattr(residue, "_guard", lambda terms, radii: real(terms + terms, radii))
    assert all(residue._guard(_complex_terms(comp), radii) is not None
               for field, radii, _ in cases for comp in field.components)
    assert values == [bits(grothendieck_residue_numeric(ResidueQuery(field, radii, count)))
                      for field, radii, count in cases]


def test_fields_without_a_dominant_term_are_sampled():
    """Where no term outweighs the others the bound proves nothing, and the
    zeros of ``X_i`` on the torus trip the guard on both paths; so do a zero
    ``X_i`` and one whose only term is below the smallest normal float."""
    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    cases = [(PolyVectorField([z0 + z1, z1]), 0, 1.0),  # grid, zero where z0 = -z1
             (perturbed_field(), 0, 1.0),  # grid, zero where z0 = -z1^2
             (PolyVectorField([z0 + z0 * z0, z1]), 0, 1.0),  # per axis, zero at z0 = -1
             (PolyVectorField([z0, MultiPoly.constant(2, 0)]), 1, 1.0),
             (PolyVectorField([z0 ** 10, z1]), 0, 1e-150)]  # 1e-1500 reads 0
    for field, i, r in cases:
        assert residue._guard(_complex_terms(field.components[i]), (r, r)) is not None
        with pytest.raises(DenominatorNearZeroOnTorus):
            grothendieck_residue_numeric(ResidueQuery(field=field, radii=(r, r)))


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
    # the per-axis path divides by each X_i: 2 * 1e200 is in range, 2 * 1e308 is not
    diagonal = PolyVectorField.diagonal([1, 2])
    value = grothendieck_residue_numeric(ResidueQuery(field=diagonal, radii=(1e200, 1e200)))
    assert abs(value - 4.5) < 1e-9
    with pytest.raises(DenominatorOutOfFloatRange, match="10\\^308.3"):
        grothendieck_residue_numeric(ResidueQuery(field=diagonal, radii=(1e308, 1e308)))
    # the grid divides by their product: each of (1e10 + 1e300) and 1e150 is
    # in range, their product is not
    with pytest.raises(DenominatorOutOfFloatRange, match="10\\^450.3"):
        grothendieck_residue_numeric(ResidueQuery(field=perturbed_field(), radii=(1e10, 1e150)))


def test_sweep_returns_base_value_and_spread():
    field = PolyVectorField.diagonal([1, 2])
    query = ResidueQuery(field=field, radii=(1.0, 1.0))
    base, spread = residue_with_sweep(query, (0.8, 1.0, 1.2))
    assert abs(base - 4.5) < 1e-9
    assert spread < 1e-9
    with pytest.raises(ValidationError):
        residue_with_sweep(query, ())


def test_sweep_flags_escaping_pole():
    # growing the torus past |z1|^2 > |z0| moves the z0-pole outside and
    # the quadrature value jumps; the sweep must notice
    query = ResidueQuery(field=perturbed_field(), radii=(0.5, 0.5))
    with pytest.raises(NonIsolatedSuspected):
        residue_with_sweep(query, (1.0, 2.5))


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
