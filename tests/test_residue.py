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


def brute_force_grid_sum(field, radii, count):
    """The trapezoid sum over every point of the full grid, straight from the
    definition: mean of ``tr(J)^m * prod z_i / prod X_i``."""
    m = field.ambient_dim
    circle = np.exp(2j * np.pi * np.arange(count) / count)
    grid = np.meshgrid(*[r * circle for r in radii], indexing="ij")

    def evaluate(poly):
        total = np.zeros(grid[0].shape, dtype=complex)
        for exps, coeff in poly.terms.items():
            term = complex(coeff)
            for axis, e in zip(grid, exps):
                term = term * axis ** e
            total += term
        return total

    value = evaluate(field.jacobian_trace() ** m)
    for axis, comp in zip(grid, field.components):
        value = value * axis / evaluate(comp)
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


@pytest.mark.parametrize("field, count", [
    (perturbed_field(), 2048),
    (PolyVectorField([MultiPoly.variable(3, 0) + MultiPoly.variable(3, 1) ** 2,
                      MultiPoly.variable(3, 1), MultiPoly.variable(3, 2)]), 161),
    (PolyVectorField.diagonal([1, 2]), QUADRATURE_BUDGET // 2),
], ids=["grid-2x2048", "grid-3x161", "per-axis-2x2^21"])
def test_quadrature_memory_stays_flat_at_the_budget(field, count):
    # a block array is GRID_BLOCK * 16 bytes = 64 KiB; a few of them and the
    # per-axis tables fit in 1 MiB, whatever the number of torus points
    bound = 2**20
    query = ResidueQuery(field=field, radii=(0.5,) * field.ambient_dim,
                         samples_per_circle=count)
    grothendieck_residue_numeric(ResidueQuery(field=field, radii=query.radii,
                                              samples_per_circle=8))
    tracemalloc.start()
    try:
        grothendieck_residue_numeric(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"traced peak {peak} bytes"


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
