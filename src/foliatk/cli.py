"""Command-line front end.

Every subcommand builds one report: a dict with ``schema``, ``engine``,
``command``, ``inputs`` and ``result`` keys, rendered either as indented
``key: value`` text or, with ``--json``, as JSON.  Construction order is
fixed, values are exact strings (rationals as ``num/den``) or plain
floats, so repeated runs of one invocation are byte-identical.

Exit codes: 0 on success, 2 when input fails validation (including
expression syntax errors), 1 for engine faults and untrustworthy numeric
configurations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction

from . import __version__
from . import distribution as dist_mod
from . import foliation as fol
from . import residue as res_mod
from . import resonance as reso
from .errors import ToolkitError, ValidationError
from .forms import PolyVectorField
from .parser import parse_expr, parse_polynomial, to_form

SCHEMA_VERSION = 1


# -- small parsers and formatters -----------------------------------------

def _split_items(text: str) -> list[str]:
    items = [piece.strip() for piece in text.split(";")]
    if any(not piece for piece in items):
        raise ValidationError(f"empty item in list {text!r}")
    return items


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(piece.strip()) for piece in text.split(",")]
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(piece.strip()) for piece in text.split(",")]
    except ValueError:
        raise ValidationError(f"expected comma-separated reals, got {text!r}") from None


def _tolerance(text: str) -> float:
    """Argument type for tolerances: a finite real number above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _parse_point(text: str) -> list:
    coords = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            coords.append(Fraction(piece))
            continue
        except (ValueError, ZeroDivisionError):
            pass
        try:
            coords.append(complex(piece))
        except ValueError:
            raise ValidationError(f"cannot read coordinate {piece!r}") from None
    return coords


def _parse_matrix(text: str) -> list[list[Fraction]]:
    rows = []
    for row_text in text.split(";"):
        row = []
        for piece in row_text.split(","):
            try:
                row.append(Fraction(piece.strip()))
            except (ValueError, ZeroDivisionError):
                raise ValidationError(f"cannot read matrix entry {piece!r}") from None
        rows.append(row)
    return rows


def _parse_choices(text: str) -> dict[int, tuple[int, ...]]:
    choices = {}
    for item in _split_items(text):
        if ":" not in item:
            raise ValidationError(f"choice item {item!r} must look like 's:m0,m1'")
        slot_text, m_text = item.split(":", 1)
        try:
            slot = int(slot_text.strip())
        except ValueError:
            raise ValidationError(f"bad resonant slot {slot_text!r}") from None
        choices[slot] = tuple(_parse_ints(m_text))
    return choices


def _check_printable(value) -> None:
    """Reject a result holding an integer with more decimal digits than the
    interpreter's int-to-str limit allows, before anything tries to print it."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            _check_printable(item)
    elif isinstance(value, Fraction):
        _check_printable([value.numerator, value.denominator])
    elif isinstance(value, int):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        # fewer than 3*limit bits means fewer than limit digits, as 8**limit < 10**limit
        if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
            raise ValidationError(
                f"result has more than {limit} digits, the interpreter's limit "
                "for integer string conversion"
            )


def _frac(value: Fraction | None) -> str | None:
    if value is None:
        return None
    _check_printable(value)
    return str(value)


def _complex_dict(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _verdict_dict(verdict) -> dict:
    return {
        "classification": verdict.classification,
        "mode": verdict.mode,
        "tol": verdict.tol,
        "scale_consistent": verdict.scale_consistent,
    }


def make_report(command: str, inputs: dict, result: dict) -> dict:
    _check_printable(result)
    return {
        "schema": SCHEMA_VERSION,
        "engine": f"foliatk {__version__}",
        "command": command,
        "inputs": inputs,
        "result": result,
    }


def _format_scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _format_inline(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_format_inline(v) for v in value) + "]"
    return _format_scalar(value)


def render_text(report: dict) -> str:
    lines: list[str] = []

    def emit(key: str, value, indent: int) -> None:
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for sub_key, sub_value in value.items():
                emit(str(sub_key), sub_value, indent + 1)
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {_format_inline(value)}")
        else:
            lines.append(f"{pad}{key}: {_format_scalar(value)}")

    for key, value in report.items():
        emit(str(key), value, 0)
    return "\n".join(lines) + "\n"


# -- subcommand handlers ---------------------------------------------------

def _component_from_args(args) -> fol.RationalComponentSpec:
    if not args.polys or not args.degrees or args.vars is None:
        raise ValidationError("--polys, --degrees and --vars are required here")
    polys = [parse_polynomial(text, args.vars) for text in _split_items(args.polys)]
    degrees = _parse_ints(args.degrees)
    return fol.build_rational_component(polys, degrees)


def cmd_rational_component(args) -> dict:
    comp = _component_from_args(args)
    spec = comp.foliation
    inputs = {
        "vars": args.vars,
        "polys": [p.to_str() for p in comp.polys],
        "degrees": list(comp.degrees),
    }
    result = dict(fol.invariants(spec))
    result["omega"] = spec.omega.to_str()
    result["transversal_weights"] = list(comp.transversal_weights)
    return make_report("rational-component", inputs, result)


def cmd_kupka_test(args) -> dict:
    if args.blow_up is not None:
        epsilon, transform = fol.blow_up_strict_transform(args.blow_up)
        names = fol.blow_up_var_names(args.blow_up)
        inputs = {"blow_up": args.blow_up}
        result = {
            "m": args.blow_up,
            "epsilon": epsilon,
            "model": fol.radial_model_form(args.blow_up).to_str(),
            "strict_transform": transform.to_str(names),
        }
        return make_report("kupka-test", inputs, result)
    if args.point is None:
        raise ValidationError("--point is required (or use --blow-up M)")
    point = _parse_point(args.point)
    if args.form is not None:
        if args.vars is None or args.k is None:
            raise ValidationError("--form needs --vars and --k")
        omega = to_form(parse_expr(args.form, args.vars), args.vars)
        spec = fol.validate_projective(omega, args.k, expected_c=args.c)
        inputs = {"vars": args.vars, "form": args.form, "k": args.k, "point": args.point}
    else:
        comp = _component_from_args(args)
        spec = comp.foliation
        inputs = {
            "vars": args.vars,
            "polys": [p.to_str() for p in comp.polys],
            "degrees": list(comp.degrees),
            "point": args.point,
        }
    verdict = fol.kupka_test(spec, point, tol=args.tol)
    result = _verdict_dict(verdict)
    result.update({"n": spec.n, "k": spec.k, "c": spec.c})
    return make_report("kupka-test", inputs, result)


def cmd_resonance(args) -> dict:
    if args.matrix is not None:
        analysis = reso.analyze_linear_part(_parse_matrix(args.matrix))
        inputs = {"matrix": args.matrix}
        result = {
            "kind": analysis.kind,
            "eigenvalues": [_frac(v) for v in analysis.eigenvalues],
            "blocks": {
                _frac(lam): {"algebraic": alg, "geometric": geo}
                for lam, (alg, geo) in sorted(analysis.blocks.items())
            },
            "diagonalizable": analysis.diagonalizable,
        }
        return make_report("resonance", inputs, result)
    if args.lambdas is None:
        raise ValidationError("--lambda is required (or use --matrix)")
    lams = reso.validate_eigenvector(_parse_ints(args.lambdas))
    if args.relation is not None:
        if args.target is None:
            raise ValidationError("--relation needs --target")
        m = tuple(_parse_ints(args.relation))
        ok = reso.invariant_hypersurface_check(lams, m, args.target)
        inputs = {"lambda": list(lams), "target": args.target, "relation": list(m)}
        result = {"invariant_hypersurface": ok}
        return make_report("resonance", inputs, result)
    if args.target is not None:
        relations = reso.find_resonances(lams, args.target)
        inputs = {"lambda": list(lams), "target": args.target}
        result = {
            "target_value": lams[args.target],
            "relations": [list(m) for m in relations],
            "count": len(relations),
        }
        return make_report("resonance", inputs, result)
    part = reso.partition(lams)
    inputs = {"lambda": list(lams)}
    result = {
        "non_resonant": list(part.nr_values),
        "resonant": list(part.r_values),
        "relations": {
            str(s): [list(m) for m in rel] for s, rel in sorted(part.relations.items())
        },
    }
    try:
        data = reso.build_normal_form(part)
        result["G"] = data.G.to_str()
        result["identity_verified"] = reso.verify_normal_form(data)
    except ValidationError:
        result["G"] = None
        result["identity_verified"] = None
    return make_report("resonance", inputs, result)


def cmd_normal_form(args) -> dict:
    if args.lambdas is None:
        raise ValidationError("--lambda is required")
    lams = reso.validate_eigenvector(_parse_ints(args.lambdas))
    part = reso.partition(lams)
    choices = _parse_choices(args.choice) if args.choice else None
    data = reso.build_normal_form(part, choices)
    inputs = {"lambda": list(lams)}
    if args.choice:
        inputs["choice"] = args.choice
    result = {
        "permutation": list(data.permutation),
        "reordered": list(data.reordered),
        "nr_count": data.nr_count,
        "choices": {str(s): list(m) for s, m in sorted(data.choices.items())},
        "h": [h.to_str() for h in data.h],
        "H": data.H.to_str(),
        "G": data.G.to_str(),
        "psi": [p.to_str() for p in data.psi],
        "omega_nr": data.omega_nr.to_str(),
        "identity_verified": reso.verify_normal_form(data),
    }
    return make_report("normal-form", inputs, result)


def cmd_residue(args) -> dict:
    lams = None
    field = None
    inputs: dict = {}
    if args.field is not None:
        components_text = _split_items(args.field)
        dim = len(components_text)
        components = [parse_polynomial(text, dim) for text in components_text]
        field = PolyVectorField(components)
        inputs["field"] = [p.to_str() for p in components]
    elif args.lambdas is not None:
        lams = reso.validate_eigenvector(_parse_ints(args.lambdas))
        inputs["lambda"] = list(lams)
    else:
        raise ValidationError("either --lambda or --field is required")
    dim = field.ambient_dim if field is not None else len(lams)
    radii = _parse_floats(args.radii)
    if len(radii) == 1:
        radii = radii * dim
    sweep = tuple(_parse_floats(args.sweep))
    inputs.update({"radii": radii, "samples": args.samples, "sweep": list(sweep)})
    if args.c is not None:
        inputs["c"] = args.c
    report = res_mod.build_residue_report(
        lambdas=list(lams) if lams is not None else None,
        field=field,
        c=args.c,
        radii=radii,
        samples_per_circle=args.samples,
        sweep_factors=sweep,
        isolation_tol=args.isolation_tol,
    )
    result = {
        "numeric": _complex_dict(report.numeric),
        "radius_sweep_spread": float(report.radius_sweep_spread),
        "closed_form": _frac(report.closed_form),
        "kupka_degree": _frac(report.kupka_degree),
    }
    if report.integrality is not None:
        result["integrality"] = {
            "values": [_frac(v) for v in report.integrality.values],
            "integer_flags": list(report.integrality.integer_flags),
            "realizable": report.integrality.realizable,
        }
    else:
        result["integrality"] = None
    return make_report("residue", inputs, result)


def cmd_kupka_degree(args) -> dict:
    if args.lambdas is None or args.c is None:
        raise ValidationError("--lambda and --c are required")
    lams = reso.validate_eigenvector(_parse_ints(args.lambdas))
    degree = res_mod.kupka_degree(lams, args.c)
    residue_value = res_mod.closed_form_residue(lams)
    chern = res_mod.chern_integrality(lams, args.c)
    inputs = {"lambda": list(lams), "c": args.c}
    result = {
        "kupka_degree": _frac(degree),
        "closed_form_residue": _frac(residue_value),
        "product_with_residue": _frac(degree * residue_value),
        "c_power_m": _frac(Fraction(args.c) ** len(lams)),
        "chern": {
            "values": [_frac(v) for v in chern.values],
            "integer_flags": list(chern.integer_flags),
            "realizable": chern.realizable,
        },
    }
    return make_report("kupka-degree", inputs, result)


def cmd_distribution_class(args) -> dict:
    inputs: dict = {}
    contact = None
    if args.contact is not None:
        if args.vars is None:
            raise ValidationError("--contact needs --vars")
        polys = [parse_polynomial(text, args.vars) for text in _split_items(args.contact)]
        contact = dist_mod.build_contact_type(polys, r=args.r)
        omega = contact.omega
        inputs.update({"vars": args.vars, "contact": [p.to_str() for p in polys]})
    elif args.form is not None:
        if args.vars is None:
            raise ValidationError("--form needs --vars")
        omega = to_form(parse_expr(args.form, args.vars), args.vars)
        if omega.degree != 1:
            raise ValidationError(f"distribution form must be a 1-form, got degree {omega.degree}")
        inputs.update({"vars": args.vars, "form": args.form})
    else:
        raise ValidationError("either --form or --contact is required")
    spec = dist_mod.DistributionSpec(omega, declared_class=args.declared_class)
    r = dist_mod.validate_class(spec)
    result = {
        "class": r,
        "frobenius_integrable": fol.integrability_check_codim1(omega),
        "omega": omega.to_str(),
    }
    if contact is not None:
        darboux = dist_mod.verify_darboux_identities(contact)
        result["darboux"] = {
            "d_omega_ok": darboux.d_omega_ok,
            "radial_ok": darboux.radial_ok,
            "degree_d": darboux.degree_d,
            "generator_degree": darboux.generator_degree,
        }
    if args.point is not None:
        verdict = dist_mod.kupka_test_distribution(spec, _parse_point(args.point), tol=args.tol)
        result["point_classification"] = _verdict_dict(verdict)
        inputs["point"] = args.point
    return make_report("distribution-class", inputs, result)


def cmd_fibration(args) -> dict:
    if args.degrees is None:
        raise ValidationError("--degrees is required")
    degrees = _parse_ints(args.degrees)
    data = fol.fibration_exponents(degrees)
    inputs = {"degrees": degrees}
    result = {
        "exponents": list(data.exponents),
        "common_degree": data.common_degree,
    }
    if args.polys is not None:
        comp = _component_from_args(args)
        inputs.update({"vars": args.vars, "polys": [p.to_str() for p in comp.polys]})
        result["first_integrals_verified"] = fol.component_first_integral_check(comp)
    return make_report("fibration", inputs, result)


def cmd_sections_dim(args) -> dict:
    value = fol.sections_dimension(args.n, args.k, args.c)
    inputs = {"n": args.n, "k": args.k, "c": args.c}
    return make_report("sections-dim", inputs, {"dimension": value})


def cmd_codim1_solve(args) -> dict:
    inputs: dict = {"c": args.c}
    if args.d is not None:
        pairs = res_mod.codim1_component_solver(args.c, args.d)
        inputs["d"] = args.d
        result = {"pairs": [list(p) for p in pairs], "count": len(pairs)}
    else:
        products = res_mod.codim1_realizable_products(args.c)
        result = {"products": list(products), "count": len(products)}
    return make_report("codim1-solve", inputs, result)


# -- argument plumbing -----------------------------------------------------

def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foliatk",
        description="Exact calculus for foliations of projective space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        p.add_argument("--out", help="write the report to a file instead of stdout")

    p = sub.add_parser("rational-component", help="build and validate a rational component")
    common(p)
    p.add_argument("--polys", required=True, help="semicolon-separated generators")
    p.add_argument("--degrees", required=True, help="comma-separated degrees")
    p.add_argument("--vars", type=int, required=True, help="number of affine variables")
    p.set_defaults(handler=cmd_rational_component)

    p = sub.add_parser("kupka-test", help="classify a point, or blow up the radial model")
    common(p)
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="numeric zero threshold")
    p.add_argument("--polys", help="semicolon-separated generators")
    p.add_argument("--degrees", help="comma-separated degrees")
    p.add_argument("--form", help="presenting form expression")
    p.add_argument("--vars", type=int, help="number of affine variables")
    p.add_argument("--k", type=int, help="codimension for --form input")
    p.add_argument("--c", type=int, help="declared twist to cross-check")
    p.add_argument("--point", help="comma-separated coordinates")
    p.add_argument("--blow-up", type=int, dest="blow_up", help="blow up the radial m-model instead")
    p.set_defaults(handler=cmd_kupka_test)

    p = sub.add_parser("resonance", help="partition eigenvalues or analyze a linear part")
    common(p)
    p.add_argument("--lambda", dest="lambdas", help="comma-separated positive integers")
    p.add_argument("--target", type=int, help="index into the sorted eigenvalues")
    p.add_argument("--relation", help="multi-index to test with --target")
    p.add_argument("--matrix", help="semicolon-separated matrix rows")
    p.set_defaults(handler=cmd_resonance)

    p = sub.add_parser("normal-form", help="build and verify the resonance normal form")
    common(p)
    p.add_argument("--lambda", dest="lambdas", help="comma-separated positive integers")
    p.add_argument("--choice", help="relation choices, e.g. '1:2,0;2:0,3'")
    p.set_defaults(handler=cmd_normal_form)

    p = sub.add_parser("residue", help="numeric residue with radius sweep")
    common(p)
    p.add_argument("--lambda", dest="lambdas", help="diagonal weights")
    p.add_argument("--field", help="semicolon-separated component polynomials")
    p.add_argument("--c", type=int, help="twist for degree data")
    p.add_argument("--radii", default="1.0", help="torus radii (single value broadcast)")
    p.add_argument("--samples", type=int, default=res_mod.DEFAULT_SAMPLES, help="samples per circle")
    p.add_argument("--sweep", default="0.5,1.0,2.0", help="radius sweep factors")
    p.add_argument("--isolation-tol", type=_tolerance, default=1e-8, dest="isolation_tol",
                   help="allowed residue spread across the sweep")
    p.set_defaults(handler=cmd_residue)

    p = sub.add_parser("kupka-degree", help="exact component degree and integrality")
    common(p)
    p.add_argument("--lambda", dest="lambdas", help="transversal weights")
    p.add_argument("--c", type=int, help="twist")
    p.set_defaults(handler=cmd_kupka_degree)

    p = sub.add_parser("distribution-class", help="class and structure of a 1-form distribution")
    common(p)
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="numeric zero threshold")
    p.add_argument("--form", help="1-form expression")
    p.add_argument("--contact", help="semicolon-separated equal-degree generators")
    p.add_argument("--vars", type=int, help="number of affine variables")
    p.add_argument("--r", type=int, help="declared number of contact pairs")
    p.add_argument("--declared-class", type=int, dest="declared_class", help="class to cross-check")
    p.add_argument("--point", help="comma-separated coordinates to classify")
    p.set_defaults(handler=cmd_distribution_class)

    p = sub.add_parser("fibration", help="fibration exponents and first-integral checks")
    common(p)
    p.add_argument("--degrees", required=True, help="comma-separated degrees")
    p.add_argument("--polys", help="optional generators to verify against")
    p.add_argument("--vars", type=int, help="number of affine variables")
    p.set_defaults(handler=cmd_fibration)

    p = sub.add_parser("sections-dim", help="dimension of the space of presenting forms")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(handler=cmd_sections_dim)

    p = sub.add_parser("codim1-solve", help="split c into degree pairs with product d")
    common(p)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int)
    p.set_defaults(handler=cmd_codim1_solve)

    return parser


def run_command(argv, stdout=None, stderr=None) -> int:
    """Dispatch one invocation; returns the process exit code."""
    out_stream = stdout if stdout is not None else sys.stdout
    err_stream = stderr if stderr is not None else sys.stderr
    parser = build_arg_parser()
    try:
        with contextlib.redirect_stdout(out_stream), contextlib.redirect_stderr(err_stream):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        report = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=err_stream)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=err_stream)
        return 1
    text = json.dumps(report, indent=2) + "\n" if args.json else render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        out_stream.write(text)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
