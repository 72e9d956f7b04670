"""Command-line front end.

Every subcommand builds one report: a dict with ``schema``, ``engine``,
``command``, ``inputs`` and ``result`` keys, rendered either as indented
``key: value`` text or, with ``--json``, as JSON.  Each handler returns its
inputs and result as engine values, with ``str`` or ``int`` dict keys, the
only keys JSON takes.  Both renderers walk them as they are, and ``_leaf``
turns each value they reach into a report value: exact text for rationals,
polynomials and forms, plain floats for numeric data.  In text, a string
with a line break prints as its JSON string literal.  Construction order is
fixed, so repeated runs of one invocation are byte-identical.
Comma-separated option values are read by ``_read_list`` alone.  An option
that the chosen input path never reads (``--point`` with ``--blow-up``,
``--lambda`` with ``--field``, ...) is refused by ``_refuse_unread``, not
dropped.

Exit codes: 0 on success, 2 when input fails validation (including
expression syntax errors, unread options, non-finite option values, form
values at a point that leave the float range in ``kupka-test`` and
``distribution-class``, any printed integer longer than the interpreter's
int-to-str limit, a point coordinate or matrix entry whose exponent would
make it longer, and an ``--out`` file that cannot be written), 1 for
engine faults and untrustworthy numeric configurations, among them a
residue torus that is not certified or whose sum may pass the float
range.  A report is rendered whole before ``--out`` opens its file.

The argument parser is built once per process, on the first call of
``run_command``, and every later call parses with it: building it costs
over thirty times as much as parsing one command line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import __version__
from . import distribution as dist_mod
from . import foliation as fol
from . import residue as res_mod
from . import resonance as reso
from .errors import ToolkitError, ValidationError
from .forms import DiffForm, PolyVectorField
from .parser import parse_expr, parse_polynomial, to_form
from .polynomials import MultiPoly, binomial_exceeds

SCHEMA_VERSION = 1


# -- reading option values ---------------------------------------------------

def _split_items(text: str) -> list[str]:
    items = [piece.strip() for piece in text.split(";")]
    if any(not piece for piece in items):
        raise ValidationError(f"empty item in list {text!r}")
    return items


def _read_list(text: str, read, what: str) -> list:
    """Read each comma-separated piece of ``text`` with ``read``; a piece it
    cannot read is rejected, naming ``what`` it should have been."""
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            values.append(read(piece))
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"cannot read {what} {piece!r}") from None
    return values


def _digit_limit() -> int:
    """The interpreter's int-to-str digit limit; 0 when there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# a decimal with an exponent, loosely as ``Fraction`` reads one
_SCIENTIFIC = re.compile(r"\s*[-+]?(?=\.?\d)([\d_]*(?:\.[\d_]*)?)e([-+]?[\d_]+)\s*", re.I)


def _rational(text: str) -> Fraction:
    """``Fraction(text)``, refused before it is built when its numerator or
    denominator would have more digits than the int-to-str limit, as a long
    literal is in an expression.  Only an exponent can make them that long:
    the digits written before it are scaled by ``10**|exponent|``."""
    limit = _digit_limit()
    scientific = _SCIENTIFIC.fullmatch(text)
    if limit and scientific:
        written = sum(c.isdigit() for c in scientific[1])
        if written + abs(int(scientific[2])) > limit:
            raise _too_long(limit, f"number {text.strip()!r}")
    return Fraction(text)


def _coordinate(text: str) -> Fraction | complex:
    """A point coordinate: a rational when it reads as one, else complex."""
    try:
        return _rational(text)
    except (ValueError, ZeroDivisionError):
        return complex(text)


def _tolerance(text: str) -> float:
    """Argument type for tolerances: a finite real number above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


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
        if slot in choices:
            raise ValidationError(f"resonant slot {slot} is chosen twice")
        choices[slot] = tuple(_read_list(m_text, int, "integer"))
    return choices


def _eigenvalues(text: str) -> tuple[int, ...]:
    """A comma-separated ``--lambda`` vector, validated as eigenvalues."""
    return reso.validate_eigenvector(_read_list(text, int, "integer"))


# -- writing reports -----------------------------------------------------------

def _too_long(limit: int, what: str = "result") -> ValidationError:
    return ValidationError(f"{what} has more than {limit} digits, the interpreter's limit "
                           "for integer string conversion")


def _leaf(value):
    """One engine value as a report value, converted one level deep: a
    dataclass becomes the dict of its fields in field order, ``complex``
    ``{re, im}``, and ``Fraction``, ``MultiPoly`` and ``DiffForm`` their
    canonical text.  The renderers walk lists, tuples and dicts themselves."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (DiffForm, MultiPoly)):
        return value.to_str()
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    return value


def _format_scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is str and value and value.splitlines() != [value]:
        return json.dumps(value)  # a line break would split the report's line
    return str(value)


def _format_inline(value) -> str:
    value = _leaf(value)
    if isinstance(value, (list, tuple)):
        if all(type(v) is int for v in value):  # a bool prints as true or false
            return "[" + ", ".join(map(str, value)) + "]"
        return "[" + ", ".join(_format_inline(v) for v in value) + "]"
    return _format_scalar(value)


def render_text(report: dict) -> str:
    lines: list[str] = []

    def emit(key: str, value, indent: int) -> None:
        pad = "  " * indent
        value = _leaf(value)
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for sub_key, sub_value in value.items():
                emit(str(sub_key), sub_value, indent + 1)
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}: {_format_inline(value)}")
        else:
            lines.append(f"{pad}{key}: {_format_scalar(value)}")

    for key, value in report.items():
        emit(str(key), value, 0)
    return "\n".join(lines) + "\n"


# -- subcommand handlers: each returns (inputs, result) as engine values ------

def _component_from_args(args) -> fol.RationalComponentSpec:
    if not args.polys or not args.degrees or args.vars is None:
        raise ValidationError("--polys, --degrees and --vars are required here")
    polys = [parse_polynomial(text, args.vars) for text in _split_items(args.polys)]
    degrees = _read_list(args.degrees, int, "integer")
    return fol.build_rational_component(polys, degrees)


def cmd_rational_component(args) -> tuple[dict, dict]:
    comp = _component_from_args(args)
    spec = comp.foliation
    inputs = {"vars": args.vars, "polys": comp.polys, "degrees": comp.degrees}
    result = fol.invariants(spec) | {
        "omega": spec.omega, "transversal_weights": comp.transversal_weights,
    }
    return inputs, result


def cmd_kupka_test(args) -> tuple[dict, dict]:
    if args.blow_up is not None:
        _refuse_unread(args, "with --blow-up", "--point", "--form", "--polys", "--degrees",
                       "--vars", "--k", "--c", "--tol")
        epsilon, transform = fol.blow_up_strict_transform(args.blow_up)
        names = fol.blow_up_var_names(args.blow_up)
        result = {
            "m": args.blow_up,
            "epsilon": epsilon,
            "model": fol.radial_model_form(args.blow_up),
            "strict_transform": transform.to_str(names),
        }
        return {"blow_up": args.blow_up}, result
    if args.point is None:
        raise ValidationError("--point is required (or use --blow-up M)")
    point = _read_list(args.point, _coordinate, "coordinate")
    if args.form is not None:
        _refuse_unread(args, "with --form", "--polys", "--degrees")
        if args.vars is None or args.k is None:
            raise ValidationError("--form needs --vars and --k")
        omega = to_form(parse_expr(args.form, args.vars), args.vars)
        spec = fol.validate_projective(omega, args.k, expected_c=args.c)
        inputs = {"vars": args.vars, "form": args.form, "k": args.k, "point": args.point}
    else:
        _refuse_unread(args, "without --form", "--k", "--c")
        comp = _component_from_args(args)
        spec = comp.foliation
        inputs = {"vars": args.vars, "polys": comp.polys, "degrees": comp.degrees,
                  "point": args.point}
    verdict = fol.kupka_test(spec, point, tol=fol.DEFAULT_TOL if args.tol is None else args.tol)
    return inputs, _leaf(verdict) | {"n": spec.n, "k": spec.k, "c": spec.c}


def cmd_resonance(args) -> tuple[dict, dict]:
    if args.matrix is not None:
        _refuse_unread(args, "with --matrix", "--lambda", "--target", "--relation")
        rows = [_read_list(row, _rational, "matrix entry") for row in args.matrix.split(";")]
        analysis = reso.analyze_linear_part(rows)
        blocks = {str(lam): {"algebraic": alg, "geometric": geo}
                  for lam, (alg, geo) in analysis.blocks.items()}
        return {"matrix": args.matrix}, _leaf(analysis) | {"blocks": blocks}
    if args.lambdas is None:
        raise ValidationError("--lambda is required (or use --matrix)")
    lams = _eigenvalues(args.lambdas)
    if args.relation is not None:
        if args.target is None:
            raise ValidationError("--relation needs --target")
        m = tuple(_read_list(args.relation, int, "integer"))
        ok = reso.invariant_hypersurface_check(lams, m, args.target)
        return {"lambda": lams, "target": args.target, "relation": m}, {"invariant_hypersurface": ok}
    if args.target is not None:
        relations = reso.find_resonances(lams, args.target)
        result = {"target_value": lams[args.target], "relations": relations,
                  "count": len(relations)}
        return {"lambda": lams, "target": args.target}, result
    part = reso.partition(lams)
    result = {"non_resonant": part.nr_values, "resonant": part.r_values,
              "relations": part.relations}
    try:
        data = reso.build_normal_form(part)
        result["G"] = data.G
        result["identity_verified"] = reso.verify_normal_form(data)
    except ValidationError:
        result["G"] = None
        result["identity_verified"] = None
    return {"lambda": lams}, result


def cmd_normal_form(args) -> tuple[dict, dict]:
    if args.lambdas is None:
        raise ValidationError("--lambda is required")
    lams = _eigenvalues(args.lambdas)
    part = reso.partition(lams)
    choices = _parse_choices(args.choice) if args.choice else None
    data = reso.build_normal_form(part, choices)
    inputs = {"lambda": lams}
    if args.choice:
        inputs["choice"] = args.choice
    result = {
        "permutation": data.permutation,
        "reordered": data.reordered,
        "nr_count": data.nr_count,
        "choices": data.choices,
        "h": data.h,
        "H": data.H,
        "G": data.G,
        "psi": data.psi,
        "omega_nr": data.omega_nr,
        "identity_verified": reso.verify_normal_form(data),
    }
    return inputs, result


def cmd_residue(args) -> tuple[dict, res_mod.ResidueReport]:
    lams = None
    field = None
    if args.field is not None:
        _refuse_unread(args, "with --field", "--lambda")
        components_text = _split_items(args.field)
        dim = len(components_text)
        field = PolyVectorField([parse_polynomial(text, dim) for text in components_text])
        inputs = {"field": field.components}
    elif args.lambdas is not None:
        lams = _eigenvalues(args.lambdas)
        dim = len(lams)
        inputs = {"lambda": lams}
    else:
        raise ValidationError("either --lambda or --field is required")
    radii = _read_list(args.radii, float, "real")
    if len(radii) == 1:
        radii = radii * dim
    sweep = _read_list(args.sweep, float, "real")
    inputs.update({"radii": radii, "samples": args.samples, "sweep": sweep})
    if args.c is not None:
        inputs["c"] = args.c
    report = res_mod.build_residue_report(
        lambdas=lams,
        field=field,
        c=args.c,
        radii=radii,
        samples_per_circle=args.samples,
        sweep_factors=sweep,
        isolation_tol=args.isolation_tol,
    )
    return inputs, report


def cmd_kupka_degree(args) -> tuple[dict, dict]:
    if args.lambdas is None or args.c is None:
        raise ValidationError("--lambda and --c are required")
    lams = _eigenvalues(args.lambdas)
    degree = res_mod.kupka_degree(lams, args.c)
    residue_value = res_mod.closed_form_residue(lams)
    result = {
        "kupka_degree": degree,
        "closed_form_residue": residue_value,
        "product_with_residue": degree * residue_value,
        "c_power_m": Fraction(args.c) ** len(lams),
        "chern": res_mod.chern_integrality(lams, args.c),
    }
    return {"lambda": lams, "c": args.c}, result


def cmd_distribution_class(args) -> tuple[dict, dict]:
    if args.point is None:
        _refuse_unread(args, "without --point", "--tol")
    contact = None
    if args.contact is not None:
        _refuse_unread(args, "with --contact", "--form")
        if args.vars is None:
            raise ValidationError("--contact needs --vars")
        polys = [parse_polynomial(text, args.vars) for text in _split_items(args.contact)]
        contact = dist_mod.build_contact_type(polys, r=args.r)
        omega = contact.omega
        inputs = {"vars": args.vars, "contact": polys}
    elif args.form is not None:
        _refuse_unread(args, "with --form", "--r")
        if args.vars is None:
            raise ValidationError("--form needs --vars")
        omega = to_form(parse_expr(args.form, args.vars), args.vars)
        if omega.degree != 1:
            raise ValidationError(f"distribution form must be a 1-form, got degree {omega.degree}")
        inputs = {"vars": args.vars, "form": args.form}
    else:
        raise ValidationError("either --form or --contact is required")
    spec = dist_mod.DistributionSpec(omega, declared_class=args.declared_class)
    result = {
        "class": dist_mod.validate_class(spec),
        "frobenius_integrable": fol.integrability_check_codim1(omega),
        "omega": omega,
    }
    if contact is not None:
        result["darboux"] = dist_mod.verify_darboux_identities(contact)
    if args.point is not None:
        point = _read_list(args.point, _coordinate, "coordinate")
        verdict = dist_mod.kupka_test_distribution(
            spec, point, tol=fol.DEFAULT_TOL if args.tol is None else args.tol)
        result["point_classification"] = verdict
        inputs["point"] = args.point
    return inputs, result


def cmd_fibration(args) -> tuple[dict, dict]:
    degrees = _read_list(args.degrees, int, "integer")
    inputs = {"degrees": degrees}
    result = _leaf(fol.fibration_exponents(degrees))
    if args.polys is None:
        _refuse_unread(args, "without --polys", "--vars")
    else:
        comp = _component_from_args(args)
        inputs.update({"vars": args.vars, "polys": comp.polys})
        result["first_integrals_verified"] = fol.component_first_integral_check(comp)
    return inputs, result


def cmd_sections_dim(args) -> tuple[dict, dict]:
    n, k, c = args.n, args.k, args.c
    limit = _digit_limit()
    # C(c+k, k) * C(c-1, n-k) past the digit limit can take minutes to build;
    # count each binomial only up to the limit first
    if limit and 1 <= k < n and c > n - k:
        cap = 10**limit - 1
        if (binomial_exceeds(c + k, k, cap)
                or binomial_exceeds(c - 1, n - k, cap // math.comb(c + k, k))):
            raise _too_long(limit)
    return {"n": n, "k": k, "c": c}, {"dimension": fol.sections_dimension(n, k, c)}


def cmd_codim1_solve(args) -> tuple[dict, dict]:
    if args.d is not None:
        pairs = res_mod.codim1_component_solver(args.c, args.d)
        return {"c": args.c, "d": args.d}, {"pairs": pairs, "count": len(pairs)}
    products = res_mod.codim1_realizable_products(args.c)
    return {"c": args.c}, {"products": products, "count": len(products)}


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
    p.add_argument("--tol", type=_tolerance,
                   help=f"numeric zero threshold (default {fol.DEFAULT_TOL})")
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
    p.add_argument("--radii", default=str(res_mod.DEFAULT_RADIUS),
                   help="torus radii (single value broadcast)")
    p.add_argument("--samples", type=int, default=res_mod.DEFAULT_SAMPLES, help="samples per circle")
    p.add_argument("--sweep", default=",".join(map(str, res_mod.DEFAULT_SWEEP)),
                   help="radius sweep factors")
    p.add_argument("--isolation-tol", type=_tolerance, default=res_mod.DEFAULT_ISOLATION_TOL,
                   dest="isolation_tol", help="allowed residue spread across the sweep")
    p.set_defaults(handler=cmd_residue)

    p = sub.add_parser("kupka-degree", help="exact component degree and integrality")
    common(p)
    p.add_argument("--lambda", dest="lambdas", help="transversal weights")
    p.add_argument("--c", type=int, help="twist")
    p.set_defaults(handler=cmd_kupka_degree)

    p = sub.add_parser("distribution-class", help="class and structure of a 1-form distribution")
    common(p)
    p.add_argument("--tol", type=_tolerance,
                   help=f"numeric zero threshold (default {fol.DEFAULT_TOL})")
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


@functools.cache
def _arg_parser() -> tuple[argparse.ArgumentParser, dict[str, str], frozenset[str]]:
    """The process's one argument parser, with the attribute each option
    string of a subcommand sets, and the option strings that take a value."""
    parser = build_arg_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = [a for p in sub.choices.values() for a in p._actions]
    dests = {s: a.dest for a in actions for s in a.option_strings}
    takes_value = frozenset(s for a in actions if a.nargs != 0 for s in a.option_strings)
    return parser, dests, takes_value


def _refuse_unread(args, path: str, *options: str) -> None:
    """Refuse the first of ``options`` that was given although the input
    ``path`` never reads it, rather than drop it silently."""
    dests = _arg_parser()[1]
    for option in options:
        if getattr(args, dests[option]) is not None:
            raise ValidationError(f"{option} is not read {path}")


def _join_dash_values(argv) -> list[str]:
    """Join each option that takes a value with a next item that starts
    with a single ``-`` and is no known option: argparse would read
    ``--point -1,0,1`` as two options, ``--point=-1,0,1`` as one."""
    _, dests, takes_value = _arg_parser()
    out: list[str] = []
    for item in argv:
        if (out and out[-1] in takes_value and item.startswith("-")
                and not item.startswith("--") and item not in dests):
            out[-1] += "=" + item
        else:
            out.append(item)
    return out


def run_command(argv, stdout=None, stderr=None) -> int:
    """Dispatch one invocation; returns the process exit code."""
    out_stream = stdout if stdout is not None else sys.stdout
    err_stream = stderr if stderr is not None else sys.stderr
    parser, _, _ = _arg_parser()
    try:
        with contextlib.redirect_stdout(out_stream), contextlib.redirect_stderr(err_stream):
            args = parser.parse_args(_join_dash_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        inputs, result = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=err_stream)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=err_stream)
        return 1
    try:
        report = {
            "schema": SCHEMA_VERSION,
            "engine": f"foliatk {__version__}",
            "command": args.command,
            "inputs": inputs,
            "result": result,
        }
        text = json.dumps(report, indent=2, default=_leaf) + "\n" if args.json else render_text(report)
    except ValueError:  # an integer past the int-to-str limit fails to render
        print(f"error: {_too_long(_digit_limit())}", file=err_stream)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write the report to {args.out}: {exc.strerror or exc}",
                  file=err_stream)
            return 2
    else:
        out_stream.write(text)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
