"""Per-layer tracing by wrapping foliatk's public functions from outside.

``Tracer.install`` replaces each traced function, in every module and
class namespace that binds it (aliases such as ``__rmul__`` and names
bound by ``from .forms import interior_product`` included), with a wrapper
that records a span: name, start, end and parent.  Self time is a span's
duration minus the time its child spans cover.  Spans near the top of each
task are kept for the trace file; the rest are folded into per-name totals
as they close, so memory stays flat however many polynomials a task makes.
``Tracer.uninstall`` puts the original functions back.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

KEEP_DEPTH = 3  # task span, the layer it calls, and one level below

# name, unit; the order is the order of the report
LAYER_METRICS = [
    ("polynomials.mul.calls", "count"), ("polynomials.mul.self_s", "s"),
    ("polynomials.mul.term_pairs", "count"), ("polynomials.mul.out_terms", "count"),
    ("polynomials.construct.calls", "count"), ("polynomials.construct.self_s", "s"),
    ("polynomials.add.calls", "count"), ("polynomials.add.self_s", "s"),
    ("polynomials.pow.calls", "count"), ("polynomials.pow.self_s", "s"),
    ("polynomials.partial_derivative.calls", "count"),
    ("polynomials.partial_derivative.self_s", "s"),
    ("polynomials.substitute.calls", "count"), ("polynomials.substitute.self_s", "s"),
    ("polynomials.evaluate.exact_calls", "count"), ("polynomials.evaluate.numeric_calls", "count"),
    ("polynomials.evaluate.self_s", "s"),
    ("forms.wedge.calls", "count"), ("forms.wedge.self_s", "s"),
    ("forms.wedge.coeff_pairs", "count"),
    ("forms.construct.calls", "count"), ("forms.construct.self_s", "s"),
    ("forms.exterior_derivative.calls", "count"), ("forms.exterior_derivative.self_s", "s"),
    ("forms.evaluate.calls", "count"), ("forms.evaluate.self_s", "s"),
    ("forms.interior_product.calls", "count"), ("forms.interior_product.self_s", "s"),
    ("forms.pullback.calls", "count"), ("forms.pullback.self_s", "s"),
    ("foliation.first_integral_check.calls", "count"),
    ("foliation.first_integral_check.self_s", "s"),
    ("foliation.build_rational_component.self_s", "s"),
    ("foliation.validate_projective.self_s", "s"),
    ("foliation.kupka_test.self_s", "s"),
    ("foliation.classify_point.self_s", "s"),
    ("foliation.total_differential.self_s", "s"),
    ("distribution.class_of.self_s", "s"),
    ("distribution.verify_darboux_identities.self_s", "s"),
    ("distribution.kupka_test_distribution.self_s", "s"),
    ("resonance.partition.self_s", "s"), ("resonance.relations", "count"),
    ("resonance.verify_normal_form.self_s", "s"),
    ("resonance.analyze_linear_part.self_s", "s"),
    ("parser.parse.calls", "count"), ("parser.parse.self_s", "s"),
    ("parser.parse.chars", "count"),
    ("cli.run_command.calls", "count"), ("cli.run_command.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("cli.import_modules", "count"), ("cli.import_s", "s"),
    ("residue.numeric_grid.calls", "count"), ("residue.numeric_grid.self_s", "s"),
    ("residue.numeric_grid.points", "count"),
    ("residue.numeric_separable.calls", "count"), ("residue.numeric_separable.self_s", "s"),
    ("residue.numerator_terms", "count"),
    ("trace.overhead_s", "s"),
]
MEASURED_APART = {"cli.import_modules", "cli.import_s", "trace.overhead_s"}


# -- counters taken from a call's arguments and result ---------------------

def _count_mul(counts, args, kwargs, out):
    a, b = args[0], args[1]
    counts["polynomials.mul.term_pairs"] += len(a.terms) * len(getattr(b, "terms", (0,)))
    counts["polynomials.mul.out_terms"] += len(getattr(out, "terms", ()))


def _count_evaluate(counts, args, kwargs, out):
    exact = all(isinstance(v, (int, Fraction)) for v in args[1])
    counts["polynomials.evaluate.exact_calls" if exact else "polynomials.evaluate.numeric_calls"] += 1


def _count_wedge(counts, args, kwargs, out):
    counts["forms.wedge.coeff_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _count_partition(counts, args, kwargs, out):
    counts["resonance.relations"] += sum(len(rel) for rel in out.relations.values())


def _count_parse(counts, args, kwargs, out):
    counts["parser.parse.chars"] += len(args[0])


def _count_report(counts, args, kwargs, out):
    stdout = kwargs.get("stdout", args[1] if len(args) > 1 else None)
    if hasattr(stdout, "getvalue"):
        counts["cli.report_bytes"] += len(stdout.getvalue().encode("utf-8"))


def _separable(field) -> bool:
    return all(all(e == 0 for j, e in enumerate(exps) if j != i)
               for i, comp in enumerate(field.components) for exps in comp.terms)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [start, child seconds, span id, parent id]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, name, start, end), shallow ones
        self.paused = False
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self):
        self._next_id += 1
        parent = self.stack[-1][2] if self.stack else 0
        frame = [perf_counter(), 0.0, self._next_id, parent]
        self.stack.append(frame)
        return frame

    def _close(self, frame, name):
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[0]
        self.calls[name] += 1
        self.self_s[name] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        if len(self.stack) < KEEP_DEPTH:
            self.spans.append((frame[2], frame[3], name, frame[0], end))

    def aside(self, fn):
        """Run bookkeeping untraced and keep its time out of the open span."""
        start = perf_counter()
        self.paused = True
        try:
            return fn()
        finally:
            self.paused = False
            if self.stack:
                self.stack[-1][1] += perf_counter() - start

    def wrap(self, fn, name, count=None):
        """``name`` may be a function of the call's arguments."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            frame = tracer._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame, label)
            if count is not None:
                count(tracer.counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def task(self, family, run):
        return self.wrap(run, f"task.{family}")

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, fn, wrapper, namespaces):
        for owner in namespaces:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, fn))

    def install(self) -> None:
        from foliatk import cli, distribution, foliation, forms, parser, polynomials, residue, resonance
        from foliatk.forms import DiffForm
        from foliatk.polynomials import MultiPoly

        namespaces = [polynomials, forms, foliation, distribution, resonance, residue, parser, cli,
                      MultiPoly, DiffForm]

        def numeric_name(args):
            return "residue.numeric_separable" if _separable(args[0].field) else "residue.numeric_grid"

        def count_numeric(counts, args, kwargs, out):
            query = args[0]
            m = query.field.ambient_dim
            if not _separable(query.field):
                counts["residue.numeric_grid.points"] += query.samples_per_circle ** m
            numerator = self.aside(lambda: query.field.jacobian_trace() ** m)
            counts["residue.numerator_terms"] += len(numerator.terms)

        targets = [
            (MultiPoly.__dict__["__init__"], "polynomials.construct", None),
            (MultiPoly.__dict__["__mul__"], "polynomials.mul", _count_mul),
            (MultiPoly.__dict__["__add__"], "polynomials.add", None),
            (MultiPoly.__dict__["__pow__"], "polynomials.pow", None),
            (MultiPoly.__dict__["partial_derivative"], "polynomials.partial_derivative", None),
            (MultiPoly.__dict__["substitute"], "polynomials.substitute", None),
            (MultiPoly.__dict__["evaluate"], "polynomials.evaluate", _count_evaluate),
            (DiffForm.__dict__["__init__"], "forms.construct", None),
            (DiffForm.__dict__["wedge"], "forms.wedge", _count_wedge),
            (DiffForm.__dict__["exterior_derivative"], "forms.exterior_derivative", None),
            (DiffForm.__dict__["evaluate"], "forms.evaluate", None),
            (forms.interior_product, "forms.interior_product", None),
            (forms.pullback, "forms.pullback", None),
            (foliation.build_rational_component, "foliation.build_rational_component", None),
            (foliation.validate_projective, "foliation.validate_projective", None),
            (foliation.kupka_test, "foliation.kupka_test", None),
            (foliation.first_integral_check, "foliation.first_integral_check", None),
            (foliation.component_first_integral_check, "foliation.component_first_integral_check",
             None),
            (foliation.classify_point, "foliation.classify_point", None),
            (foliation.total_differential, "foliation.total_differential", None),
            (distribution.build_contact_type, "distribution.build_contact_type", None),
            (distribution.class_of, "distribution.class_of", None),
            (distribution.verify_darboux_identities, "distribution.verify_darboux_identities", None),
            (distribution.kupka_test_distribution, "distribution.kupka_test_distribution", None),
            (resonance.partition, "resonance.partition", _count_partition),
            (resonance.build_normal_form, "resonance.build_normal_form", None),
            (resonance.verify_normal_form, "resonance.verify_normal_form", None),
            (resonance.analyze_linear_part, "resonance.analyze_linear_part", None),
            (parser.parse_expr, "parser.parse", _count_parse),
            (parser.to_form, "parser.to_form", None),
            (cli.run_command, "cli.run_command", _count_report),
            (residue.build_residue_report, "residue.build_residue_report", None),
            (residue.grothendieck_residue_numeric, numeric_name, count_numeric),
        ]
        for fn, name, count in targets:
            self._replace_everywhere(fn, self.wrap(fn, name, count), namespaces)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_values(self, rounds: int) -> dict[str, float]:
        """Per-round totals for ``LAYER_METRICS``, except the import and
        overhead figures, which are measured apart from the spans."""
        values = {}
        for metric, _unit in LAYER_METRICS:
            if metric in MEASURED_APART:
                continue
            base, _, field = metric.rpartition(".")
            if field == "calls":
                value = self.calls[base]
            elif field == "self_s":
                value = self.self_s[base]
            else:
                value = self.counts[metric]
            values[metric] = value / rounds
        return values


def import_probe_code(src: str) -> str:
    """Python source that imports ``foliatk.cli`` fresh and prints the time
    and the number of modules the import loaded."""
    return (
        "import sys, time\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "start = time.process_time()\n"
        "import foliatk.cli\n"
        "print(time.process_time() - start, len(set(sys.modules) - before))\n"
    )
