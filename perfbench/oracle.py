"""Independent arithmetic the benchmark checks the program against.

Nothing here imports foliatk.  Polynomials are plain ``{exponents:
Fraction}`` dicts, matrices are lists of ``Fraction`` rows, and reports are
flattened to ``{"result.key": "text"}`` maps so that text and ``--json``
output are checked by the same code.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

F = Fraction


class CheckFailure(Exception):
    """An output of the program disagrees with the expected value."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# -- polynomials as term dicts ---------------------------------------------

@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of total degree ``degree`` in ``nvars`` variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return tuple(out)


COEFFS = (1, -1, 2, -2, 3, -3, 4, F(1, 2), F(-3, 2), F(2, 3))


def random_homogeneous(rng, nvars: int, degree: int, terms: int) -> dict:
    """Exactly ``terms`` distinct monomials of one degree, nonzero coefficients."""
    pool = monomials(nvars, degree)
    return {m: F(rng.choice(COEFFS)) for m in rng.sample(pool, min(terms, len(pool)))}


def poly_value(poly: dict, point) -> Fraction:
    total = F(0)
    for exps, c in poly.items():
        term = c
        for v, e in zip(point, exps):
            if e:
                term *= v ** e
        total += term
    return total


def poly_gradient(poly: dict, point) -> list[Fraction]:
    grad = [F(0)] * len(point)
    for exps, c in poly.items():
        for i, e in enumerate(exps):
            if not e:
                continue
            term = c * e
            for j, (v, ej) in enumerate(zip(point, exps)):
                power = ej - 1 if j == i else ej
                if power:
                    term *= v ** power
            grad[i] += term
    return grad


def poly_text(poly: dict) -> str:
    """Expression text in the parser's grammar (``3/2*x0^2 - x1*x2``)."""
    pieces = []
    for exps, c in sorted(poly.items(), reverse=True):
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def random_point(rng, nvars: int, low: int = -3, high: int = 3) -> list[Fraction]:
    while True:
        point = [F(rng.randint(low, high), rng.choice((1, 1, 2))) for _ in range(nvars)]
        if any(point):
            return point


# -- linear algebra over Q -------------------------------------------------

def rank(rows) -> int:
    work = [list(map(F, row)) for row in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][col] != 0:
                factor = work[i][col] / work[r][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def det(rows) -> Fraction:
    work = [list(map(F, row)) for row in rows]
    n = len(work)
    sign = 1
    result = F(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        result *= work[col][col]
        for i in range(col + 1, n):
            factor = work[i][col] / work[col][col]
            work[i] = [a - factor * b for a, b in zip(work[i], work[col])]
    return sign * result


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def inverse(rows):
    n = len(rows)
    work = [list(map(F, row)) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [v / lead for v in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[col])]
    return [row[n:] for row in work]


# -- pointwise verdicts ----------------------------------------------------

REGULAR, KUPKA, NON_KUPKA = "Regular", "Kupka", "NonKupkaSingular"


def generator_verdict(polys, point, contact: bool) -> str | None:
    """Classification at ``point`` of the rational-component form
    ``iota_R(df_0 ^ ... ^ df_q)`` or the contact form
    ``sum_i (f_i df_(i+r) - f_(i+r) df_i)`` built from ``polys``, read off
    the generators alone.

    Where the differentials ``df_j(p)`` are independent, either form
    vanishes exactly when every ``f_j(p)`` does (Euler: ``df_j(R) = d_j
    f_j``), and the secondary form (``d omega = c df_0^..^df_q``,
    ``(d omega)^r = 2^r r! df_0^..^df_(2r-1)`` up to sign) is nonzero.
    Where they are dependent the secondary form vanishes, and so does the
    rational-component form.  Returns None for the one undecided case: a
    contact form with dependent differentials and some ``f_j(p) != 0``.
    """
    independent = rank([poly_gradient(f, point) for f in polys]) == len(polys)
    all_zero = all(poly_value(f, point) == 0 for f in polys)
    if independent:
        return KUPKA if all_zero else REGULAR
    return NON_KUPKA if all_zero or not contact else None


def first_integral_fails_at(polys, degrees, f, m_f, g, m_g, point) -> bool:
    """True when ``(q dp - p dq) ^ omega`` is nonzero at ``point`` for
    ``p = f^m_f``, ``q = g^m_g`` and the rational-component form
    ``omega = sum_t (-1)^t d_t f_t  wedge_(s != t) df_s`` of ``polys``.

    Each component of the wedge over a coordinate subset ``S`` is a sum of
    determinants of the covectors restricted to ``S``.
    """
    values = [poly_value(h, point) for h in polys]
    grads = [poly_gradient(h, point) for h in polys]
    fv, gv = poly_value(f, point), poly_value(g, point)
    p, q = fv ** m_f, gv ** m_g
    dp = [m_f * fv ** (m_f - 1) * a for a in poly_gradient(f, point)]
    dq = [m_g * gv ** (m_g - 1) * b for b in poly_gradient(g, point)]
    v = [q * a - p * b for a, b in zip(dp, dq)]
    count = len(polys)
    for subset in itertools.combinations(range(len(point)), count):
        total = F(0)
        for t in range(count):
            rows = [v] + [grads[s] for s in range(count) if s != t]
            total += (-1) ** t * degrees[t] * values[t] * det([[row[c] for c in subset] for row in rows])
        if total != 0:
            return True
    return False


# -- resonance -------------------------------------------------------------

def relations_over(values, target: int) -> list[tuple[int, ...]]:
    """Every m >= 0 with sum(m_i values_i) == target and |m| >= 2, sorted."""
    ranges = [range(target // v + 1) for v in values]
    return sorted(m for m in itertools.product(*ranges)
                  if sum(a * b for a, b in zip(m, values)) == target and sum(m) >= 2)


def greedy_partition(lambdas):
    """(non-resonant values, resonant values, {slot: relations}) by the
    ascending sweep: a value is resonant when it is an order->=2 combination
    of the non-resonant values collected before it."""
    nr, res = [], []
    for lam in sorted(lambdas):
        (res if nr and relations_over(nr, lam) else nr).append(lam)
    return nr, res, {s: relations_over(nr, lam) for s, lam in enumerate(res, start=1)}


# -- reports ---------------------------------------------------------------

def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar_text(v) for v in value) + "]"
    return str(value)


def flatten_json(text: str) -> dict[str, str]:
    """``{"result.classification": "Kupka", ...}`` from a ``--json`` report."""
    flat: dict[str, str] = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            if not value:
                flat[prefix] = "{}"
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), sub)
        else:
            flat[prefix] = _scalar_text(value)

    walk("", json.loads(text))
    return flat


def flatten_text(text: str) -> dict[str, str]:
    """The same map from an indented ``key: value`` text report."""
    flat: dict[str, str] = {}
    path: list[str] = []
    lines = text.splitlines()
    for n, line in enumerate(lines):
        depth = (len(line) - len(line.lstrip(" "))) // 2
        body = line.strip()
        del path[depth:]
        if body.endswith(":") and ": " not in body:
            path.append(body[:-1])
            nxt = lines[n + 1] if n + 1 < len(lines) else ""
            if (len(nxt) - len(nxt.lstrip(" "))) // 2 <= depth:
                flat[".".join(path)] = "{}"
            continue
        key, _, value = body.partition(": ")
        flat[".".join(path + [key])] = value
    return flat


def flatten_report(text: str, as_json: bool) -> dict[str, str]:
    try:
        return flatten_json(text) if as_json else flatten_text(text)
    except (ValueError, IndexError) as exc:
        raise CheckFailure(f"unreadable report: {exc}") from None


def expect_fields(flat: dict[str, str], expected: dict[str, object]) -> None:
    for key, value in expected.items():
        want = _scalar_text(value)
        got = flat.get(key)
        require(got == want, f"{key}: expected {want!r}, got {got!r}")


def close_to(got: complex, want: complex, what: str, rel: float = 1e-9) -> None:
    """|got - want| <= rel * max(1, |want|); NaN fails."""
    error = abs(complex(got) - complex(want))
    require(error <= rel * max(1.0, abs(complex(want))),
            f"{what}: {got} is not within {rel:g} of {want}")


def binomial_sections(n: int, k: int, c: int) -> int:
    return math.comb(c + k, c) * math.comb(c - 1, n - k) if c >= n - k + 1 else 0


def brute_force_pairs(c: int, d: int) -> list[list[int]]:
    return [[a, c - a] for a in range(1, c) if a <= c - a and a * (c - a) == d]
