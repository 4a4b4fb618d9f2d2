"""Exact rational-exponent calculus for bound expressions.

A bound expression is a max of monomials x^{p} D^{q} ... with Fraction
exponents.  Everything here is exact: substitution, dominance over a range
parameterized as D = x^t with t in a rational interval (each exponent is then
affine in t, so endpoint checks decide), and piecewise-linear minimax
balancing of a free parameter.

Text grammar (CLI-facing): monomials are `*`-separated factors, each a
variable name optionally followed by `^{p/q}` (braces) or `^p` / `^p/q`
(unambiguous bare token); bound expressions are comma-separated monomials.
Example: `x^{17/19} * E^{-17/19}`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import UnsupportedStructureError

VARIABLES = ("x", "D", "E", "H", "K", "L", "X", "M", "N")
_VAR_ORDER = {v: i for i, v in enumerate(VARIABLES)}

_FACTOR_RE = re.compile(
    r"\s*([A-Za-z]+)\s*(?:\^\s*(?:\{\s*([^}]*?)\s*\}|(-?\d+(?:\s*/\s*\d+)?)))?\s*$"
)


@dataclass(frozen=True)
class Monomial:
    """Product of variables raised to rational powers, implied coefficient 1."""

    exps: tuple[tuple[str, Fraction], ...]

    @classmethod
    def of(cls, **exponents) -> "Monomial":
        items = []
        for var, e in exponents.items():
            if var not in _VAR_ORDER:
                raise ValueError(f"unknown variable {var!r}; allowed: {VARIABLES}")
            e = Fraction(e)
            if e != 0:
                items.append((var, e))
        items.sort(key=lambda it: _VAR_ORDER[it[0]])
        return cls(exps=tuple(items))

    @classmethod
    def one(cls) -> "Monomial":
        return cls(exps=())

    def exponent(self, var: str) -> Fraction:
        for v, e in self.exps:
            if v == var:
                return e
        return Fraction(0)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        merged = {v: e for v, e in self.exps}
        for v, e in other.exps:
            merged[v] = merged.get(v, Fraction(0)) + e
        return Monomial.of(**merged)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self * other ** Fraction(-1)

    def __pow__(self, power) -> "Monomial":
        power = Fraction(power)
        return Monomial.of(**{v: e * power for v, e in self.exps})

    def substitute(self, var: str, replacement: "Monomial") -> "Monomial":
        """Replace var by the replacement monomial, exactly."""
        if var not in _VAR_ORDER:
            raise ValueError(f"unknown variable {var!r}")
        e = self.exponent(var)
        if e == 0:
            return self
        rest = Monomial.of(**{v: p for v, p in self.exps if v != var})
        return rest * replacement ** e

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for v, e in self.exps:
            if e == 1:
                parts.append(v)
            else:
                parts.append(f"{v}^{{{e}}}")
        return " * ".join(parts)


@dataclass(frozen=True)
class BoundExpr:
    """Max of monomials, up to unspecified constants."""

    terms: tuple[Monomial, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a bound expression needs at least one term")

    @classmethod
    def of(cls, *terms: Monomial) -> "BoundExpr":
        seen: list[Monomial] = []
        for t in terms:
            if t not in seen:
                seen.append(t)
        return cls(terms=tuple(seen))

    def substitute(self, var: str, replacement: Monomial) -> "BoundExpr":
        return BoundExpr.of(*(t.substitute(var, replacement) for t in self.terms))

    def merged(self, other: "BoundExpr") -> "BoundExpr":
        return BoundExpr.of(*self.terms, *other.terms)

    def __str__(self) -> str:
        return ", ".join(str(t) for t in self.terms)


def parse_monomial(text: str) -> Monomial:
    text = text.strip()
    if text == "1":
        return Monomial.one()
    exps: dict[str, Fraction] = {}
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"cannot parse factor {factor.strip()!r}")
        var = m.group(1)
        if var not in _VAR_ORDER:
            raise ValueError(f"unknown variable {var!r}; allowed: {VARIABLES}")
        raw = m.group(2) if m.group(2) is not None else m.group(3)
        e = Fraction(raw.replace(" ", "")) if raw is not None else Fraction(1)
        exps[var] = exps.get(var, Fraction(0)) + e
    return Monomial.of(**exps)


def parse_bound_expr(text: str) -> BoundExpr:
    return BoundExpr.of(*(parse_monomial(part) for part in text.split(",")))


# ---------------------------------------------------------------------------
# affine reduction under D = x^t


@dataclass(frozen=True)
class AffineForm:
    """Exponent of x as a function of t when the range variable is x^t."""

    const: Fraction
    slope: Fraction

    def at(self, t: Fraction) -> Fraction:
        return self.const + self.slope * t


def affine_in(m: Monomial, var: str = "D", base: str = "x") -> AffineForm:
    extra = [v for v in m.variables if v not in (var, base)]
    if extra:
        raise UnsupportedStructureError(
            f"monomial {m} does not reduce to {base} and {var}: leftover {extra}"
        )
    return AffineForm(const=m.exponent(base), slope=m.exponent(var))


@dataclass(frozen=True)
class DominanceResult:
    holds: bool
    witness: Fraction | None
    margins: tuple[tuple[Fraction, Fraction, Fraction], ...]


def dominance_check(a: Monomial, b: BoundExpr, t_lo, t_hi, *, var: str = "D",
                    base: str = "x",
                    assignments: Mapping[str, Monomial] | None = None) -> DominanceResult:
    """Is a <= max(b) whenever var = base^t, t in [t_lo, t_hi]?

    Exponents are affine in t, so checking both endpoints is exact.  margins
    lists (t, exponent of a, max exponent of b) at each endpoint; witness is
    the failing endpoint, if any.
    """
    t_lo, t_hi = Fraction(t_lo), Fraction(t_hi)
    if t_lo > t_hi:
        raise ValueError("empty range")
    if assignments:
        for v, repl in assignments.items():
            a = a.substitute(v, repl)
            b = b.substitute(v, repl)
    fa = affine_in(a, var, base)
    fbs = [affine_in(t, var, base) for t in b.terms]
    margins = []
    witness = None
    endpoints = [t_lo] if t_lo == t_hi else [t_lo, t_hi]
    for t in endpoints:
        va = fa.at(t)
        vb = max(f.at(t) for f in fbs)
        margins.append((t, va, vb))
        if va > vb and witness is None:
            witness = t
    return DominanceResult(holds=witness is None, witness=witness, margins=tuple(margins))


# ---------------------------------------------------------------------------
# minimax over a free exponent


@dataclass(frozen=True)
class MinimaxResult:
    e_star: Fraction
    value: Fraction
    optimum: Monomial
    active: tuple[int, ...]
    boundary: bool


def minimax_balance(terms: BoundExpr, lo=None, hi=None, *, var: str = "E",
                    base: str = "x") -> MinimaxResult:
    """Minimize over e in [lo, hi] the max of the terms' x-exponents with
    var = base^e.

    The max of affine forms is convex piecewise-linear, so the minimum sits at
    a pairwise intersection or a range endpoint; all candidates are evaluated
    exactly.  active lists the term indices attaining the max at the optimum
    (at an interior optimum at least two forms equalize).
    """
    if not isinstance(terms, BoundExpr):
        terms = BoundExpr.of(*terms)
    forms = [affine_in(t, var, base) for t in terms.terms]
    lo = Fraction(lo) if lo is not None else None
    hi = Fraction(hi) if hi is not None else None
    if lo is not None and hi is not None and lo > hi:
        raise ValueError("empty range")
    if lo is None and all(f.slope > 0 for f in forms):
        raise ValueError("unbounded below: every term decreases as e -> -inf")
    if hi is None and all(f.slope < 0 for f in forms):
        raise ValueError("unbounded below: every term decreases as e -> +inf")

    candidates: set[Fraction] = set()
    if lo is not None:
        candidates.add(lo)
    if hi is not None:
        candidates.add(hi)
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            if forms[i].slope == forms[j].slope:
                continue
            e = (forms[j].const - forms[i].const) / (forms[i].slope - forms[j].slope)
            if (lo is None or e >= lo) and (hi is None or e <= hi):
                candidates.add(e)
    if not candidates:
        # every slope equal; envelope is a single affine form
        if forms[0].slope != 0:
            raise ValueError("unbounded: common nonzero slope with open range")
        candidates.add(Fraction(0))

    best_e = None
    best_v = None
    for e in sorted(candidates):
        v = max(f.at(e) for f in forms)
        if best_v is None or v < best_v:
            best_e, best_v = e, v
    active = tuple(i for i, f in enumerate(forms) if f.at(best_e) == best_v)
    boundary = best_e in (lo, hi)
    return MinimaxResult(
        e_star=best_e,
        value=best_v,
        optimum=Monomial.of(**{base: best_v}),
        active=active,
        boundary=boundary,
    )


@dataclass(frozen=True)
class BalancePairResult:
    l_star: Monomial | None
    value: Monomial | None
    boundary: bool


def balance_pair(a: Monomial, b: Monomial, var: str = "L") -> BalancePairResult:
    """Equalize two monomial terms in var over var >= 1.

    With var-exponents p < 0 < q the minimum of max(a, b) over var sits where
    the terms agree: var* = (a_rest/b_rest)^{1/(q-p)}, value = a at var*.
    When one exponent vanishes the optimum runs to the boundary (var -> inf)
    and only the flag plus the limiting value are returned.
    """
    p = a.exponent(var)
    q = b.exponent(var)
    if p == q:
        raise UnsupportedStructureError(
            f"both terms scale as {var}^{{{p}}}; nothing to balance"
        )
    a_rest = a.substitute(var, Monomial.one())
    b_rest = b.substitute(var, Monomial.one())
    if p == 0 or q == 0:
        limit = a_rest if p == 0 else b_rest
        return BalancePairResult(l_star=None, value=limit, boundary=True)
    if (p > 0) == (q > 0):
        return BalancePairResult(l_star=None, value=None, boundary=True)
    l_star = (a_rest / b_rest) ** (Fraction(1) / (q - p))
    value = a_rest * l_star ** p
    check = b_rest * l_star ** q
    if value != check:
        raise AssertionError("balance self-check failed")
    return BalancePairResult(l_star=l_star, value=value, boundary=False)


# ---------------------------------------------------------------------------
# endpoint maximization over a monomial range


def range_max(expr: BoundExpr, var: str, lo: Monomial | None,
              hi: Monomial | None) -> BoundExpr:
    """Max of each term over var in [lo, hi], for var >= 1 and monotone terms.

    A term with positive var-exponent peaks at hi, negative at lo; exponent 0
    leaves the term unchanged.  The substituted endpoint must be supplied."""
    out = []
    for t in expr.terms:
        e = t.exponent(var)
        if e == 0:
            out.append(t)
            continue
        end = hi if e > 0 else lo
        which = "hi" if e > 0 else "lo"
        if end is None:
            raise ValueError(f"term {t} needs the {which} endpoint of {var}")
        out.append(t.substitute(var, end))
    return BoundExpr.of(*out)


# ---------------------------------------------------------------------------
# exponent pairs and the bound shapes built from them


@dataclass(frozen=True)
class ExponentPair:
    kappa: Fraction
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "kappa", Fraction(self.kappa))
        object.__setattr__(self, "lam", Fraction(self.lam))
        if not (0 <= self.kappa <= Fraction(1, 2) <= self.lam <= 1):
            raise ValueError("need 0 <= kappa <= 1/2 <= lambda <= 1")


def lwy_first_term(pair: ExponentPair) -> Monomial:
    """(X^k H^{2+k} M^{2+k} N^{1+k+l})^{1/(2+2k)} as a monomial."""
    k, lam = pair.kappa, pair.lam
    d = 2 + 2 * k
    return Monomial.of(X=k / d, H=(2 + k) / d, M=(2 + k) / d, N=(1 + k + lam) / d)


def type_one_bound(pair: ExponentPair, include_l_term: bool = False) -> BoundExpr:
    """Bound shape x^k D^{(-5k+2l+1)/3} L^k + x^{-1} D^2 for the smooth-variable
    sums, optionally with the D L^{-1} sharp-cutoff remainder term."""
    k, lam = pair.kappa, pair.lam
    terms = [
        Monomial.of(x=k, D=(-5 * k + 2 * lam + 1) / 3, L=k),
        Monomial.of(x=-1, D=2),
    ]
    if include_l_term:
        terms.insert(0, Monomial.of(D=1, L=-1))
    return BoundExpr.of(*terms)


@dataclass(frozen=True)
class TypeOneResult:
    expr: BoundExpr
    l_star: Monomial | None
    boundary: bool


def optimize_type_one(pair: ExponentPair) -> TypeOneResult:
    """Balance the D L^{-1} term against the L^k term over L >= 1.

    For k > 0 this yields (x^{3k} D^{-2k+2l+1})^{1/(3k+3)} plus the L = 1
    values of the other terms; for k = 0 the optimum runs off to L = inf and
    the boundary flag is set."""
    full = type_one_bound(pair, include_l_term=True)
    dl_term, l_term, tail = full.terms
    balanced = balance_pair(dl_term, l_term, var="L")
    at_one = l_term.substitute("L", Monomial.one())
    if balanced.boundary:
        return TypeOneResult(
            expr=BoundExpr.of(at_one, tail), l_star=None, boundary=True
        )
    return TypeOneResult(
        expr=BoundExpr.of(balanced.value, at_one, tail),
        l_star=balanced.l_star,
        boundary=False,
    )


# ---------------------------------------------------------------------------
# the concrete reduction chain behind the 17/36 error exponent

THETA = Fraction(44, 95)
H_EXPONENT = Fraction(2, 19)
K_EXPONENT = Fraction(7, 380)
T_RANGE = (Fraction(11, 21), Fraction(3, 4))
E_RANGE = (Fraction(8, 17), Fraction(1, 2))
SMALL_RANGE_FLOOR = Fraction(6, 13)
SMALL_RANGE_CEIL = Fraction(2, 3)


def segment_bound_small() -> BoundExpr:
    """x^{1/6} D^{7/12}: the dyadic-segment bound used when D is below the
    crossover x^{11/21} (valid for x^{6/13} <= D <= x^{2/3})."""
    return BoundExpr.of(Monomial.of(x=Fraction(1, 6), D=Fraction(7, 12)))


def rough_segment_terms() -> BoundExpr:
    """Pre-reduction bound for the two rough-variable sums over a dyadic
    segment, in x, D, H, K, with the splitting parameter THETA in (1/3, 1/2):
    D H^{-1} + x^{1/4} D^{3/8} K^{1/4} + D^{1-THETA/4} K^{1/2}
    + x^{1/6} D^{1/2+THETA/6} + D^{8/9}."""
    return BoundExpr.of(
        Monomial.of(D=1, H=-1),
        Monomial.of(x=Fraction(1, 4), D=Fraction(3, 8), K=Fraction(1, 4)),
        Monomial.of(D=1 - THETA / 4, K=Fraction(1, 2)),
        Monomial.of(x=Fraction(1, 6), D=Fraction(1, 2) + THETA / 6),
        Monomial.of(D=Fraction(8, 9)),
    )


@dataclass(frozen=True)
class ReductionResult:
    expr: BoundExpr
    certificates: tuple[tuple[str, DominanceResult], ...]


def reduce_rough_segment() -> ReductionResult:
    """Substitute H = D^{H_EXPONENT}, K = D^{K_EXPONENT} into
    rough_segment_terms and drop every term dominated by the survivors over
    D = x^t, t in T_RANGE.

    The survivors are D^{17/19} and x^{1/6} D^{329/570}; each dropped term
    carries an endpoint-dominance certificate."""
    assignments = {"H": Monomial.of(D=H_EXPONENT), "K": Monomial.of(D=K_EXPONENT)}
    raw = rough_segment_terms()
    for v, repl in assignments.items():
        raw = raw.substitute(v, repl)
    survivors = BoundExpr.of(
        Monomial.of(D=1 - H_EXPONENT),
        Monomial.of(x=Fraction(1, 6), D=Fraction(1, 2) + THETA / 6),
    )
    certs = []
    for term in raw.terms:
        if term in survivors.terms:
            continue
        res = dominance_check(term, survivors, *T_RANGE)
        certs.append((str(term), res))
        if not res.holds:
            raise AssertionError(
                f"term {term} not dominated at t = {res.witness}"
            )
    return ReductionResult(expr=survivors, certificates=tuple(certs))


def segment_bound_large() -> BoundExpr:
    """D^{17/19} + x^{1/6} D^{329/570}: the dyadic-segment bound above the
    crossover, assembled from the reduced rough part and the optimized smooth
    part, with the smooth terms certified dominated over t in [11/21, 3/4]."""
    rough = reduce_rough_segment()
    smooth = optimize_type_one(ExponentPair(Fraction(1, 2), Fraction(1, 2)))
    for term in smooth.expr.terms:
        res = dominance_check(term, rough.expr, *T_RANGE)
        if not res.holds:
            raise AssertionError(f"smooth term {term} not dominated")
    return rough.expr


@dataclass(frozen=True)
class PipelineResult:
    e_star: Fraction
    value: Fraction
    optimum: Monomial
    minimax: MinimaxResult
    small_peak: BoundExpr
    large_peak: BoundExpr


def combined_error_exponent() -> PipelineResult:
    """Full balancing chain for the floor-sum error term.

    Peaks the small-segment bound over D in [E, x^{11/21}] and the
    large-segment bound over D in (x^{11/21}, x/E], adds the head term E from
    the initial-segment estimate, and minimaxes over E = x^e,
    e in [8/17, 1/2].  Returns e* = 17/36 with value x^{17/36}."""
    lo_e, hi_e = E_RANGE
    crossover = Fraction(11, 21)
    if lo_e < SMALL_RANGE_FLOOR or crossover > SMALL_RANGE_CEIL:
        raise AssertionError("small-segment bound used outside its validity window")
    e_mono = Monomial.of(E=1)
    cross_mono = Monomial.of(x=crossover)
    x_over_e = Monomial.of(x=1, E=-1)
    small_peak = range_max(segment_bound_small(), "D", lo=e_mono, hi=cross_mono)
    large_peak = range_max(segment_bound_large(), "D", lo=cross_mono, hi=x_over_e)
    expr = BoundExpr.of(e_mono).merged(small_peak).merged(large_peak)
    res = minimax_balance(expr, lo_e, hi_e)
    return PipelineResult(
        e_star=res.e_star,
        value=res.value,
        optimum=res.optimum,
        minimax=res,
        small_peak=small_peak,
        large_peak=large_peak,
    )


@dataclass(frozen=True)
class GapResult:
    holds: bool
    margins: tuple[tuple[Fraction, Fraction, Fraction], ...]


def side_condition_gap() -> GapResult:
    """Strict exponent gap behind the smallness condition x H'/(M N) = o(D K).

    With H' <= K D^{13/380} = D^{H_EXPONENT} and M N of size D, the left side
    is at most x D^{H_EXPONENT - 1} and the right side is D^{1 + K_EXPONENT}.
    The gap is certified as a STRICT exponent inequality at both endpoints of
    t = log_x D in T_RANGE (affine in t, so that settles the whole range); the
    unquantified constant in the o(.) itself is out of scope."""
    lhs = Monomial.of(x=1, D=H_EXPONENT - 1)
    rhs = Monomial.of(D=1 + K_EXPONENT)
    fl = affine_in(lhs)
    fr = affine_in(rhs)
    margins = []
    holds = True
    for t in T_RANGE:
        a, b = fl.at(t), fr.at(t)
        margins.append((t, a, b))
        if not a < b:
            holds = False
    return GapResult(holds=holds, margins=tuple(margins))
