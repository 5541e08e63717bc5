"""Exact rational algebra for the Zakharov admissibility region.

Parameter tuples (k, l, p, b, b1) with 1 < p <= 2 and b, b1 in (1/p, 1]
are classified against a finite system of affine inequalities in
(k, l, 1/p, b, b1).  The system splits into a branch for k >= 0 and a
branch for k < 0; the point k = 0 is assigned to the k >= 0 branch.
All arithmetic is over fractions.Fraction, so verdicts are exact and
re-running a query is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from . import ZaklabError

RationalLike = Union[Fraction, int, str]

BRANCH_K_NONNEG = "k>=0"
BRANCH_K_NEG = "k<0"


class ParamDomainError(ZaklabError):
    """An input violates a type invariant of the parameter algebra."""


def _check_p(p: Fraction) -> None:
    if not (1 < p <= 2):
        raise ParamDomainError(f"p must satisfy 1 < p <= 2 (got {p})")


def as_rational(x: RationalLike) -> Fraction:
    """Parse an exact rational.  Floats and decimal strings are rejected."""
    if isinstance(x, bool):
        raise ParamDomainError(f"not a rational: {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if "." in s or "e" in s.lower():
            raise ParamDomainError(
                f"decimal literal {x!r} is not exact; write it as p/q"
            )
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParamDomainError(f"cannot parse rational {x!r}") from exc
    raise ParamDomainError(
        f"cannot accept {type(x).__name__} as a rational (floats are inexact)"
    )


@dataclass(frozen=True)
class ParamPoint:
    """A parameter tuple (k, l, p, b, b1), validated on construction.

    Invariants: 1 < p <= 2 and b, b1 in (1/p, 1].
    """

    k: Fraction
    l: Fraction
    p: Fraction
    b: Fraction
    b1: Fraction

    def __post_init__(self):
        for name in ("k", "l", "p", "b", "b1"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        _check_p(self.p)
        for name in ("b", "b1"):
            v = getattr(self, name)
            if not (self.inv_p < v <= 1):
                raise ParamDomainError(
                    f"{name} must lie in (1/p, 1] (got {v}, 1/p = {self.inv_p})"
                )

    @cached_property
    def inv_p(self) -> Fraction:
        return 1 / self.p


@dataclass(frozen=True)
class Constraint:
    """Affine inequality  ck*k + cl*l + cq*(1/p) + cb*b + cb1*b1 + const REL 0.

    REL is "< 0" when strict, "<= 0" otherwise.  The label states the
    inequality in its conventional written form.
    """

    label: str
    coeffs: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]
    const: Fraction
    strict: bool

    def value(self, pt: ParamPoint) -> Fraction:
        return _affine(self.coeffs, (pt.k, pt.l, pt.inv_p, pt.b, pt.b1), self.const)

    def admits(self, value: Fraction) -> bool:
        """Whether a value of the left-hand side satisfies REL 0."""
        return value < 0 if self.strict else value <= 0


def _affine(coeffs, values, const: Fraction) -> Fraction:
    """const + sum of c*v over the pairs, exactly: a term with c = 0 is
    skipped and one with c = +-1 adds or subtracts v without a product."""
    total = const
    for c, v in zip(coeffs, values):
        if c == 1:
            total += v
        elif c == -1:
            total -= v
        elif c:
            total += c * v
    return total


def _c(label, k=0, l=0, q=0, b=0, b1=0, const=0, strict=False) -> Constraint:
    coeffs = tuple(Fraction(v) for v in (k, l, q, b, b1))
    return Constraint(label, coeffs, Fraction(const), strict)


# Branch for k >= 0.
CONSTRAINTS_K_NONNEG = (
    _c("l >= -1/p", l=-1, q=-1),
    _c("k-l < 2(1-b1)", k=1, l=-1, b1=2, const=-2, strict=True),
    _c("l <= 2k-1/p'", k=-2, l=1, q=-1, const=1),
    _c("l+1-k < 1/p+2(1-b)", k=-1, l=1, q=-1, b=2, const=-1, strict=True),
    _c("l+1-k <= 2b1", k=-1, l=1, b1=-2, const=1),
)

# Branch for k < 0.
CONSTRAINTS_K_NEG = (
    _c("k >= -1/p", k=-1, q=-1),
    _c("l >= -1/p", l=-1, q=-1),
    _c("l+k > 1/p-2b1", k=-1, l=-1, q=1, b1=-2, strict=True),
    _c("l+k > 1/p-2b", k=-1, l=-1, q=1, b=-2, strict=True),
    _c("l+k > -1/p-2(1-b1)", k=-1, l=-1, q=-1, b1=2, const=-2, strict=True),
    _c("k-l < 2(1-b1)", k=1, l=-1, b1=2, const=-2, strict=True),
    _c("2k > 1/p-b1", k=-2, q=1, b1=-1, strict=True),
    _c("2k >= l+1/p'", k=-2, l=1, q=-1, const=1),
    _c("2k > -(1-b)", k=-2, b=1, const=-1, strict=True),
)


def branch_constraints(k: Fraction) -> tuple[str, tuple[Constraint, ...]]:
    if k >= 0:
        return BRANCH_K_NONNEG, CONSTRAINTS_K_NONNEG
    return BRANCH_K_NEG, CONSTRAINTS_K_NEG


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    branch: str
    satisfied: tuple[str, ...]
    violated: tuple[str, ...]
    margins: tuple[tuple[str, Fraction], ...]


def admissible(pt: ParamPoint) -> AdmissibilityVerdict:
    """Classify pt against the inequality system of its branch.

    The branch is selected by sign(k), with k = 0 using the k >= 0 branch.
    The verdict lists every constraint of that branch with exact
    satisfied/violated status and the signed slack (positive = satisfied
    with room, zero = active boundary of a nonstrict constraint).
    """
    branch, constraints = branch_constraints(pt.k)
    satisfied, violated, margins = [], [], []
    for con in constraints:
        value = con.value(pt)
        margins.append((con.label, -value))
        (satisfied if con.admits(value) else violated).append(con.label)
    return AdmissibilityVerdict(
        admissible=not violated,
        branch=branch,
        satisfied=tuple(satisfied),
        violated=tuple(violated),
        margins=tuple(margins),
    )


@dataclass(frozen=True)
class FeasibilityWindow:
    """Interval of diagonal b = b1 values admitting an admissible point.

    The lower end is exclusive except when the binding bound is one of the
    nonstrict inequalities (lower_inclusive then marks it).  ceiling_b1 is
    the k-independent feasibility ceiling for b1 at (l, p), i.e. the ceiling
    obtained by eliminating k between the constraint pairs that couple k
    and b1; it can exceed the upper end of the fixed-k window.
    """

    lower: Fraction
    upper: Fraction
    lower_inclusive: bool
    upper_inclusive: bool
    nonempty: bool
    ceiling_b1: Fraction | None = None

    def contains(self, beta: Fraction) -> bool:
        if not self.nonempty:
            return False
        above = beta >= self.lower if self.lower_inclusive else beta > self.lower
        below = beta <= self.upper if self.upper_inclusive else beta < self.upper
        return above and below


def b1_feasibility_ceiling(l: RationalLike, p: RationalLike) -> Fraction:
    """Upper bound for b1 over all admissible k at fixed (l, p)."""
    l = as_rational(l)
    p = as_rational(p)
    q = 1 / p
    return min(Fraction(2, 3) * (l + 2) - q / 3, l / 4 + Fraction(3, 4) + q / 4)


def _rest(con: Constraint, k: Fraction, l: Fraction, q: Fraction) -> Fraction:
    """The constraint's value at (k, l, 1/p) with its b and b1 terms left out."""
    return _affine(con.coeffs[:3], (k, l, q), con.const)


def _table_pass(k: RationalLike, l: RationalLike, p: RationalLike):
    """One pass over the branch table at (k, l, 1/p).  Returns 1/p, whether
    every constraint in neither b nor b1 holds, and the lower and upper
    bounds (value, inclusive) that the others put on b (index 0) and on b1
    (index 1)."""
    k, l, p = as_rational(k), as_rational(l), as_rational(p)
    _check_p(p)
    q = 1 / p
    free_hold = True
    lowers, uppers = ([], []), ([], [])
    for con in branch_constraints(k)[1]:
        rest = _rest(con, k, l, q)
        cb, cb1 = con.coeffs[3:]
        if not (cb or cb1):
            free_hold = free_hold and con.admits(rest)
            continue
        var, cv = (0, cb) if cb else (1, cb1)
        (uppers if cv > 0 else lowers)[var].append((-rest / cv, not con.strict))
    return q, free_hold, lowers, uppers


def _window(lowers, uppers, q: Fraction, free_hold: bool, ceiling) -> FeasibilityWindow:
    """The interval (1/p, 1] cut by the bounds (value, inclusive) of one
    variable.  It is empty unless free_hold."""
    lowers = [(q, False), *lowers]
    uppers = [(Fraction(1), True), *uppers]
    # the tightest bound is the end; at a tie an exclusive bound wins
    lo = max(v for v, _ in lowers)
    hi = min(v for v, _ in uppers)
    lo_incl = all(incl for v, incl in lowers if v == lo)
    hi_incl = all(incl for v, incl in uppers if v == hi)
    nonempty = free_hold and (lo < hi or (lo == hi and lo_incl and hi_incl))
    return FeasibilityWindow(lo, hi, lo_incl, hi_incl, nonempty, ceiling)


def b_window(
    k: RationalLike, l: RationalLike, p: RationalLike
) -> FeasibilityWindow:
    """Exact diagonal window of b = b1 values making (k, l, p, b, b) admissible.

    Every branch constraint is affine in beta = b = b1, and each one in
    beta bounds b or b1 alone, so the window is (1/p, 1] cut by the bounds
    on both.  Constraints not involving beta that fail make the window
    empty outright, (1/p, 1/p).
    """
    q, free_hold, lowers, uppers = _table_pass(k, l, p)
    ceiling = b1_feasibility_ceiling(l, p)
    if not free_hold:
        return FeasibilityWindow(q, q, False, False, False, ceiling)
    return _window(lowers[0] + lowers[1], uppers[0] + uppers[1], q, True, ceiling)


def b_window_2d(
    k: RationalLike, l: RationalLike, p: RationalLike
) -> tuple[FeasibilityWindow, FeasibilityWindow]:
    """Per-variable (b, b1) windows; no branch constraint couples b and b1,
    so the full 2D feasible set is exactly their product."""
    q, free_hold, lowers, uppers = _table_pass(k, l, p)
    return (
        _window(lowers[0], uppers[0], q, free_hold, None),
        _window(lowers[1], uppers[1], q, free_hold, b1_feasibility_ceiling(l, p)),
    )


@dataclass(frozen=True)
class MinimalK:
    """Infimum of admissible k at fixed (l, p), from the three lower bounds
    for 2k.  attained is True only when the nonstrict bound strictly
    dominates; otherwise the infimum is approached but never reached."""

    k_inf: Fraction
    attained: bool
    bounds: tuple[tuple[str, Fraction], ...]


def minimal_k(l: RationalLike, p: RationalLike) -> MinimalK:
    """Max of the three lower bounds for 2k at (l, p), divided by two.

    The two strict bounds come from eliminating b1 against its feasibility
    ceiling; the nonstrict one is the constraint 2k >= l + 1/p' itself.
    Requires l >= -1/p (below that no point is admissible at any k).
    """
    l, p = as_rational(l), as_rational(p)
    _check_p(p)
    q = 1 / p
    if l < -q:
        raise ParamDomainError(f"requires l >= -1/p (got l = {l}, -1/p = {-q})")
    bounds = (
        ("2k > 4/(3p)-2(l+2)/3", Fraction(4, 3) * q - Fraction(2, 3) * (l + 2), True),
        ("2k > 3/(4p)-(l+3)/4", Fraction(3, 4) * q - (l + 3) / 4, True),
        ("2k >= l+1-1/p", l + 1 - q, False),
    )
    top = max(v for _, v, _ in bounds)
    strict_top = max(v for _, v, s in bounds if s)
    nonstrict_top = bounds[2][1]
    attained = nonstrict_top == top and nonstrict_top > strict_top
    return MinimalK(
        k_inf=top / 2,
        attained=attained,
        bounds=tuple((label, v) for label, v, _ in bounds),
    )


def scaling_exponents(
    k: RationalLike, l: RationalLike, p: RationalLike
) -> tuple[Fraction, Fraction]:
    """Sobolev scaling exponents (sigma, lambda) = (k, l) - 1/p + 1/2."""
    k, l, p = as_rational(k), as_rational(l), as_rational(p)
    _check_p(p)
    q = 1 / p
    half = Fraction(1, 2)
    return k - q + half, l - q + half


@dataclass(frozen=True)
class OptimalParameters:
    p_star: Fraction
    l_star: Fraction
    k_inf: Fraction
    ceiling_b1: Fraction
    sigma: Fraction
    lam: Fraction
    two_k_bounds: tuple[tuple[str, Fraction], ...]
    bounds_coincide: bool


def optimal_parameters() -> OptimalParameters:
    """Minimize the infimum of k over (l, p), with l at its floor -1/p.

    Setting l = -1/p and balancing the first and third lower bounds for 2k
    gives a linear equation for q = 1/p; at the balance point all three
    lower bounds coincide, which the result records as a verification.
    """
    # 4q/3 - 2(2 - q)/3 = 1 - 2q  =>  2q - 4/3 = 1 - 2q  =>  q = 7/12
    q = (Fraction(1) + Fraction(4, 3)) / 4
    p_star = 1 / q
    l_star = -q
    mk = minimal_k(l_star, p_star)
    values = [v for _, v in mk.bounds]
    coincide = len(set(values)) == 1
    sigma, lam = scaling_exponents(mk.k_inf, l_star, p_star)
    return OptimalParameters(
        p_star=p_star,
        l_star=l_star,
        k_inf=mk.k_inf,
        ceiling_b1=b1_feasibility_ceiling(l_star, p_star),
        sigma=sigma,
        lam=lam,
        two_k_bounds=mk.bounds,
        bounds_coincide=coincide,
    )
