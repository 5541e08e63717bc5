"""Exact-arithmetic tests for the admissibility algebra."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zaklab import params as P


def point(k, l, p, b, b1):
    return P.ParamPoint(k, l, p, b, b1)


class TestRationalParsing:
    def test_accepts_fraction_int_string(self):
        assert P.as_rational(F(3, 4)) == F(3, 4)
        assert P.as_rational(2) == F(2)
        assert P.as_rational("-1/12") == F(-1, 12)
        assert P.as_rational(" 7/12 ") == F(7, 12)

    @pytest.mark.parametrize("bad", ["0.5", "1e-3", 0.5, None, True])
    def test_rejects_inexact(self, bad):
        with pytest.raises(P.ParamDomainError):
            P.as_rational(bad)


class TestParamPoint:
    def test_derived_quantities(self):
        pt = point(0, F(-1, 2), 2, F(11, 20), F(11, 20))
        assert pt.inv_p == F(1, 2)

    def test_p_out_of_range_names_invariant(self):
        with pytest.raises(P.ParamDomainError, match="1 < p <= 2"):
            point(0, 0, 3, F(3, 4), F(3, 4))
        with pytest.raises(P.ParamDomainError, match="1 < p <= 2"):
            point(0, 0, 1, F(3, 4), F(3, 4))

    def test_b_out_of_range_names_invariant(self):
        with pytest.raises(P.ParamDomainError, match=r"b must lie in \(1/p, 1\]"):
            point(0, F(-1, 2), 2, F(1, 2), F(11, 20))
        with pytest.raises(P.ParamDomainError, match=r"b1 must lie in \(1/p, 1\]"):
            point(0, F(-1, 2), 2, F(11, 20), F(21, 20))


class TestAdmissible:
    def test_classical_corner(self):
        v = P.admissible(point(0, F(-1, 2), 2, F(1, 2) + F(1, 100), F(1, 2) + F(1, 100)))
        assert v.admissible and v.branch == P.BRANCH_K_NONNEG

    def test_optimal_rough_point(self):
        eps = F(1, 100)
        v = P.admissible(
            point(F(-1, 12) + eps, F(-7, 12), F(12, 7), F(3, 4) - eps, F(3, 4) - eps)
        )
        assert v.admissible and v.branch == P.BRANCH_K_NEG

    def test_p_three_halves_fails_first_condition(self):
        beta = F(2, 3) + F(1, 100)
        v = P.admissible(point(0, F(-2, 3), F(3, 2), beta, beta))
        assert not v.admissible
        assert "k-l < 2(1-b1)" in v.violated

    def test_origin_point_fails_by_direct_substitution(self):
        # with k = l = 0 the condition l <= 2k - 1/p' reads 0 <= -1/p',
        # false for every p > 1
        v = P.admissible(point(0, 0, 2, F(3, 4), F(3, 4)))
        assert not v.admissible
        assert "l <= 2k-1/p'" in v.violated

    def test_plainly_admissible_point(self):
        v = P.admissible(point(F(1, 4), 0, 2, F(3, 4), F(3, 4)))
        assert v.admissible and not v.violated

    def test_boundary_optimal_point_rejected_strictly(self):
        v = P.admissible(point(F(-1, 12), F(-7, 12), F(12, 7), F(3, 4), F(3, 4)))
        assert not v.admissible
        assert set(v.violated) == {"k-l < 2(1-b1)", "2k > 1/p-b1"}

    def test_reruns_are_bit_identical(self):
        pt = point(F(-1, 12) + F(1, 100), F(-7, 12), F(12, 7), F(59, 80), F(59, 80))
        assert P.admissible(pt) == P.admissible(pt)

    def test_satisfied_exactly_when_the_margin_allows(self):
        # positive margin, or zero margin on a nonstrict constraint; l = -1/p
        # puts l >= -1/p on its boundary, and the boundary optimal point
        # k-l < 2(1-b1) and 2k > 1/p-b1
        points = seeded_points(15, 300)
        points += [replace(pt, l=-pt.inv_p) for pt in points[:100]]
        points.append(point(F(-1, 12), F(-7, 12), F(12, 7), F(3, 4), F(3, 4)))
        zeros = set()
        for pt in points:
            v = P.admissible(pt)
            _, table = P.branch_constraints(pt.k)
            strict = {con.label: con.strict for con in table}
            for label, margin in v.margins:
                ok = margin > 0 or (margin == 0 and not strict[label])
                assert (label in v.satisfied) == ok and (label in v.violated) != ok
                if margin == 0:
                    zeros.add(strict[label])
        assert zeros == {True, False}

    def test_margins_cover_every_branch_constraint(self):
        pt = point(0, F(-1, 2), 2, F(5, 8), F(5, 8))
        v = P.admissible(pt)
        assert len(v.margins) == len(P.CONSTRAINTS_K_NONNEG)
        assert len(v.satisfied) + len(v.violated) == len(v.margins)


def dense_value(con, k, l, q, b, b1):
    """The constraint's value as the full five-term sum, no term skipped."""
    ck, cl, cq, cb, cb1 = con.coeffs
    return ck * k + cl * l + cq * q + cb * b + cb1 * b1 + con.const


def seeded_points(seed, count):
    """Points over both branches, k = 0 among them, with exact rationals."""
    rng = random.Random(seed)

    def frac(lo, hi):  # a rational in (lo, hi)
        return lo + F(rng.randrange(1, 97), 97) * (hi - lo)

    out = []
    for i in range(count):
        p = frac(F(1), F(2)) if i % 5 else F(2)
        k = F(0) if i % 4 == 0 else frac(F(-1), F(1))
        lo = 1 / p
        out.append(point(k, frac(F(-2), F(1)), p, frac(lo, F(1)), frac(lo, F(1))))
    return out


class TestConstraintValues:
    """Constraint.value and the windows' partial sums skip zero terms and
    add or subtract unit ones; exact arithmetic makes them the dense sum."""

    CONSTRAINTS = P.CONSTRAINTS_K_NONNEG + P.CONSTRAINTS_K_NEG

    def test_value_is_the_dense_sum(self):
        for pt in seeded_points(11, 200):
            for con in self.CONSTRAINTS:
                value = con.value(pt)
                assert type(value) is F
                assert value == dense_value(con, pt.k, pt.l, F(1) / pt.p, pt.b, pt.b1)

    def test_window_rest_is_the_dense_sum_without_b_and_b1(self):
        for pt in seeded_points(12, 100):
            q = 1 / pt.p
            for con in self.CONSTRAINTS:
                assert P._rest(con, pt.k, pt.l, q) == dense_value(con, pt.k, pt.l, q, 0, 0)

    def test_replaced_points_recompute_inv_p(self):
        for pt, other in zip(seeded_points(13, 50), seeded_points(14, 50)):
            assert pt.inv_p == 1 / pt.p  # cached on pt from here on
            moved = replace(pt, p=other.p, b=other.b, b1=other.b1, k=F(0))
            assert moved.inv_p == 1 / other.p
            assert moved == point(0, pt.l, other.p, other.b, other.b1)
            assert hash(moved) == hash(point(0, pt.l, other.p, other.b, other.b1))
            for con in self.CONSTRAINTS:
                assert con.value(moved) == dense_value(
                    con, moved.k, moved.l, F(1) / other.p, moved.b, moved.b1)


@st.composite
def _k_zero_points(draw):
    unit = st.fractions(min_value=F(1, 100), max_value=F(99, 100),
                        max_denominator=100)
    p = draw(st.fractions(min_value=F(11, 10), max_value=F(2), max_denominator=40))
    l = -1 / p + draw(unit) * (1 + 1 / p)
    lo, hi = 1 / p, F(1)
    b = lo + draw(unit) * (hi - lo)
    b1 = lo + draw(unit) * (hi - lo)
    return point(0, l, p, b, b1)


class TestBranchConsistency:
    @settings(max_examples=1000, deadline=None)
    @given(_k_zero_points())
    def test_k_zero_uses_nonneg_branch_and_is_stable_under_small_k(self, pt):
        v = P.admissible(pt)
        assert v.branch == P.BRANCH_K_NONNEG
        if not v.admissible:
            return
        # only k-l < 2(1-b1) tightens as k grows; step inside half its slack
        slack = dict(v.margins)["k-l < 2(1-b1)"]
        assert slack > 0
        bumped = point(min(slack / 2, F(1, 10**6)), pt.l, pt.p, pt.b, pt.b1)
        assert P.admissible(bumped).admissible


class TestBWindow:
    def test_optimal_point_window_exact(self):
        w = P.b_window(F(-1, 12) + F(1, 100), F(-7, 12), F(12, 7))
        assert w.nonempty
        assert (w.lower, w.upper) == (F(73, 100), F(149, 200))
        assert not w.lower_inclusive and not w.upper_inclusive
        assert w.ceiling_b1 == F(3, 4)

    def test_classical_corner_window(self):
        w = P.b_window(0, F(-1, 2), 2)
        assert w.nonempty
        assert (w.lower, w.upper) == (F(1, 2), F(3, 4))
        assert w.ceiling_b1 == F(3, 4)

    def test_empty_window_at_p_three_halves(self):
        w = P.b_window(0, F(-2, 3), F(3, 2))
        assert not w.nonempty

    def test_scan_oracle_matches_window_membership(self):
        # independent oracle: admissibility scan over the 1/1000 grid
        for (k, l, p) in [
            (F(-1, 12) + F(1, 100), F(-7, 12), F(12, 7)),
            (F(0), F(-1, 2), F(2)),
            (F(0), F(-2, 3), F(3, 2)),
        ]:
            w = P.b_window(k, l, p)
            q = 1 / p
            lo = q * 1000 // 1000
            found = []
            for i in range(int(lo * 1000), 1001):
                beta = F(i, 1000)
                if not (q < beta <= 1):
                    continue
                try:
                    ok = P.admissible(point(k, l, p, beta, beta)).admissible
                except P.ParamDomainError:
                    ok = False
                assert ok == w.contains(beta), (k, l, p, beta)
                if ok:
                    found.append(beta)
            assert bool(found) == w.nonempty or (
                # a nonempty window narrower than 1/1000 may miss the grid
                w.nonempty and (w.upper - w.lower) < F(1, 1000)
            )

    def test_2d_window_is_exact_product(self):
        k, l, p = F(-1, 12) + F(1, 100), F(-7, 12), F(12, 7)
        wb, wb1 = P.b_window_2d(k, l, p)
        for i in range(580, 1001, 7):
            for j in range(580, 1001, 11):
                b, b1 = F(i, 1000), F(j, 1000)
                q = 1 / p
                if not (q < b <= 1 and q < b1 <= 1):
                    continue
                ok = P.admissible(point(k, l, p, b, b1)).admissible
                assert ok == (wb.contains(b) and wb1.contains(b1))

    def test_no_constraint_couples_b_and_b1(self):
        # the table pass reads each constraint as a check free of b and b1,
        # a bound on b or a bound on b1, which rests on this
        for con in P.CONSTRAINTS_K_NONNEG + P.CONSTRAINTS_K_NEG:
            _, _, _, cb, cb1 = con.coeffs
            assert not (cb and cb1), con.label

    def test_diagonal_window_is_the_intersection_of_the_2d_windows(self):
        rng = random.Random(16)
        grid = [(F(1, 2), F(1, 2), F(2))]  # window-tie-k0
        for _ in range(300):
            # small denominators, so that bounds tie
            den = rng.choice((4, 6, 12))
            grid.append((F(rng.randint(-den // 2, den), den), F(rng.randint(-den, den), den),
                         1 / F(rng.randint(den // 2, den - 1), den)))
        for _ in range(300):
            # the narrow k < 0 part of the region, near the optimum
            q = F(rng.randint(24, 40), 48)
            grid.append((F(rng.randint(-6, 0), 48), -q + F(rng.randint(0, 12), 48), 1 / q))
        tested = 0
        for k, l, p in grid:
            q = 1 / p
            _, table = P.branch_constraints(k)
            if not all(con.admits(P._rest(con, k, l, q))
                       for con in table if not (con.coeffs[3] or con.coeffs[4])):
                continue
            tested += 1
            windows = P.b_window_2d(k, l, p)
            lo = max(w.lower for w in windows)
            hi = min(w.upper for w in windows)
            lo_incl = all(w.lower_inclusive for w in windows if w.lower == lo)
            hi_incl = all(w.upper_inclusive for w in windows if w.upper == hi)
            nonempty = lo < hi or (lo == hi and lo_incl and hi_incl)
            assert P.b_window(k, l, p) == P.FeasibilityWindow(
                lo, hi, lo_incl, hi_incl, nonempty, windows[1].ceiling_b1), (k, l, p)
        assert tested > 300

    def test_p_out_of_range(self):
        with pytest.raises(P.ParamDomainError):
            P.b_window(0, 0, F(5, 2))


class TestMinimalK:
    def test_optimal_line_bounds_coincide(self):
        mk = P.minimal_k(F(-7, 12), F(12, 7))
        assert mk.k_inf == F(-1, 12)
        assert not mk.attained
        assert len({v for _, v in mk.bounds}) == 1

    def test_classical_line_value_by_exact_evaluation(self):
        # bounds for 2k evaluate to (-1/3, -1/4, 0); the nonstrict bound
        # dominates, so the infimum 0 is attained
        mk = P.minimal_k(F(-1, 2), 2)
        assert dict(mk.bounds)["2k > 4/(3p)-2(l+2)/3"] == F(-1, 3)
        assert dict(mk.bounds)["2k > 3/(4p)-(l+3)/4"] == F(-1, 4)
        assert dict(mk.bounds)["2k >= l+1-1/p"] == F(0)
        assert mk.k_inf == F(0)
        assert mk.attained

    def test_l_zero_p_two(self):
        mk = P.minimal_k(0, 2)
        assert mk.k_inf == F(1, 4)
        assert mk.attained

    def test_l_below_floor_rejected(self):
        with pytest.raises(P.ParamDomainError, match="l >= -1/p"):
            P.minimal_k(F(-3, 4), 2)


class TestOptimalParameters:
    def test_exact_optimum(self):
        opt = P.optimal_parameters()
        assert (opt.p_star, opt.l_star, opt.k_inf) == (F(12, 7), F(-7, 12), F(-1, 12))
        assert opt.ceiling_b1 == F(3, 4)
        assert opt.bounds_coincide

    def test_balance_identity(self):
        opt = P.optimal_parameters()
        assert 1 / opt.p_star == F(5, 7) * opt.l_star + 1
        assert opt.k_inf == opt.l_star / 7

    def test_scaling_at_optimum(self):
        opt = P.optimal_parameters()
        assert (opt.sigma, opt.lam) == (F(-1, 6), F(-2, 3))


class TestScalingExponents:
    @pytest.mark.parametrize(
        "k,l,p,sigma,lam",
        [
            (F(-1, 12), F(-7, 12), F(12, 7), F(-1, 6), F(-2, 3)),
            (F(0), F(-1, 2), F(2), F(0), F(-1, 2)),
            (F(0), F(-2, 3), F(3, 2), F(-1, 6), F(-5, 6)),
        ],
    )
    def test_worked_examples(self, k, l, p, sigma, lam):
        assert P.scaling_exponents(k, l, p) == (sigma, lam)

    @given(
        st.fractions(min_value=F(-2), max_value=F(2), max_denominator=60),
        st.fractions(min_value=F(-2), max_value=F(2), max_denominator=60),
    )
    def test_p_two_reduces_to_identity(self, k, l):
        assert P.scaling_exponents(k, l, 2) == (k, l)


class TestSectionTwoReduction:
    # for k just above the infimum, the diagonal window is nonempty and a
    # 1/1000-grid scan finds admissible b = b1 inside it
    @pytest.mark.parametrize(
        "l,p",
        [
            (F(-7, 12), F(12, 7)),
            (F(-1, 2), F(2)),
            (F(0), F(2)),
            (F(-1, 2), F(7, 4)),
            (F(-5, 12), F(5, 3)),
            (F(1, 4), F(2)),
            (F(-1, 3), F(8, 5)),
        ],
    )
    def test_minimal_k_is_consistent_with_window(self, l, p):
        mk = P.minimal_k(l, p)
        k = mk.k_inf if mk.attained else mk.k_inf + F(1, 1000)
        w = P.b_window(k, l, p)
        assert w.nonempty
        hits = [
            beta
            for i in range(1, 1001)
            for beta in [F(i, 1000)]
            if w.contains(beta)
            and P.admissible(point(k, l, p, beta, beta)).admissible
        ]
        assert hits, (l, p, w)

    def test_infeasible_line_has_no_admissible_k(self):
        # b1 ceiling at (l, p) = (-2/3, 3/2) equals 1/p, leaving no room
        assert P.b1_feasibility_ceiling(F(-2, 3), F(3, 2)) == F(2, 3)
        w = P.b_window(0, F(-2, 3), F(3, 2))
        assert not w.nonempty
