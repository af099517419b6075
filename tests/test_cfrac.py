import pytest

from fqlattice.cfrac import (
    artin_step, brute_force_shortest, cf_expand, cf_value, check_approx,
    convergents, is_convergent, penultimate_ratio, shortest_solution,
)
from fqlattice.field import Fq, is_coprime, polys_up_to_degree
from fqlattice.laurent import RationalFn, rat

F2 = Fq(2)
F3 = Fq(3)


def R(field, num, den=None):
    return rat(field.poly(num)) if den is None else rat(field.poly(num), field.poly(den))


def unit_ball_fractions(field, maxdeg):
    """Nonzero reduced fractions with valuation >= 1, denominators up to maxdeg."""
    out = []
    seen = set()
    for b in polys_up_to_degree(field, maxdeg):
        if b.is_zero() or b.degree < 1:
            continue
        for a in polys_up_to_degree(field, b.degree - 1):
            if a.is_zero():
                continue
            f = rat(a, b)
            if f not in seen:
                seen.add(f)
                out.append(f)
    return out


class TestArtinStep:
    def test_examples(self):
        f = R(F2, (1,), (1, 0, 1))  # 1/(Y^2+1)
        assert artin_step(f).is_zero()
        g = R(F2, (0, 1), (1, 0, 1))  # Y/(Y^2+1), 1/g = Y + 1/Y
        assert artin_step(g) == R(F2, (1,), (0, 1))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            artin_step(R(F2, (0,)))
        with pytest.raises(ValueError):
            artin_step(R(F2, (1, 1)))

    def test_step_stays_in_ball(self):
        for f in unit_ball_fractions(F3, 3):
            g = artin_step(f)
            assert g.is_zero() or g.valuation() >= 1


class TestExpansion:
    def test_polynomial_has_empty_tail(self):
        e = cf_expand(R(F2, (1, 0, 1)))
        assert e.a0 == F2.poly((1, 0, 1))
        assert e.coeffs == ()

    def test_hand_expansions(self):
        e = cf_expand(R(F2, (0, 1), (1, 0, 1)))  # Y/(Y^2+1) = [0; Y, Y]
        assert e.a0.is_zero()
        assert e.coeffs == (F2.Y, F2.Y)
        e3 = cf_expand(R(F3, (1, 1), (0, 2, 1)))  # (Y+1)/(Y^2+2Y) = [0; Y+1, 2Y+2]
        assert e3.coeffs == (F3.poly((1, 1)), F3.poly((2, 2)))

    def test_partial_quotient_degrees(self):
        for f in unit_ball_fractions(F2, 4):
            e = cf_expand(f)
            assert all(a.degree >= 1 for a in e.coeffs)

    def test_expansion_matches_iterated_step(self):
        for f in unit_ball_fractions(F3, 3):
            e = cf_expand(f)
            g = f
            for a in e.coeffs:
                assert g.reciprocal().integral_part() == a
                g = artin_step(g)
                if g.is_zero():
                    break
            assert g.is_zero()

    def test_reconstruction(self):
        for field, maxdeg in ((F2, 4), (F3, 3)):
            for f in unit_ball_fractions(field, maxdeg):
                e = cf_expand(f)
                assert cf_value(e.a0, e.coeffs) == f


class TestConvergents:
    def test_table_for_hand_example(self):
        table = convergents(cf_expand(R(F2, (0, 1), (1, 0, 1))))
        assert table.P(-1) == F2.one and table.Q(-1) == F2.zero
        assert table.P(0) == F2.zero and table.Q(0) == F2.one
        assert table.P(1) == F2.one and table.Q(1) == F2.Y
        assert table.P(2) == F2.Y and table.Q(2) == F2.poly((1, 0, 1))

    def test_last_row_recovers_source(self):
        for f in unit_ball_fractions(F3, 3):
            table = convergents(cf_expand(f))
            assert table.value(table.n) == f

    def test_determinant_identity(self):
        # Q_{i+1} P_i - P_{i+1} Q_i = (-1)^(i+1)
        for f in unit_ball_fractions(F2, 4) + unit_ball_fractions(F3, 3):
            field = f.field
            table = convergents(cf_expand(f))
            for i in range(-1, table.n):
                det = table.Q(i + 1) * table.P(i) - table.P(i + 1) * table.Q(i)
                want = field.one if (i + 1) % 2 == 0 else -field.one
                assert det == want

    def test_numerators_stay_below_denominators(self):
        for f in unit_ball_fractions(F3, 3):
            table = convergents(cf_expand(f))
            for i in range(0, table.n + 1):
                P, Q = table.P(i), table.Q(i)
                assert P.is_zero() or P.degree < Q.degree

    def test_denominator_degrees_increase(self):
        for f in unit_ball_fractions(F2, 4):
            table = convergents(cf_expand(f))
            for i in range(0, table.n):
                assert table.Q(i + 1).degree > (table.Q(i).degree if not table.Q(i).is_zero() else -1)

    def test_approx_identity(self):
        for f in unit_ball_fractions(F2, 4) + unit_ball_fractions(F3, 3):
            assert check_approx(convergents(cf_expand(f)))


class TestCharacterization:
    def test_convergent_rows_are_convergents(self):
        for f in unit_ball_fractions(F3, 3):
            table = convergents(cf_expand(f))
            for i in range(table.n):
                assert is_convergent(f, table.P(i), table.Q(i))

    def test_good_approximations_are_convergents(self):
        # for every Q with deg Q < deg Q_n, the only P that could satisfy
        # |f - P/Q| < 1/|Q|^2 is the polynomial part of f*Q; check the
        # hypothesis there and confirm the conclusion
        for f in unit_ball_fractions(F2, 4):
            table = convergents(cf_expand(f))
            dn = table.Q(table.n).degree
            for Q in polys_up_to_degree(F2, dn - 1):
                if Q.is_zero():
                    continue
                P = (f.num * Q) // f.den
                diff = f - RationalFn(P, Q)
                close = (not diff.is_zero()
                         and diff.abs_exp() < -2 * Q.degree) or diff.is_zero()
                if close:
                    assert is_convergent(f, P, Q)

    def test_far_pairs_fail_hypothesis(self):
        # P != [f*Q] implies |f - P/Q| >= 1/|Q| >= 1/|Q|^2
        f = R(F2, (0, 1), (1, 0, 1))
        Q = F2.Y
        good = (f.num * Q) // f.den
        for P in polys_up_to_degree(F2, 2):
            if P == good:
                continue
            diff = f - RationalFn(P, Q)
            assert diff.abs_exp() >= -2 * Q.degree


class TestPenultimateRatio:
    def test_hand_value(self):
        f = R(F2, (0, 1), (1, 0, 1))  # n = 2, ratio = Q_1/Q_2
        assert penultimate_ratio(f) == R(F2, (0, 1), (1, 0, 1))

    def test_sign_at_odd_length(self):
        f = R(F3, (1,), (0, 1))  # [0; Y]: n = 1, ratio = -Q_0/Q_1 = -1/Y
        assert penultimate_ratio(f) == R(F3, (2,), (0, 1))

    def test_ratio_lies_in_ball(self):
        for f in unit_ball_fractions(F3, 3):
            r = penultimate_ratio(f)
            assert r.is_zero() or r.valuation() >= 1

    def test_precondition(self):
        with pytest.raises(ValueError):
            penultimate_ratio(R(F2, (1, 1)))


class TestShortestSolution:
    def test_hand_cases(self):
        x, y = shortest_solution(F2.Y, F2.poly((1, 1)))
        assert (x, y) == (F2.one, F2.one)
        x, y = shortest_solution(F2.poly((1, 1)), F2.poly((1, 1, 1)))
        assert F2.poly((1, 1)) * x + F2.poly((1, 1, 1)) * y == F2.one

    def test_constant_conventions(self):
        x, y = shortest_solution(F3.const(2), F3.zero)
        assert (x, y) == (F3.const(2), F3.zero)
        x, y = shortest_solution(F3.zero, F3.const(2))
        assert (x, y) == (F3.zero, F3.const(2))
        x, y = shortest_solution(F3.const(2), F3.one)
        assert (x, y) == (F3.const(2), F3.zero)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            shortest_solution(F2.Y, F2.poly((0, 0, 1)))
        with pytest.raises(ValueError):
            brute_force_shortest(F2.Y, F2.poly((0, 0, 1)))

    def test_brute_force_rejects_constant_pairs(self):
        with pytest.raises(ValueError):
            brute_force_shortest(F2.one, F2.one)

    @pytest.mark.parametrize("field,maxdeg", [(F2, 3), (F3, 2), (Fq(4), 2), (Fq(5), 2),
                                              (Fq(7), 1), (Fq(8), 1), (Fq(9), 1)])
    def test_matches_brute_force(self, field, maxdeg):
        polys = list(polys_up_to_degree(field, maxdeg))
        for a in polys:
            for b in polys:
                if a.is_constant() and b.is_constant():
                    continue
                if not is_coprime(a, b):
                    continue
                got = shortest_solution(a, b)
                assert a * got.a + b * got.b == field.one
                want = brute_force_shortest(a, b)
                assert got == want

    def test_swap_symmetry(self):
        for a in polys_up_to_degree(F3, 2):
            for b in polys_up_to_degree(F3, 2):
                if a.is_constant() and b.is_constant():
                    continue
                if not is_coprime(a, b):
                    continue
                x, y = shortest_solution(a, b)
                assert shortest_solution(b, a) == (y, x)
