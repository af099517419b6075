import random
from fractions import Fraction

import pytest

from fqlattice.field import Fq, Ideal, polys_of_degree, polys_up_to_degree, poly_from_text
from fqlattice.haar import (
    BoxSpec, Mat2, box_measure, c_constant, cfe_prefactor, counting_main_term,
    covolume, expected_box_count, hecke_index, hecke_index_bruteforce,
    kernel_ball_measure, kernel_elements, nonsharp_hemisphere_mass, refined_lu,
    sharp_hemisphere_mass, sl2_order_bruteforce, sl2_order_mod, sphere_mass,
    quotient_mass, zeta_minus1,
)
from fqlattice.laurent import rat

F2 = Fq(2)
F3 = Fq(3)
F4 = Fq(4)


class TestClosedForms:
    def test_zeta_values(self):
        assert zeta_minus1(2) == Fraction(1, 3)
        assert zeta_minus1(3) == Fraction(1, 16)
        assert zeta_minus1(4) == Fraction(1, 45)

    def test_masses(self):
        assert sphere_mass(2) == Fraction(3, 4)
        assert sphere_mass(3) == Fraction(8, 9)
        assert quotient_mass(2) == Fraction(1, 2)
        assert quotient_mass(3) == Fraction(1, 3)
        for q in (2, 3, 4):
            assert sharp_hemisphere_mass(q) + nonsharp_hemisphere_mass(q) == sphere_mass(q)

    def test_hecke_indices(self):
        assert hecke_index(Ideal.unit(F2)) == 1
        assert hecke_index(Ideal(F2.Y)) == 3
        assert hecke_index(Ideal(F2.poly((0, 0, 1)))) == 6
        assert hecke_index(Ideal(F2.Y * F2.poly((1, 1)))) == 9
        assert hecke_index(Ideal(F2.poly((1, 1, 1)))) == 5
        assert hecke_index(Ideal(F3.Y)) == 4
        # Y^2+Y+1 = (Y+2)^2 over GF(3): norm 9 with a single prime of norm 3
        assert hecke_index(Ideal(F3.poly((1, 1, 1)))) == 12

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_hecke_index_integral_degree_le2(self, q):
        field = Fq(q)
        for d in (0, 1, 2):
            for gen in polys_of_degree(field, d, monic=True):
                idx = hecke_index(Ideal(gen))
                assert isinstance(idx, int) and idx >= 1

    def test_c_constant_and_main_term(self):
        assert c_constant(Ideal.unit(F2)) == Fraction(1, 4)
        assert c_constant(Ideal.unit(F3)) == Fraction(1, 18)
        assert c_constant(Ideal.unit(F4)) == Fraction(1, 48)
        assert counting_main_term(Ideal.unit(F2), 0) == Fraction(3, 2)
        assert counting_main_term(Ideal.unit(F2), 1) == 6
        assert counting_main_term(Ideal.unit(F2), 7) == Fraction(3, 2) * 4 ** 7
        assert counting_main_term(Ideal.unit(F3), 1) == 48
        assert counting_main_term(Ideal(F2.Y), 1) == 2

    def test_main_term_closed_form(self):
        # q^{2n} / (q * zeta * index) in two different groupings
        for q, field in ((2, F2), (3, F3), (4, F4)):
            for gen in list(polys_of_degree(field, 1, monic=True))[:2]:
                I = Ideal(gen)
                for n in range(4):
                    lhs = counting_main_term(I, n)
                    rhs = Fraction(q ** (2 * n)) / (q * zeta_minus1(q) * hecke_index(I))
                    assert lhs == rhs

    def test_box_measure(self):
        spec = BoxSpec(0, Fraction(3, 8), Fraction(1, 2))
        assert box_measure(2, spec) == Fraction(1, 4)
        full = BoxSpec(1, sphere_mass(2), quotient_mass(2))
        assert box_measure(2, full) == Fraction(16, 3) * Fraction(3, 4) * Fraction(1, 2)

    def test_box_measure_additivity(self):
        for q in (2, 3):
            for m in (1, 2):
                for mp in (1, 2, 3):
                    n = 2
                    cells = q ** (2 * m - 2) * (q * q - 1) * q ** (mp - 1)
                    cell = BoxSpec(n, Fraction(1, q ** (2 * m)), Fraction(1, q ** mp))
                    full = BoxSpec(n, sphere_mass(q), quotient_mass(q))
                    assert cells * box_measure(q, cell) == box_measure(q, full)

    def test_expected_box_count_consistency(self):
        for I in (Ideal.unit(F2), Ideal(F2.Y), Ideal(F3.poly((1, 1)))):
            q = I.field.q
            spec = BoxSpec(3, Fraction(1, q * q), Fraction(1, q * q))
            direct = Fraction(q ** 6) * spec.theta_mass * spec.dprime_mass / c_constant(I)
            assert expected_box_count(I, spec) == direct

    def test_marginal_consistency_with_main_term(self):
        # summing expected box counts over a full partition gives the main term
        q, I, n = 2, Ideal.unit(F2), 3
        m, mp = 1, 2
        cells = q ** (2 * m - 2) * (q * q - 1) * q ** (mp - 1)
        cell = BoxSpec(n, Fraction(1, q ** (2 * m)), Fraction(1, q ** mp))
        total = cells * expected_box_count(I, cell)
        assert total == counting_main_term(I, n)

    def test_cfe_prefactor_values(self):
        assert cfe_prefactor(Ideal.unit(F2)) == 2
        assert cfe_prefactor(Ideal(F2.Y)) == 6
        assert cfe_prefactor(Ideal.unit(F3)) == Fraction(3, 4)

    def test_cfe_prefactor_matches_blunt_box_count(self):
        # q^{2n} / prefactor is the expected total over the blunt hemisphere
        for I in (Ideal.unit(F2), Ideal(F2.Y), Ideal.unit(F3), Ideal(F3.Y)):
            q = I.field.q
            for n in (1, 2, 5):
                spec = BoxSpec(n, nonsharp_hemisphere_mass(q), quotient_mass(q))
                assert expected_box_count(I, spec) == \
                    Fraction(q ** (2 * n)) / cfe_prefactor(I)


class TestOracles:
    @pytest.mark.parametrize("field,gens", [
        (F2, ["Y", "Y+1", "Y^2", "Y^2+Y+1", "Y^2+Y"]),
        (F3, ["Y", "Y+1", "Y^2", "Y^2+Y+1", "Y^2+Y"]),
    ])
    def test_hecke_index_matches_orbit_count(self, field, gens):
        for text in gens:
            I = Ideal(poly_from_text(field, text))
            assert hecke_index(I) == hecke_index_bruteforce(I)

    def test_hecke_oracle_unit_ideal(self):
        assert hecke_index_bruteforce(Ideal.unit(F2)) == 1

    def test_hecke_oracle_range_guard(self):
        with pytest.raises(ValueError):
            hecke_index_bruteforce(Ideal(F3.monomial(6)))

    def test_sl2_orders(self):
        assert sl2_order_mod(2, 1) == 6
        assert sl2_order_mod(2, 2) == 48
        assert sl2_order_mod(3, 1) == 24
        assert sl2_order_bruteforce(F2, 1) == 6
        assert sl2_order_bruteforce(F2, 2) == 48
        assert sl2_order_bruteforce(F3, 1) == 24

    def test_kernel_ball_measure_is_inverse_order(self):
        for q in (2, 3, 4):
            for N in (1, 2, 3, 4):
                assert kernel_ball_measure(q, N) == Fraction(1, sl2_order_mod(q, N))


def random_sl2(field, rng, steps=4, maxdeg=2):
    polys = list(polys_up_to_degree(field, maxdeg))
    g = Mat2.identity(field)
    one, zero = rat(field.one), rat(field.zero)
    for _ in range(steps):
        t = rat(rng.choice(polys))
        if rng.random() < 0.5:
            e = Mat2(one, t, zero, one)
        else:
            e = Mat2(one, zero, t, one)
        g = g * e
    return g


class TestRefinedLu:
    def test_hand_example(self):
        g = Mat2.from_polys(F2.Y, F2.one, F2.poly((1, 1)), F2.one)
        lu = refined_lu(g)
        assert lu.exponent == 1
        assert lu.u_minus * lu.m * lu.a * lu.u_plus == g
        assert lu.m.det() == rat(F2.one)
        assert (lu.u_minus * lu.m).is_integral()

    def test_reconstruction_random(self):
        rng = random.Random(3)
        for field in (F2, F3):
            for _ in range(200):
                g = random_sl2(field, rng)
                if g.a.is_zero():
                    continue
                lu = refined_lu(g)
                assert lu.u_minus * lu.m * lu.a * lu.u_plus == g
                # unipotent and unit-norm shapes
                assert lu.u_minus.a == rat(field.one) and lu.u_minus.b.is_zero()
                assert lu.u_plus.d == rat(field.one) and lu.u_plus.c.is_zero()
                assert lu.m.a.abs_exp() == 0 and lu.m.d.abs_exp() == 0
                assert lu.exponent == g.a.abs_exp()
                # the lower-parabolic part is integral exactly when the first
                # column is sharp
                sharp = g.a.abs_exp() >= g.c.abs_exp()
                assert (lu.u_minus * lu.m).is_integral() == sharp

    def test_preconditions(self):
        with pytest.raises(ValueError):
            refined_lu(Mat2.from_polys(F2.zero, F2.one, F2.one, F2.zero))
        with pytest.raises(ValueError):
            refined_lu(Mat2.from_polys(F2.Y, F2.zero, F2.zero, F2.Y))


class TestKernelElements:
    @pytest.mark.parametrize("field,N", [(F2, 1), (F2, 2), (F3, 1), (F3, 3)])
    def test_shape(self, field, N):
        ks = kernel_elements(field, N)
        assert len(ks) == field.q ** 3
        one = rat(field.one)
        for k in ks:
            assert k.det() == one
            # congruent to the identity to depth N
            for entry, target in zip(k, Mat2.identity(field)):
                diff = entry - target
                assert diff.is_zero() or diff.valuation() >= N

    def test_distinct_at_next_depth(self):
        field, N = F2, 2
        seen = set()
        for k in kernel_elements(field, N):
            sig = tuple(e.expand(0, N + 1) for e in k)
            seen.add(sig)
        assert len(seen) == field.q ** 3
