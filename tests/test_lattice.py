"""Vector enumeration, companions, and the two-sided box correspondence."""

from fractions import Fraction

import pytest

from fqlattice.field import Ideal, get_field, is_coprime, poly_from_text, polys_up_to_degree
from fqlattice.haar import kernel_elements, quotient_mass, sphere_mass
from fqlattice.lattice import (
    DomainCell, SphereCell, box_contains, companion_of,
    count_membership_flips, domain_cells, gamma_of,
    lattice_is_sharp, matrix_side_enumerate,
    primitive_vectors, small_component, solution_statistic, sphere_cells,
    verify_bijection, w_of,
)
from fqlattice.laurent import LatticeVec, PlaneVec, as_plane, rat, vec_norm_exp


F2 = get_field(2)
F3 = get_field(3)


def vec(field, a_text, b_text):
    return LatticeVec(poly_from_text(field, a_text), poly_from_text(field, b_text))


class TestCells:
    def test_sphere_cell_counts(self):
        # q^(2m-2) * (q^2 - 1) cells at depth m
        assert len(sphere_cells(F2, 1)) == 3
        assert len(sphere_cells(F2, 2)) == 12
        assert len(sphere_cells(F3, 1)) == 8
        assert len(sphere_cells(F3, 2)) == 72

    def test_sphere_cell_measures_tile_the_sphere(self):
        for field in (F2, F3):
            for m in (1, 2):
                total = sum(c.measure() for c in sphere_cells(field, m))
                assert total == sphere_mass(field.q)

    def test_hemisphere_split(self):
        cells = sphere_cells(F2, 1)
        sharp = [c for c in cells if c.sharp]
        assert len(sharp) == 2
        assert sphere_cells(F2, 1, sharp=True) == sharp
        blunt = sphere_cells(F2, 1, sharp=False)
        assert len(blunt) == 1 and blunt[0].x_digits == (0,)

    def test_invalid_sphere_cell(self):
        with pytest.raises(ValueError):
            SphereCell(F2, (0,), (0,))
        with pytest.raises(ValueError):
            SphereCell(F2, (1, 0), (1,))

    def test_domain_cell_counts_and_measures(self):
        assert len(domain_cells(F2, 1)) == 1
        assert len(domain_cells(F2, 3)) == 4
        for field in (F2, F3):
            for mp in (1, 2, 3):
                cells = domain_cells(field, mp)
                assert len(cells) == field.q ** (mp - 1)
                assert sum(c.measure() for c in cells) == quotient_mass(field.q)

    def test_domain_cell_membership_partitions_ball(self):
        # every unit-ball fraction lies in exactly one depth-2 cell
        cells = domain_cells(F2, 2)
        seen = 0
        for num in polys_up_to_degree(F2, 1):
            for den in polys_up_to_degree(F2, 2):
                if den.is_zero() or den.degree <= (num.degree if not num.is_zero() else -1):
                    continue
                f = rat(num, den)
                hits = [c for c in cells if c.contains(f)]
                assert len(hits) == 1
                seen += 1
        assert seen > 10

    def test_sphere_cell_membership_matches_plane_form(self):
        cells = sphere_cells(F2, 2)
        for v in primitive_vectors(F2, 2):
            lat_hits = [c for c in cells if c.contains_lattice(v, 2)]
            pl_hits = [c for c in cells if c.contains_plane(as_plane(v))]
            assert lat_hits == pl_hits
            assert len(lat_hits) == 1

    def test_cell_id_texts(self):
        c = SphereCell(F2, (1, 0), (0, 1))
        assert c.id_text() == "1.0|0.1"
        assert DomainCell(F2, 1, ()).id_text() == "-"
        assert DomainCell(F3, 3, (2, 0)).id_text() == "2.0"


class TestPrimitiveEnumeration:
    def test_level_zero(self):
        got = list(primitive_vectors(F2, 0))
        assert len(got) == 3
        texts = {(str(v.a), str(v.b)) for v in got}
        assert texts == {("0", "1"), ("1", "0"), ("1", "1")}

    def test_level_counts_closed_form(self):
        # q^(2n-1) (q-1) (q^2-1) vectors at level n >= 1
        for field, levels in ((F2, (1, 2, 3)), (F3, (1, 2))):
            q = field.q
            for n in levels:
                expect = q ** (2 * n - 1) * (q - 1) * (q * q - 1)
                assert sum(1 for _ in primitive_vectors(field, n)) == expect

    def test_level_one_hemispheres(self):
        vs = list(primitive_vectors(F2, 1))
        assert len(vs) == 6
        assert sum(lattice_is_sharp(v) for v in vs) == 4

    def test_matches_brute_scan(self):
        def brute(field, n):
            out = set()
            for a in polys_up_to_degree(field, n):
                for b in polys_up_to_degree(field, n):
                    if a.is_zero() and b.is_zero():
                        continue
                    if vec_norm_exp(as_plane(LatticeVec(a, b))) != n:
                        continue
                    if is_coprime(a, b):
                        out.add((a, b))
            return out

        for field, n in ((F2, 2), (F3, 1)):
            got = {(v.a, v.b) for v in primitive_vectors(field, n)}
            assert got == brute(field, n)

    def test_canonical_order(self):
        keys = [(v.a.sort_key(), v.b.sort_key()) for v in primitive_vectors(F2, 2)]
        assert keys == sorted(keys)

    def test_ideal_filter_small_component(self):
        # level 1, ideal (Y): only (Y+1, Y) survives over GF(2)
        I = Ideal(poly_from_text(F2, "Y"))
        got = list(primitive_vectors(F2, 1, I))
        assert len(got) == 1
        assert (str(got[0].a), str(got[0].b)) == ("Y+1", "Y")
        # on a tie |a| = |b| the ideal tests b: of (Y, Y+1) and (Y+1, Y)
        # only the first passes the ideal (Y+1)
        for field in (F3, get_field(4)):
            J = Ideal(field.Y + field.one)
            got = set(primitive_vectors(field, 1, J))
            assert LatticeVec(field.Y, field.Y + field.one) in got
            assert LatticeVec(field.Y + field.one, field.Y) not in got
            for n in (1, 2):
                want = [v for v in primitive_vectors(field, n)
                        if J.contains(v.b if v.a.degree >= v.b.degree else v.a)]
                assert list(primitive_vectors(field, n, J)) == want

    def test_small_component_convention(self):
        assert small_component(vec(F2, "Y", "1")) == F2.one          # sharp
        assert small_component(vec(F2, "1", "Y")) == F2.one          # blunt
        assert small_component(vec(F2, "Y", "Y+1")) == poly_from_text(F2, "Y+1")  # tie


class TestCompanion:
    def test_hand_values(self):
        w = w_of(vec(F2, "1", "0"))
        assert (str(w.a), str(w.b)) == ("0", "1")
        w = w_of(vec(F2, "Y", "Y+1"))
        assert (str(w.a), str(w.b)) == ("1", "1")
        w = w_of(vec(F2, "Y", "1"))
        assert (str(w.a), str(w.b)) == ("1", "0")

    def test_determinant_and_ball_condition(self):
        for field, levels in ((F2, (0, 1, 2, 3)), (F3, (0, 1, 2))):
            for n in levels:
                for v in filter(lattice_is_sharp, primitive_vectors(field, n)):
                    g = gamma_of(v)
                    assert g.det() == rat(field.one)
                    ratio = rat(g.b.num, v.a)
                    assert ratio.is_zero() or ratio.valuation() >= 1

    def test_seed_independence(self):
        # every translate w + lam * v also has det(v | w) = 1, but only
        # lam = 0 keeps x_w / a in the open unit ball, so w_of does not
        # depend on which Bezout solution the extended gcd returns
        for v in filter(lattice_is_sharp, primitive_vectors(F2, 2)):
            w = w_of(v)
            for lam in polys_up_to_degree(F2, 1):
                t = LatticeVec(w.a + lam * v.a, w.b + lam * v.b)
                assert (v.a * t.b - t.a * v.b).is_one()
                ratio = rat(t.a, v.a)
                assert (ratio.is_zero() or ratio.valuation() >= 1) == lam.is_zero()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            w_of(vec(F2, "0", "1"))
        with pytest.raises(ValueError):
            w_of(vec(F2, "Y", "Y"))

    def test_companion_of_any_primitive(self):
        for field in (F2, F3):
            for n in (0, 1, 2):
                for v in primitive_vectors(field, n):
                    w = companion_of(v)
                    det = v.a * w.b - w.a * v.b
                    assert det.is_one()


class TestStatistic:
    def test_hand_value(self):
        stat, exc = solution_statistic(vec(F2, "Y", "1"))
        assert not exc
        assert stat == rat(F2.one, poly_from_text(F2, "Y"))

    def test_statistic_lives_in_ball(self):
        for field in (F2, F3):
            for n in (0, 1, 2):
                for v in primitive_vectors(field, n):
                    stat, _ = solution_statistic(v)
                    assert stat.is_zero() or stat.valuation() >= 1

    def test_exceptions_confined_to_constants(self):
        for field, top in ((F2, 3), (F3, 2)):
            for n in range(top + 1):
                for v in primitive_vectors(field, n):
                    _, exc = solution_statistic(v)
                    if exc:
                        assert n == 0

    def test_constant_level_exception_exists(self):
        _, exc = solution_statistic(vec(F2, "1", "0"))
        assert exc

    def test_z_ratio_choice_free_outside_exceptions(self):
        # translating the companion by multiples of v moves the z-ratio by a
        # polynomial, so the reduced statistic is choice-free
        from fqlattice.laurent import reduce_mod_R, z_of
        for field, n in ((F2, 1), (F2, 2), (F3, 1)):
            for v in primitive_vectors(field, n):
                stat, exc = solution_statistic(v)
                assert not exc
                w = companion_of(v)
                zv = z_of(as_plane(v))
                for lam in polys_up_to_degree(field, 1):
                    shifted = LatticeVec(w.a + lam * v.a, w.b + lam * v.b)
                    zw = z_of(as_plane(shifted))
                    assert reduce_mod_R(zw / zv) == stat


class TestBox:
    def theta(self, field):
        return SphereCell(field, (1,), (0,))

    def dprime(self, field):
        return DomainCell(field, 2, (1,))

    def test_gamma_image_lands_in_box(self):
        th, dp = self.theta(F2), self.dprime(F2)
        hits = 0
        for v in filter(lattice_is_sharp, primitive_vectors(F2, 2)):
            if not (th.contains_lattice(v, 2) and dp.contains(rat(w_of(v).a, v.a))):
                continue
            assert box_contains(gamma_of(v), 2, th, dp)
            hits += 1
        assert hits > 0

    def test_box_rejections(self):
        th, dp = self.theta(F2), self.dprime(F2)
        g = gamma_of(vec(F2, "Y^2", "1"))
        assert not box_contains(g, 3, th, dp)               # wrong level
        assert not box_contains(g, 2, SphereCell(F2, (1,), (1,)), dp)
        # non-sharp first column fails immediately
        from fqlattice.haar import Mat2
        bad = Mat2.from_polys(F2.one, F2.zero, poly_from_text(F2, "Y"), F2.one)
        assert not box_contains(bad, 1, th, dp)

    def test_matrix_side_properties(self):
        th, dp = self.theta(F2), self.dprime(F2)
        I = Ideal(poly_from_text(F2, "Y"))
        for g in matrix_side_enumerate(F2, 2, th, dp, I):
            assert g.det() == rat(F2.one)
            assert all(e.is_poly() for e in g)
            assert I.contains(g.c.num)

    @pytest.mark.parametrize("field,n", [(F2, 1), (F2, 2), (F3, 1)])
    def test_bijection_small(self, field, n):
        unit = Ideal(field.one)
        for th in sphere_cells(field, 1, sharp=True):
            for dp in domain_cells(field, 2):
                res = verify_bijection(field, n, th, dp, unit)
                assert res.equal, (th.id_text(), dp.id_text(), res)

    def test_bijection_counts_partition_hemisphere(self):
        # summing box counts over all cells recovers the sharp level count
        n, field = 2, F2
        unit = Ideal(field.one)
        total = 0
        for th in sphere_cells(field, 1, sharp=True):
            for dp in domain_cells(field, 2):
                total += verify_bijection(field, n, th, dp, unit).lattice_count
        sharp_count = sum(1 for v in primitive_vectors(field, n)
                          if lattice_is_sharp(v))
        assert total == sharp_count

    def test_bijection_rejects_blunt_cell(self):
        with pytest.raises(ValueError):
            verify_bijection(F2, 1, SphereCell(F2, (0,), (1,)), self.dprime(F2))

    def test_count_only_mode(self):
        res = verify_bijection(F2, 2, self.theta(F2), self.dprime(F2),
                               Ideal(F2.one), elementwise=False)
        assert res.equal and res.missing == () and res.extra == ()


class TestPerturbation:
    def test_members_stay_members(self):
        th = SphereCell(F2, (1,), (0,))
        dp = DomainCell(F2, 2, (1,))
        mats = matrix_side_enumerate(F2, 1, th, dp)
        assert mats
        kern = kernel_elements(F2, 3)  # depth beyond max(m, m') = 2
        assert count_membership_flips(mats, 1, th, dp, kern, expect=True) == 0

    def test_non_members_stay_out(self):
        th = SphereCell(F2, (1,), (0,))
        dp = DomainCell(F2, 2, (1,))
        mats = matrix_side_enumerate(F2, 1, th, dp)
        kern = kernel_elements(F2, 3)
        # same matrices probed against the wrong level
        assert count_membership_flips(mats, 2, th, dp, kern, expect=False) == 0

    def test_shallow_kernel_can_flip(self):
        # depth equal to the cell depth is not enough; a flip must exist
        th = SphereCell(F2, (1,), (0,))
        dp = DomainCell(F2, 2, (1,))
        mats = matrix_side_enumerate(F2, 1, th, dp)
        kern = kernel_elements(F2, 1)
        assert count_membership_flips(mats, 1, th, dp, kern, expect=True) > 0
