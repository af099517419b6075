import random

import pytest
from hypothesis import given, settings, strategies as st

from fqlattice.field import Fq, NEG_INF, POS_INF, get_field, polys_up_to_degree
from fqlattice.laurent import (
    RationalFn, LatticeVec, PlaneVec, as_plane, direction, in_cell,
    lattice_direction_digits, pi_pow, rat, reduce_mod_R,
    vec_norm_exp, is_sharp, z_of,
)

F2 = Fq(2)
F3 = Fq(3)
FIELDS = st.sampled_from((2, 3, 4, 5, 7, 8, 9)).map(get_field)


def R(field, num, den=None):
    return rat(field.poly(num)) if den is None else rat(field.poly(num), field.poly(den))


def resum(field, lo, digits):
    """sum of digits[i] * Y^-(lo+i) as an exact rational function."""
    total = rat(field.zero)
    for i, c in enumerate(digits):
        total = total + rat(field.const(c)) * pi_pow(field, lo + i)
    return total


@st.composite
def laurent_elements(draw):
    """A field and an element with or without a polynomial part."""
    field = draw(FIELDS)
    coeffs = st.lists(st.integers(0, field.q - 1), max_size=5)
    num = field.poly(draw(coeffs))
    den = field.poly(draw(coeffs))
    f = rat(num, field.one if den.is_zero() else den)
    return field, (f if draw(st.booleans()) else f.fractional_part())


class TestRationalFn:
    def test_reduction_invariants(self):
        f = R(F3, (0, 2), (0, 0, 2))  # 2Y / 2Y^2 -> 1/Y
        assert f.num == F3.one and f.den == F3.Y
        g = R(F3, (1, 1), (0, 2))  # (Y+1)/2Y -> (2Y+2)/Y
        assert g.den.is_monic()
        assert g.num == F3.poly((2, 2))

    def test_zero_normal_form(self):
        f = R(F2, (0,), (1, 1))
        assert f.is_zero() and f.den.is_one()
        with pytest.raises(ZeroDivisionError):
            R(F2, (1,), ())

    def test_field_axioms_small_sample(self):
        polys = [F3.poly(c) for c in [(1,), (2,), (0, 1), (1, 1), (2, 1), (1, 0, 1)]]
        fns = [rat(a, b) for a in polys for b in polys]
        for f in fns[:12]:
            for g in fns[:12]:
                assert (f + g) - g == f
                if not g.is_zero():
                    assert (f / g) * g == f
        f, g = fns[1], fns[5]
        assert f * g == g * f
        assert f + g == g + f

    def test_valuation_examples(self):
        f = R(F2, (1,), (1, 0, 1))  # 1/(Y^2+1)
        assert f.valuation() == 2
        assert f.abs_exp() == -2
        g = R(F2, (1, 0, 0, 1), (0, 1))  # (Y^3+1)/Y
        assert g.valuation() == -2
        assert R(F2, (0,)).valuation() is POS_INF
        assert R(F2, (0,)).abs_exp() is NEG_INF

    def test_valuation_is_multiplicative_and_ultrametric(self):
        fns = [rat(a, b)
               for a in polys_up_to_degree(F3, 2)
               for b in polys_up_to_degree(F3, 2) if not b.is_zero()]
        sample = fns[::7]
        for f in sample:
            for g in sample:
                if not f.is_zero() and not g.is_zero():
                    assert (f * g).abs_exp() == f.abs_exp() + g.abs_exp()
                s = f + g
                if f.is_zero() or g.is_zero():
                    continue
                bound = max(f.abs_exp(), g.abs_exp())
                assert s.abs_exp() is NEG_INF or s.abs_exp() <= bound
                if f.abs_exp() != g.abs_exp():
                    assert s.abs_exp() == bound

    def test_integral_fractional_split(self):
        g = R(F2, (1, 0, 0, 1), (0, 1))  # Y^2 + 1/Y
        assert g.integral_part() == F2.poly((0, 0, 1))
        assert g.fractional_part() == R(F2, (1,), (0, 1))
        # the split is exact and the fractional part sits inside the unit ball
        for f in (g, R(F3, (1, 2, 1), (2, 1)), R(F3, (2,), (1, 1, 1))):
            whole = RationalFn.from_poly(f.integral_part())
            assert whole + f.fractional_part() == f
            fr = f.fractional_part()
            assert fr.is_zero() or fr.valuation() >= 1

    def test_reduce_mod_R_fibers(self):
        f = R(F3, (1, 2), (0, 0, 1))
        for p in polys_up_to_degree(F3, 2):
            g = f + RationalFn.from_poly(p)
            assert reduce_mod_R(g) == reduce_mod_R(f)
        assert reduce_mod_R(reduce_mod_R(f)) == reduce_mod_R(f)


class TestExpansion:
    def test_char2_geometric_series(self):
        f = R(F2, (1,), (1, 0, 1))  # 1/(Y^2+1) = sum Y^(-2k), k >= 1
        assert f.valuation() == 2
        assert f.expand(0, 8) == (0, 0, 1, 0, 1, 0, 1, 0)

    def test_gf3_geometric_series(self):
        f = R(F3, (1,), (2, 1))  # 1/(Y-1) = sum Y^(-k)
        assert f.expand(0, 5) == (0, 1, 1, 1, 1)

    def test_polynomial_part_indices(self):
        g = R(F2, (1, 0, 0, 1), (0, 1))  # Y^2 + Y^-1
        assert g.valuation() == -2
        assert g.expand(-2, 3) == (1, 0, 0, 1, 0)

    def test_zero_window(self):
        z = R(F2, (0,))
        assert z.valuation() is POS_INF and z.expand(-2, 4) == (0,) * 6

    def test_expansion_resums_exactly(self):
        # resumming the digits from the valuation plus the exact tail
        # recovers f: the tail is f - (partial sum), and must have
        # valuation >= prec
        for f in (R(F3, (1, 1), (2, 0, 1)), R(F3, (0, 2, 1), (1, 1)), R(F2, (1,), (1, 1, 1))):
            field = f.field
            prec = 6
            lo = f.valuation()
            tail = f - resum(field, lo, f.expand(lo, prec))
            assert tail.is_zero() or tail.valuation() >= prec

    def test_window_text(self):
        f = R(F2, (1,), (1, 0, 1))
        assert f.expand(2, 5) == (1, 0, 1)
        assert f.expand(3, 3) == ()
        assert R(F2, (0,)).expand(0, 3) == (0, 0, 0)

    @settings(max_examples=200, deadline=None)
    @given(laurent_elements(), st.integers(0, 2), st.integers(0, 6))
    def test_expand_resums_up_to_its_tail(self, case, below, width):
        field, f = case
        lo = (0 if f.is_zero() else f.valuation()) - below
        tail = f - resum(field, lo, f.expand(lo, lo + width))
        assert tail.is_zero() or tail.valuation() >= lo + width


class TestBalls:
    def test_in_ball_basic(self):
        f = R(F2, (1,), (0, 1)) + R(F2, (1,), (0, 0, 0, 1))  # 1/Y + 1/Y^3
        assert in_cell(f, 1, (1, 0, 1))
        assert in_cell(f, 1, (1,))
        g = R(F2, (1,), (0, 1))
        assert not in_cell(g, 1, (1, 0, 1))
        assert in_cell(g, 1, (1, 0))

    def test_domain_cells_partition(self):
        # depth-3 cells inside the unit ball: digits at indices 1 and 2
        cells = [(d1, d2) for d1 in range(3) for d2 in range(3)]
        sample = [rat(a, b) for a in polys_up_to_degree(F3, 2)
                  for b in polys_up_to_degree(F3, 3)
                  if not b.is_zero()]
        sample = [f.fractional_part() for f in sample][::5]
        for f in sample:
            hits = [c for c in cells if in_cell(f, 1, c)]
            assert len(hits) == 1

    def test_ball_respects_negative_indices(self):
        g = R(F2, (1, 0, 1), (0, 1))  # Y + 1/Y: matches digits above index 0
        assert not in_cell(g, 1, (1,))

    @settings(max_examples=300, deadline=None)
    @given(laurent_elements(), st.sampled_from((-1, 0, 1)), st.data())
    def test_in_cell_is_the_ball_around_its_digits(self, case, lo, data):
        # in_cell(f, lo, d) exactly when |f - center| <= q^-(lo+len(d)),
        # center = sum d_i Y^-(lo+i); half the draws sit near the center
        field, f = case
        digits = tuple(data.draw(st.lists(st.integers(0, field.q - 1),
                                          min_size=1, max_size=4)))
        center = resum(field, lo, digits)
        if data.draw(st.booleans()):
            f = center + f * pi_pow(field, data.draw(st.integers(0, 8)))
        gap = f - center
        inside = gap.is_zero() or gap.valuation() >= lo + len(digits)
        assert in_cell(f, lo, digits) == inside


class TestPlaneVectors:
    def test_z_split_tie_goes_to_x(self):
        v = PlaneVec(R(F2, (0, 0, 1)), R(F2, (1, 0, 1)))
        assert is_sharp(v)
        assert z_of(v) == v.x

    def test_z_split_strict(self):
        v = PlaneVec(R(F2, (1,)), R(F2, (1, 1)))
        assert not is_sharp(v)
        assert z_of(v) == v.y
        assert vec_norm_exp(v) == 1

    def test_zero_component_cases(self):
        v = PlaneVec(R(F2, (0,)), R(F2, (1,)))
        assert not is_sharp(v)
        assert z_of(v) == v.y
        w = PlaneVec(R(F2, (1,)), R(F2, (0,)))
        assert is_sharp(w)
        with pytest.raises(ValueError):
            vec_norm_exp(PlaneVec(R(F2, (0,)), R(F2, (0,))))

    def test_direction_has_unit_norm_and_scales_away(self):
        v = PlaneVec(R(F2, (0, 0, 1)), R(F2, (1, 0, 1)))
        wx, wy = direction(v, 3)
        assert wx == (1, 0, 0)
        assert wy == (1, 0, 1)
        scale = pi_pow(F2, vec_norm_exp(v))
        assert min((v.x * scale).valuation(), (v.y * scale).valuation()) == 0
        scaled = PlaneVec(v.x * rat(F2.poly((0, 0, 0, 1))), v.y * rat(F2.poly((0, 0, 0, 1))))
        assert direction(scaled, 3) == (wx, wy)

    def test_lattice_direction_digits_fast_path(self):
        for a in polys_up_to_degree(F3, 3):
            for b in polys_up_to_degree(F3, 3):
                if a.is_zero() and b.is_zero():
                    continue
                v = LatticeVec(a, b)
                n = vec_norm_exp(as_plane(v))
                assert lattice_direction_digits(v, n, 3) == direction(as_plane(v), 3)


class TestMatrixNormComparison:
    def test_unimodular_norm_comparison(self):
        # determinant-one matrices with non-constant polynomial entries:
        # |a| >= |b| forces |c| >= |d| (columns (a,b) and (c,d)).  The claim
        # is specific to ring entries; it fails for general completion
        # elements, see the counterexample test below.
        rng = random.Random(7)
        polys = list(polys_up_to_degree(F3, 2))
        checked = 0
        for _ in range(400):
            a, b, c, d = F3.one, F3.zero, F3.zero, F3.one
            for _ in range(rng.randrange(2, 6)):
                t = rng.choice(polys)
                if rng.random() < 0.5:
                    c, d = c + a * t, d + b * t
                else:
                    a, b = a + c * t, b + d * t
            assert a * d - b * c == F3.one
            if any(f.is_constant() for f in (a, b, c, d)):
                continue
            if a.degree >= b.degree:
                checked += 1
                assert c.degree >= d.degree
        assert checked > 40

    def test_norm_comparison_needs_ring_entries(self):
        # over the full completion the comparison can fail: search a small
        # family of determinant-one matrices with rational entries for a
        # counterexample and insist one exists
        rng = random.Random(11)
        polys = [p for p in polys_up_to_degree(F3, 2) if not p.is_zero()]
        found = False
        for _ in range(500):
            a, b, c, d = rat(F3.one), rat(F3.zero), rat(F3.zero), rat(F3.one)
            for _ in range(rng.randrange(2, 5)):
                t = rat(rng.choice(polys), rng.choice(polys))
                if rng.random() < 0.5:
                    c, d = c + a * t, d + b * t
                else:
                    a, b = a + c * t, b + d * t
            assert a * d - b * c == rat(F3.one)
            if any(f.is_zero() or (f.is_poly() and f.num.is_constant())
                   for f in (a, b, c, d)):
                continue
            if a.abs_exp() >= b.abs_exp() and c.abs_exp() < d.abs_exp():
                found = True
                break
        assert found
