"""Algebraic laws as property tests: the field tables, the polynomial ring
and its division, the extended gcd, continued-fraction round trips and companion determinants,
over every field size the oracle grids use."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from fqlattice.cfrac import cf_expand, cf_value
from fqlattice.field import get_field, is_coprime, poly_xgcd
from fqlattice.lattice import companion_of
from fqlattice.laurent import LatticeVec, rat

QS = (2, 3, 4, 5, 7, 8, 9)
FIELDS = st.sampled_from(QS).map(get_field)


@st.composite
def elements(draw, count):
    """A field and `count` of its elements."""
    field = draw(FIELDS)
    return (field,) + tuple(draw(st.integers(0, field.q - 1)) for _ in range(count))


def polys(draw, field, max_degree=6, nonzero=False):
    coeffs = draw(st.lists(st.integers(0, field.q - 1), max_size=max_degree + 1))
    p = field.poly(coeffs)
    if nonzero and p.is_zero():
        p = field.one
    return p


@st.composite
def poly_pairs(draw, nonzero_second=False):
    field = draw(FIELDS)
    return field, polys(draw, field), polys(draw, field, nonzero=nonzero_second)


@settings(max_examples=150, deadline=None)
@given(elements(3))
def test_field_axioms(case):
    f, a, b, c = case
    assert f.add(a, b) == f.add(b, a) and f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, 0) == a and f.mul(a, 1) == a and f.mul(a, 0) == 0
    assert f.add(a, f.neg(a)) == 0 and f.sub(a, b) == f.add(a, f.neg(b))
    if a:
        assert f.mul(a, f.inv(a)) == 1
    # characteristic p: p copies of any element sum to zero
    total = 0
    for _ in range(f.p):
        total = f.add(total, a)
    assert total == 0


@st.composite
def poly_triples(draw):
    field = draw(FIELDS)
    return (field,) + tuple(polys(draw, field, max_degree=4) for _ in range(3))


@settings(max_examples=100, deadline=None)
@given(poly_triples())
def test_polynomial_ring_axioms(case):
    field, a, b, c = case
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + field.zero == a and a * field.one == a and a - a == field.zero
    assert a.is_zero() or b.is_zero() or (a * b).degree == a.degree + b.degree


@settings(max_examples=150, deadline=None)
@given(poly_pairs(nonzero_second=True))
def test_divmod_identity_and_remainder_degree(case):
    _, a, b = case
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.is_zero() or rem.degree < b.degree


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_xgcd_cofactors(case):
    _, a, b = case
    if a.is_zero() and b.is_zero():
        with pytest.raises(ValueError):
            poly_xgcd(a, b)
        return
    g, u, v = poly_xgcd(a, b)
    assert u * a + v * b == g
    assert g.is_monic()
    assert (a % g).is_zero() and (b % g).is_zero()
    assert g.is_one() == is_coprime(a, b)


@settings(max_examples=150, deadline=None)
@given(poly_pairs(nonzero_second=True))
def test_cf_round_trip(case):
    _, num, den = case
    f = rat(num, den)
    e = cf_expand(f)
    assert all(a.degree >= 1 for a in e.coeffs)
    assert cf_value(e.a0, e.coeffs) == f


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_companion_determinant_one(case):
    field, a, b = case
    assume(is_coprime(a, b))
    v = LatticeVec(a, b)
    w = companion_of(v)
    assert v.a * w.b - w.a * v.b == field.one
