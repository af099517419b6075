"""Geometry of the completion of F_q(Y) at the degree valuation.

The completion is the field of formal Laurent series in 1/Y.  Valuations and
absolute values are carried as plain integers on the log_q scale (ValueError
territory is avoided by letting the zero element report POS_INF valuation and
NEG_INF log-absolute-value, both ordering-only sentinels).  Rational functions
are kept exact as reduced numerator/denominator pairs with monic denominator;
`expand` reads a finite, exact run of the expansion digits of such an element,
and a cell of fixed leading digits is tested with `in_cell`.

The ball of radius q^-1 around zero (series with no polynomial part) doubles
as the fundamental domain for translation by polynomials, so reducing mod R
is just "drop the polynomial part": `fractional_part`.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple, Union

from .field import Fq, NEG_INF, POS_INF, Poly, poly_gcd

DegreeLike = Union[int, object]


class RationalFn:
    """Reduced fraction of polynomials; denominator monic, zero is 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _reduced: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            if num.is_zero():
                den = den.field.one
            else:
                g = poly_gcd(num, den)
                if not g.is_one():
                    num = num // g
                    den = den // g
                if den.coeffs[-1] != 1:
                    c = den.field.inv_t[den.coeffs[-1]]
                    num = num.scale(c)
                    den = den.scale(c)
        self.num = num
        self.den = den

    @property
    def field(self) -> Fq:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_one()

    # exact field arithmetic -------------------------------------------------

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den - other.num * self.den,
                          self.den * other.den)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den, _reduced=True)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def reciprocal(self) -> "RationalFn":
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFn(self.den, self.num)

    def __eq__(self, other):
        return (isinstance(other, RationalFn) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    # valuation data ----------------------------------------------------------

    def valuation(self) -> DegreeLike:
        """Order of vanishing at infinity: deg den - deg num; zero gives POS_INF."""
        if self.num.is_zero():
            return POS_INF
        return self.den.degree - self.num.degree

    def abs_exp(self) -> DegreeLike:
        """log_q of the absolute value; NEG_INF flags the zero element."""
        if self.num.is_zero():
            return NEG_INF
        return self.num.degree - self.den.degree

    def integral_part(self) -> Poly:
        return self.num // self.den

    def fractional_part(self) -> "RationalFn":
        return RationalFn(self.num % self.den, self.den)

    def expand(self, lo: int, hi: int) -> Tuple[int, ...]:
        """Exact expansion coefficients of Y^-lo, ..., Y^-(hi-1)."""
        m = hi - 1
        if m >= 0:
            s = self.num.shift(m) // self.den
        else:
            s = self.num // self.den.shift(-m)
        # s is the polynomial part of f * Y^m, so index k sits at Y^(m-k)
        return tuple(s.coeff(m - k) for k in range(lo, hi))

    def __repr__(self):
        if self.is_poly():
            return f"RationalFn({self.num!s})"
        return f"RationalFn(({self.num!s})/({self.den!s}))"

    def __str__(self):
        if self.is_poly():
            return str(self.num)
        return f"({self.num})/({self.den})"


def rat(num: Poly, den: Poly = None) -> RationalFn:
    if den is None:
        return RationalFn(num, num.field.one, _reduced=True)
    return RationalFn(num, den)


def pi_pow(field: Fq, k: int) -> RationalFn:
    """(1/Y)^k as an exact rational function, any integer k."""
    if k >= 0:
        return RationalFn(field.one, field.monomial(k), _reduced=True)
    return rat(field.monomial(-k))


def in_cell(f: RationalFn, lo: int, digits: Tuple[int, ...]) -> bool:
    """Whether f has valuation >= lo and expansion digits `digits` at indices
    lo, lo+1, ...: the ball of radius q^-(lo+len(digits)) they center."""
    return f.valuation() >= lo and f.expand(lo, lo + len(digits)) == digits


# ---------------------------------------------------------------------------
# plane vectors
# ---------------------------------------------------------------------------


class PlaneVec(NamedTuple):
    x: RationalFn
    y: RationalFn


class LatticeVec(NamedTuple):
    a: Poly
    b: Poly


def as_plane(v: LatticeVec) -> PlaneVec:
    return PlaneVec(rat(v.a), rat(v.b))


def vec_norm_exp(v: PlaneVec) -> int:
    """log_q of the sup norm; errors on the zero vector."""
    ex, ey = v.x.abs_exp(), v.y.abs_exp()
    if ex is NEG_INF and ey is NEG_INF:
        raise ValueError("zero vector has no direction data")
    return max(ex, ey)


def is_sharp(v: PlaneVec) -> bool:
    """Sharp means the first coordinate realizes the sup norm (ties included)."""
    return v.x.abs_exp() >= v.y.abs_exp()


def z_of(v: PlaneVec) -> RationalFn:
    return v.x if is_sharp(v) else v.y


def direction(v: PlaneVec, prec: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Digits 0..prec-1 of the rescaled vector v / Y^norm, which has sup norm 1."""
    scale = pi_pow(v.x.field, vec_norm_exp(v))
    return (v.x * scale).expand(0, prec), (v.y * scale).expand(0, prec)


def lattice_direction_digits(v: LatticeVec, n: int, m: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Fast path for polynomial vectors of sup norm q^n: the digits of the
    rescaled vector at indices 0..m-1 are just shifted coefficients."""
    ax = tuple(v.a.coeff(n - i) for i in range(m))
    by = tuple(v.b.coeff(n - i) for i in range(m))
    return ax, by
