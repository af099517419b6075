"""Geometry of the completion of F_q(Y) at the degree valuation.

The completion is the field of formal Laurent series in 1/Y.  Valuations and
absolute values are carried as plain integers on the log_q scale (ValueError
territory is avoided by letting the zero element report POS_INF valuation and
NEG_INF log-absolute-value, both ordering-only sentinels).  Rational functions
are kept exact as reduced numerator/denominator pairs with monic denominator;
a LaurentWindow is a finite, exact slice of the expansion of such an element.

The ball of radius q^-1 around zero (series with no polynomial part) doubles
as the fundamental domain for translation by polynomials, so reduce_mod_R is
just "drop the polynomial part".
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

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFn":
        return cls(p, p.field.one, _reduced=True)

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

    def expand(self, prec: int) -> "LaurentWindow":
        """Exact expansion coefficients at all indices below prec."""
        v = self.valuation()
        if v is POS_INF:
            return LaurentWindow(self.field, POS_INF, prec, ())
        m = prec - 1
        if m >= v:
            if m >= 0:
                s = self.num.shift(m) // self.den
            else:
                s = self.num // self.den.shift(-m)
            items = tuple((m - k, s.coeff(k)) for k in range(m - v, -1, -1)
                          if s.coeff(k))
        else:
            items = ()
        return LaurentWindow(self.field, v, prec, items)

    def __repr__(self):
        if self.is_poly():
            return f"RationalFn({self.num!s})"
        return f"RationalFn(({self.num!s})/({self.den!s}))"

    def __str__(self):
        if self.is_poly():
            return str(self.num)
        return f"({self.num})/({self.den})"


def rat(num: Poly, den: Poly = None) -> RationalFn:
    return RationalFn.from_poly(num) if den is None else RationalFn(num, den)


def pi_pow(field: Fq, k: int) -> RationalFn:
    """(1/Y)^k as an exact rational function, any integer k."""
    if k >= 0:
        return RationalFn(field.one, field.monomial(k), _reduced=True)
    return RationalFn.from_poly(field.monomial(-k))


def reduce_mod_R(f: RationalFn) -> RationalFn:
    """Representative of f modulo polynomials inside the ball of radius 1/q."""
    return f.fractional_part()


class LaurentWindow(NamedTuple):
    """Exact expansion slice: all coefficients at indices < prec are known.

    Indices count powers of 1/Y, so index n carries the coefficient of Y^-n.
    `lead` is the true valuation of the source element (POS_INF for zero) and
    `items` stores only the nonzero coefficients, sorted by index.
    """

    field: Fq
    lead: DegreeLike
    prec: int
    items: Tuple[Tuple[int, int], ...]

    def coeff(self, n: int) -> int:
        if n >= self.prec:
            raise ValueError(f"index {n} outside window precision {self.prec}")
        for k, c in self.items:
            if k == n:
                return c
        return 0

    def digits(self, lo: int, hi: int) -> Tuple[int, ...]:
        """Coefficients at indices lo..hi-1 as a dense tuple."""
        if hi > self.prec:
            raise ValueError("window too short for requested digits")
        d = dict(self.items)
        return tuple(d.get(n, 0) for n in range(lo, hi))

    def agrees_with(self, other: "LaurentWindow", depth: int) -> bool:
        if depth > self.prec or depth > other.prec:
            raise ValueError("windows too short for requested depth")
        lo = []
        for w in (self, other):
            if w.lead is POS_INF:
                lo.append(depth)
            else:
                lo.append(min(w.lead, depth))
        start = min(lo)
        return self.digits(start, depth) == other.digits(start, depth)


def window_from_digits(field: Fq, lo: int, digits: Tuple[int, ...]) -> LaurentWindow:
    """Window whose coefficients at lo..lo+len(digits)-1 are as given, 0 elsewhere."""
    items = tuple((lo + i, c) for i, c in enumerate(digits) if c)
    lead = items[0][0] if items else POS_INF
    return LaurentWindow(field, lead, lo + len(digits), items)


def in_ball(f: RationalFn, center: LaurentWindow, depth: int) -> bool:
    """Whether |f - center| <= q^-depth, comparing exact expansion digits."""
    return f.expand(depth).agrees_with(center, depth)


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
    return PlaneVec(RationalFn.from_poly(v.a), RationalFn.from_poly(v.b))


def vec_norm_exp(v: PlaneVec) -> int:
    """log_q of the sup norm; errors on the zero vector."""
    ex, ey = v.x.abs_exp(), v.y.abs_exp()
    if ex is NEG_INF and ey is NEG_INF:
        raise ValueError("zero vector has no direction data")
    return ex if ey is NEG_INF else (ey if ex is NEG_INF else max(ex, ey))


def is_sharp(v: PlaneVec) -> bool:
    """Sharp means the first coordinate realizes the sup norm (ties included)."""
    return v.x.abs_exp() >= v.y.abs_exp()


def z_of(v: PlaneVec) -> RationalFn:
    return v.x if is_sharp(v) else v.y


def direction(v: PlaneVec, prec: int) -> Tuple[LaurentWindow, LaurentWindow]:
    """Windows of the rescaled vector v / Y^norm, which has sup norm 1."""
    k = vec_norm_exp(v)
    scale = pi_pow(v.x.field if not v.x.is_zero() else v.y.field, k)
    return (v.x * scale).expand(prec), (v.y * scale).expand(prec)


def lattice_direction_digits(v: LatticeVec, n: int, m: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Fast path for polynomial vectors of sup norm q^n: the window digits of
    the rescaled vector at indices 0..m-1 are just shifted coefficients."""
    ax = tuple(v.a.coeff(n - i) for i in range(m))
    by = tuple(v.b.coeff(n - i) for i in range(m))
    return ax, by
