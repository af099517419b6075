"""Primitive lattice vectors, their unimodular companions, and the two-sided
enumeration of measurement boxes.

A primitive vector v = (a, b) with |a| >= |b| has a unique companion w with
det(v | w) = 1 and first companion coordinate in the open unit ball after
division by a; gluing them column-wise gives a determinant-one matrix with
polynomial entries.  The same set of matrices can be produced purely on the
matrix side from the triangular factorization predicates, and the two
enumerations are kept logically independent above the shared polynomial
arithmetic so that comparing them is an actual check.

Coprime pairs come two ways: `euclid_tree` builds them from continued
fractions with their modular inverses and no gcd; `primitive_vectors` scans
every pair with a gcd.  Both are oracles now.  The histogram runners count
the tree's nodes by a transfer DP over the same convergent recurrence (see
`harness`), and the tests check that DP against the walk of `euclid_tree`,
key by key, and the walk against `primitive_vectors`.

Cylinders are the finite-depth cells used for equidistribution bookkeeping:
a sphere cell fixes the leading expansion digits of the direction of v, a
domain cell fixes leading digits of an element of the open unit ball.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .field import Fq, Ideal, Poly, is_coprime, poly_xgcd, polys_of_degree, polys_up_to_degree
from .haar import Mat2
from .laurent import (
    LatticeVec, LaurentWindow, PlaneVec, RationalFn, as_plane, in_ball,
    is_sharp, lattice_direction_digits, pi_pow, rat, reduce_mod_R,
    vec_norm_exp, window_from_digits, z_of,
)


def lattice_is_sharp(v: LatticeVec) -> bool:
    """|a| >= |b| with the zero component convention |0| = 0."""
    if v.a.is_zero():
        return v.b.is_zero()
    if v.b.is_zero():
        return True
    return v.a.degree >= v.b.degree


# ---------------------------------------------------------------------------
# cylinder cells
# ---------------------------------------------------------------------------


class _SphereCellFields(NamedTuple):
    field: Fq
    x_digits: Tuple[int, ...]
    y_digits: Tuple[int, ...]


class SphereCell(_SphereCellFields):
    """Depth-m cell of the unit sphere: both direction components have their
    expansion digits at indices 0..m-1 pinned.  Valid cells have a nonzero
    digit pair at index 0."""

    __slots__ = ()

    def __new__(cls, field: Fq, x_digits: Tuple[int, ...], y_digits: Tuple[int, ...]):
        if not x_digits or len(x_digits) != len(y_digits):
            raise ValueError("digit tuples must share a positive length")
        if x_digits[0] == 0 and y_digits[0] == 0:
            raise ValueError("cell lies outside the unit sphere")
        return super().__new__(cls, field, x_digits, y_digits)

    @property
    def depth(self) -> int:
        return len(self.x_digits)

    @property
    def sharp(self) -> bool:
        return self.x_digits[0] != 0

    def measure(self) -> Fraction:
        return Fraction(1, self.field.q ** (2 * self.depth))

    def centers(self) -> Tuple[LaurentWindow, LaurentWindow]:
        return (window_from_digits(self.field, 0, self.x_digits),
                window_from_digits(self.field, 0, self.y_digits))

    def contains_lattice(self, v: LatticeVec, n: int) -> bool:
        return lattice_direction_digits(v, n, self.depth) == (self.x_digits, self.y_digits)

    def contains_plane(self, v: PlaneVec) -> bool:
        k = vec_norm_exp(v)
        scale = pi_pow(self.field, k)
        cx, cy = self.centers()
        return (in_ball(v.x * scale, cx, self.depth)
                and in_ball(v.y * scale, cy, self.depth))

    def id_text(self) -> str:
        return (".".join(map(str, self.x_digits)) + "|"
                + ".".join(map(str, self.y_digits)))


class _DomainCellFields(NamedTuple):
    field: Fq
    depth: int
    digits: Tuple[int, ...]


class DomainCell(_DomainCellFields):
    """Depth-m' cell of the open unit ball: digits at indices 1..m'-1 pinned
    (the index-0 digit of any ball element is zero)."""

    __slots__ = ()

    def __new__(cls, field: Fq, depth: int, digits: Tuple[int, ...]):
        if depth < 1 or len(digits) != depth - 1:
            raise ValueError("need depth-1 digits for a depth cell")
        return super().__new__(cls, field, depth, digits)

    def measure(self) -> Fraction:
        return Fraction(1, self.field.q ** self.depth)

    def center(self) -> LaurentWindow:
        return window_from_digits(self.field, 1, self.digits)

    def contains(self, f: RationalFn) -> bool:
        return in_ball(f, self.center(), self.depth)

    def id_text(self) -> str:
        return ".".join(map(str, self.digits)) if self.digits else "-"


def sphere_cells(field: Fq, m: int, sharp: Optional[bool] = None) -> List[SphereCell]:
    """All depth-m sphere cells, canonically ordered; optionally one hemisphere."""
    out = []
    for xd in itertools.product(range(field.q), repeat=m):
        for yd in itertools.product(range(field.q), repeat=m):
            if xd[0] == 0 and yd[0] == 0:
                continue
            if sharp is not None and (xd[0] != 0) != sharp:
                continue
            out.append(SphereCell(field, xd, yd))
    return out


def domain_cells(field: Fq, mp: int) -> List[DomainCell]:
    return [DomainCell(field, mp, d)
            for d in itertools.product(range(field.q), repeat=mp - 1)]


# ---------------------------------------------------------------------------
# enumeration of primitive vectors
# ---------------------------------------------------------------------------


class EnumFilter(NamedTuple):
    """Restrictions applied while walking level-n primitive vectors.

    ideal filters on the small component (the one away from the sup norm,
    ties giving the second coordinate); direction_cell on the rescaled
    vector; solution_cell on the companion ratio x_w / a, which is the
    matrix-correspondence condition and therefore requires sharp vectors.
    """

    n: int
    ideal: Optional[Ideal] = None
    sharp: Optional[bool] = None
    direction_cell: Optional[SphereCell] = None
    solution_cell: Optional[DomainCell] = None


def primitive_vectors(field: Fq, n: int) -> Iterator[LatticeVec]:
    """Primitive vectors of sup norm exactly q^n, in canonical (a, b) order."""
    if n < 0:
        raise ValueError("level must be >= 0")
    for a in polys_up_to_degree(field, n):
        a_level = (not a.is_zero()) and a.degree == n
        bs = polys_up_to_degree(field, n) if a_level else polys_of_degree(field, n)
        for b in bs:
            if a.is_zero() and b.is_zero():
                continue
            if is_coprime(a, b):
                yield LatticeVec(a, b)


def small_component(v: LatticeVec) -> Poly:
    return v.b if lattice_is_sharp(v) else v.a


def enumerate_primitive(field: Fq, filt: EnumFilter) -> Iterator[LatticeVec]:
    for v in primitive_vectors(field, filt.n):
        if filt.sharp is not None and lattice_is_sharp(v) != filt.sharp:
            continue
        if filt.ideal is not None and not filt.ideal.contains(small_component(v)):
            continue
        if filt.direction_cell is not None and not filt.direction_cell.contains_lattice(v, filt.n):
            continue
        if filt.solution_cell is not None:
            if not lattice_is_sharp(v):
                continue
            ratio = rat(w_of(v).a, v.a)
            if not filt.solution_cell.contains(ratio):
                continue
        yield v


def euclid_tree(field: Fq, n_max: int) -> Iterator[Tuple[Poly, Poly, Poly, int]]:
    """Every coprime (r, s) with s monic, 1 <= deg s <= n_max, r != 0 and
    deg r < deg s, paired with r^-1 mod s and lead(Q_k); no gcd is taken.

    r/s runs once over the reduced fractions of the open unit ball through
    its continued fraction [0; a_1, ..., a_k], deg a_i >= 1.  A node is the
    state (P_{k-1}, Q_{k-1}, P_k, Q_k) of the convergent recurrence, and
    P_k Q_{k-1} - P_{k-1} Q_k = (-1)^(k+1) makes (-1)^(k+1) lead(Q_k) Q_{k-1}
    the inverse of r = P_k / lead(Q_k) modulo s = Q_k / lead(Q_k), already of
    degree below deg s.  The same identity turns the penultimate ratio
    (-1)^k Q_{k-1} / Q_k into -lead(Q_k)^-2 (r^-1 mod s) / s.
    """
    quotients = [()] + [tuple(polys_of_degree(field, d)) for d in range(1, n_max + 1)]
    zero, one = field.zero, field.one
    mul_t, inv_t, minus_one = field.mul_t, field.inv_t, field.neg_t[1]
    # (P_{k-1}, Q_{k-1}, P_k, Q_k, (-1)^(k+1)) after the first quotient, k = 1
    stack = [(zero, one, one, a, 1) for qs in reversed(quotients) for a in reversed(qs)]
    while stack:
        pp, qp, p, q, sign = stack.pop()
        lead = q.coeffs[-1]
        if lead == 1:
            yield p, q, qp.scale(sign), lead
        else:
            unlead = inv_t[lead]
            yield p.scale(unlead), q.scale(unlead), qp.scale(mul_t[sign][lead]), lead
        flip = minus_one if sign == 1 else 1
        for d in range(1, n_max - q.degree + 1):
            for a in quotients[d]:
                stack.append((p, q, a * p + pp, a * q + qp, flip))


# ---------------------------------------------------------------------------
# companions
# ---------------------------------------------------------------------------


def w_of(v: LatticeVec, seed: Optional[Tuple[Poly, Poly]] = None) -> LatticeVec:
    """The unique w with det(v | w) = 1 and x_w/a in the open unit ball.

    Needs v primitive and sharp (so a != 0).  Any Bezout seed gives the same
    w: solutions differ by multiples of v, and reducing x_w modulo a pins the
    representative.
    """
    a, b = v
    if a.is_zero():
        raise ValueError("companion needs a sharp vector with a != 0")
    if seed is None:
        g, x0, y0 = poly_xgcd(a, b)
        if not g.is_one():
            raise ValueError("vector is not primitive")
    else:
        x0, y0 = seed
        if a * x0 + b * y0 != a.field.one:
            raise ValueError("seed does not solve the Bezout equation")
    # w0 = (-y0, x0) solves det(v | w0) = a*x0 + b*y0 = 1; translate by
    # multiples of v until the top entry is the remainder mod a
    q, r = divmod(-y0, a)
    return LatticeVec(r, x0 - q * b)


def gamma_of(v: LatticeVec) -> Mat2:
    """Column matrix (v | w_of(v)); determinant one by construction."""
    w = w_of(v)
    return Mat2.from_polys(v.a, w.a, v.b, w.b)


def companion_of(v: LatticeVec) -> LatticeVec:
    """A determinant-one companion for any primitive vector.

    Sharp vectors get the canonical w_of; the rest go through the coordinate
    swap, which maps the sharp companion back with a sign.  The induced ratio
    statistic does not depend on this choice modulo polynomials.
    """
    if lattice_is_sharp(v):
        return w_of(v)
    swapped = w_of(LatticeVec(v.b, v.a))
    return LatticeVec(-swapped.b, -swapped.a)


def solution_statistic(v: LatticeVec) -> Tuple[RationalFn, bool]:
    """Reduced ratio z_w / z_v of the companion against the vector.

    Returns (statistic in the open unit ball, exception flag).  The flag
    marks sharp vectors whose z-ratio differs from the x-ratio before
    reduction; this is confined to the constant levels.
    """
    w = companion_of(v)
    zv = z_of(as_plane(v))
    zw = z_of(as_plane(w))
    raw = zw / zv
    exceptional = False
    if lattice_is_sharp(v):
        exceptional = raw != rat(w.a, v.a)
    return reduce_mod_R(raw), exceptional


# ---------------------------------------------------------------------------
# matrix-side enumeration
# ---------------------------------------------------------------------------


def box_contains(g: Mat2, n: int, theta: SphereCell, dprime: DomainCell) -> bool:
    """Membership of a determinant-one matrix in the level-n product box.

    Equivalent to: the lower-parabolic factor is integral with direction
    column in theta, the diagonal exponent is n, and the upper-unipotent
    entry falls in dprime.  All four conditions read off the entries.
    """
    alpha, beta = g.a, g.c
    if alpha.is_zero():
        return False
    if alpha.abs_exp() != n:
        return False
    if not is_sharp(PlaneVec(alpha, beta)):
        return False
    scale = pi_pow(g.field, n)
    cx, cy = theta.centers()
    if not in_ball(alpha * scale, cx, theta.depth):
        return False
    if not in_ball(beta * scale, cy, theta.depth):
        return False
    return dprime.contains(g.b / alpha)


def matrix_side_enumerate(field: Fq, n: int, theta: SphereCell,
                          dprime: DomainCell,
                          ideal: Optional[Ideal] = None) -> List[Mat2]:
    """Determinant-one polynomial matrices in the box, lower-left entry in
    the ideal.  Scans candidate first columns, solves for the second column,
    and keeps the unique unit-ball translate passing the box predicates."""
    out = []
    for a in polys_of_degree(field, n):
        for b in polys_up_to_degree(field, n):
            if ideal is not None and not ideal.contains(b):
                continue
            g, x0, y0 = poly_xgcd(a, b)
            if not g.is_one():
                continue
            # second column (c, d) with det = a*d - c*b = 1: c = -y0, d = x0
            q_, c = divmod(-y0, a)
            d = x0 - q_ * b
            cand = Mat2.from_polys(a, c, b, d)
            if box_contains(cand, n, theta, dprime):
                out.append(cand)
    return out


class BijectionResult(NamedTuple):
    lattice_count: int
    matrix_count: int
    equal: bool
    missing: Tuple[Mat2, ...]
    extra: Tuple[Mat2, ...]


def verify_bijection(field: Fq, n: int, theta: SphereCell, dprime: DomainCell,
                     ideal: Optional[Ideal] = None,
                     elementwise: bool = True) -> BijectionResult:
    """Compare the vector-side image {gamma_of(v)} with the matrix-side scan."""
    if not theta.sharp:
        raise ValueError("correspondence cells must sit in the sharp hemisphere")
    filt = EnumFilter(n=n, ideal=ideal, sharp=True,
                      direction_cell=theta, solution_cell=dprime)
    lattice_side = [gamma_of(v) for v in enumerate_primitive(field, filt)]
    matrix_side = matrix_side_enumerate(field, n, theta, dprime, ideal)
    if not elementwise:
        eq = len(lattice_side) == len(matrix_side)
        return BijectionResult(len(lattice_side), len(matrix_side), eq, (), ())
    lset, mset = set(lattice_side), set(matrix_side)
    missing = tuple(sorted(mset - lset, key=lambda g: str(g)))
    extra = tuple(sorted(lset - mset, key=lambda g: str(g)))
    equal = not missing and not extra and len(lattice_side) == len(matrix_side)
    return BijectionResult(len(lattice_side), len(matrix_side), equal, missing, extra)


def count_membership_flips(matrices: Sequence[Mat2], n: int, theta: SphereCell,
                           dprime: DomainCell, kernel: Sequence[Mat2],
                           expect: bool = True) -> int:
    """Perturb each matrix by every kernel pair k1 * g * k2 and count how many
    products land on the other side of the box membership predicate."""
    flips = 0
    for g in matrices:
        for k1 in kernel:
            for k2 in kernel:
                if box_contains(k1 * g * k2, n, theta, dprime) != expect:
                    flips += 1
    return flips
