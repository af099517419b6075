"""Primitive lattice vectors, their unimodular companions, and the two-sided
enumeration of measurement boxes.

A primitive vector v = (a, b) with |a| >= |b| has a unique companion w with
det(v | w) = 1 and first companion coordinate in the open unit ball after
division by a; gluing them column-wise gives a determinant-one matrix with
polynomial entries.  `companion_of` is the package's one solver of the gcd
equation a*x + b*y = 1: it reduces the extended-gcd cofactors, which are the
penultimate convergents of a/b, and `cfrac.shortest_solution` reads its
answer off the companion.  The same matrices come purely from the matrix side,
where `box_cell` reads the box of a matrix off its triangular factors.
`verify_bijection` scans a level once per side, the vector side binned by
coefficient digits and the matrix side by `box_cell`, and compares every
box; the two stay independent above the shared polynomial arithmetic, so
comparing them is an actual check.

Coprime pairs come two ways: `euclid_tree` builds them from continued
fractions with their modular inverses and no gcd; `primitive_vectors`, the
one scan of primitive vectors, tests every pair with a gcd and optionally
keeps those whose small component lies in an ideal.  Both are oracles now.
The histogram runners count the tree's nodes by a transfer DP over the same
convergent recurrence (see `harness`), and the tests check that DP against
the walk of `euclid_tree`, key by key, and the walk against
`primitive_vectors`.

Cylinders are the finite-depth cells used for equidistribution bookkeeping:
a sphere cell fixes the leading expansion digits of the direction of v, a
domain cell fixes leading digits of an element of the open unit ball.  Each
cell stores its digits, so membership is one `in_cell` test per coordinate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .field import Fq, Ideal, Poly, is_coprime, poly_xgcd, polys_of_degree, polys_up_to_degree
from .haar import Mat2
from .laurent import (
    LatticeVec, PlaneVec, RationalFn, as_plane, in_cell, is_sharp,
    lattice_direction_digits, pi_pow, rat, vec_norm_exp, z_of,
)


def lattice_is_sharp(v: LatticeVec) -> bool:
    """|a| >= |b| with the zero component convention |0| = 0."""
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

    def measure(self) -> Fraction:
        return Fraction(1, self.field.q ** (2 * self.depth))

    def contains_plane(self, v: PlaneVec) -> bool:
        # the digits of v / Y^k at indices 0.. are those of v at -k..
        k = vec_norm_exp(v)
        return in_cell(v.x, -k, self.x_digits) and in_cell(v.y, -k, self.y_digits)

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

    def contains(self, f: RationalFn) -> bool:
        return in_cell(f, 1, self.digits)

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


def primitive_vectors(field: Fq, n: int,
                      ideal: Optional[Ideal] = None) -> Iterator[LatticeVec]:
    """Primitive vectors of sup norm exactly q^n, in canonical (a, b) order;
    with an ideal, only those whose small component lies in it."""
    if n < 0:
        raise ValueError("level must be >= 0")
    for a in polys_up_to_degree(field, n):
        bs = polys_up_to_degree(field, n) if a.degree == n else polys_of_degree(field, n)
        for b in bs:
            if a.is_zero() and b.is_zero():
                continue
            if not is_coprime(a, b):
                continue
            v = LatticeVec(a, b)
            if ideal is None or ideal.contains(small_component(v)):
                yield v


def small_component(v: LatticeVec) -> Poly:
    """The component away from the sup norm; ties give the second one."""
    return v.b if lattice_is_sharp(v) else v.a


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


def companion_of(v: LatticeVec) -> LatticeVec:
    """The companion w of a primitive vector v = (a, b): det(v | w) = 1, and
    (w.b, -w.a) is the shortest solution of a*x + b*y = 1.

    A sharp v gets the unique w with x_w/a in the open unit ball.  Any
    Bezout solution gives the same w: solutions differ by multiples of v,
    and reducing x_w modulo a pins the representative.  The cofactors of the
    extended gcd are, up to sign and a scalar, the penultimate convergents
    Q_{n-1}, P_{n-1} of a/b; reduced this way they are the shortest solution.
    A blunt v goes through the coordinate swap, which maps the sharp
    companion back with a sign.
    """
    blunt = not lattice_is_sharp(v)
    a, b = (v.b, v.a) if blunt else v
    g, x0, y0 = poly_xgcd(a, b)
    if not g.is_one():
        raise ValueError("vector is not primitive")
    # w0 = (-y0, x0) solves det(v | w0) = a*x0 + b*y0 = 1; translate by
    # multiples of v until the top entry is the remainder mod a
    q, r = divmod(-y0, a)
    w = LatticeVec(r, x0 - q * b)
    return LatticeVec(-w.b, -w.a) if blunt else w


def gamma_of(v: LatticeVec) -> Mat2:
    """Column matrix (v | companion_of(v)); determinant one by construction."""
    w = companion_of(v)
    return Mat2.from_polys(v.a, w.a, v.b, w.b)


def solution_statistic(v: LatticeVec, w: Optional[LatticeVec] = None
                       ) -> Tuple[RationalFn, bool]:
    """Reduced ratio z_w / z_v of the companion w (passed, or companion_of(v)).

    Returns (statistic in the open unit ball, exception flag).  The flag
    marks sharp vectors whose z-ratio differs from the x-ratio before
    reduction; this is confined to the constant levels.  It is an oracle:
    the runners count the flagged vectors in closed form, as the sharp
    (lambda, mu) of level 0, whose companion (0, lambda^-1) has z-ratio
    lambda^-2 and x-ratio 0.
    """
    w = companion_of(v) if w is None else w
    zv = z_of(as_plane(v))
    zw = z_of(as_plane(w))
    raw = zw / zv
    exceptional = False
    if lattice_is_sharp(v):
        exceptional = raw != rat(w.a, v.a)
    return raw.fractional_part(), exceptional


# ---------------------------------------------------------------------------
# matrix-side enumeration and the box correspondence
# ---------------------------------------------------------------------------


BoxKey = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]


def box_cell(g: Mat2, n: int, m: int, mp: int) -> Optional[BoxKey]:
    """The (theta x, theta y, dprime) digits of the level-n box of depths
    (m, mp) holding a determinant-one matrix, or None.  g is in one when its
    lower-parabolic factor is integral (sharp first column) with diagonal
    exponent n and its upper-unipotent entry g.b / alpha lies in the open
    unit ball; the digits are those of the first column over Y^n and of
    g.b / alpha, all read off the entries."""
    alpha, beta = g.a, g.c
    if alpha.abs_exp() != n or not is_sharp(PlaneVec(alpha, beta)):
        return None
    u = g.b / alpha
    if u.valuation() < 1:
        return None
    scale = pi_pow(g.field, n)
    return (alpha * scale).expand(0, m), (beta * scale).expand(0, m), u.expand(1, mp)


def matrix_side_enumerate(field: Fq, n: int, m: int, mp: int,
                          ideal: Optional[Ideal] = None) -> Dict[BoxKey, List[Mat2]]:
    """Determinant-one polynomial matrices of level n, lower-left entry in
    the ideal, binned by `box_cell`.  Scans candidate first columns once,
    solves for the second column, and keeps its unit-ball translate."""
    out: Dict[BoxKey, List[Mat2]] = {}
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
            key = box_cell(cand, n, m, mp)
            if key is not None:
                out.setdefault(key, []).append(cand)
    return out


class BijectionResult(NamedTuple):
    lattice_count: int
    matrix_count: int
    equal: bool
    missing: Tuple[Mat2, ...]
    extra: Tuple[Mat2, ...]


def verify_bijection(field: Fq, n: int, m: int, mp: int, ideal: Optional[Ideal] = None
                     ) -> Dict[Tuple[SphereCell, DomainCell], BijectionResult]:
    """Compare the vector-side image {gamma_of(v)} with the matrix-side scan
    in every sharp box of level n and depths (m, mp), in canonical cell
    order.  Each side scans the level once; `missing` holds the matrices the
    vector side lacks, `extra` those the matrix side lacks."""
    lattice_side: Dict[BoxKey, List[Mat2]] = {}
    for v in primitive_vectors(field, n, ideal):
        x, y = lattice_direction_digits(v, n, m)
        if x[0] == 0:  # deg a < n: the blunt hemisphere, which holds no box
            continue
        g = gamma_of(v)
        u = g.b / g.a  # x_w / a for the companion w
        if u.valuation() >= 1:
            lattice_side.setdefault((x, y, u.expand(1, mp)), []).append(g)
    matrix_side = matrix_side_enumerate(field, n, m, mp, ideal)
    out = {}
    for theta in sphere_cells(field, m, sharp=True):
        for dprime in domain_cells(field, mp):
            key = (theta.x_digits, theta.y_digits, dprime.digits)
            lat, mat = lattice_side.get(key, []), matrix_side.get(key, [])
            missing = tuple(sorted(set(mat) - set(lat), key=str))
            extra = tuple(sorted(set(lat) - set(mat), key=str))
            equal = not missing and not extra and len(lat) == len(mat)
            out[theta, dprime] = BijectionResult(len(lat), len(mat), equal, missing, extra)
    return out


def count_membership_flips(matrices: Sequence[Mat2], n: int, theta: SphereCell,
                           dprime: DomainCell, kernel: Sequence[Mat2],
                           expect: bool = True) -> int:
    """Perturb each matrix by every kernel pair k1 * g * k2 and count how many
    products land on the other side of the box membership predicate."""
    key = (theta.x_digits, theta.y_digits, dprime.digits)
    return sum((box_cell(k1 * g * k2, n, theta.depth, dprime.depth) == key) != expect
               for g in matrices for k1 in kernel for k2 in kernel)
