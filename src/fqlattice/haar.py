"""Closed-form volume constants, congruence indices, and the triangular
factorization of determinant-one matrices over the completion.

Every constant here is an exact fractions.Fraction (or an int when it is one).
Each formula with content has a brute-force companion: the congruence index is
checked against an orbit count over the residue ring, and the order of the
determinant-one matrix group over a truncated coefficient ring against a raw
determinant census.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .field import Fq, Ideal, Poly, poly_gcd, polys_up_to_degree
from .laurent import RationalFn, pi_pow, rat


def zeta_minus1(q: int) -> Fraction:
    """Value of the zeta function of the rational function field at -1."""
    return Fraction(1, (q - 1) * (q * q - 1))


def sphere_mass(q: int) -> Fraction:
    """Measure of the unit sphere of the plane: (q^2 - 1)/q^2."""
    return Fraction(q * q - 1, q * q)


def sharp_hemisphere_mass(q: int) -> Fraction:
    """Part of the sphere where the first coordinate has absolute value one."""
    return Fraction(q - 1, q)


def nonsharp_hemisphere_mass(q: int) -> Fraction:
    return Fraction(q - 1, q * q)


def quotient_mass(q: int) -> Fraction:
    """Measure of the translation quotient of the completion (genus zero),
    that is of the open unit ball used as fundamental domain."""
    return Fraction(1, q)


def hecke_index(I: Ideal) -> int:
    """Index of the congruence subgroup with lower-left entry in I."""
    out = Fraction(I.norm)
    q = I.field.q
    for p in I.primes():
        out *= 1 + Fraction(1, q ** p.degree)
    assert out.denominator == 1
    return int(out)


def covolume(I: Ideal) -> Fraction:
    """Total mass of the quotient of the matrix group by the congruence lattice."""
    return zeta_minus1(I.field.q) * hecke_index(I)


def c_constant(I: Ideal) -> Fraction:
    """Normalizing constant of the equidistribution statement."""
    return sphere_mass(I.field.q) * covolume(I)


def counting_main_term(I: Ideal, n: int) -> Fraction:
    """Expected number of primitive vectors of norm q^n with constraint in I."""
    q = I.field.q
    return sphere_mass(q) * quotient_mass(q) * q ** (2 * n) / c_constant(I)


class BoxSpec(NamedTuple):
    """Measurement box: direction target of mass theta_mass, norm level n,
    unit-ball target of mass dprime_mass."""

    n: int
    theta_mass: Fraction
    dprime_mass: Fraction


def box_measure(q: int, spec: BoxSpec) -> Fraction:
    """Haar measure of the product box at level n."""
    return Fraction(q ** (2 * spec.n + 2), q * q - 1) * spec.theta_mass * spec.dprime_mass


def expected_box_count(I: Ideal, spec: BoxSpec) -> Fraction:
    """Main term for the number of lattice points of the congruence lattice in
    the box: box measure divided by the quotient mass."""
    return box_measure(I.field.q, spec) / covolume(I)


def cfe_prefactor(I: Ideal) -> Fraction:
    """Normalization turning the binned penultimate-denominator statistic into
    a probability: q * [index of the congruence subgroup] / (q-1)^2.

    Forced by consistency with expected_box_count: the main term for pairs
    (P, Q) with deg P < deg Q = n and P in the ideal is the box count over
    the blunt hemisphere, q^(2n) (q-1)^2 / (q * index), so the reciprocal of
    its q^(2n) coefficient is the probability normalizer.
    """
    q = I.field.q
    return Fraction(q * hecke_index(I), (q - 1) ** 2)


def sl2_order_mod(q: int, N: int) -> int:
    """Order of the determinant-one 2x2 group over the N-truncated ball ring."""
    if N < 1:
        raise ValueError("truncation level must be >= 1")
    return q ** (3 * N - 2) * (q * q - 1)


def kernel_ball_measure(q: int, N: int) -> Fraction:
    """Haar mass of the depth-N congruence ball in the matrix group."""
    return Fraction(q * q, q * q - 1) * Fraction(1, q ** (3 * N))


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def hecke_index_bruteforce(I: Ideal) -> int:
    """Orbit count of the column (1:0) over the residue ring, modulo units.

    The elementary transvections generate the full determinant-one group over
    the residue ring, and the unit-scaling action on unimodular columns is
    free, so the index is (orbit size of raw columns) / (number of units).
    """
    if I.gen.is_one():
        return 1
    if I.norm > 256:
        raise ValueError("oracle restricted to residue rings of size <= 256")
    field = I.field
    g = I.gen
    residues = list(polys_up_to_degree(field, g.degree - 1))
    unit_count = sum(1 for r in residues
                     if not r.is_zero() and poly_gcd(r, g).is_one())
    start = (field.one, field.zero)
    seen = {start}
    stack = [start]
    while stack:
        u, v = stack.pop()
        for r in residues:
            if r.is_zero():
                continue
            for cand in ((u, (v + r * u) % g), ((u + r * v) % g, v)):
                if cand not in seen:
                    seen.add(cand)
                    stack.append(cand)
    assert len(seen) % unit_count == 0
    return len(seen) // unit_count


def _truncated_mul(x: Tuple[int, ...], y: Tuple[int, ...], field: Fq) -> Tuple[int, ...]:
    N = len(x)
    add, mul = field.add_t, field.mul_t
    out = [0] * N
    for i, xi in enumerate(x):
        if xi:
            row = mul[xi]
            for j in range(N - i):
                if y[j]:
                    out[i + j] = add[out[i + j]][row[y[j]]]
    return tuple(out)


def sl2_order_bruteforce(field: Fq, N: int) -> int:
    """Census of determinant-one matrices over the N-truncated ball ring."""
    q = field.q
    if q ** (4 * N) > 2 * 10 ** 6:
        raise ValueError("oracle range exceeded")
    elems = [tuple((code // q ** i) % q for i in range(N)) for code in range(q ** N)]
    one = tuple([1] + [0] * (N - 1))
    neg = field.neg_t
    count = 0
    for a in elems:
        for d in elems:
            ad = _truncated_mul(a, d, field)
            for b in elems:
                for c in elems:
                    bc = _truncated_mul(b, c, field)
                    det = tuple(field.add_t[x][neg[y]] for x, y in zip(ad, bc))
                    if det == one:
                        count += 1
    return count


# ---------------------------------------------------------------------------
# 2x2 matrices over the function field and their triangular factorization
# ---------------------------------------------------------------------------


class Mat2(NamedTuple):
    """Row-major 2x2 matrix [[a, b], [c, d]] with exact rational entries."""

    a: RationalFn
    b: RationalFn
    c: RationalFn
    d: RationalFn

    @classmethod
    def from_polys(cls, a: Poly, b: Poly, c: Poly, d: Poly) -> "Mat2":
        return cls(rat(a), rat(b), rat(c), rat(d))

    @classmethod
    def identity(cls, field: Fq) -> "Mat2":
        one, zero = rat(field.one), rat(field.zero)
        return cls(one, zero, zero, one)

    @property
    def field(self) -> Fq:
        return self.a.field

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def det(self) -> RationalFn:
        return self.a * self.d - self.b * self.c

    def is_integral(self) -> bool:
        return all(f.is_zero() or f.valuation() >= 0
                   for f in (self.a, self.b, self.c, self.d))


class LuFactors(NamedTuple):
    u_minus: Mat2
    m: Mat2
    a: Mat2
    u_plus: Mat2
    exponent: int  # log_q |top-left entry|


def refined_lu(g: Mat2) -> LuFactors:
    """Exact factorization g = u_minus * m * a * u_plus of a determinant-one
    matrix with nonzero top-left entry alpha.

    u_minus is lower unipotent with entry beta/alpha, u_plus upper unipotent
    with entry gamma/alpha (gamma the top-right entry), m is the unit-norm
    diagonal part and a carries the norm of alpha: a = diag(pi^k, pi^-k)
    with k = -log_q |alpha| ... so `exponent` = log_q |alpha| and the matrix
    u_minus * m lies in the integral lower parabolic iff |alpha| >= |beta|.
    """
    field = g.field
    if g.a.is_zero():
        raise ValueError("factorization needs a nonzero top-left entry")
    if g.det() != rat(field.one):
        raise ValueError("factorization defined on determinant-one matrices")
    one, zero = rat(field.one), rat(field.zero)
    alpha = g.a
    k = alpha.abs_exp()
    u_minus = Mat2(one, zero, g.c / alpha, one)
    u_plus = Mat2(one, g.b / alpha, zero, one)
    m = Mat2(alpha * pi_pow(field, k), zero, zero, alpha.reciprocal() * pi_pow(field, -k))
    a = Mat2(pi_pow(field, -k), zero, zero, pi_pow(field, k))
    return LuFactors(u_minus, m, a, u_plus, k)


def kernel_elements(field: Fq, N: int) -> Tuple[Mat2, ...]:
    """Exact coset representatives of the depth-N congruence ball modulo the
    depth-(N+1) ball: products lower(c1) * diag(t, 1/t) * upper(c2) with
    t = 1 + c0 * pi^N, one for each coefficient triple (c0, c1, c2)."""
    if N < 1:
        raise ValueError("depth must be >= 1")
    one, zero = rat(field.one), rat(field.zero)
    piN = pi_pow(field, N)
    out: List[Mat2] = []
    for c0 in range(field.q):
        t = one + rat(field.const(c0)) * piN
        diag = Mat2(t, zero, zero, t.reciprocal())
        for c1 in range(field.q):
            lower = Mat2(one, zero, rat(field.const(c1)) * piN, one)
            for c2 in range(field.q):
                upper = Mat2(one, rat(field.const(c2)) * piN, zero, one)
                out.append(lower * diag * upper)
    return tuple(out)
