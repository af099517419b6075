"""Continued fractions of rational functions over GF(q).

The Gauss-map step sends a nonzero element of the open unit ball to the
fractional part of its reciprocal; iterating it on the fractional part of any
rational function produces the finite expansion [a0; a1, ..., an] whose
partial quotients a1..an all have degree >= 1.  Because the step inverts a
fraction and splits off the polynomial part, the expansion is exactly the
Euclidean algorithm on (numerator, denominator), and everything here is exact.

The tail of the module reads the solution of the Bezout equation a*x + b*y = 1
with max(|x|, |y|) minimal off `lattice.companion_of`, the one solver of that
equation: the cofactors of the extended gcd are, up to sign and a scalar, the
penultimate convergents P_{n-1}, Q_{n-1} of a/b, and reducing them into the
unit ball is what makes them shortest.  A dumb exhaustive scan is kept as an
oracle against it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .field import Poly
from .laurent import LatticeVec, RationalFn, rat
from .lattice import companion_of


def artin_step(f: RationalFn) -> RationalFn:
    """Fractional part of 1/f; f must be nonzero with valuation >= 1."""
    if f.is_zero():
        raise ValueError("step undefined at zero")
    if f.valuation() < 1:
        raise ValueError("step needs an element of the open unit ball")
    return f.reciprocal().fractional_part()


class CfExpansion(NamedTuple):
    """[a0; a1, ..., an] with deg(ai) >= 1 for i >= 1."""

    source: RationalFn
    a0: Poly
    coeffs: Tuple[Poly, ...]

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __str__(self):
        inner = ", ".join(str(a) for a in self.coeffs)
        return f"[{self.a0}; {inner}]"


def cf_expand(f: RationalFn) -> CfExpansion:
    """Expansion by the Euclidean algorithm on (num, den)."""
    a0 = f.integral_part()
    num = f.num % f.den
    den = f.den
    coeffs: List[Poly] = []
    while not num.is_zero():
        q, r = divmod(den, num)
        coeffs.append(q)
        den, num = num, r
    return CfExpansion(f, a0, tuple(coeffs))


def cf_value(a0: Poly, coeffs: Tuple[Poly, ...]) -> RationalFn:
    """Evaluate [a0; a1, ..., an] bottom up."""
    acc: Optional[RationalFn] = None
    for a in reversed(coeffs):
        v = rat(a)
        acc = v if acc is None else v + acc.reciprocal()
    head = rat(a0)
    return head if acc is None else head + acc.reciprocal()


class ConvergentTable(NamedTuple):
    """Rows (P_i, Q_i) for i = -1..n with the standard recurrences.

    P_-1 = 1, Q_-1 = 0, P_0 = a0, Q_0 = 1, and
    P_i = P_{i-1} a_i + P_{i-2} (same for Q).  Row n recovers the source.
    """

    expansion: CfExpansion
    rows: Tuple[Tuple[Poly, Poly], ...]

    def P(self, i: int) -> Poly:
        return self.rows[i + 1][0]

    def Q(self, i: int) -> Poly:
        return self.rows[i + 1][1]

    @property
    def n(self) -> int:
        return len(self.rows) - 2

    def value(self, i: int) -> RationalFn:
        return RationalFn(self.P(i), self.Q(i))


def convergents(e: CfExpansion) -> ConvergentTable:
    field = e.a0.field
    rows = [(field.one, field.zero), (e.a0, field.one)]
    for a in e.coeffs:
        p = rows[-1][0] * a + rows[-2][0]
        q = rows[-1][1] * a + rows[-2][1]
        rows.append((p, q))
    return ConvergentTable(e, tuple(rows))


def check_approx(table: ConvergentTable) -> bool:
    """Exact distance law: |f - P_i/Q_i| = 1/(|Q_i| |Q_{i+1}|) for i < n."""
    f = table.expansion.source
    for i in range(table.n):
        diff = f - table.value(i)
        want = -(table.Q(i).degree + table.Q(i + 1).degree)
        if diff.abs_exp() != want:
            return False
    return True


def is_convergent(f: RationalFn, P: Poly, Q: Poly) -> bool:
    """Whether P/Q equals one of the convergents P_i/Q_i, 0 <= i <= n-1."""
    if Q.is_zero():
        raise ZeroDivisionError("convergent candidate with zero denominator")
    value = RationalFn(P, Q)
    table = convergents(cf_expand(f))
    return any(table.value(i) == value for i in range(table.n))


def penultimate_ratio(f: RationalFn) -> RationalFn:
    """(-1)^n Q_{n-1} / Q_n for the expansion of a nonzero unit-ball element.

    The value lies in the open unit ball again: deg Q_{n-1} < deg Q_n.
    """
    if f.is_zero() or f.valuation() < 1:
        raise ValueError("statistic defined on nonzero unit-ball elements")
    table = convergents(cf_expand(f))
    n = table.n
    num = table.Q(n - 1)
    if n % 2 == 1:
        num = -num
    return RationalFn(num, table.Q(n))


# ---------------------------------------------------------------------------
# shortest Bezout solutions
# ---------------------------------------------------------------------------


def shortest_solution(a: Poly, b: Poly) -> LatticeVec:
    """The solution (x, y) of a*x + b*y = 1 minimizing max(|x|, |y|), read
    off the companion w of (a, b): det((a, b) | w) = 1 makes (w.b, -w.a) a
    solution, and the companion's reduction makes it the shortest.

    Unique whenever max(deg a, deg b) >= 1.  For a pair of constants every
    scaling-free choice ties at norm one, and the canonical representative
    (1/a, 0) (or (0, 1/b) when a = 0) is returned.
    """
    w = companion_of(LatticeVec(a, b))
    return LatticeVec(w.b, -w.a)


def brute_force_shortest(a: Poly, b: Poly) -> LatticeVec:
    """Oracle: exhaustive scan for the shortest solution of a*x + b*y = 1.

    Scans every y with deg y < B = max(deg a, deg b) and solves for x.  Any
    solution avoiding this range has norm >= q^B and cannot be minimal, so the
    scan is complete when B >= 1.  Raises if the pair has no solutions or if
    the minimum is not unique.

    Division by a is F_q-linear in y, so the remainder of 1 - b*y mod a is
    summed from the remainders of -b*Y^k, one digit of y at a time, and x is
    divided out only where that remainder vanishes.
    """
    field = a.field
    B = max(a.degree, b.degree)
    if B < 1:
        raise ValueError("constant pairs have no unique shortest solution")
    solutions: List[Tuple[int, LatticeVec]] = []
    if not a.is_zero():  # a = 0 leaves b*y = 1, which no y solves once deg b >= 1
        q, one, add, mul = field.q, field.one, field.add_t, field.mul_t

        def digits(p: Poly) -> Tuple[int, ...]:
            r = (p % a).coeffs
            return r + (0,) * (a.degree - len(r))

        # rems[i] belongs to the y whose coefficient k is digit k of i in base q
        rems = [digits(one)]
        for k in range(B):
            step = digits(-b.shift(k))
            rems += [tuple(add[u][mul[c][v]] for u, v in zip(r, step))
                     for c in range(1, q) for r in rems]
        for i, r in enumerate(rems):
            if any(r):
                continue
            y = field.poly([i // q ** k % q for k in range(B)])
            x = (one - b * y) // a
            solutions.append((max(x.degree, y.degree), LatticeVec(x, y)))
    if not solutions:
        raise ValueError("no solutions: pair is not coprime")
    best = min(n for n, _ in solutions)
    winners = [v for n, v in solutions if n == best]
    if len(winners) != 1:
        raise ValueError("shortest solution is ambiguous")
    return winners[0]
