"""Arithmetic in GF(q) and in the polynomial ring GF(q)[Y].

Field elements are integer codes 0..q-1.  For q = p^d the code packs the d
residue digits of the element in base p (low digit = constant coordinate), so
prime fields are just residues mod p; the tables of GF(p^d) come from Poly
arithmetic over GF(p) modulo the field's monic irreducible modulus.  An Fq
instance owns flat add/mul/neg/inv tables, which keeps element operations at
dictionary-free list-index speed for the desk-scale fields this library
targets (q <= 9 built in, any other prime power up to Q_LIMIT = 1024
accepted, with an explicit modulus unless it is prime).

Polynomials are immutable coefficient tuples (low to high, trimmed).  The
degree of the zero polynomial is the NEG_INF singleton: it orders below every
integer but refuses arithmetic, so arithmetic on a degree must branch on
zeroness instead of letting a -1 sentinel leak into degree formulas, while a
comparison may rely on the ordering.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class _Extended:
    """Signed infinity used for degrees and valuations. Ordering only."""

    __slots__ = ("_pos",)

    def __init__(self, pos: bool):
        self._pos = pos

    def __lt__(self, other):
        if other is self:
            return False
        return not self._pos

    def __gt__(self, other):
        if other is self:
            return False
        return self._pos

    def __le__(self, other):
        return self == other or self < other

    def __ge__(self, other):
        return self == other or self > other

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash(("infinity", self._pos))

    def __repr__(self):
        return "POS_INF" if self._pos else "NEG_INF"


NEG_INF = _Extended(False)
POS_INF = _Extended(True)

# reflected comparisons (int < _Extended) work through int's NotImplemented,
# so no monkey patching is needed; arithmetic on the singletons raises TypeError.


_BUILTIN_MODULI = {
    4: (1, 1, 1),      # T^2 + T + 1 over GF(2)
    8: (1, 1, 0, 1),   # T^3 + T + 1 over GF(2)
    9: (1, 0, 1),      # T^2 + 1 over GF(3)
}
_FIELDS: Dict[Tuple[int, Optional[Tuple[int, ...]]], Fq] = {}  # get_field's, one per field
# the largest q whose q x q tables Fq builds; on a 2-vCPU VM GF(1021) takes
# 0.3 s and 78 MB, GF(2^10), built through Poly arithmetic, 18 s and 79 MB
Q_LIMIT = 1024


class Fq:
    """A small finite field GF(q) with table-based arithmetic on codes."""

    __slots__ = ("p", "d", "q", "modulus", "add_t", "mul_t", "neg_t", "inv_t",
                 "zero", "one", "Y")

    def __init__(self, q: int, modulus: Optional[Sequence[int]] = None):
        if q > Q_LIMIT:
            raise ValueError(f"q={q} is above {Q_LIMIT}, the largest field this library builds")
        p, d = _prime_power_split(q)
        self.p = p
        self.d = d
        self.q = q
        if d == 1:
            if modulus is not None:
                raise ValueError("prime field takes no modulus")
            self.modulus: Tuple[int, ...] = ()
            self._build_tables(None)
        else:
            if modulus is None:
                if q not in _BUILTIN_MODULI:
                    raise ValueError(f"no built-in modulus for q={q}")
                modulus = _BUILTIN_MODULI[q]
            modulus = tuple(int(c) for c in modulus)
            for k, c in enumerate(modulus):
                if not 0 <= c < p:
                    raise ValueError(f"modulus coefficient {c} at position {k} "
                                     f"is not a digit 0..{p - 1} of GF({p})")
            if len(modulus) != d + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {d} over GF({p})")
            m = Poly(get_field(p), modulus)
            if not is_irreducible(m):
                raise ValueError(f"modulus is reducible over GF({p})")
            self.modulus = modulus
            self._build_tables(m)
        self.zero, self.one, self.Y = Poly(self, ()), Poly(self, (1,)), Poly(self, (0, 1))

    def _build_tables(self, modulus: Optional["Poly"]) -> None:
        """Residues mod p, or for d > 1 polynomials over GF(p) mod the modulus."""
        p, q = self.p, self.q
        if modulus is None:
            self.add_t = [[(a + b) % p for b in range(q)] for a in range(q)]
            self.mul_t = [[(a * b) % p for b in range(q)] for a in range(q)]
            self.neg_t = [(-a) % p for a in range(q)]
        else:
            elems = [Poly(modulus.field, tuple(self._unpack(a))) for a in range(q)]
            pack = self._pack
            self.add_t = [[pack((x + y).coeffs) for y in elems] for x in elems]
            self.mul_t = [[pack((x * y % modulus).coeffs) for y in elems] for x in elems]
            self.neg_t = [pack((-x).coeffs) for x in elems]
        # the first b with a * b = 1; b = 0 never is
        self.inv_t = [0] + [row.index(1) for row in self.mul_t[1:]]

    def _unpack(self, code: int) -> List[int]:
        v = []
        for _ in range(self.d):
            v.append(code % self.p)
            code //= self.p
        return v

    def _pack(self, digits: Sequence[int]) -> int:
        code = 0
        for x in reversed(digits):
            code = code * self.p + x
        return code

    # element ops ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_t[a][b]

    def element_text(self, a: int) -> str:
        """Base-p digit string of the code, most significant digit first."""
        if self.d == 1:
            return str(a)
        return "".join(str(x) for x in reversed(self._unpack(a))).lstrip("0") or "0"

    def element_from_text(self, s: str) -> int:
        """Inverse of element_text: decimal when d = 1, base-p digits
        otherwise, ASCII 0-9 only; value below q."""
        if not s or any(c not in "0123456789" or int(c) >= self.p for c in s):
            raise ValueError(f"coefficient {echo_text(s)} is not a base-{self.p} digit string")
        v = int(s, 10 if self.d == 1 else self.p)
        if v >= self.q:
            raise ValueError(f"coefficient {echo_text(s)} is out of range for q={self.q}")
        return v

    # polynomial factories ---------------------------------------------------

    def poly(self, coeffs: Sequence[int]) -> "Poly":
        coeffs = tuple(int(c) for c in coeffs)
        for c in coeffs:
            if not 0 <= c < self.q:
                raise ValueError(f"coefficient {c} out of range for q={self.q}")
        return Poly(self, coeffs)

    def const(self, c: int) -> "Poly":
        return self.poly((c,))

    def monomial(self, k: int, c: int = 1) -> "Poly":
        return self.poly((0,) * k + (c,))

    def __eq__(self, other):
        return (isinstance(other, Fq) and self.p == other.p and self.d == other.d
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.d, self.modulus))

    def __repr__(self):
        return f"Fq({self.q})"


def _prime_power_split(q: int) -> Tuple[int, int]:
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    # the least divisor above 1 is prime
    p = next(k for k in range(2, q + 1) if q % k == 0)
    d, m = 0, q
    while m % p == 0:
        m //= p
        d += 1
    if m != 1:
        raise ValueError(f"q={q} is not a prime power")
    return p, d


def get_field(q: int, modulus: Optional[Tuple[int, ...]] = None) -> Fq:
    """The one shared Fq of a field; no modulus names the built-in one."""
    key = (q, _BUILTIN_MODULI.get(q) if modulus is None else tuple(modulus))
    if key not in _FIELDS:
        _FIELDS[key] = Fq(q, modulus)
    return _FIELDS[key]


class Poly:
    """Element of GF(q)[Y]: trimmed coefficient tuple, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Fq, coeffs: Tuple[int, ...]):
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self.field = field
        self.coeffs = coeffs[:n]

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # ring operations --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = f.add_t
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return Poly(f, tuple(out))

    def __neg__(self) -> "Poly":
        neg = self.field.neg_t
        return Poly(self.field, tuple(neg[c] for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return f.zero
        add, mul = f.add_t, f.mul_t
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                row = mul[c]
                for j, e in enumerate(b):
                    if e:
                        out[i + j] = add[out[i + j]][row[e]]
        return Poly(f, tuple(out))

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return self.field.zero
        mul = self.field.mul_t[c]
        return Poly(self.field, tuple(mul[x] for x in self.coeffs))

    def shift(self, k: int) -> "Poly":
        """Multiply by Y^k (k >= 0)."""
        if not self.coeffs:
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def __divmod__(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        f = self.field
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        if len(a) - 1 < db:
            return f.zero, self
        add, mul, neg = f.add_t, f.mul_t, f.neg_t
        inv_lead = f.inv_t[b[-1]]
        quo = [0] * (len(a) - db)
        for i in range(len(a) - db - 1, -1, -1):
            c = mul[a[i + db]][inv_lead]
            if c:
                quo[i] = c
                for j in range(db + 1):
                    a[i + j] = add[a[i + j]][neg[mul[c][b[j]]]]
        return Poly(f, tuple(quo)), Poly(f, tuple(a[:db]))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise ValueError("zero polynomial cannot be made monic")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv_t[self.coeffs[-1]])

    # ordering and identity ---------------------------------------------------

    def sort_key(self) -> Tuple[int, Tuple[int, ...]]:
        """Canonical order: by degree, then lexicographic leading to constant."""
        return (len(self.coeffs), tuple(reversed(self.coeffs)))

    def __lt__(self, other: "Poly") -> bool:
        return self.sort_key() < other.sort_key()

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.coeffs == other.coeffs
                and self.field == other.field)

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __repr__(self):
        return f"Poly({pretty_poly(self)!r}, q={self.field.q})"

    def __str__(self):
        return pretty_poly(self)


# ---------------------------------------------------------------------------
# gcd machinery
# ---------------------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; errors when both arguments vanish."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a: Poly, b: Poly) -> Tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    f = a.field
    if a.is_zero() and b.is_zero():
        raise ValueError("xgcd(0, 0) is undefined")
    r0, r1 = a, b
    u0, u1 = f.one, f.zero
    v0, v1 = f.zero, f.one
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.coeffs[-1] != 1:
        c = f.inv_t[r0.coeffs[-1]]
        r0, u0, v0 = r0.scale(c), u0.scale(c), v0.scale(c)
    return r0, u0, v0


def is_coprime(a: Poly, b: Poly) -> bool:
    if a.is_zero() and b.is_zero():
        return False
    return poly_gcd(a, b).is_one()


# ---------------------------------------------------------------------------
# enumeration, irreducibility, factoring
# ---------------------------------------------------------------------------


def polys_of_degree(field: Fq, d: int, monic: bool = False) -> Iterator[Poly]:
    """All polynomials of exact degree d in canonical order. d=-1 yields zero."""
    if d < 0:
        yield field.zero
        return
    q = field.q
    leads = [1] if monic else range(1, q)
    for lead in leads:
        for code in range(q ** d):
            tail = []
            c = code
            for _ in range(d):
                tail.append(c % q)
                c //= q
            # sort_key reads coefficients leading-to-constant, so the constant
            # coefficient (low digit of code) must advance fastest
            yield Poly(field, tuple(tail) + (lead,))


def polys_up_to_degree(field: Fq, d: int) -> Iterator[Poly]:
    yield field.zero
    for k in range(d + 1):
        yield from polys_of_degree(field, k)


def is_irreducible(p: Poly) -> bool:
    d = p.degree
    if d < 1:
        return False
    for k in range(1, d // 2 + 1):
        for cand in polys_of_degree(p.field, k, monic=True):
            if (p % cand).is_zero():
                return False
    return True


@lru_cache(maxsize=None)
def _irreducibles_cached(q: int, modulus: Optional[Tuple[int, ...]], d: int) -> Tuple[Poly, ...]:
    field = get_field(q, modulus)
    out = []
    for cand in polys_of_degree(field, d, monic=True):
        for k in range(1, d // 2 + 1):
            if any((cand % w).is_zero() for w in _irreducibles_cached(q, modulus, k)):
                break
        else:
            out.append(cand)
    return tuple(out)


def irreducibles_of_degree(field: Fq, d: int) -> Tuple[Poly, ...]:
    """Monic irreducibles of exact degree d, canonically ordered."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return _irreducibles_cached(field.q, field.modulus or None, d)


def factor(p: Poly) -> Tuple[Poly, ...]:
    """Monic irreducible factors with multiplicity, canonically sorted.

    The leading coefficient is dropped: the product of the returned factors
    times p.lead equals p.  Constants factor into the empty tuple.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field = p.field
    rem = p.monic()
    out: List[Poly] = []
    d = 1
    while rem.degree >= 1:
        if d > rem.degree // 2:
            out.append(rem)
            break
        for w in irreducibles_of_degree(field, d):
            while True:
                quo, r = divmod(rem, w)
                if r.is_zero():
                    out.append(w)
                    rem = quo
                else:
                    break
        d += 1
    return tuple(sorted(out, key=Poly.sort_key))


class _IdealFields(NamedTuple):
    gen: Poly


class Ideal(_IdealFields):
    """Nonzero ideal of GF(q)[Y], stored by its monic generator."""

    __slots__ = ()

    def __new__(cls, gen: Poly):
        if gen.is_zero():
            raise ValueError("ideal generator must be nonzero")
        return super().__new__(cls, gen if gen.is_monic() else gen.monic())

    @property
    def field(self) -> Fq:
        return self.gen.field

    @property
    def norm(self) -> int:
        # N(I) = q^deg(gen); the unit ideal has norm q^0 = 1
        return self.gen.field.q ** self.gen.degree

    def primes(self) -> Tuple[Poly, ...]:
        """Distinct monic prime divisors of the generator."""
        seen = []
        for w in factor(self.gen):
            if w not in seen:
                seen.append(w)
        return tuple(seen)

    def contains(self, p: Poly) -> bool:
        return (p % self.gen).is_zero()

    def __str__(self):
        return f"({pretty_poly(self.gen)})"


# ---------------------------------------------------------------------------
# text encoding
# ---------------------------------------------------------------------------


def pretty_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    field = p.field
    terms = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        if field.d == 1:
            cs = "" if (c == 1 and k > 0) else str(c)
        else:
            cs = "" if (c == 1 and k > 0) else f"[{field.element_text(c)}]"
        if k == 0:
            terms.append(cs if cs else "1")
        elif k == 1:
            terms.append(f"{cs}*Y" if cs else "Y")
        else:
            terms.append(f"{cs}*Y^{k}" if cs else f"Y^{k}")
    return "+".join(terms)


# one signed term: a coefficient (bare or [bracketed] base-p digits),
# optionally followed by '*' and Y with an optional ^exponent; or a bare Y
_TERM = re.compile(
    r"\s*([+-]?)\s*(?:(?:(\[[0-9]+\]|[0-9]+)\*?)?(Y)(?:\^([0-9]+))?|(\[[0-9]+\]|[0-9]+))\s*")


def echo_text(s: str) -> str:
    """repr of an input text for an error message, cut to 40 characters."""
    return repr(s if len(s) <= 40 else s[:40] + "...")


def _text_terms(field: Fq, s: str) -> Dict[int, int]:
    """Exponent -> nonzero coefficient of the comma form ("1,0,1") or the
    pretty form ("Y^2+2*Y+1"), like terms summed: the highest key is the
    degree, and "0*Y^99999999+1" reads as the constant 1.

    Anything else is rejected with its position, and so is a line break, which
    would split a report's config echo: "Y2" or "Y^2+" is never misread.
    """
    if (pos := len((s + "\n").splitlines()[0])) < len(s):
        raise ValueError(f"line break {echo_text(s[pos])} at position {pos}")
    s = s.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if "," in s:
        coeffs = {k: field.element_from_text(t.strip()) for k, t in enumerate(s.split(","))}
        return {k: c for k, c in coeffs.items() if c}
    coeffs: Dict[int, int] = {}
    pos = 0
    while pos < len(s):
        term = _TERM.match(s, pos)
        if term is None or (pos and not term.group(1)):
            raise ValueError(
                f"cannot read {echo_text(s[pos:])} at position {pos}: expected "
                "terms such as 2*Y^3, Y or 1 joined by + or -")
        sign, head, y, exp, const = term.groups()
        text = head if y else const
        if text and text.startswith("["):
            text = text[1:-1]
        c = field.element_from_text(text) if text else 1
        k = (int(exp) if exp else 1) if y else 0
        if sign == "-":
            c = field.neg_t[c]
        coeffs[k] = field.add(coeffs.get(k, 0), c)
        pos = term.end()
    return {k: c for k, c in coeffs.items() if c}


def poly_from_terms(field: Fq, terms: Dict[int, int]) -> Poly:
    """The polynomial of _text_terms' exponent -> coefficient map."""
    return field.poly([terms.get(k, 0) for k in range(max(terms, default=-1) + 1)])


def poly_from_text(field: Fq, s: str) -> Poly:
    """The polynomial of a text in either form that _text_terms reads."""
    return poly_from_terms(field, _text_terms(field, s))
