import re

import pytest

from fqlattice.field import (
    Fq, Poly, Ideal, NEG_INF, POS_INF, get_field, poly_gcd, poly_xgcd,
    is_coprime, polys_of_degree, polys_up_to_degree, irreducibles_of_degree,
    is_irreducible, factor, poly_from_text, pretty_poly, text_degree,
    _prime_power_split,
)

# explicit moduli over GF(2), GF(3) and GF(5), besides the built-in ones
EXPLICIT_MODULI = [
    (4, (1, 1, 1)), (8, (1, 0, 1, 1)), (9, (2, 2, 1)), (9, (2, 1, 1)),
    (16, (1, 1, 0, 0, 1)), (25, (2, 0, 1)), (27, (1, 2, 0, 1)),
    (32, (1, 0, 1, 0, 0, 1)),
]


def necklace_count(q, d):
    # Gauss: number of monic irreducibles of degree d over GF(q)
    def moebius(n):
        out, k = 1, 2
        while k * k <= n:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                out = -out
            k += 1
        return -out if n > 1 else out

    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += moebius(e) * q ** (d // e)
    assert total % d == 0
    return total // d


class TestFieldTables:
    def test_prime_field_matches_mod_arithmetic(self):
        for q in (2, 3, 5, 7):
            F = Fq(q)
            for a in range(q):
                for b in range(q):
                    assert F.add(a, b) == (a + b) % q
                    assert F.mul(a, b) == (a * b) % q
                assert F.neg(a) == (-a) % q
                if a:
                    assert F.mul(a, F.inv(a)) == 1

    def test_gf4_generator_relation(self):
        F = Fq(4)
        t = 2  # digits (0, 1): the class of T
        assert F.element_text(t) == "10"
        assert F.mul(t, t) == 3  # t^2 = t + 1
        assert F.add(t, 1) == 3

    def test_gf8_gf9_generator_relations(self):
        F8 = Fq(8)
        t = 2
        assert F8.mul(F8.mul(t, t), t) == 3  # t^3 = t + 1
        F9 = Fq(9)
        u = 3  # digits (0, 1)
        assert F9.mul(u, u) == 2  # u^2 = -1

    def test_extension_field_axioms(self):
        for q in (4, 8, 9):
            F = Fq(q)
            p = F.p
            for a in range(q):
                # additive order divides p
                acc = a
                for _ in range(p - 1):
                    acc = F.add(acc, a)
                assert acc == 0
                if a:
                    # multiplicative order divides q - 1
                    acc = 1
                    for _ in range(q - 1):
                        acc = F.mul(acc, a)
                    assert acc == 1
            # frobenius is additive
            for a in range(q):
                for b in range(q):
                    fa = F.mul(a, a)
                    fb = F.mul(b, b)
                    s = F.add(a, b)
                    if p == 2:
                        assert F.mul(s, s) == F.add(fa, fb)

    @pytest.mark.parametrize("q,modulus", EXPLICIT_MODULI)
    def test_explicit_modulus_tables(self, q, modulus):
        F = Fq(q, modulus=modulus)
        t = F.p  # digits (0, 1): the class of T
        acc = 0  # the modulus at T, by Horner; GF(p) sits in the codes 0..p-1
        for m in reversed(modulus):
            acc = F.add(F.mul(acc, t), m)
        assert acc == 0
        assert all(F.add(a, F.neg(a)) == 0 for a in range(q))
        for a in range(1, q):
            assert F.mul(a, F.inv(a)) == 1
        for a in range(q):
            for b in range(q):
                s, row_a, row_b = F.add(a, b), F.mul_t[a], F.mul_t[b]
                assert all(F.mul(s, c) == F.add(row_a[c], row_b[c]) for c in range(q))

    @pytest.mark.parametrize("modulus,bad,position", [
        ((3, 3, 1), 3, 0), ((1, 1, 2), 2, 2), ((-1, 1, 1), -1, 0),
        ((1,) * 1000 + (5,), 5, 1000)])
    def test_modulus_digits_not_reduced_mod_p(self, modulus, bad, position):
        with pytest.raises(ValueError) as info:
            Fq(4, modulus=modulus)
        assert str(info.value) == (f"modulus coefficient {bad} at position "
                                   f"{position} is not a digit 0..1 of GF(2)")

    def test_reducible_modulus_refused(self):
        # T^2 + 3 = (T - 2)(T + 2) over GF(7)
        with pytest.raises(ValueError, match="modulus is reducible over GF") as info:
            Fq(49, modulus=(3, 0, 1))
        assert str(info.value) == "modulus is reducible over GF(7)"

    @pytest.mark.parametrize("q,modulus,message", [
        (4, (1, 1), "modulus must be monic of degree 2 over GF(2)"),
        (4, (1, 1, 1, 1), "modulus must be monic of degree 2 over GF(2)"),
        (27, (1, 2, 0, 2), "modulus must be monic of degree 3 over GF(3)"),
        (8, (1, 0, 1), "modulus must be monic of degree 3 over GF(2)"),
        (16, (1, 0, 0, 0, 1), "modulus is reducible over GF(2)")])
    def test_modulus_messages_name_the_field(self, q, modulus, message):
        with pytest.raises(ValueError) as info:
            Fq(q, modulus=modulus)
        assert str(info.value) == message

    @pytest.mark.parametrize("q,message", [
        (1, "q must be a prime power >= 2"), (6, "q=6 is not a prime power"),
        (12, "q=12 is not a prime power"), (91, "q=91 is not a prime power")])
    def test_prime_power_split_refusals(self, q, message):
        with pytest.raises(ValueError) as info:
            _prime_power_split(q)
        assert str(info.value) == message

    def test_prime_power_split(self):
        assert [_prime_power_split(q) for q in (97, 128, 243)] == [
            (97, 1), (2, 7), (3, 5)]

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            Fq(6)
        with pytest.raises(ValueError):
            Fq(12)
        with pytest.raises(ValueError):
            Fq(4, modulus=(1, 0, 1))  # T^2 + 1 = (T+1)^2 over GF(2)
        with pytest.raises(ValueError):
            Fq(2, modulus=(1, 1))


class TestDegreeSentinels:
    def test_zero_degree_is_neg_inf(self):
        F = Fq(2)
        assert F.zero.degree is NEG_INF
        assert F.one.degree == 0
        assert F.Y.degree == 1

    def test_ordering(self):
        assert NEG_INF < -10 ** 9
        assert POS_INF > 10 ** 9
        assert NEG_INF < POS_INF
        assert not (NEG_INF < NEG_INF)
        assert max(NEG_INF, 3) == 3
        assert -NEG_INF is POS_INF

    def test_no_silent_arithmetic(self):
        with pytest.raises(TypeError):
            NEG_INF + 1
        with pytest.raises(TypeError):
            2 * POS_INF


class TestPolyArithmetic:
    def test_char2_square(self):
        F = Fq(2)
        p = F.poly((1, 1))  # Y + 1
        assert (p * p).coeffs == (1, 0, 1)

    def test_gf3_product(self):
        F = Fq(3)
        a = F.poly((1, 1))
        b = F.poly((2, 1))
        assert (a * b).coeffs == (2, 0, 1)  # (Y+1)(Y+2) = Y^2 + 2

    def test_divmod(self):
        F = Fq(2)
        a = F.poly((1, 1, 0, 1))  # Y^3 + Y + 1
        b = F.poly((1, 0, 1))     # Y^2 + 1
        q, r = divmod(a, b)
        assert q == F.Y and r == F.one
        assert q * b + r == a

    def test_divmod_exhaustive_small(self):
        F = Fq(3)
        polys = list(polys_up_to_degree(F, 2))
        for a in polys:
            for b in polys:
                if b.is_zero():
                    continue
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.degree < b.degree or r.is_zero()

    def test_monic(self):
        F = Fq(3)
        p = F.poly((1, 2))
        assert p.monic().coeffs == (2, 1)

    def test_shift_scale(self):
        F = Fq(3)
        p = F.poly((1, 2))
        assert p.shift(2).coeffs == (0, 0, 1, 2)
        assert p.scale(2).coeffs == (2, 1)
        assert p.scale(0).is_zero()

    def test_zero_division(self):
        F = Fq(2)
        with pytest.raises(ZeroDivisionError):
            divmod(F.one, F.zero)


class TestCanonicalOrder:
    def test_gf2_low_degrees(self):
        F = Fq(2)
        got = sorted(polys_up_to_degree(F, 1), key=Poly.sort_key)
        want = [F.zero, F.one, F.Y, F.poly((1, 1))]
        assert got == want

    def test_enumeration_is_sorted_and_complete(self):
        for q in (2, 3):
            F = Fq(q)
            seen = list(polys_up_to_degree(F, 3))
            assert len(seen) == q ** 4
            assert len(set(seen)) == len(seen)
            keys = [p.sort_key() for p in seen]
            assert keys == sorted(keys)

    def test_exact_degree_count(self):
        F = Fq(3)
        assert sum(1 for _ in polys_of_degree(F, 2)) == 2 * 9
        assert sum(1 for _ in polys_of_degree(F, 2, monic=True)) == 9


class TestGcd:
    @pytest.mark.parametrize("q,maxdeg", [(2, 3), (3, 2)])
    def test_xgcd_identity_exhaustive(self, q, maxdeg):
        F = Fq(q)
        polys = list(polys_up_to_degree(F, maxdeg))
        for a in polys:
            for b in polys:
                if a.is_zero() and b.is_zero():
                    continue
                g, u, v = poly_xgcd(a, b)
                assert u * a + v * b == g
                assert g.is_monic()
                if not a.is_zero():
                    assert (a % g).is_zero()
                if not b.is_zero():
                    assert (b % g).is_zero()

    def test_gcd_both_zero_raises(self):
        F = Fq(2)
        with pytest.raises(ValueError):
            poly_gcd(F.zero, F.zero)
        with pytest.raises(ValueError):
            poly_xgcd(F.zero, F.zero)

    def test_coprime(self):
        F = Fq(2)
        assert is_coprime(F.Y, F.poly((1, 1)))
        assert not is_coprime(F.Y, F.poly((0, 0, 1)))
        assert is_coprime(F.zero, F.one)
        assert not is_coprime(F.zero, F.Y)


class TestIrreducibles:
    def test_gf2_tables(self):
        F = Fq(2)
        assert [pretty_poly(p) for p in irreducibles_of_degree(F, 1)] == ["Y", "Y+1"]
        assert [pretty_poly(p) for p in irreducibles_of_degree(F, 2)] == ["Y^2+Y+1"]
        assert len(irreducibles_of_degree(F, 3)) == 2
        assert len(irreducibles_of_degree(F, 4)) == 3

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_counts_match_necklace_formula(self, q):
        F = Fq(q)
        for d in range(1, 5):
            assert len(irreducibles_of_degree(F, d)) == necklace_count(q, d)

    def test_is_irreducible_agrees(self):
        F = Fq(3)
        table = set(irreducibles_of_degree(F, 2))
        for p in polys_of_degree(F, 2, monic=True):
            assert is_irreducible(p) == (p in table)


class TestFactor:
    def test_known_factorizations(self):
        F2 = Fq(2)
        assert factor(F2.poly((1, 0, 1))) == (F2.poly((1, 1)), F2.poly((1, 1)))
        F3 = Fq(3)
        assert factor(F3.poly((1, 0, 1))) == (F3.poly((1, 0, 1)),)
        # leading coefficient is reported separately from the monic factors
        assert factor(F3.poly((2, 0, 2))) == (F3.poly((1, 0, 1)),)

    def test_constant_and_zero(self):
        F = Fq(2)
        assert factor(F.one) == ()
        with pytest.raises(ValueError):
            factor(F.zero)

    @pytest.mark.parametrize("q", [2, 3])
    def test_roundtrip_exhaustive(self, q):
        F = Fq(q)
        for p in polys_up_to_degree(F, 4):
            if p.is_zero():
                continue
            fs = factor(p)
            prod = F.const(p.lead) if not p.is_zero() else F.one
            for w in fs:
                assert w.is_monic() and is_irreducible(w)
                prod = prod * w
            assert prod == p
            assert list(fs) == sorted(fs, key=Poly.sort_key)


class TestIdeal:
    def test_norms(self):
        F = Fq(2)
        assert Ideal.unit(F).norm == 1
        assert Ideal(F.Y).norm == 2
        assert Ideal(F.poly((1, 1, 1))).norm == 4
        F3 = Fq(3)
        assert Ideal(F3.poly((2, 2))).gen == F3.poly((1, 1))
        assert Ideal(F3.poly((2, 2))).norm == 3

    def test_primes(self):
        F = Fq(2)
        I = Ideal(F.poly((0, 1)) * F.poly((1, 1)))
        assert I.primes() == (F.Y, F.poly((1, 1)))
        assert Ideal.unit(F).primes() == ()
        # repeated prime listed once
        assert Ideal(F.poly((0, 0, 1))).primes() == (F.Y,)

    def test_contains(self):
        F = Fq(2)
        I = Ideal(F.Y)
        assert I.contains(F.zero)
        assert I.contains(F.poly((0, 1, 1)))
        assert not I.contains(F.one)


class TestTextForms:
    def test_text_degree_builds_no_coefficients(self):
        F = Fq(3)
        assert text_degree(F, "Y^99999999+1") == 99999999
        assert text_degree(F, "Y^2-Y^2+2*Y") == 1
        assert text_degree(F, "1,0,2") == 2
        assert text_degree(F, "1,0,0") == 0
        assert text_degree(F, "0") is NEG_INF
        for text in ("Y^2+", "3"):
            with pytest.raises(ValueError):
                text_degree(F, text)

    def test_comma_roundtrip(self):
        F = Fq(2)
        p = F.poly((1, 1, 1))
        assert poly_from_text(F, "1,1,1") == p
        assert poly_from_text(F, pretty_poly(p)) == p
        assert poly_from_text(F, "0") == F.zero
        assert poly_from_text(F, "0,0") == F.zero

    def test_extension_field_digits(self):
        F = Fq(4)
        p = F.poly((3, 0, 2))  # (t+1) + t*Y^2
        assert poly_from_text(F, "11,0,10") == p
        assert pretty_poly(p) == "[10]*Y^2+[11]"
        assert poly_from_text(F, pretty_poly(p)) == p

    def test_pretty_forms(self):
        F = Fq(3)
        assert pretty_poly(F.poly((1, 2, 1))) == "Y^2+2*Y+1"
        assert pretty_poly(F.Y) == "Y"
        assert pretty_poly(F.zero) == "0"
        assert pretty_poly(F.one) == "1"

    def test_pretty_parse(self):
        F = Fq(3)
        assert poly_from_text(F, "Y^2+2*Y+1") == F.poly((1, 2, 1))
        assert poly_from_text(F, "Y") == F.Y
        assert poly_from_text(F, "Y^2-1") == F.poly((2, 0, 1))
        F2 = Fq(2)
        assert poly_from_text(F2, "Y^3+Y+1") == F2.poly((1, 1, 0, 1))

    def test_parse_rejects_garbage(self):
        F = Fq(2)
        with pytest.raises(ValueError):
            poly_from_text(F, "")
        with pytest.raises(ValueError):
            poly_from_text(F, "5")

    @pytest.mark.parametrize("text,where", [
        ("Y2", "'2' at position 1"),
        ("Y^2+", "'+' at position 3"),
        ("Y^", "'^' at position 1"),
        ("Z", "'Z' at position 0"),
        ("Y++1", "'++1' at position 1"),
        ("[]*Y", "'[]*Y' at position 0"),
    ])
    def test_parse_rejects_unreadable_text(self, text, where):
        with pytest.raises(ValueError, match=re.escape(f"cannot read {where}")):
            poly_from_text(Fq(2), text)

    @pytest.mark.parametrize("q,text", [(2, "2Y"), (2, "1,,1"), (3, "3*Y"),
                                        (4, "[12]*Y")])
    def test_parse_rejects_foreign_coefficients(self, q, text):
        with pytest.raises(ValueError, match="coefficient"):
            poly_from_text(Fq(q), text)

    def test_parse_accepts_signs_spaces_and_brackets(self):
        F = Fq(3)
        assert poly_from_text(F, "-Y + 2") == F.poly((2, 2))
        assert poly_from_text(F, "2Y^2") == F.poly((0, 0, 2))
        F4 = Fq(4)
        assert poly_from_text(F4, "[10]*Y^2+[11]") == F4.poly((3, 0, 2))
        assert poly_from_text(F4, "11") == F4.poly((3,))


def test_get_field_is_shared():
    assert get_field(2) is get_field(2)
    assert get_field(4).mul(2, 2) == 3
