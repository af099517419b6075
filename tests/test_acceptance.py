"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test prints a single PASS/FAIL line with its runtime; run with
`pytest tests/test_acceptance.py -s` to stream the verdicts.  Budgets are
enforced: a passing check that blows its time budget is a failure.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

from fqlattice.cfrac import (brute_force_shortest, cf_expand, cf_value,
                             check_approx, convergents, is_convergent,
                             shortest_solution)
from fqlattice.field import (Ideal, get_field, is_coprime, poly_from_text,
                             polys_of_degree, polys_up_to_degree)
from fqlattice.haar import (BoxSpec, box_measure, c_constant, cfe_prefactor,
                            counting_main_term, covolume, expected_box_count,
                            hecke_index, hecke_index_bruteforce,
                            kernel_elements, quotient_mass, sl2_order_mod,
                            sl2_order_bruteforce, sphere_mass, zeta_minus1)
from fqlattice.harness import RunConfig, run_cfe, run_count, run_joint
from fqlattice.lattice import (count_membership_flips, domain_cells,
                               lattice_is_sharp, matrix_side_enumerate,
                               primitive_vectors, sphere_cells,
                               verify_bijection)
from fqlattice.laurent import RationalFn


@contextmanager
def verdict(num, label, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nFAIL  criterion {num}: {label}  "
              f"[{time.perf_counter() - t0:.1f}s]")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed > budget_s:
        print(f"\nFAIL  criterion {num}: {label}  "
              f"[{elapsed:.1f}s over budget {budget_s}s]")
        raise AssertionError(f"runtime {elapsed:.1f}s exceeds {budget_s}s")
    print(f"\nPASS  criterion {num}: {label}  [{elapsed:.1f}s]")


def monic_generators(field, max_deg):
    for d in range(max_deg + 1):
        yield from polys_of_degree(field, d, monic=True)


def distinct_irreducible_divisors(g):
    # trial division suffices for deg <= 2: a monic quadratic with no
    # linear divisor is itself irreducible
    found = [p for p in polys_of_degree(g.field, 1, monic=True)
             if (g % p).is_zero()]
    if g.degree == 2 and not found:
        found = [g]
    return found


def test_criterion_1_closed_form_constants():
    with verdict(1, "closed-form constants exact for q in {2,3,4}, "
                    "monic ideals of degree <= 2", 1.0):
        assert zeta_minus1(2) == Fraction(1, 3)
        assert sphere_mass(2) == Fraction(3, 4)
        assert hecke_index(Ideal(poly_from_text(get_field(2), "Y"))) == 3
        for q in (2, 3, 4):
            field = get_field(q)
            assert zeta_minus1(q) == Fraction(1, (q - 1) * (q ** 2 - 1))
            assert sphere_mass(q) == Fraction(q ** 2 - 1, q ** 2)
            assert quotient_mass(q) == Fraction(1, q)
            for N in (1, 2, 3):
                assert sl2_order_mod(q, N) == q ** (3 * N - 2) * (q ** 2 - 1)
            for n in (0, 1, 3):
                spec = BoxSpec(n, sphere_mass(q), quotient_mass(q))
                assert box_measure(q, spec) == (
                    Fraction(q ** (2 * n + 2), q ** 2 - 1)
                    * sphere_mass(q) * quotient_mass(q))
            for g in monic_generators(field, 2):
                I = Ideal(g)
                index = Fraction(q ** g.degree) if not g.is_constant() else Fraction(1)
                for p in distinct_irreducible_divisors(g):
                    index *= 1 + Fraction(1, q ** p.degree)
                assert index.denominator == 1
                assert hecke_index(I) == index
                assert covolume(I) == zeta_minus1(q) * index
                assert c_constant(I) == Fraction(int(index), q ** 2 * (q - 1))
                for n in (1, 4):
                    assert counting_main_term(I, n) == \
                        Fraction(q ** (2 * n)) / (q * zeta_minus1(q) * index)
                    full = BoxSpec(n, sphere_mass(q), quotient_mass(q))
                    assert expected_box_count(I, full) == counting_main_term(I, n)


def test_criterion_2_oracle_equivalences():
    with verdict(2, "brute-force oracles agree: congruence index, truncated "
                    "group order (48 at q=2, N=2), shortest solutions "
                    "through degree 4", 120.0):
        for q in (2, 3):
            field = get_field(q)
            for g in monic_generators(field, 2):
                I = Ideal(g)
                assert hecke_index(I) == hecke_index_bruteforce(I)
        assert sl2_order_mod(2, 2) == 48
        for q, N in ((2, 1), (2, 2), (3, 1)):
            assert sl2_order_mod(q, N) == sl2_order_bruteforce(get_field(q), N)
        for q in (2, 3):
            field = get_field(q)
            polys = list(polys_up_to_degree(field, 4))
            for a, b in itertools.product(polys, polys):
                if a.is_constant() and b.is_constant():
                    continue
                if not is_coprime(a, b):
                    continue
                assert shortest_solution(a, b) == brute_force_shortest(a, b)


def _expansion_sweep(field, max_deg):
    """Reduced fractions with monic denominator, both degrees <= max_deg."""
    polys = list(polys_up_to_degree(field, max_deg))
    for b in polys:
        if b.is_zero() or not b.is_monic():
            continue
        for a in polys:
            if is_coprime(a, b):
                yield RationalFn(a, b)


def test_criterion_3_continued_fraction_identities():
    with verdict(3, "continued fraction identities exhaustive "
                    "(degree <= 5 at q=2, <= 4 at q=3), round-trip exact",
                 120.0):
        for q, dmax in ((2, 5), (3, 4)):
            field = get_field(q)
            for f in _expansion_sweep(field, dmax):
                e = cf_expand(f)
                assert cf_value(e.a0, e.coeffs) == f
                t = convergents(e)
                assert check_approx(t)
                for i in range(t.n + 1):
                    d = t.Q(i) * t.P(i - 1) - t.P(i) * t.Q(i - 1)
                    assert d == (field.one if i % 2 == 0 else -field.one)
        # characterization side: good approximations are convergents
        for q, dmax in ((2, 4), (3, 2)):
            field = get_field(q)
            for f in _expansion_sweep(field, dmax):
                if f.is_zero() or f.valuation() < 1:
                    continue
                table = convergents(cf_expand(f))
                dn = table.Q(table.n).degree
                for Q in polys_up_to_degree(field, dn - 1):
                    if Q.is_zero():
                        continue
                    P = (f.num * Q) // f.den
                    diff = f - RationalFn(P, Q)
                    if diff.is_zero() or diff.abs_exp() < -2 * Q.degree:
                        assert is_convergent(f, P, Q)


def test_criterion_4_bijection_exact():
    with verdict(4, "lattice/matrix enumerations coincide: elementwise for "
                    "n <= 3 at q in {2,3}, ideals (1) and (Y); cardinality "
                    "at n = 4, q = 2", 300.0):
        for q in (2, 3):
            field = get_field(q)
            ideals = [Ideal(field.one), Ideal(poly_from_text(field, "Y"))]
            for n, th, dp, I in itertools.product(
                    range(0, 4), sphere_cells(field, 1, sharp=True),
                    domain_cells(field, 2), ideals):
                res = verify_bijection(field, n, th, dp, ideal=I,
                                       elementwise=True)
                assert res.equal, (q, n, th.id_text(), dp.id_text())
        field = get_field(2)
        for th, dp, I in itertools.product(
                sphere_cells(field, 1, sharp=True), domain_cells(field, 2),
                [Ideal(field.one), Ideal(poly_from_text(field, "Y"))]):
            res = verify_bijection(field, 4, th, dp, ideal=I,
                                   elementwise=False)
            assert res.lattice_count == res.matrix_count


def test_criterion_5_counting_levels_one_to_seven():
    rep = None
    with verdict(5, "counting at q=2, unit constraint, n=1..7 against main "
                    "term (3/2)*4^n; anchor 6 at n=1; errors never above the "
                    "n=2 level (observed exact throughout, fitted exponent "
                    "undefined at zero error; window (0, 1/8])", 600.0):
        rep = run_count(RunConfig(q=2, n_min=1, n_max=7))
        rows = {r["n"]: r for r in rep.rows}
        assert rows[1]["exact_count"] == 6
        for n in range(1, 8):
            assert rows[n]["main_term"] == Fraction(3, 2) * 4 ** n
        err2 = rows[2]["relative_error"]
        for n in range(2, 8):
            assert rows[n]["relative_error"] <= err2
        # observation, frozen: the count is exactly the main term here
        assert rep.summary["exactness_observed"] is True
        assert rep.summary["tau_window"] == "(0, 1/8]"
        assert "fitted_error_exponent" in rep.summary
        assert rep.summary["fitted_error_exponent"] is None


def test_criterion_6_joint_equidistribution_trend():
    with verdict(6, "joint direction/solution histogram at q=2, n=2..7: "
                    "discrepancy exactly zero at every level (degenerate "
                    "strict decrease; verified strictly decreasing on the "
                    "(Y)-constrained run), marginals match counting", 600.0):
        rep = run_joint(RunConfig(q=2, n_min=2, n_max=7, experiment="joint"))
        count = run_count(RunConfig(q=2, n_min=2, n_max=7))
        for row in count.rows:
            n = row["n"]
            assert rep.summary[f"total[n={n}]"] == row["exact_count"]
            assert rep.summary[f"exceptional[n={n}]"] == 0
        first, final = rep.summary["first_sup"], rep.summary["final_sup"]
        if first > 0:
            assert final < first
        else:
            # empirical measure equals expectation exactly at every level,
            # so strict decrease is unattainable; pin the exactness instead
            assert final == 0
            assert all(r["ratio"] == 1 for r in rep.rows)
        assert rep.summary["trend"] == "pass"
        ywalk = run_joint(RunConfig(q=2, n_min=1, n_max=5, ideal="Y",
                                    experiment="joint"))
        sups = [ywalk.summary[f"sup_discrepancy[n={n}]"] for n in range(1, 6)]
        assert sups[-1] < sups[0]
        assert all(b < a for a, b in zip(sups, sups[1:]))


def _blunt_histograms(joint_report, field):
    blunt = {c.id_text() for c in sphere_cells(field, 1, sharp=False)}
    hists = {}
    for r in joint_report.rows:
        if r["direction_cell"] in blunt:
            level = hists.setdefault(r["n"], {})
            key = r["solution_cell"]
            level[key] = level.get(key, 0) + r["empirical_count"]
    return hists


def _negate_cell(field, cell_id):
    if cell_id == "-":
        return cell_id
    return ".".join(str(field.neg(int(d))) for d in cell_id.split("."))


def test_criterion_7_continued_fraction_statistic_crosscheck():
    with verdict(7, "partial-quotient statistic reproduces the joint "
                    "histogram on the blunt hemisphere (sign transcription), "
                    "and (Y)-filtered totals match direct filtered counts",
                 300.0):
        for q, n_lo, n_hi in ((2, 2, 7), (3, 2, 3)):
            field = get_field(q)
            joint = run_joint(RunConfig(q=q, n_min=n_lo, n_max=n_hi,
                                        experiment="joint"))
            cfe = run_cfe(RunConfig(q=q, n_min=n_lo, n_max=n_hi,
                                    experiment="cfe"))
            blunt = _blunt_histograms(joint, field)
            for n in range(n_lo, n_hi + 1):
                mapped = {_negate_cell(field, r["solution_cell"]):
                          r["empirical_count"]
                          for r in cfe.rows if r["n"] == n}
                assert mapped == blunt[n]
                assert cfe.summary[f"total[n={n}]"] == sum(blunt[n].values())
        field = get_field(2)
        I = Ideal(poly_from_text(field, "Y"))
        filtered = run_cfe(RunConfig(q=2, n_min=1, n_max=6, ideal="Y",
                                     experiment="cfe"))
        for n in range(1, 7):
            direct = sum(1 for v in primitive_vectors(field, n, I)
                         if not lattice_is_sharp(v))
            assert filtered.summary[f"total[n={n}]"] == direct


def test_criterion_8_box_membership_stability():
    with verdict(8, "box membership never flips under depth-3 kernel "
                    "perturbations (q=2, n <= 3, all boxes)", 300.0):
        field = get_field(2)
        kern = kernel_elements(field, 3)
        assert len(kern) == 8
        seen = 0
        for n in range(0, 4):
            for th, dp in itertools.product(
                    sphere_cells(field, 1, sharp=True),
                    domain_cells(field, 2)):
                mats = matrix_side_enumerate(field, n, th, dp)
                seen += len(mats)
                assert count_membership_flips(mats, n, th, dp, kern) == 0
        assert seen == 86
