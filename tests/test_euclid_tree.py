"""The Euclid-tree path of count, joint and cfe against its brute-force oracle.

The tree path walks coprime (r, s) with r^-1 mod s read off the convergents,
spreads each node over its orbit of sharp and blunt vectors, and reads the
solution cell from one division.  The oracle scans every pair with a gcd and
computes each vector's statistic with companion_of and RationalFn, and each
cfe fraction's with penultimate_ratio.  At q = 2 the runners walk the tree on
bitmasks instead; that walk and its tallies are checked against the generic
Poly walk, which the oracle tests cover at every q.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fqlattice.cfrac import cf_expand, penultimate_ratio
from fqlattice.field import (Ideal, get_field, is_coprime, poly_from_text,
                             polys_of_degree, polys_up_to_degree)
from fqlattice.harness import (RunConfig, _bin_ratios, _first_quotient_blocks,
                               _gf2_tree_block, _head_digits, _tree_block,
                               run_cfe, run_count, run_joint)
from fqlattice.lattice import (companion_of, domain_cells, euclid_tree,
                               euclid_tree_gf2, primitive_vectors,
                               small_component, solution_statistic,
                               sphere_cells)
from fqlattice.laurent import LatticeVec, lattice_direction_digits, rat

QS = (2, 3, 4, 5, 7, 8, 9)

# (q, highest level, ideal generators), each checked at every depth in DEPTHS
GRID = [
    (2, 4, ("1", "Y", "Y+1", "Y^2+Y+1")),
    (3, 3, ("1", "Y", "Y+1", "Y^2+1")),
    (4, 2, ("1", "Y", "Y+1", "Y^2+Y+[10]")),
    (5, 2, ("1", "Y", "Y+1", "Y^2+2")),
    (7, 1, ("1", "Y", "Y+1", "Y^2+1")),
    (8, 1, ("1", "Y", "Y+1", "Y^2+Y+1")),
    (9, 1, ("1", "Y", "Y+1", "Y^2+1")),
]
DEPTHS = ((1, 2), (2, 3), (3, 4))


def _tree_vectors(field, n_max, m, mp):
    """(a, b, direction digits, solution digits, small component) per level,
    from the tree: sharp (lam*s, c*lam*s + r) and blunt (r, lam*s), with
    statistic -+lam^-1 * r^-1/s read from ((r^-1 mod s) * Y^(mp-1)) // s."""
    mul, neg, inv_t = field.mul_t, field.neg_t, field.inv_t
    out = {n: [] for n in range(1, n_max + 1)}
    for r, s, inv, _ in euclid_tree(field, n_max):
        n = s.degree
        head = inv.shift(mp - 1) // s
        digits = tuple(head.coeff(k) for k in range(mp - 2, -1, -1))
        for lam in range(1, field.q):
            a = s.scale(lam)
            sharp_digits = tuple(mul[neg[inv_t[lam]]][d] for d in digits)
            for c in range(field.q):
                b = s.scale(mul[c][lam]) + r
                v = LatticeVec(a, b)
                out[n].append((a, b, lattice_direction_digits(v, n, m),
                               sharp_digits, b))
            v = LatticeVec(r, a)
            out[n].append((r, a, lattice_direction_digits(v, n, m),
                           tuple(mul[inv_t[lam]][d] for d in digits), r))
    return out


def _oracle_vectors(field, n_max, m, mp):
    out = {}
    for n in range(1, n_max + 1):
        out[n] = []
        for v in primitive_vectors(field, n):
            stat, _ = solution_statistic(v)
            out[n].append((v.a, v.b, lattice_direction_digits(v, n, m),
                           stat.expand(mp).digits(1, mp), small_component(v)))
    return out


def _multiset(vectors, ideal, m, mp):
    """Digits at depth m x mp are prefixes of the deepest ones."""
    return Counter((a.coeffs, b.coeffs, (th[0][:m], th[1][:m]), dp[:mp - 1])
                   for a, b, th, dp, small in vectors if ideal.contains(small))


@pytest.mark.parametrize("q,n_max,gens", GRID, ids=[f"q{g[0]}" for g in GRID])
def test_tree_orbits_match_oracle_elementwise(q, n_max, gens):
    field = get_field(q)
    ideals = [Ideal(poly_from_text(field, g)) for g in gens]
    deepest = max(DEPTHS)
    tree = _tree_vectors(field, n_max, *deepest)
    oracle = _oracle_vectors(field, n_max, *deepest)
    for n in range(1, n_max + 1):
        size = (q - 1) * (q + 1) * (q ** (2 * n) - q ** (2 * n - 1))
        assert len(tree[n]) == len(oracle[n]) == size
        for ideal in ideals:
            for m, mp in DEPTHS:
                assert _multiset(tree[n], ideal, m, mp) == \
                    _multiset(oracle[n], ideal, m, mp), (n, str(ideal), m, mp)


def _oracle_histogram(field, n, ideal, m, mp, theta_ids, dp_ids):
    hist = Counter()
    for v in primitive_vectors(field, n):
        if ideal.contains(small_component(v)):
            stat, _ = solution_statistic(v)
            hist[(theta_ids[lattice_direction_digits(v, n, m)],
                  dp_ids[stat.expand(mp).digits(1, mp)])] += 1
    return hist


@pytest.mark.parametrize("q,n_max,gen,m,mp", [
    (2, 4, "Y^2+Y+1", 3, 4), (2, 3, "Y", 2, 3), (3, 3, "Y+1", 2, 2),
    (3, 2, "Y^2", 1, 2), (4, 2, "Y", 1, 3), (5, 2, "Y^2+1", 1, 3),
    (9, 1, "Y+1", 2, 2)])
def test_runners_match_oracle_histograms(q, n_max, gen, m, mp):
    field = get_field(q)
    ideal = Ideal(poly_from_text(field, gen))
    theta_ids = {(c.x_digits, c.y_digits): c.id_text() for c in sphere_cells(field, m)}
    dp_ids = {c.digits: c.id_text() for c in domain_cells(field, mp)}
    cfg = dict(q=q, n_min=1, n_max=n_max, ideal=gen, depth_m=m, depth_mp=mp)
    joint = run_joint(RunConfig(experiment="joint", **cfg))
    count = run_count(RunConfig(**cfg))
    for n, row in zip(range(1, n_max + 1), count.rows):
        want = _oracle_histogram(field, n, ideal, m, mp, theta_ids, dp_ids)
        got = Counter({(r["direction_cell"], r["solution_cell"]): r["empirical_count"]
                       for r in joint.rows if r["n"] == n and r["empirical_count"]})
        assert got == want, (n, gen)
        assert row["exact_count"] == sum(want.values())
        assert joint.summary[f"exceptional[n={n}]"] == 0


def _oracle_cfe_digits(field, n, gen, mp):
    """The gcd-filtered scan: every coprime (num, den) with deg den = n and
    num a nonzero multiple of gen of degree < n, by the digits 1..mp-1 of
    penultimate_ratio(num/den)."""
    digits = Counter()
    if n - 1 - gen.degree < 0:
        return digits
    nums = [gen * t for t in polys_up_to_degree(field, n - 1 - gen.degree)
            if not t.is_zero()]
    for den in polys_of_degree(field, n):
        for num in nums:
            if is_coprime(num, den):
                digits[penultimate_ratio(rat(num, den)).expand(mp).digits(1, mp)] += 1
    return digits


# q -> (ideal generator, highest level); a degree-2 generator first admits
# fractions at level 3, which the oracle can afford for q <= 5
CFE_GRID = {
    2: (("1", 4), ("Y", 4), ("Y+1", 4), ("Y^2+Y+1", 4)),
    3: (("1", 3), ("Y", 3), ("Y+1", 3), ("Y^2+1", 3)),
    4: (("1", 2), ("Y", 2), ("Y+1", 2), ("Y^2+Y+[10]", 3)),
    5: (("1", 2), ("Y", 2), ("Y+1", 2), ("Y^2+2", 3)),
    7: (("1", 1), ("Y", 2), ("Y+1", 2), ("Y^2+1", 2)),
    8: (("1", 1), ("Y", 2), ("Y+1", 2), ("Y^2+Y+1", 2)),
    9: (("1", 1), ("Y", 2), ("Y+1", 2), ("Y^2+1", 2)),
}


@pytest.mark.parametrize("q", sorted(CFE_GRID))
def test_cfe_matches_oracle_histograms(q):
    field = get_field(q)
    for gen, n_max in CFE_GRID[q]:
        g = Ideal(poly_from_text(field, gen)).gen
        oracle = {n: _oracle_cfe_digits(field, n, g, 3) for n in range(n_max + 1)}
        for mp in (2, 3):
            dp_ids = {c.digits: c.id_text() for c in domain_cells(field, mp)}
            rep = run_cfe(RunConfig(q=q, n_min=0, n_max=n_max, ideal=gen,
                                    depth_mp=mp, experiment="cfe"))
            for n in range(n_max + 1):
                want = Counter()
                for digits, count in oracle[n].items():
                    want[dp_ids[digits[:mp - 1]]] += count
                got = Counter({r["solution_cell"]: r["empirical_count"]
                               for r in rep.rows
                               if r["n"] == n and r["empirical_count"]})
                assert got == want, (n, gen, mp)
                assert rep.summary[f"total[n={n}]"] == sum(want.values())


@pytest.mark.parametrize("q", QS)
def test_cfe_bins_each_node_by_its_penultimate_ratio(q):
    # each level's histogram comes out the same with the sign or the
    # lead(Q_k)^-2 of the statistic left out, so the histogram tests above
    # cannot see either; this checks the binning node by node
    field = get_field(q)
    mp = 3
    dp_ids = {c.digits: c.id_text() for c in domain_cells(field, mp)}
    for r, s, inv, lead in euclid_tree(field, 2 if q <= 5 else 1):
        got = _bin_ratios(field, Counter({(_head_digits(inv, s, mp), lead): 1}), dp_ids)
        want = dp_ids[penultimate_ratio(rat(r, s)).expand(mp).digits(1, mp)]
        assert got == {(want,): q - 1}, (str(r), str(s))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_level_zero_exceptional_count(q):
    rep = run_joint(RunConfig(q=q, n_min=0, n_max=1, experiment="joint"))
    assert rep.summary["exceptional[n=0]"] == q * (q - 1)
    assert rep.summary["total[n=0]"] == q * q - 1
    assert rep.summary["exceptional[n=1]"] == 0


@st.composite
def subtrees(draw):
    """A field, a first partial quotient a_1 and a depth small enough that
    the subtree under a_1 stays at a few hundred nodes."""
    q = draw(st.sampled_from(QS))
    d = draw(st.integers(1, 3 if q <= 3 else 2))
    extra = draw(st.integers(0, 2 if q <= 3 else 1))
    field = get_field(q)
    tail = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    lead = draw(st.integers(1, q - 1))
    return field, field.poly(tuple(tail) + (lead,)), d + extra


@settings(max_examples=40, deadline=None)
@given(subtrees())
def test_tree_nodes_carry_inverse_and_companion(case):
    field, first, n_max = case
    seen = set()
    for r, s, inv, lead in euclid_tree(field, n_max, [first]):
        assert s.is_monic() and 1 <= s.degree <= n_max
        assert not r.is_zero() and r.degree < s.degree
        assert ((r * inv) % s).is_one()
        assert inv.degree < s.degree
        # first partial quotient of r/s is a_1
        assert cf_expand(rat(r, s)).coeffs[0] == first
        # companion of the sharp vector (s, r) built from inv alone
        w_b, rem = divmod(field.one - inv * r, s)
        assert rem.is_zero()
        w = LatticeVec(-inv, w_b)
        assert s * w.b - w.a * r == field.one
        assert w == companion_of(LatticeVec(s, r))
        # penultimate convergent ratio (-1)^k Q_{k-1}/Q_k from inv and lead(Q_k)
        scale = field.neg(field.inv(field.mul(lead, lead)))
        assert penultimate_ratio(rat(r, s)) == rat(inv.scale(scale), s)
        assert (r.coeffs, s.coeffs) not in seen
        seen.add((r.coeffs, s.coeffs))


@pytest.mark.parametrize("q", QS)
def test_tree_node_count_per_level(q):
    field = get_field(q)
    n_max = 2 if q <= 5 else 1
    levels = Counter(s.degree for _, s, _, _ in euclid_tree(field, n_max))
    assert levels == {n: q ** (2 * n) - q ** (2 * n - 1) for n in range(1, n_max + 1)}


def test_first_quotients_partition_the_tree():
    field = get_field(3)
    whole = sorted((r.coeffs, s.coeffs) for r, s, _, _ in euclid_tree(field, 3))
    parts = []
    for d in (1, 2, 3):
        parts += [(r.coeffs, s.coeffs)
                  for r, s, _, _ in euclid_tree(field, 3, list(polys_of_degree(field, d)))]
    assert sorted(parts) == whole


# ---------------------------------------------------------------------------
# the GF(2) bitmask walk against the generic one
# ---------------------------------------------------------------------------


def _mask(p):
    """The bitmask of a GF(2) polynomial: bit i is the coefficient of Y^i."""
    return sum(c << i for i, c in enumerate(p.coeffs))


def _masked_nodes(nodes):
    return [(_mask(r), _mask(s), _mask(inv)) for r, s, inv, _ in nodes]


def test_gf2_walk_yields_the_generic_nodes():
    field = get_field(2)
    n_max = 8
    assert list(euclid_tree_gf2(n_max)) == _masked_nodes(euclid_tree(field, n_max))
    for block in _first_quotient_blocks(field, n_max):
        first = [field.poly(c) for c in block]
        got = list(euclid_tree_gf2(n_max, [_mask(a) for a in first]))
        assert got == _masked_nodes(euclid_tree(field, n_max, first)), block


GF2_IDEALS = ("1", "Y", "Y+1", "Y^2+Y+1", "Y^3+Y+1")


@pytest.mark.parametrize("kind", ["count", "joint", "cfe"])
def test_gf2_block_tallies_match_generic(kind):
    # m = 3 at level 1 reads digits of s and r below Y^0
    field = get_field(2)
    n_max = 5
    for gen in GF2_IDEALS:
        gen_coeffs = Ideal(poly_from_text(field, gen)).gen.coeffs
        gen_coeffs = None if gen_coeffs == (1,) else gen_coeffs
        for m, mp in ((1, 1), (1, 2), (2, 3), (3, 4)):
            for n_lo in (1, 2):
                for block in _first_quotient_blocks(field, n_max):
                    payload = (2, None, gen_coeffs, n_lo, n_max, kind, m, mp, block)
                    assert _gf2_tree_block(payload) == _tree_block(payload), \
                        (gen, m, mp, n_lo, block)


@st.composite
def gf2_subtrees(draw):
    """A first partial quotient over GF(2), a depth a few levels below it,
    and a tally of the subtree: kind, ideal, cell depths, lowest level."""
    d = draw(st.integers(1, 4))
    n_max = d + draw(st.integers(0, 3))
    tail = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    kind = draw(st.sampled_from(["count", "joint", "cfe"]))
    gen = draw(st.sampled_from(GF2_IDEALS))
    m = draw(st.integers(1, 4))
    mp = draw(st.integers(1, 5))
    n_lo = draw(st.integers(1, n_max))
    return tuple(tail) + (1,), n_max, kind, gen, m, mp, n_lo


@settings(max_examples=40, deadline=None)
@given(gf2_subtrees())
def test_gf2_subtree_nodes_and_tallies(case):
    first, n_max, kind, gen, m, mp, n_lo = case
    field = get_field(2)
    a = field.poly(first)
    nodes = list(euclid_tree_gf2(n_max, [_mask(a)]))
    assert nodes == _masked_nodes(euclid_tree(field, n_max, [a]))
    for r, s, inv in nodes:
        assert 0 < r < s and inv < s and 1 <= s.bit_length() - 1 <= n_max
    g = poly_from_text(field, gen)
    payload = (2, None, None if g.is_one() else g.coeffs, n_lo, n_max, kind,
               m, mp, (first,))
    assert _gf2_tree_block(payload) == _tree_block(payload)
