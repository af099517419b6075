"""The Euclid-tree path of count, joint and cfe against its oracles.

The tree path tallies coprime (r, s) with r^-1 mod s read off the
convergents, spreads each node over its orbit of sharp and blunt vectors, and
reads the solution cell from one division.  The runners count those tallies
with a transfer DP; the walk of `euclid_tree` node by node (`_tree_block`)
is its oracle, key by key.  The walk in turn is checked against the scan of
every pair with a gcd, with each vector's statistic from companion_of and
RationalFn and each cfe fraction's from penultimate_ratio.  Beyond the walk's
reach, the DP's level totals are checked against closed forms.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fqlattice.cfrac import cf_expand, penultimate_ratio
from fqlattice.field import (Ideal, get_field, is_coprime, poly_from_text,
                             polys_of_degree, polys_up_to_degree)
from fqlattice.harness import (RunConfig, _bin_ratios, _head_digits,
                               _transfer_tallies, _tree_block, run_cfe,
                               run_count, run_joint)
from fqlattice.lattice import (companion_of, domain_cells, euclid_tree,
                               primitive_vectors, small_component,
                               solution_statistic, sphere_cells)
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
    """A field, a depth small enough that the whole tree stays at a few
    thousand nodes, and a first partial quotient a_1 within it."""
    q = draw(st.sampled_from(QS))
    n_max = draw(st.integers(1, {2: 5, 3: 3}.get(q, 2)))
    d = draw(st.integers(1, n_max))
    field = get_field(q)
    tail = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    lead = draw(st.integers(1, q - 1))
    return field, field.poly(tuple(tail) + (lead,)), n_max


@settings(max_examples=40, deadline=None)
@given(subtrees())
def test_tree_nodes_carry_inverse_and_companion(case):
    field, first, n_max = case
    seen = set()
    for r, s, inv, lead in euclid_tree(field, n_max):
        if s // r != first:
            continue  # only the subtree under a_1 is checked in full
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


# ---------------------------------------------------------------------------
# the transfer DP against the walk
# ---------------------------------------------------------------------------


# (q, highest level, ideal generators, cell depths): a degree-2 generator
# lists its quotients of low degree one by one and groups the rest by
# residue; the depths put mp - 1 above, at and below m, so either sets the
# window, (1, 1) has no solution digits, and m = 3 reads digits below Y^0
DP_DEPTHS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 1), (3, 4))
DP_GRID = [
    (2, 5, ("1", "Y", "Y+1", "Y^2+Y+1"), ((1, 3), (3, 4))),
    (3, 3, ("1", "Y", "Y+1", "Y^2+1"), DP_DEPTHS),
    (4, 3, ("1", "Y", "Y+1", "Y^2+Y+[10]"), ((3, 4),)),
    (5, 2, ("1", "Y", "Y+1", "Y^2+2"), ((1, 1), (2, 3), (3, 1))),
    (7, 2, ("1", "Y", "Y+1", "Y^2+1"), ((2, 3),)),
    (8, 2, ("Y+1", "Y^2+Y+1"), ((1, 2),)),
    (9, 2, ("1", "Y^2+1"), ((2, 3),)),
]


@pytest.mark.parametrize("kind", ["count", "joint", "cfe"])
def test_dp_tallies_match_walk(kind):
    for q, n_max, gens, depths in DP_GRID:
        field = get_field(q)
        for gen in gens:
            g = Ideal(poly_from_text(field, gen)).gen
            g = None if g.is_one() else g
            for m, mp in depths if kind != "count" else depths[:1]:
                walk = _tree_block(field, g, 1, n_max, kind, m, mp)
                for n_lo in (1, 2):
                    dp = _transfer_tallies(field, g, n_lo, n_max, kind, m, mp)
                    assert dp == {n: t for n, t in walk.items() if n >= n_lo}, \
                        (q, gen, m, mp, n_lo)


GF2_IDEALS = ("1", "Y", "Y+1", "Y^2+Y+1", "Y^3+Y+1")


@pytest.mark.parametrize("kind", ["count", "joint", "cfe"])
def test_gf2_block_tallies_match_generic(kind):
    # GF(2) at every ideal up to degree 3; m = 3 at level 1 reads digits of
    # s and r below Y^0
    field = get_field(2)
    n_max = 5
    for gen in GF2_IDEALS:
        g = Ideal(poly_from_text(field, gen)).gen
        g = None if g.is_one() else g
        for m, mp in ((1, 1), (1, 2), (2, 3), (3, 4)):
            walk = _tree_block(field, g, 1, n_max, kind, m, mp)
            for n_lo in (1, 2):
                dp = _transfer_tallies(field, g, n_lo, n_max, kind, m, mp)
                assert dp == {n: t for n, t in walk.items() if n >= n_lo}, \
                    (gen, m, mp, n_lo)


@st.composite
def dp_configs(draw):
    """A field, a monic generator of degree 0-3, a kind, cell depths and a
    level range small enough for the walk."""
    q = draw(st.sampled_from(QS))
    g = draw(st.integers(0, 3 if q <= 3 else 2))
    tail = draw(st.lists(st.integers(0, q - 1), min_size=g, max_size=g))
    n_max = draw(st.integers(1, {2: 6, 3: 4, 4: 3}.get(q, 2)))
    return (q, get_field(q).poly(tuple(tail) + (1,)), draw(st.integers(1, n_max)),
            n_max, draw(st.sampled_from(["count", "joint", "cfe"])),
            draw(st.integers(1, 4)), draw(st.integers(1, 5)))


@settings(max_examples=40, deadline=None)
@given(dp_configs())
def test_dp_matches_walk_on_random_configs(case):
    q, gen, n_lo, n_max, kind, m, mp = case
    args = (get_field(q), None if gen.is_one() else gen, n_lo, n_max, kind, m, mp)
    assert _transfer_tallies(*args) == _tree_block(*args)


def test_dp_level_totals_beyond_the_walk():
    # nodes per level: q^(2n) - q^(2n-1); each carries (q-1)(q+1) vectors
    # for joint and q - 1 fractions for cfe
    def nodes(q, n):
        return q ** (2 * n) - q ** (2 * n - 1)
    big = 10 ** 40
    joint = run_joint(RunConfig(q=2, n_min=1, n_max=30, experiment="joint", guard=big))
    for n in range(1, 31):
        assert joint.summary[f"total[n={n}]"] == 3 * nodes(2, n)
        if n >= 2:
            # the flagship cells are exact from level 2 on
            assert joint.summary[f"sup_discrepancy[n={n}]"] == 0
    cfe = run_cfe(RunConfig(q=5, n_min=1, n_max=12, experiment="cfe", guard=big))
    for n in range(1, 13):
        assert cfe.summary[f"total[n={n}]"] == 4 * nodes(5, n)
    # ideal Y: (q-1)^2 (q^(2n-1) - 1) vectors, which the walk gives too
    for q in (2, 3):
        count = run_count(RunConfig(q=q, n_min=1, n_max=20, ideal="Y", guard=big))
        want = [(q - 1) ** 2 * (q ** (2 * n - 1) - 1) for n in range(1, 21)]
        assert [r["exact_count"] for r in count.rows] == want
        walk = _tree_block(get_field(q), get_field(q).Y, 1, 4, "count", 1, 2)
        assert [(q - 1) * sum(c * (len(mus) + blunt) for (mus, blunt), c in t.items())
                for t in walk.values()] == want[:4]
