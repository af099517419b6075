"""The Euclid-tree path of count, joint and cfe against its oracles.

The tree path tallies coprime (r, s) with r^-1 mod s read off the
convergents, spreads each node over its orbit of sharp and blunt vectors, and
reads the solution cell from one division.  The runners count those tallies
with a transfer DP; the walk of `euclid_tree` node by node (`_tree_block`)
is its oracle, key by key.  The walk in turn is checked against the scan of
every pair with a gcd, with each vector's statistic from companion_of and
RationalFn and each cfe fraction's from penultimate_ratio.  Beyond the walk's
reach, the DP's level totals are checked against closed forms.  Level 0,
the DP's start node (0, 1), is checked against the scan of the constant
vectors.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fqlattice.cfrac import cf_expand, penultimate_ratio
from fqlattice.field import (Ideal, get_field, is_coprime, poly_from_text,
                             polys_of_degree, polys_up_to_degree)
from fqlattice import harness
from fqlattice.harness import (RunConfig, _compile_transfer, _ideal_orbit, _orbit_size,
                               _ratio_cells, _residue_arithmetic, _transfer_tallies,
                               _tree_block, run_cfe, run_count, run_joint)
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


def _named(rep):
    """A report's rows, tuples in column order, as {column: value} dicts."""
    return [dict(zip(rep.columns, r)) for r in rep.rows]


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
                           stat.expand(1, mp), small_component(v)))
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
                  dp_ids[stat.expand(1, mp)])] += 1
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
    for n, row in zip(range(1, n_max + 1), _named(count)):
        want = _oracle_histogram(field, n, ideal, m, mp, theta_ids, dp_ids)
        got = Counter({(r["direction_cell"], r["solution_cell"]): r["empirical_count"]
                       for r in _named(joint) if r["n"] == n and r["empirical_count"]})
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
                digits[penultimate_ratio(rat(num, den)).expand(1, mp)] += 1
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
                               for r in _named(rep)
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
        got = _ratio_cells(field, (rat(inv, s).expand(1, mp), lead), dp_ids)
        want = dp_ids[penultimate_ratio(rat(r, s)).expand(1, mp)]
        assert got == {(want,): q - 1}, (str(r), str(s))


@pytest.mark.parametrize("kind, cells_of, ideal", [("joint", "_orbit_cells", "1"),
                                                   ("cfe", "_ratio_cells", "Y")])
def test_bin_nodes_finds_each_keys_cells_once(monkeypatch, kind, cells_of, ideal):
    # the DP meets the same keys at every level, and _bin_nodes memoises them
    calls, sweeps = [], []
    find, sweep = getattr(harness, cells_of), harness._transfer_tallies

    def spy(field, key, *ids):
        calls.append(key)
        return find(field, key, *ids)

    def keep(*args):
        sweeps.append(sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(harness, cells_of, spy)
    monkeypatch.setattr(harness, "_transfer_tallies", keep)
    harness.RUNNERS[kind](RunConfig(q=3, n_min=1, n_max=5, ideal=ideal, experiment=kind))
    [nodes] = sweeps
    keys = {key for tally in nodes.values() for key in tally}
    assert len(calls) == len(keys) < sum(map(len, nodes.values()))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_level_zero_exceptional_count(q):
    # the unit ideal takes every constant vector, a proper ideal the sharp
    # (lambda, 0) and the blunt (0, lambda); the flag fires on the sharp ones
    for ideal, total, exceptional in (("1", q * q - 1, q * (q - 1)),
                                      ("Y", 2 * (q - 1), q - 1),
                                      ("Y+1", 2 * (q - 1), q - 1)):
        rep = run_joint(RunConfig(q=q, n_min=0, n_max=1, ideal=ideal,
                                  experiment="joint"))
        assert rep.summary["exceptional[n=0]"] == exceptional, ideal
        assert rep.summary["total[n=0]"] == total, ideal
        assert rep.summary["exceptional[n=1]"] == 0


def _level_zero_scan(field, ideal, m, mp, theta_ids, dp_ids):
    """The reference for level 0: the constant vectors one by one, binned by
    direction and solution cell, and the number whose exception flag fires."""
    hist, exceptional = Counter(), 0
    for v in primitive_vectors(field, 0, ideal):
        stat, exc = solution_statistic(v)
        exceptional += exc
        hist[(theta_ids[lattice_direction_digits(v, 0, m)],
              dp_ids[stat.expand(1, mp)])] += 1
    return hist, exceptional


@pytest.mark.parametrize("q,n_max,gens", GRID, ids=[f"q{g[0]}" for g in GRID])
def test_level_zero_matches_vector_scan(q, n_max, gens):
    # the runners tally level 0 as the DP's start node; the scan of the
    # constant vectors is its oracle
    field = get_field(q)
    for gen in gens:
        ideal = Ideal(poly_from_text(field, gen))
        for m, mp in ((1, 1), (1, 2), (2, 3)):
            theta_ids = {(c.x_digits, c.y_digits): c.id_text()
                         for c in sphere_cells(field, m)}
            dp_ids = {c.digits: c.id_text() for c in domain_cells(field, mp)}
            want, exceptional = _level_zero_scan(field, ideal, m, mp, theta_ids, dp_ids)
            cfg = dict(q=q, n_min=0, n_max=0, ideal=gen, depth_m=m, depth_mp=mp)
            joint = run_joint(RunConfig(experiment="joint", **cfg))
            # rows are tuples in column order, up to 524,880 of them at q = 9,
            # too many to name one by one
            assert joint.columns[1:4] == ("direction_cell", "solution_cell",
                                          "empirical_count")
            got = Counter({(r[1], r[2]): r[3] for r in joint.rows if r[3]})
            assert got == want, (gen, m, mp)
            assert joint.summary["exceptional[n=0]"] == exceptional, (gen, m, mp)
            assert _named(run_count(RunConfig(**cfg)))[0]["exact_count"] == \
                sum(want.values())


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
        scale = field.neg_t[field.inv_t[field.mul_t[lead][lead]]]
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
    # a degree-1 generator at w <= 1: the shear and the scalar leave a state
    # only the point (P_k : Q_k) of P^1
    (4, 4, ("Y+[10]",), ((1, 1), (1, 2))),
    (7, 2, ("Y+3",), ((1, 1), (1, 2))),
    (8, 2, ("Y+[11]",), ((1, 1), (1, 2))),
    (9, 2, ("Y+[12]",), ((1, 1), (1, 2))),
    # a reducible generator, sheared at w <= 1 and scaled in common only
    # at w = 2, and a degree-1 one at w = 2
    (2, 6, ("Y^2+Y",), ((1, 1), (1, 3), (2, 3))),
    (3, 4, ("Y^2", "Y+2"), ((1, 2), (1, 3), (2, 3))),
    # the shear on 27 residues, scaled at w = 0 only
    (3, 4, ("Y^3+2*Y+1",), ((1, 1), (1, 2))),
]


def _dp(g, n_lo, n_max, kind, m, mp):
    """The DP's tallies, called as _tree_block is: compile, then sweep."""
    return _transfer_tallies(_compile_transfer(g, kind, m, mp, n_max), n_lo)


def _walk_from(walk, n_lo, g, kind, m, mp):
    """The walk's tallies from level n_lo on.  Level 0 has no walk node: the
    DP must tally its start state, the node (r, s) = (0, 1) under the constant
    vectors, once under the key the walk would give it, and no cfe node,
    since 0 is no fraction of the open unit ball."""
    want = {n: t for n, t in walk.items() if n >= n_lo}
    if n_lo == 0:
        key = _ideal_orbit(g.field.zero, g.field.one, g)
        if kind == "joint":
            key = ((1,) + (0,) * (m - 1), (0,) * m, (0,) * (mp - 1)) + key
        want[0] = Counter() if kind == "cfe" else Counter({key: 1})
    return want


@pytest.mark.parametrize("kind", ["count", "joint", "cfe"])
def test_dp_tallies_match_walk(kind):
    for q, n_max, gens, depths in DP_GRID:
        field = get_field(q)
        for gen in gens:
            g = Ideal(poly_from_text(field, gen)).gen
            for m, mp in depths if kind != "count" else depths[:1]:
                walk = _tree_block(g, 1, n_max, kind, m, mp)
                for n_lo in (0, 1, 2):
                    dp = _dp(g, n_lo, n_max, kind, m, mp)
                    assert dp == _walk_from(walk, n_lo, g, kind, m, mp), \
                        (q, gen, m, mp, n_lo)


GF2_IDEALS = ("1", "Y", "Y+1", "Y^2+Y+1", "Y^3+Y+1")


@pytest.mark.parametrize("kind", ["count", "joint", "cfe"])
def test_gf2_dp_tallies_match_walk(kind):
    # GF(2) at every ideal up to degree 3; m = 3 at level 1 reads digits of
    # s and r below Y^0
    field = get_field(2)
    n_max = 5
    for gen in GF2_IDEALS:
        g = Ideal(poly_from_text(field, gen)).gen
        for m, mp in ((1, 1), (1, 2), (2, 3), (3, 4)):
            walk = _tree_block(g, 1, n_max, kind, m, mp)
            for n_lo in (0, 1, 2):
                dp = _dp(g, n_lo, n_max, kind, m, mp)
                assert dp == _walk_from(walk, n_lo, g, kind, m, mp), \
                    (gen, m, mp, n_lo)


# (kind, q, ideal generator, highest level, m, mp) with the highest level at
# least d0 + 2, where d0 = max(w + 1, deg gen + max(w, 1) - 1) is the
# quotient degree from which on the DP sends arrivals into its carry
CARRY_GRID = [
    ("joint", 3, "1", 5, 2, 3),          # w = 2, d0 = 3
    ("joint", 2, "Y^2+Y+1", 6, 3, 4),    # w = 3, d0 = 4
    ("cfe", 3, "Y", 5, 1, 3),            # w = 2, d0 = 3
    ("count", 3, "Y^2+1", 4, 1, 2),      # w = 0, d0 = 2
    # the point of P^1: a degree-1 generator at w <= 1
    ("count", 7, "Y+3", 3, 1, 2),        # w = 0, d0 = 1
    ("count", 4, "Y+[10]", 3, 1, 1),     # w = 0, d0 = 1
    ("cfe", 3, "Y+2", 4, 1, 2),          # w = 1, d0 = 2
    ("joint", 4, "Y+1", 4, 1, 1),        # w = 1, d0 = 2
    # residues up to a common scalar: reducible generators, and a degree-1
    # generator at w = 2
    ("count", 3, "Y^2", 4, 1, 2),        # w = 0, d0 = 2
    ("joint", 3, "Y^2", 4, 1, 2),        # w = 1, d0 = 2
    ("cfe", 2, "Y^2+Y", 5, 1, 3),        # w = 2, d0 = 3
    ("joint", 2, "Y^2+Y", 5, 2, 3),      # w = 2, d0 = 3
    ("joint", 3, "Y+2", 5, 1, 3),        # w = 2, d0 = 3
    ("cfe", 3, "Y+1", 5, 2, 3),          # w = 2, d0 = 3
]


@pytest.mark.parametrize("kind,q,gen,n_max,m,mp", CARRY_GRID,
                         ids=[f"{c[0]}-q{c[1]}-{c[2]}" for c in CARRY_GRID])
def test_dp_matches_walk_past_the_carry(kind, q, gen, n_max, m, mp):
    field = get_field(q)
    g = Ideal(poly_from_text(field, gen)).gen
    walk = _tree_block(g, 1, n_max, kind, m, mp)
    for n_lo in (0, 1, 2):
        assert _dp(g, n_lo, n_max, kind, m, mp) == \
            _walk_from(walk, n_lo, g, kind, m, mp), n_lo


def _unimodular_quadruples(field, gen):
    """Every (P_k, Q_k, P_{k-1}, Q_{k-1}) mod gen whose determinant
    P_k Q_{k-1} - P_{k-1} Q_k is a unit mod gen."""
    residues = {x.coeffs: x for x in polys_up_to_degree(field, gen.degree - 1)}
    products = {(x, y): (residues[x] * residues[y]).coeffs for x in residues for y in residues}
    units = {(a, b): is_coprime(field.poly(a) - field.poly(b), gen)
             for a in set(products.values()) for b in set(products.values())}
    return [tuple(map(residues.get, (P, Q, P_prev, Q_prev)))
            for P in residues for Q in residues for P_prev in residues for Q_prev in residues
            if units[products[P, Q_prev], products[P_prev, Q]]]


def _generator(field):
    """An element of order q - 1: a form blind to it is blind to all of F_q^*."""
    for x in range(1, field.q):
        powers, y = {1}, x
        while y != 1:
            powers.add(y)
            y = field.mul_t[y][x]
        if len(powers) == field.q - 1:
            return x


# q -> a degree-1 and a degree-2 generator; Y^2+Y and Y^2 are reducible.
# q = 2 adds one of degree 3
CANONICAL_GENS = {2: ("Y+1", "Y^2+Y", "Y^3+Y+1"), 3: ("Y+2", "Y^2"),
                  4: ("Y+[10]", "Y^2+Y+[10]"), 5: ("Y+2", "Y^2+Y")}


@pytest.mark.parametrize("q", sorted(CANONICAL_GENS))
def test_canonical_residues_keep_one_state_per_class(q):
    # the canonical form at window width w is idempotent and blind to a
    # common scalar; at w <= 1 also to the shear (P', Q') + c (P, Q), and
    # then, at w = 0 or deg gen = 1, to (P', Q') -> mu (P', Q'); it keeps one
    # quadruple per orbit of those maps.  Each map is checked on generators
    # of its group: lam for F_q^*, and for F_q the codes p^i, a basis over F_p
    field = get_field(q)
    lam = _generator(field)
    basis = [field.p ** i for i in range(field.d)]
    for text in CANONICAL_GENS[q]:
        gen = poly_from_text(field, text)
        residues = list(polys_up_to_degree(field, gen.degree - 1))
        code = {x.coeffs: i for i, x in enumerate(residues)}
        # the quadruples and the maps on residue indices, read from Poly arithmetic
        quads = [tuple(code[x.coeffs] for x in res) for res in _unimodular_quadruples(field, gen)]
        scale = [code[x.scale(lam).coeffs] for x in residues]
        shear = {c: {(x, y): code[(residues[y] + residues[x].scale(c)).coeffs]
                     for x in range(len(residues)) for y in range(len(residues))}
                 for c in basis}
        # the form divides by a constant through the times row of its index
        assert all(code[(c,)] == c for c in range(1, q))
        for w in (0, 1, 2):
            _, lib_code, _, canonical = _residue_arithmetic(gen, w)
            assert lib_code == code
            moves = [lambda res: tuple(scale[x] for x in res)]
            if w <= 1:
                moves += [lambda res, t=shear[c]: res[:2] + (t[res[0], res[2]], t[res[1], res[3]])
                          for c in basis]
                if w == 0 or gen.degree == 1:
                    moves.append(lambda res: res[:2] + (scale[res[2]], scale[res[3]]))
            table = {res: canonical[res] for res in quads}
            for res, canon in table.items():
                assert all(table[move(res)] == canon for move in moves), (text, w, res)
            image = set(table.values())
            # every form is itself a unimodular quadruple, so the table holds it
            assert all(table[canon] == canon for canon in image), (text, w)
            shears, rescales = w <= 1, w == 0 or (w <= 1 and gen.degree == 1)
            orbit = (q - 1) * q ** shears * (q - 1) ** rescales
            assert len(image) * orbit == len(quads), (text, w)


@pytest.mark.parametrize("q", sorted(CANONICAL_GENS))
def test_residue_affine_matches_poly_arithmetic(q):
    # the DP's rho*x + y mod gen, read from its tables, against Poly
    # arithmetic on every triple of residues
    field = get_field(q)
    for text in CANONICAL_GENS[q]:
        gen = poly_from_text(field, text)
        residues, _, affine, _ = _residue_arithmetic(gen, 2)
        for rho, r in enumerate(residues):
            for x, u in enumerate(residues):
                for y, v in enumerate(residues):
                    assert residues[affine(rho, x, y)] == (r * u + v) % gen, (text, r, u, v)


# q -> the unit ideal, Y, Y+1 and an ideal of degree 2
ORBIT_GENS = {2: ("1", "Y", "Y+1", "Y^2+Y+1"), 3: ("1", "Y", "Y+1", "Y^2+1"),
              4: ("1", "Y", "Y+1", "Y^2+Y+[10]")}


@pytest.mark.parametrize("q", sorted(ORBIT_GENS))
def test_ideal_orbit_matches_its_definition(q):
    # over every coprime (r, s) with deg r < deg s <= 2: the sharp mu are
    # those with mu*s + r in (gen), the blunt flag says r is in it; the unit
    # ideal takes every mu
    field = get_field(q)
    for text in ORBIT_GENS[q]:
        I = Ideal(poly_from_text(field, text))
        for s in polys_up_to_degree(field, 2):
            for r in polys_up_to_degree(field, s.degree - 1) if not s.is_zero() else ():
                if is_coprime(r, s):
                    mus = tuple(mu for mu in range(q) if I.contains(s.scale(mu) + r))
                    assert _ideal_orbit(r, s, I.gen) == (mus, I.contains(r)), (text, r, s)


@pytest.mark.parametrize("q", (2, 3, 4))
def test_unit_ideal_has_the_one_residue_zero(q):
    field = get_field(q)
    for w in (0, 1, 2):
        residues, code, affine, canonical = _residue_arithmetic(field.one, w)
        assert (residues, code) == ([field.zero], {(): 0})
        assert affine(0, 0, 0) == 0
        assert canonical[0, 0, 0, 0] == (0, 0, 0, 0)


@pytest.mark.parametrize("q,n_max", [(2, 60), (3, 30)])
def test_dp_deep_joint_totals(q, n_max):
    # (q - 1) q^(2n - 1) nodes at level n, each under (q - 1)(q + 1) vectors
    field = get_field(q)
    for m, mp in ((1, 2), (2, 3)):
        tallies = _dp(field.one, 1, n_max, "joint", m, mp)
        assert [_orbit_size(field, tallies[n]) for n in range(1, n_max + 1)] == \
            [(q * q - 1) * (q - 1) * q ** (2 * n - 1) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("q,gen,kind,m,mp", [(2, "Y+1", "joint", 2, 3),
                                             (2, "Y^2+Y+1", "count", 1, 2)])
def test_dp_compiles_each_step_once(q, gen, kind, m, mp):
    # the state count stops growing by level 10, so past it no level adds a
    # state or a successor: the transfers for 20 and 40 levels are the same
    g = poly_from_text(get_field(q), gen)
    short, long = (_compile_transfer(g, kind, m, mp, n_max) for n_max in (20, 40))
    assert (short.keys, short.successors) == (long.keys, long.successors)
    assert len(short.keys) > 1 and all(short.successors)


# (kind, q, generator, m, mp, highest level, compiled states): the shear at
# w <= 1 and the scalar at w = 0 cut these from 7,776, 712, 5,443 and 1,009
SHEAR_STATES = [
    ("count", 5, "Y^2+2", 1, 2, 4, 781),
    ("count", 3, "Y^2+1", 1, 2, 5, 121),
    ("joint", 3, "Y^2+1", 1, 2, 5, 1917),
    ("cfe", 2, "Y^3+Y+1", 1, 2, 7, 505),
]


@pytest.mark.parametrize("kind,q,gen,m,mp,n_max,states", SHEAR_STATES,
                         ids=[f"{c[0]}-q{c[1]}-{c[2]}" for c in SHEAR_STATES])
def test_shear_keeps_one_state_per_class(kind, q, gen, m, mp, n_max, states):
    g = poly_from_text(get_field(q), gen)
    assert len(_compile_transfer(g, kind, m, mp, n_max).keys) == states


@pytest.mark.parametrize("q", QS)
def test_count_compiles_one_state_per_point_of_p1(q):
    # with a degree-1 ideal a count state is the point (P_k : Q_k) of P^1,
    # so the transfer holds q + 1 states besides the start
    field = get_field(q)
    for gen in (field.Y, poly_from_text(field, "Y+1")):
        assert len(_compile_transfer(gen, "count", 1, 2, 12).keys) == q + 2
    # the unit ideal's one residue leaves one state besides the start
    assert len(_compile_transfer(field.one, "count", 1, 2, 12).keys) == 2


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
    args = (gen, n_lo, n_max, kind, m, mp)
    assert _dp(*args) == _tree_block(*args)


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
        assert [r["exact_count"] for r in _named(count)] == want
        walk = _tree_block(get_field(q).Y, 1, 4, "count", 1, 2)
        assert [(q - 1) * sum(c * (len(mus) + blunt) for (mus, blunt), c in t.items())
                for t in walk.values()] == want[:4]
    # Y -> Y - c maps the ideal Y+c onto (Y) and keeps every degree, so the
    # same closed form holds far past the walk, where the count DP keeps only
    # the point (P_k : Q_k) of P^1
    for q, gen in ((4, "Y+[10]"), (5, "Y+2"), (7, "Y+3"), (8, "Y+[11]"), (9, "Y+[12]")):
        count = run_count(RunConfig(q=q, n_min=1, n_max=20, ideal=gen, guard=10 ** 50))
        assert [r["exact_count"] for r in _named(count)] == \
            [(q - 1) ** 2 * (q ** (2 * n - 1) - 1) for n in range(1, 21)], gen
