"""Smith normal form, its dense residue pass, and clearing across degrees."""

import random
import time
from functools import lru_cache
from itertools import islice

import pytest

from ispaces import simplicial, zlinalg
from ispaces.cmon import c1, classifying_space_homology
from ispaces.icat import comma_under
from ispaces.simplicial import (
    SMap,
    chain_complex,
    homology,
    map_cone_homology,
    nerve,
    point,
    simplicial_circle,
)
from ispaces.zlinalg import ColumnMatrix, _unit_pivot_eliminate, rank_and_torsion, smith_diagonal

from oracles import (bareiss_rank, chain_boundary_reference, columns, cyclic_group_category,
                     entries, group_homology, heap_eliminate, hermite_normal_form, homology_mod_p,
                     invariant_factors, product_sset, rational_rank, validate_chain_complex)
from test_normalize import CASES


def test_smith_diagonal_divisibility():
    from ispaces.zlinalg import smith_diagonal

    mat = columns({(0, 0): 2, (0, 1): 4, (1, 0): 4, (1, 1): 4})
    for nrows, ncols in ((2, 2), (3, 2), (2, 4), (5, 5)):  # zero rows and columns past the entries
        diag = [d for d in smith_diagonal(mat, nrows, ncols) if d]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert diag == [2, 4]


def test_rank_and_torsion_known_matrix():
    from ispaces.zlinalg import rank_and_torsion

    # the boundary matrix of RP^2's 2-cell in cellular homology
    mat = columns({(0, 0): 2})
    rank, tors = rank_and_torsion(mat, 1, 1)
    assert rank == 1
    assert tors == (2,)


def test_bareiss_agrees_with_smith_on_random_sparse():
    import random

    rng = random.Random(7)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        mat = {}
        for r in range(nrows):
            for c in range(ncols):
                if rng.random() < 0.4:
                    mat[(r, c)] = rng.randint(-5, 5)
        mat = {k: v for k, v in mat.items() if v}
        rank, _ = rank_and_torsion(columns(mat), nrows, ncols)
        assert rank == bareiss_rank(columns(mat))


def test_invariant_factors_match_determinantal_divisors():
    """Also on a shape with extra zero rows and columns, whose rank bound is
    above the rank, so that elimination reads every column."""
    rng = random.Random(11)
    pad = random.Random(12)
    values = (1, 2, 3, 4, 6, -1, -2, -3, -4, -6)
    loose = 0
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        density = rng.choice((0.4, 0.7, 1.0))
        dense = [[rng.choice(values) if rng.random() < density else 0
                  for _ in range(ncols)] for _ in range(nrows)]
        mat = columns({(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)})
        want = invariant_factors(dense, ncols)
        assert smith_diagonal(mat, nrows, ncols) == want, dense
        extra_rows, extra_cols = pad.randint(0, 2), pad.randint(0, 2)
        loose += len(want) < min(nrows + extra_rows, ncols + extra_cols)
        assert smith_diagonal(mat, nrows + extra_rows, ncols + extra_cols) == want, dense
    assert loose > 100


def test_explicit_zero_entries_are_ignored():
    # a stored 0 at the row of the first pivot, dropped when the entries are grouped
    mat = {(0, 0): -1, (1, 0): -2, (0, 1): 0, (2, 1): 1}
    assert rank_and_torsion(columns(mat), 3, 2) == (2, ())


def test_stored_zero_entries_reduce_as_absent_ones():
    """A column source may store a 0: at the row of a pivot (a zero factor),
    or among a pivot's own entries, where the column being reduced has no
    entry.  Both reduce as if the 0 were absent."""
    stored = [({0: {0: -1, 1: -2}, 1: {0: 0, 2: 1}}, 3, 2, (2, ())),
              ({0: {0: 1, 5: 0}, 1: {0: 1, 1: 2}}, 6, 2, (2, (2,))),
              ({0: {0: 1, 1: 0}, 1: {1: 3, 0: 0}, 2: {0: 2, 1: 0}}, 2, 3, (2, (3,)))]
    for cols, nrows, ncols, want in stored:
        plain = {c: {r: v for r, v in col.items() if v} for c, col in cols.items()}
        assert rank_and_torsion(ColumnMatrix(plain.items), nrows, ncols) == want
        assert rank_and_torsion(ColumnMatrix(cols.items), nrows, ncols) == want


def test_dense_residue_entries_stay_bounded():
    # no +-1 entry, so the whole matrix is the dense residue; determinantal
    # divisors 1, 1, 1, 1, 2, 4, 143448
    mat = columns({(0, 1): 4, (0, 2): -4, (0, 3): -4, (0, 4): -2, (0, 5): 3, (0, 6): 2,
           (1, 3): 3, (1, 4): 6, (1, 6): 2, (2, 0): 6, (2, 3): -2, (2, 6): 6,
           (3, 0): -2, (3, 1): 6, (3, 2): -2, (3, 3): 4, (3, 4): -3, (3, 6): -6,
           (4, 1): 3, (4, 2): 4, (4, 3): 6, (4, 4): -3, (4, 5): -6, (5, 0): 4,
           (5, 1): -3, (5, 3): 6, (5, 4): 6, (5, 5): -2, (5, 6): 4, (6, 0): -6,
           (6, 3): -6, (6, 6): -4})
    t0 = time.perf_counter()
    assert rank_and_torsion(mat, 7, 7) == (7, (2, 2, 35862))
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# Clearing: pivot columns of d_k dropped as rows of d_{k+1}.
# ---------------------------------------------------------------------------

def _no_clearing(mat, nrows, ncols, drop_rows=(), pivots=None):
    return rank_and_torsion(mat, nrows, ncols)


def test_clearing_keeps_odd_torsion_of_cyclic_group_nerve(monkeypatch):
    bz3 = nerve(cyclic_group_category(3).coded(), 3).sset
    groups = homology(bz3, 2).groups
    assert groups == group_homology([0, 1, 2], lambda a, b: (a + b) % 3, 0, 2)
    assert groups[1] == (0, (3,))
    monkeypatch.setattr(simplicial, "rank_and_torsion", _no_clearing)
    assert homology(bz3, 2).groups == groups


def test_homology_clears_each_degree_by_the_pivots_below(monkeypatch):
    """`homology` hands each d_{k+1} the pivot columns that its call on d_k
    appended, as a non-empty `drop_rows`; d_1 drops none.  No traced count
    sees the clearing, since SNF's input nonzeros are counted before rows
    are dropped."""
    calls = []

    def recorded(mat, nrows, ncols, drop_rows=(), pivots=None):
        calls.append((drop_rows, pivots))
        return rank_and_torsion(mat, nrows, ncols, drop_rows, pivots)

    monkeypatch.setattr(simplicial, "rank_and_torsion", recorded)
    homology(nerve(comma_under(1, 4), 3).sset, 2)
    assert len(calls) == 3 and calls[0][0] == ()
    for (_, below), (drop_rows, _) in zip(calls, calls[1:]):
        assert below and list(drop_rows) == below


def test_clearing_on_torus_where_rank_bound_is_not_reached():
    t2 = product_sset(simplicial_circle(), simplicial_circle()).sset
    assert homology(t2, 2).group(2) == (1, ())
    cx = chain_complex(t2, top=2)
    cleared = []
    rank_and_torsion(cx.boundaries[1], cx.counts[0], cx.counts[1], pivots=cleared)
    rank, _ = rank_and_torsion(cx.boundaries[2], cx.counts[1], cx.counts[2],
                               drop_rows=cleared)
    assert rank < min(cx.counts[1] - len(cleared), cx.counts[2])


def test_cone_homology_agrees_without_clearing(monkeypatch):
    bz3 = nerve(cyclic_group_category(3).coded(), 4).sset
    table = {(k, x): (tuple(range(k - 1, -1, -1)), 0, 0)
             for k in range(bz3.top_dim + 1) for x in range(bz3.card[k])}
    collapse = SMap(bz3, point(), table)
    t2 = product_sset(simplicial_circle(), simplicial_circle())
    cases = [(collapse, 3), (t2.proj1, 2)]
    cleared = [map_cone_homology(f, d) for f, d in cases]
    # the cone of X -> point has H_{k+1} = reduced H_k(X): Z/3 in degree 2
    assert cleared[0][2] == (0, (3,))
    monkeypatch.setattr(simplicial, "rank_and_torsion", _no_clearing)
    assert [map_cone_homology(f, d) for f, d in cases] == cleared


def _conjugated_complex(rng):
    """A chain complex with known homology, in random unimodular bases.

    In the standard basis, d_k sends the last r_k basis vectors of C_k to
    s_i times the first r_k basis vectors of C_{k-1}, where s is a random
    divisibility chain; a change of basis of every C_k then spreads the
    entries out.  Returns (counts, boundaries, homology through the top-1).
    """
    top = rng.randint(2, 4)
    r = [0] + [rng.randint(0, 3) for _ in range(top)] + [0]
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    counts = [r[k + 1] + free[k] + r[k] for k in range(top + 1)]
    basis, inverse = [], []
    for n in counts:
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        v = [row[:] for row in u]
        for _ in range(3 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            f = rng.choice((1, -1, 2))
            for row in u:  # u <- u E, with E adding f * column i to column j
                row[j] += f * row[i]
            v[i] = [a - f * b for a, b in zip(v[i], v[j])]  # v <- E^-1 v
        basis.append(u)
        inverse.append(v)
    boundaries = [columns({})]
    factors = {}
    for k in range(1, top + 1):
        s, cur = [], 1
        for _ in range(r[k]):
            cur *= rng.choice((1, 1, 2, 3))
            s.append(cur)
        factors[k] = tuple(t for t in s if t > 1)
        mat = {}
        for i, si in enumerate(s):  # u_{k-1} D v_k, with D[i][r_{k+1} + free_k + i] = s_i
            col = r[k + 1] + free[k] + i
            for a in range(counts[k - 1]):
                for c in range(counts[k]):
                    mat[(a, c)] = mat.get((a, c), 0) + basis[k - 1][a][i] * si * inverse[k][col][c]
        boundaries.append(columns(mat))
    groups = {k: (free[k], factors.get(k + 1, ())) for k in range(top)}
    return counts, boundaries, groups


def test_clearing_on_random_complexes_with_known_homology():
    rng = random.Random(5)
    for _ in range(200):
        counts, boundaries, groups = _conjugated_complex(rng)
        ranks, tors = {}, {}
        cleared = ()
        for k in range(1, len(counts)):
            pivots = []
            ranks[k], tors[k] = rank_and_torsion(boundaries[k], counts[k - 1], counts[k],
                                                 drop_rows=cleared, pivots=pivots)
            cleared = pivots
        for k, (free, torsion) in groups.items():
            assert counts[k] - ranks.get(k, 0) - ranks.get(k + 1, 0) == free
            assert tors.get(k + 1, ()) == torsion


# ---------------------------------------------------------------------------
# Column-stored boundary matrices against their plain-dict copies.
# ---------------------------------------------------------------------------

def _case_ssets(obj):
    if hasattr(obj, "sset"):
        return [obj.sset]
    space = getattr(obj, "space", obj)  # a bar construction, or an I-space
    return list(space.levels)


def _agreeing(seen):
    """`rank_and_torsion` that also eliminates the columns regrouped from
    its entries, in their order and row by row, with and without the cleared
    rows, and checks rank, torsion and pivots."""
    def both(mat, nrows, ncols, drop_rows=(), pivots=None):
        assert isinstance(mat, ColumnMatrix)
        for plain in (dict(entries(mat)), dict(sorted(entries(mat)))):
            for drop in ((), drop_rows):
                got, want = [], []
                assert rank_and_torsion(mat, nrows, ncols, drop, got) \
                    == rank_and_torsion(columns(plain), nrows, ncols, drop, want)
                assert got == want
        seen.append(len(drop_rows))
        return rank_and_torsion(mat, nrows, ncols, drop_rows, pivots)
    return both


def test_column_matrix_agrees_with_its_dict_copy(monkeypatch):
    bz3 = nerve(cyclic_group_category(3).coded(), 3).sset
    ssets = [bz3] + [x for name in sorted(CASES) for x in _case_ssets(CASES[name]())]
    for x in ssets:
        cx = chain_complex(x)
        for k in range(1, len(cx.boundaries)):
            mat = cx.boundaries[k]
            ref = chain_boundary_reference(x, k)
            assert entries(mat) == ref
            assert len(mat) == len(ref) == sum(map(len, mat.cols.values()))
            assert list(mat.cols) == sorted(mat.cols)
            assert columns(dict(ref)).cols == mat.cols
            assert entries(mat) == ref  # a pass after `cols` reads the kept dict
    seen = []
    monkeypatch.setattr(simplicial, "rank_and_torsion", _agreeing(seen))
    for x in ssets:
        homology(x, x.top_dim - 1)
    assert homology(bz3, 2).group(1) == (0, (3,))
    table = {(k, x): (tuple(range(k - 1, -1, -1)), 0, 0)
             for k in range(bz3.top_dim + 1) for x in range(bz3.card[k])}
    assert map_cone_homology(SMap(bz3, point(), table), 2)[2] == (0, (3,))
    assert any(seen), "no call had cleared rows to drop"


def test_chain_complex_validate_reports_nonzero_square():
    cx = chain_complex(product_sset(simplicial_circle(), simplicial_circle()).sset)
    assert validate_chain_complex(cx) == []
    one = ColumnMatrix({0: {0: 1}}.items)
    bad = simplicial.ChainComplex([1, 1, 1], [ColumnMatrix({}.items), one, one])
    assert validate_chain_complex(bad) == ["boundary squared nonzero in degree 2"]


# ---------------------------------------------------------------------------
# Universal coefficients: integral homology against elimination mod p.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _uct_spaces():
    from ispaces.cmon import bar_of_hocolim, cyclic2_monoid, sec52_monoid
    from ispaces.gamma import gamma_of_monoid
    from ispaces.ispace import constant_ispace, hocolim_I
    from ispaces.scenarios import _degree_component
    from ispaces.simplicial import component_subcomplex, pi0

    gamma = gamma_of_monoid(c1(3), 3, 3)
    hc = hocolim_I(c1(3).space, 3)
    degree2 = pi0(hc.sset)[_degree_component(c1(3), hc, 2)]
    return {
        "hocolim-c1": hc.sset,
        # the complex of the c1-bsigma2 scenario, whose H_1 is Z/2
        "c1-bsigma2": component_subcomplex(hc.sset, {degree2})[0],
        # a diagram that is not of sets, so on the diagonal kernel `_coded_chains`
        "hocolim-circle": hocolim_I(constant_ispace(simplicial_circle(), 3), 3).sset,
        "hocolim-m52": hocolim_I(sec52_monoid(3).space, 3).sset,
        "bar-c1": bar_of_hocolim(c1(3), 3).sset,
        "bar-m52": bar_of_hocolim(sec52_monoid(3), 3).sset,
        "bar-z2": bar_of_hocolim(cyclic2_monoid(3), 3).sset,
        **{f"gamma-c1-{k}": gamma.values[k] for k in (1, 2, 3)},
        "BZ3": nerve(cyclic_group_category(3).coded(), 3).sset,
    }


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["hocolim-c1", "c1-bsigma2", "hocolim-circle", "hocolim-m52",
                                  "bar-c1", "bar-m52", "bar-z2", "gamma-c1-1", "gamma-c1-2",
                                  "gamma-c1-3", "BZ3"])
def test_homology_mod_p_obeys_universal_coefficients(name, p):
    """dim H_k(X; Z/p) = b_k + t_k(p) + t_{k-1}(p), where b_k is the free rank
    of H_k(X; Z) and t_k(p) counts its torsion coefficients divisible by p:
    the integral SNF homology against a mod-p elimination that shares only
    the chain complex with it.  Each truncated value has 2-torsion and BZ3
    has 3-torsion, so both primes meet torsion."""
    X = _uct_spaces()[name]
    groups = homology(X, 2).groups
    t = {k: sum(1 for c in groups[k][1] if c % p == 0) for k in groups}
    want = {k: groups[k][0] + t[k] + t.get(k - 1, 0) for k in groups}
    assert homology_mod_p(X, p, 2) == want


# ---------------------------------------------------------------------------
# Pivots in reduced echelon form against the heap-ordered reference.
# ---------------------------------------------------------------------------

def _same_elimination(mat, nrows, ncols, drop_rows=()):
    """Both eliminations of one matrix: the same rank and pivot columns, and
    residues that span one lattice, which their Hermite forms over the same
    rows (`oracles.hermite_normal_form`) show.  The residues are not
    compared column for column: SNF holds one set-aside column per leading
    row, merged with the others there by unimodular pairs, so its residue
    spans the lattice of the reference's with other columns.  Where the
    residue has at most 4 nonzero rows or 4 columns, and at most 8 of
    either, its Smith diagonal (`zlinalg._dense_smith`) is checked against
    the minors (`oracles.invariant_factors`).  Returns the pivot columns, the
    residue and whether that check ran."""
    got, want = [], []
    new = _unit_pivot_eliminate(mat, nrows, ncols, drop_rows, got)
    old = heap_eliminate(mat, nrows, ncols, drop_rows, want)
    assert new[0] == old[0] and got == want
    rows = sorted({r for col in new[1] + old[1] for r in col})
    assert hermite_normal_form(new[1], rows) == hermite_normal_form(old[1], rows)
    dense = [[col.get(r, 0) for col in new[1]] for r in sorted({r for col in new[1] for r in col})]
    small = bool(new[1]) and min(len(dense), len(new[1])) <= 4 and max(len(dense), len(new[1])) <= 8
    if small:
        assert zlinalg._dense_smith(new[1]) == invariant_factors(dense, len(new[1]))
    return got, new[1], small


def test_hermite_normal_form_is_an_invariant_of_the_lattice():
    """Seed 20: 300 matrices of 1 to 5 columns on 1 to 5 rows, entries -3..3.
    The Hermite form does not move under ten random unimodular column
    operations (adding a multiple of one column to another, swapping,
    negating), nor with a zero or a repeated column added; it is its own
    form; and when the columns are independent, doubling one (a lattice of
    index 2) changes it.  Its pivots stand at descending rows, positive, with
    zeros above them, and reduce the entries of the earlier columns there."""
    rng = random.Random(20)
    doubled = 0
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = sorted(rng.sample(range(9), nrows))
        cols = [{r: v for r in rows if (v := rng.randint(-3, 3))} for _ in range(ncols)]
        form = hermite_normal_form(cols, rows)
        leads = [next(i for i, v in enumerate(p) if v) for p in form]  # from the largest row
        assert leads == sorted(set(leads))
        for t, (piv, lead) in enumerate(zip(form, leads)):
            assert piv[lead] > 0 and all(0 <= p[lead] < piv[lead] for p in form[:t])
        moved = [dict(col) for col in cols]
        for _ in range(10):
            i, j = rng.randrange(ncols), rng.randrange(ncols)
            op, f = rng.randrange(3), rng.choice((-2, -1, 1, 2))
            if op == 0 and i != j:
                moved[i] = {r: w for r in rows
                            if (w := moved[i].get(r, 0) + f * moved[j].get(r, 0))}
            elif op == 1:
                moved[i], moved[j] = moved[j], moved[i]
            else:
                moved[i] = {r: -v for r, v in moved[i].items()}
        assert hermite_normal_form(moved + [{}, dict(moved[0])], rows) == form
        assert hermite_normal_form([dict(zip(sorted(rows, reverse=True), p)) for p in form],
                                   rows) == form
        if rational_rank(_dense_rows(cols, 9), ncols) == ncols:
            doubled += 1
            twice = [dict(col) for col in cols]
            twice[0] = {r: 2 * v for r, v in twice[0].items()}
            assert hermite_normal_form(twice, rows) != form
    assert doubled > 100


def test_reduced_pivots_agree_with_heap_order_on_random_sparse():
    """Seed 33: 400 matrices with up to 24 nonzero rows and columns, entries
    mostly +-1 among 0 (stored), +-2 and 3, a random set of dropped rows,
    and a shape 0, 1 or 3 larger than the nonzero part each way."""
    rng = random.Random(33)
    values = (1, -1, 1, -1, 0, 2, -2, 3)
    stops = residues = smith = 0
    for _ in range(400):
        m, n = rng.randint(1, 24), rng.randint(1, 24)
        density = rng.uniform(0.05, 0.4)
        cols = {}
        for c in range(n):
            col = {r: rng.choice(values) for r in range(m) if rng.random() < density}
            if col:
                cols[c] = col
        nrows, ncols = m + rng.choice((0, 0, 1, 3)), n + rng.choice((0, 0, 1, 3))
        drop = rng.sample(range(nrows), rng.randint(0, nrows // 3))
        pivots, residue, small = _same_elimination(ColumnMatrix(cols.items), nrows, ncols, drop)
        stops += len(pivots) == min(nrows - len(drop), ncols)
        residues += bool(residue)
        smith += small
    assert stops > 40 and residues > 200 and smith == 223


def test_reduced_pivots_agree_with_heap_order_on_cleared_complexes(monkeypatch):
    """Every d_k of the universal-coefficient spaces and of the nerve of
    (1 | I) at truncation 3, with the rows cleared in the degree below.  On
    the nerve, every column of d_2 and d_3 that is read meets no tail and
    becomes a pivot, the common case of the elimination loop: the pivots are
    the columns read, and none of them is reduced (`zlinalg._reduce`)."""
    reduce, reduced = zlinalg._reduce, []
    monkeypatch.setattr(zlinalg, "_reduce", lambda *args: reduced.append(args) or reduce(*args))
    nerve_under_1 = nerve(comma_under(1, 3), 3).sset
    for X in (*_uct_spaces().values(), nerve_under_1):
        cx = chain_complex(X, top=min(3, X.top_dim))
        cleared = ()
        for k in range(1, len(cx.counts)):
            reduced.clear()
            cleared, residue, _ = _same_elimination(cx.boundaries[k], cx.counts[k - 1],
                                                    cx.counts[k], cleared)
            if X is nerve_under_1 and k > 1:
                read = [c for c, _ in islice(cx.boundaries[k].source(), len(cleared))]
                assert cleared == read and reduced == [] and residue == []


def _dense_rows(cols, nrows, drop_rows=()):
    """The rows of a list of columns {row: value}, dropped rows left out."""
    return [[col.get(r, 0) for col in cols] for r in range(nrows) if r not in drop_rows]


def test_set_aside_columns_agree_with_heap_order_up_to_the_lattice():
    """Seed 44: 200 matrices of 2 to 10 columns on four rows, with entries
    +-2 and 3 and no +-1, so that every column is set aside and none is a
    pivot.  Each column copies one of a pool of one to three columns, or is
    a fresh column whose leading (largest) row is that of a pool column; a
    random row is dropped from a third of them, and most have torsion.
    Both eliminations give the same rank and pivot columns, and residues
    with the same Smith diagonal (`oracles.invariant_factors`); with the
    unit pivots, that is the diagonal of the whole matrix.  This holds for
    any residue that spans the same lattice, such as one that merges the
    set-aside columns sharing a leading row; `_same_elimination` checks the
    lattice itself, by Hermite form."""
    rng = random.Random(44)
    values, nrows = (2, -2, 3), 4

    def column(lead):
        col = {r: rng.choice(values) for r in range(lead) if rng.random() < 0.5}
        col[lead] = rng.choice(values)
        return col

    repeats = shared = torsion = 0
    for _ in range(200):
        pool = [column(rng.randrange(nrows)) for _ in range(rng.randint(1, 3))]
        cols = [dict(rng.choice(pool)) if rng.random() < 0.5 else column(max(rng.choice(pool)))
                for _ in range(rng.randint(2, 10))]
        repeats += len(cols) - len({tuple(sorted(col.items())) for col in cols})
        shared += len(cols) - len({max(col) for col in cols})
        drop = rng.sample(range(nrows), 1) if rng.random() < 1 / 3 else []
        mat = ColumnMatrix(dict(enumerate(cols)).items)
        got, want = [], []
        rank, residue = _unit_pivot_eliminate(mat, nrows, len(cols), drop, got)
        ref_rank, ref_residue = heap_eliminate(mat, nrows, len(cols), drop, want)
        assert rank == ref_rank and got == want
        diag = invariant_factors(_dense_rows(ref_residue, nrows), len(ref_residue))
        assert invariant_factors(_dense_rows(residue, nrows), len(residue)) == diag
        assert [1] * rank + diag == invariant_factors(_dense_rows(cols, nrows, drop), len(cols))
        assert smith_diagonal(mat, nrows, len(cols), drop) == [1] * rank + diag
        torsion += any(d > 1 for d in diag)
    assert repeats > 300 and shared > 600 and torsion > 100


def test_snf_holds_one_set_aside_column_per_leading_row(monkeypatch):
    """Memory guard: SNF holds at most one set-aside column per leading row.
    With no +-1 entry there is no pivot, so the residue is every column held:
    300 copies each of three columns on four rows leave at most four.  On
    the classifying space of c1(3), the elimination that sets aside the most
    columns (376 once kept, all on one row) hands the dense pass one column
    per row that its residue meets, and the groups are Z, Z, Z/2."""
    pool = [{0: 2, 3: 4}, {1: 3, 3: 6}, {2: -2, 3: 2}]
    mat = ColumnMatrix(lambda: ((c, dict(pool[c % 3])) for c in range(900)))  # fresh columns
    rank, residue = _unit_pivot_eliminate(mat, 4, 900)
    assert rank == 0 and 0 < len(residue) <= 4
    assert invariant_factors(_dense_rows(residue, 4), len(residue)) == invariant_factors(
        _dense_rows(pool, 4), 3)
    dense, residues = zlinalg._dense_smith, []
    monkeypatch.setattr(zlinalg, "_dense_smith", lambda cols: residues.append(cols) or dense(cols))
    report, _ = classifying_space_homology(c1(3), 2)
    assert report.groups == {0: (1, ()), 1: (1, ()), 2: (0, (2,))}
    assert any(residues) and all(len(cols) <= len({r for col in cols for r in col})
                                 for cols in residues)


# ---------------------------------------------------------------------------
# One pass over a column that meets a pivot.
# ---------------------------------------------------------------------------

class _CountedColumn(dict):
    """A column that counts how often its entries are read: `items` and every
    lookup by row.  Its keys may be read freely, as the test for a tail met is."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def items(self):
        self.reads += 1
        return super().items()

    def __getitem__(self, r):
        self.reads += 1
        return super().__getitem__(r)

    def get(self, r, default=None):
        self.reads += 1
        return super().get(r, default)


def test_reduce_clears_a_column_in_one_pass(monkeypatch):
    """`_reduce` against its two-step definition: filter the column off the
    pivot rows, then subtract each tail it meets, dropping zeros.  The seeded
    columns store zeros, have entries at dropped rows (pivots with no tail),
    and meet tails that cancel an entry to zero.  In the elimination, every
    column, and so every one that meets a tail, is read exactly once."""
    def two_step(entries, pivot_rows, tails):
        col = {r: v for r, v in entries.items() if r not in pivot_rows}
        for r in entries.keys() & tails.keys():
            for s, v in tails[r].items():
                col[s] = col.get(s, 0) - entries[r] * v
        return {s: v for s, v in col.items() if v}

    rng = random.Random(4812)
    cancelled = stored = dropped = 0
    for _ in range(400):
        rows = list(range(rng.randint(4, 14)))
        pivot_rows = set(rng.sample(rows, rng.randint(1, len(rows) - 1)))
        free = [r for r in rows if r not in pivot_rows]
        tails = {r: {s: rng.choice([-2, -1, 0, 1, 3]) for s in rng.sample(free, rng.randint(
            1, min(3, len(free))))} for r in pivot_rows if rng.random() < 0.7}
        entries = {r: rng.choice([-3, -1, 0, 1, 2]) for r in rng.sample(rows, rng.randint(
            1, len(rows)))}
        for r in entries.keys() & tails.keys():  # an entry that the tails met cancel
            s = rng.choice(list(tails[r]))
            rest = {q: f for q, f in entries.items() if q != s}
            if rng.random() < 0.5 and (v := -two_step(rest, pivot_rows, tails).get(s, 0)):
                entries[s] = v
        got = zlinalg._reduce(entries, pivot_rows, tails)
        assert got == two_step(entries, pivot_rows, tails)
        cancelled += any(s in entries and s not in got for r in entries.keys() & tails.keys()
                         for s in tails[r])
        stored += 0 in entries.values()
        dropped += any(r in pivot_rows and r not in tails for r in entries)
    assert cancelled > 50 and stored > 100 and dropped > 100

    reduced, real = [], zlinalg._reduce
    monkeypatch.setattr(zlinalg, "_reduce", lambda entries, pivot_rows, tails: (
        reduced.append(entries), real(entries, pivot_rows, tails))[1])
    for seed in range(20):
        rng = random.Random(4800 + seed)
        nrows, ncols = 12, 40
        cols = [_CountedColumn({r: rng.choice([1, -1, 1, 2, -3]) for r in rng.sample(
            range(nrows), rng.randint(2, 4))}) for _ in range(ncols)]
        drop = rng.sample(range(nrows), 2)
        want = _unit_pivot_eliminate(ColumnMatrix(lambda: (
            (c, dict(col)) for c, col in enumerate(cols))), nrows + 2, ncols, drop)
        reduced.clear()
        got = _unit_pivot_eliminate(ColumnMatrix(lambda: enumerate(cols)), nrows + 2, ncols, drop)
        assert got[0] == want[0] and reduced
        met = [col for col in cols if any(col is r for r in reduced)]
        assert met and all(col.reads == 1 for col in met)
        assert all(col.reads <= 1 for col in cols)
