"""Smith normal form, its dense residue pass, and clearing across degrees."""

import random
import time
from functools import lru_cache

import pytest

from ispaces import simplicial
from ispaces.simplicial import (
    SMap,
    chain_complex,
    homology,
    map_cone_homology,
    nerve,
    point,
    simplicial_circle,
)
from ispaces.zlinalg import ColumnMatrix, rank_and_torsion, smith_diagonal

from oracles import (chain_boundary_reference, columns, cyclic_group_category, entries,
                     group_homology, homology_mod_p, invariant_factors, product_sset)
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

    from ispaces.zlinalg import bareiss_rank, rank_and_torsion

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
    assert cx.validate() == []
    one = ColumnMatrix({0: {0: 1}}.items)
    bad = simplicial.ChainComplex([1, 1, 1], [ColumnMatrix({}.items), one, one])
    assert bad.validate() == ["boundary squared nonzero in degree 2"]


# ---------------------------------------------------------------------------
# Universal coefficients: integral homology against elimination mod p.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _uct_spaces():
    from ispaces.cmon import bar_of_hocolim, c1, sec52_monoid
    from ispaces.gamma import gamma_of_monoid
    from ispaces.ispace import hocolim_I

    gamma = gamma_of_monoid(c1(3), 3, 3)
    return {
        "hocolim-c1": hocolim_I(c1(3).space, 3).sset,
        "hocolim-m52": hocolim_I(sec52_monoid(3).space, 3).sset,
        "bar-c1": bar_of_hocolim(c1(3), 3).sset,
        **{f"gamma-c1-{k}": gamma.values[k] for k in (1, 2, 3)},
        "BZ3": nerve(cyclic_group_category(3).coded(), 3).sset,
    }


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["hocolim-c1", "hocolim-m52", "bar-c1", "gamma-c1-1",
                                  "gamma-c1-2", "gamma-c1-3", "BZ3"])
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
