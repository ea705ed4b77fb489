import random
from math import factorial

import pytest

from tonalg import symmetric as sym
from tonalg.exactla import int_mat_mul, identity_matrix, fraction_rank


def _adjacent_matrices(rep):
    """Matrices of the adjacent transpositions s_1, ..., s_{k-1}."""
    out = []
    for i in range(rep.k - 1):
        p = list(range(rep.k))
        p[i], p[i + 1] = i + 1, i
        out.append(rep.matrix(tuple(p)))
    return out


def test_partitions_of():
    assert sym.partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert sym.partitions_of(0) == ((),)
    assert len(sym.partitions_of(6)) == 11


def test_multipartitions():
    assert set(sym.multipartitions_of((2, 0))) == {((2,), ()), ((1, 1), ())}
    assert len(sym.multipartitions_of((1, 1))) == 1
    assert len(sym.multipartitions_of((2, 1))) == 2


def test_tableau_sequences():
    assert ["".join(map(str, s)) for s in sym.standard_tableaux((3, 1))] == [
        "1112",
        "1121",
        "1211",
    ]
    assert sym.standard_tableaux((1, 1, 1)) == [(1, 2, 3)]


@pytest.mark.parametrize("k", range(0, 8))
def test_standard_tableaux_by_definition(k):
    for lam in sym.partitions_of(k):
        tabs = sym.standard_tableaux(lam)
        assert all(a < b for a, b in zip(tabs, tabs[1:])), lam
        assert len(tabs) == sym.hook_dim(lam), lam
        for seq in tabs:
            # the filling: entries of each row, left to right
            filling = [[] for _ in lam]
            for entry, row in enumerate(seq, start=1):
                filling[row - 1].append(entry)
            assert [len(r) for r in filling] == list(lam), (lam, seq)
            for upper, lower in zip(filling, filling[1:]):
                assert all(upper[j] < lower[j] for j in range(len(lower))), (lam, seq)


def test_specht_dims():
    assert sym.hook_dim((2, 1)) == 2
    for n in range(1, 7):
        assert sym.hook_dim((n,)) == 1
        assert sym.hook_dim(tuple([1] * n)) == 1
        # one-row shape carries the trivial action
        assert all(M == [[1]] for M in _adjacent_matrices(sym.specht_rep((n,))))
    for k in range(0, 7):
        for lam in sym.partitions_of(k):
            assert sym.specht_rep(lam).dim == sym.hook_dim(lam)


def test_dim_squares_sum_to_factorial():
    for k in range(0, 7):
        assert sum(sym.hook_dim(lam) ** 2 for lam in sym.partitions_of(k)) == factorial(k)


@pytest.mark.parametrize("k", range(2, 7))
def test_generator_relations(k):
    for lam in sym.partitions_of(k):
        rep = sym.specht_rep(lam)
        gens = _adjacent_matrices(rep)
        I = identity_matrix(rep.dim)
        for i, M in enumerate(gens):
            assert int_mat_mul(M, M) == I
        for i in range(len(gens) - 1):
            ab = int_mat_mul(gens[i], gens[i + 1])
            ba = int_mat_mul(gens[i + 1], gens[i])
            assert int_mat_mul(ab, gens[i]) == int_mat_mul(ba, gens[i + 1])
        for i in range(len(gens)):
            for j in range(i + 2, len(gens)):
                assert int_mat_mul(gens[i], gens[j]) == int_mat_mul(gens[j], gens[i])


@pytest.mark.parametrize("k", range(0, 7))
def test_polytabloids_unitriangular_on_standard_tabloids(k):
    # row {t_i}, column e_{t_j}, standard tableaux in basis order: 1 on the
    # diagonal and 0 above it, which the integer solve in matrix relies on
    for lam in sym.partitions_of(k):
        rep = sym.specht_rep(lam)
        for i, t in enumerate(rep.basis):
            row = rep._E[rep._tab_index[t]]
            assert row[i] == 1 and not any(row[i + 1:]), (lam, t)


@pytest.mark.parametrize("k", range(2, 7))
def test_form_contravariance(k):
    for lam in sym.partitions_of(k):
        rep = sym.specht_rep(lam)
        d = rep.dim
        assert rep.form == [[rep.form[j][i] for j in range(d)] for i in range(d)]
        for M in _adjacent_matrices(rep):
            Mt = [[M[b][a] for b in range(d)] for a in range(d)]
            assert int_mat_mul(int_mat_mul(Mt, rep.form), M) == rep.form


def test_form_nondegenerate_over_q():
    # includes the 2x2 worked determinant for shape (2,1)
    rep = sym.specht_rep((2, 1))
    a, b, c, d = rep.form[0][0], rep.form[0][1], rep.form[1][0], rep.form[1][1]
    assert a * d - b * c != 0
    # generic_full_rank's proof rests on det F != 0; k <= 7 covers the
    # Specht factors of the (3,7), (2,7) and (1,6) batteries
    for k in range(1, 8):
        for lam in sym.partitions_of(k):
            r = sym.specht_rep(lam)
            assert fraction_rank(r.form) == r.dim


def test_matrix_of_arbitrary_permutation():
    rng = random.Random(11)
    rep = sym.specht_rep((2, 2, 1))
    for _ in range(25):
        p = tuple(rng.sample(range(5), 5))
        q = tuple(rng.sample(range(5), 5))
        # p o q, composed as functions
        assert int_mat_mul(rep.matrix(p), rep.matrix(q)) == rep.matrix(tuple(p[i] for i in q))
    assert rep.matrix(tuple(range(5))) == identity_matrix(rep.dim)


@pytest.mark.parametrize(
    "lam, perm",
    [((2, 1), (1, 2, 0)), ((3, 2), (4, 0, 1, 2, 3))],
)
def test_matrix_exactness_check_can_fail(lam, perm):
    rep = sym.SpechtRep(lam)
    rep.matrix(perm)
    # the substitution reads only the pivot rows, so only the check sees
    # a wrong entry elsewhere
    pivots = set(rep._pivot_rows)
    r = next(r for r in range(len(rep._E)) if r not in pivots)
    rep._E[r][0] += 1
    with pytest.raises(ArithmeticError):
        rep.matrix(perm)


def test_outer_rep():
    assert sym.outer_rep(((2,), ())).dim == 1
    r = sym.outer_rep(((2, 1), (1,)))
    assert r.dim == 2
    one = sym.outer_rep(((3,), (2,)))
    assert one.dim == 1 and one.form[0][0] > 0


def test_outer_rep_matrix_kron():
    r = sym.outer_rep(((2, 1), (2,)))
    s = ((1, 0, 2), (0, 1))
    M = r.matrix(s)
    assert len(M) == r.dim == 2
    f = sym.specht_rep((2, 1))
    assert M == f.matrix((1, 0, 2))


def test_boxes():
    assert sym.rem_boxes(((2,), ()), 1) == [((1,), ())]
    assert sym.add_boxes(((1,), ()), 1) == [((2,), ()), ((1, 1), ())]
    assert sym.rem_boxes(((), (1,)), 1) == []
    with pytest.raises(IndexError):
        sym.rem_boxes(((1,),), 2)


def test_sym_restriction():
    # the branching rule of S_k, as removing one box from a one-component label
    assert set(sym.rem_boxes(((3, 1),), 1)) == {((2, 1),), ((3,),)}
    assert sym.rem_boxes(((4,),), 1) == [((3,),)]
    for k in range(1, 7):
        for lam in sym.partitions_of(k):
            assert sym.hook_dim(lam) == sum(
                sym.hook_dim(m) for (m,) in sym.rem_boxes((lam,), 1)
            )
