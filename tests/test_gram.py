import json
from fractions import Fraction
from functools import lru_cache

import pytest

from tonalg import diagram as dg
from tonalg import exactla
from tonalg import gamma
from tonalg import gram as gr
from tonalg import verify
from tonalg.cli import main
from tonalg.deltapoly import DeltaPoly
from tonalg.exactla import bareiss_det, fraction_rank
from tonalg.standard_modules import all_labels, generator_diagrams, standard_module, transversal

from oracles import ordered_pair_gram, poly_mat, poly_mat_eq, poly_mat_mul, poly_mat_transpose


def _divexact(num, den):
    """Exact division in Z[delta]; raises ArithmeticError on a remainder."""
    rem = dict(num.c)
    q = {}
    dB = max(den.c)
    lB = den.c[dB]
    while rem:
        dR = max(rem)
        if dR < dB or rem[dR] % lB:
            raise ArithmeticError("inexact polynomial division")
        f = rem[dR] // lB
        q[dR - dB] = f
        for k, v in den.c.items():
            kk = k + dR - dB
            w = rem.get(kk, 0) - f * v
            if w:
                rem[kk] = w
            else:
                rem.pop(kk, None)
    return DeltaPoly(q)


def poly_bareiss_oracle(M):
    """(rank, det) by fraction-free elimination over Z[delta] itself."""
    A = [row[:] for row in poly_mat(M)]
    if not A:
        return 0, DeltaPoly.const(1)
    rows, cols = len(A), len(A[0])
    sign = 1
    prev = DeltaPoly.const(1)
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if A[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(col + 1, cols):
                A[i][j] = _divexact(A[r][col] * A[i][j] - A[i][col] * A[r][j], prev)
            A[i][col] = DeltaPoly.zero()
        prev = A[r][col]
        r += 1
        if r == rows:
            break
    det = prev if r == rows == cols else DeltaPoly.zero()
    return r, -det if sign < 0 else det


def fraction_rank_oracle(M):
    """Rank by Gaussian elimination over Fractions."""
    A = [[Fraction(x) for x in row] for row in M]
    if not A:
        return 0
    rows, cols = len(A), len(A[0])
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if A[i][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pr = A[r]
        for i in range(r + 1, rows):
            if A[i][col]:
                f = A[i][col] / pr[col]
                A[i] = [a - f * b for a, b in zip(A[i], pr)]
        r += 1
        if r == rows:
            break
    return r


@lru_cache(maxsize=None)
def _grams(l, n):
    return tuple(gr.gram_matrix(mu, l, n) for mu in all_labels(l, n))


def test_worked_four_by_four():
    # hand-computed sandwich products for the four transversal elements
    g = gr.gram_matrix(((1,), ()), 2, 3)
    assert g.dim == 4
    d = DeltaPoly.delta(1)
    one = DeltaPoly.const(1)
    G = g.dense()
    diag = [G[i][i] for i in range(4)]
    assert sorted(str(x) for x in diag) == ["1", "d", "d", "d"]
    for i in range(4):
        for j in range(4):
            if i != j:
                assert G[i][j] == one
    assert bareiss_det(G) == (4, (d - 1) * (d - 1) * (d - 1))


def test_symmetry():
    for l, n, mu in [(2, 3, ((1,), ())), (2, 4, ((2,), ())), (2, 4, ((), (1,))),
                     (3, 3, ((1,), (1,), ())), (1, 3, ((1,),))]:
        G = gr.gram_matrix(mu, l, n).dense()
        assert G == [list(col) for col in zip(*G)]


def test_one_dimensional_top_module():
    g = gr.gram_matrix(((3,), ()), 2, 3)
    assert g.dim == 1
    assert g.dense()[0][0] == DeltaPoly.const(1)


def test_top_layer_blocks_are_diagonal():
    # fully propagating vector: no delta anywhere, off-diagonal profile
    # blocks vanish
    g = gr.gram_matrix(((1,), (1,)), 2, 3)
    assert g.dim == 3
    G = g.dense()
    for i in range(3):
        for j in range(3):
            if i == j:
                assert G[i][j] == DeltaPoly.const(1)
            else:
                assert not G[i][j]


def test_diagonal_degree_dominates_row():
    g = gr.gram_matrix(((1,), ()), 2, 3)
    G = g.dense()
    strict = 0
    for i in range(g.dim):
        # degrees in delta, -1 for the zero polynomial
        dd = max(G[i][i].c, default=-1)
        row_max = max(max(G[i][j].c, default=-1) for j in range(g.dim) if j != i)
        assert dd >= row_max
        if dd > row_max:
            strict += 1
    assert strict >= 1


def test_det_nonzero_small_range():
    for l, n in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (1, 3)]:
        assert all(gr.generic_full_rank(m, l, n) for m in gamma.gamma_set(l, n)), (l, n)
        for g in _grams(l, n):
            assert g.rank_at(gr.GENERIC_POINT) == g.dim, (l, n, g.mu)


@pytest.mark.parametrize("l,n", [(1, 3), (1, 4), (2, 4), (3, 5), (2, 5)])
def test_degree_dominance_predicts_the_determinant(l, n):
    # the proof in generic_full_rank gives deg det G = r * sum k_i and the
    # leading coefficient det(F)^|T(m)|, read off gram_table's diagonal
    for g in _grams(l, n):
        mvec, rep = g.module.mvec, g.module.rep
        assert gr.generic_full_rank(mvec, l, n), (l, n, g.mu)
        K = sum(k for i, j, k, _ in gr.gram_table(mvec, l, n) if i == j)
        det_f = bareiss_det(poly_mat(rep.form))[1].evaluate(0)
        det = bareiss_det(g.dense())[1]
        assert max(det.c) == rep.dim * K, (l, n, g.mu)
        assert det.c[rep.dim * K] == det_f ** len(g.rows), (l, n, g.mu)


def test_generic_rank_full():
    for l, n in [(2, 3), (2, 4), (3, 4)]:
        for mu in all_labels(l, n):
            g = gr.gram_matrix(mu, l, n)
            rank, det = bareiss_det(g.dense())
            assert rank == g.dim and det


def test_elimination_matches_sympy_at_points():
    # oracle: sympy's rank and det of the Gram matrix at integer points;
    # delta = 1 is a root of some of these determinants, 13 and 101 are not
    sympy = pytest.importorskip("sympy")
    for l, n in [(2, 3), (2, 4), (3, 4), (1, 3)]:
        for mu in all_labels(l, n):
            g = gr.gram_matrix(mu, l, n)
            rank, det = bareiss_det(g.dense())
            ranks = []
            for x in (1, 13, 101):
                S = sympy.Matrix(g.evaluate(x))
                assert S.det() == det.evaluate(x), (l, n, mu, x)
                ranks.append(S.rank())
            assert max(ranks) == rank, (l, n, mu, ranks)


def test_bareiss_det_matches_polynomial_oracle():
    grams = [g for l, n in [(2, 4), (3, 5), (2, 5)] for g in _grams(l, n)]
    for g in grams + [gr.gram_matrix(((1,),), 1, 4)]:
        G = g.dense()
        assert bareiss_det(G) == poly_bareiss_oracle(G), (g.l, g.n, g.mu)


def test_fraction_rank_matches_fraction_oracle():
    for l, n in [(2, 5), (3, 5)]:
        for g in _grams(l, n):
            for x in (1, 2, Fraction(1, 2), Fraction(-3, 2), gr.GENERIC_POINT):
                E = g.evaluate(x)
                assert fraction_rank(E) == fraction_rank_oracle(E), (l, n, g.mu, x)


def test_too_narrow_packing_breaks_the_oracle_comparison(monkeypatch):
    # negative control: B = 2**4 cannot hold the determinants' coefficients
    monkeypatch.setattr(exactla, "_packing_width", lambda P: 4)
    assert any(bareiss_det(g.dense()) != poly_bareiss_oracle(g.dense()) for g in _grams(2, 4))


def test_negative_exponent_is_refused():
    with pytest.raises(ValueError):
        bareiss_det([[DeltaPoly.delta(-1)]])


def test_elimination_of_singular_and_nonsquare_matrices():
    d = DeltaPoly.delta(1)
    rank, det = bareiss_det(poly_mat([[d, 1, 0], [d, 1, 0], [0, d, 1]]))
    assert rank == 2 and not det
    rank, det = bareiss_det(poly_mat([[0, 1, d], [1, 0, 0]]))
    assert rank == 2 and not det
    assert bareiss_det(poly_mat([[d, 0], [0, 0], [1, d]])) == (2, DeltaPoly.zero())
    assert bareiss_det(poly_mat([[0] * 3] * 3)) == (0, DeltaPoly.zero())
    assert bareiss_det([]) == (0, DeltaPoly.const(1))
    assert fraction_rank([]) == 0
    # one row swap flips the sign
    assert bareiss_det(poly_mat([[0, 1], [d, 0]])) == (2, -d)
    # large coefficients of both signs unpack as balanced digits
    big = poly_mat([[d - 2 ** 61, 1], [1, d + 2 ** 61]])
    assert bareiss_det(big) == (2, d * d - (2 ** 122 + 1)) == poly_bareiss_oracle(big)


def test_degree_dominance_builds_no_matrix_and_takes_no_rank(monkeypatch):
    def refuse(*args):
        raise AssertionError("degree dominance reads only gram_table")

    monkeypatch.setattr(gr.GramMatrix, "__init__", refuse)
    for mod in (exactla, gr):
        monkeypatch.setattr(mod, "fraction_rank", refuse)
        monkeypatch.setattr(mod, "bareiss_det", refuse)
    gr.gram_matrix.cache_clear()
    results = verify.run_verify(2, 4, ["gram-nondegenerate", "gram-generic-rank"])
    assert [(r.ok, r.error) for r in results[-2:]] == [(True, None)] * 2


def test_modular_instance_ranks():
    assert gr.gram_matrix(((1,), ()), 2, 3).rank_at(1) == 1
    assert gr.gram_matrix(((1,), (1,)), 2, 3).rank_at(1) == 3
    # dimension accounting 4 = 1 + 3
    assert gr.gram_matrix(((1,), ()), 2, 3).dim == 1 + 3


def test_rank_at_rational_point():
    assert gr.gram_matrix(((1,), ()), 2, 3).rank_at(Fraction(17, 3)) == 4


def test_semisimplicity_verdicts():
    assert gr.is_semisimple_at(2, 2, Fraction(17, 3))
    assert gr.is_semisimple_at(2, 3, 10 ** 6 + 3)
    assert not gr.is_semisimple_at(2, 3, 1)


def test_top_layer_check():
    assert gr.top_layer_check(2, 4)
    assert gr.top_layer_check(3, 3)


@pytest.mark.parametrize("change", [
    lambda t: t + ((0, 1) + t[0][2:],),
    lambda t: t[1:],
    lambda t: ((t[0][0], t[0][1], t[0][2] + 1, t[0][3]),) + t[1:],
], ids=["off-diagonal", "dropped-diagonal", "second-exponent"])
def test_patched_gram_table_fails_top_layer(monkeypatch, change):
    # negative control: the gram_table of one top-layer vector is no longer
    # the diagonal with one exponent; the other vectors read the real table
    l, n = 2, 4
    assert gr.top_layer_check(l, n)
    real = gr.gram_table
    mvec = next(m for m in gamma.h_subset(l, n) if len(transversal(m, l, n)) > 1)
    table = change(real(mvec, l, n))
    monkeypatch.setattr(gr, "gram_table", lambda m, *a: table if m == mvec else real(m, *a))
    assert not gr.top_layer_check(l, n)


def test_contravariance_on_small_labels():
    for l, n, mu in [(2, 3, ((1,), ())), (2, 3, ((1,), (1,))), (2, 4, ((2,), ())),
                     (3, 3, ((1,), (1,), ()))]:
        assert gr.contravariance_check(mu, l, n)


def test_contravariance_with_a_generator_not_its_own_flip(monkeypatch):
    # every named generator is its own flip, so the check reuses one product
    # per generator; a word that is not its own flip takes the second
    # product, and contravariance holds for it as for any element
    for l in (1, 2, 3):
        for n in range(6):
            assert all(dg.flip(d) == d for d in generator_diagrams(l, n).values()), (l, n)
    l, n = 2, 4
    gens = generator_diagrams(l, n)
    word = dg.compose(gens["s2"], gens["W"])[1]
    assert dg.flip(word) != word
    monkeypatch.setattr(gr, "generator_diagrams", lambda l, n: {**gens, "s2W": word})
    assert all(gr.contravariance_check(mu, l, n) for mu in all_labels(l, n))


def test_contravariance_with_noninvolutive_matchings():
    # three slots in one class: the sandwich matching can have order 3, which
    # pins the orientation of the permutation acting on the tableau factor
    assert gr.contravariance_check(((2, 1),), 1, 4)
    assert gr.contravariance_check(((2, 1), (1,)), 2, 5)
    # explicit generator instances
    mod = standard_module(((1,), ()), 2, 3)
    G = gr.gram_matrix(((1,), ()), 2, 3).dense()
    for d in [dg.identity(3), dg.transposition(1, 3), dg.W(2, 3), dg.A(1, 2, 3)]:
        Mt = poly_mat_transpose(mod.dense_action(d))
        Mop = mod.dense_action(dg.flip(d))
        assert poly_mat_eq(poly_mat_mul(Mt, G), poly_mat_mul(G, Mop))


def test_socle_evidence_at_delta_one():
    # the two-sided orbit of the rank-(1,1) element acts with trivial common
    # kernel on the 4-dimensional module at delta = 1
    import itertools

    mod = standard_module(((1,), ()), 2, 3)
    a11 = dg.a_m((1, 1), 2, 3)
    stacked = []
    for p in itertools.permutations(range(3)):
        w = dg.perm_diagram(p, 3)
        wi = dg.perm_diagram(tuple(p.index(i) for i in range(3)), 3)
        _, c1 = dg.compose(w, a11)
        _, conj = dg.compose(c1, wi)
        M = mod.dense_action(conj)
        stacked.extend([e.evaluate(1) for e in row] for row in M)
    assert fraction_rank(stacked) == mod.dim


def test_sum_rank_squares_bounded_by_dim():
    from tonalg.algebra import enumerate_basis

    for l, n, point in [(2, 3, 1), (2, 3, 10 ** 6 + 3)]:
        total = sum(gr.gram_matrix(mu, l, n).rank_at(point) ** 2 for mu in all_labels(l, n))
        dim = len(enumerate_basis(l, n, n))
        if gr.is_semisimple_at(l, n, point):
            assert total == dim
        else:
            assert total < dim


def test_gram_report():
    rep = gr.gram_report(((1,), ()), 2, 3, point=Fraction(1), want_det=True)
    assert rep["dim"] == 4
    assert rep["rank_at"] == 1
    assert rep["generic_rank"] == 4
    assert rep["det_str"] == "d^3 - 3*d^2 + 3*d - 1"


def _label_text(mu):
    return "|".join(",".join(map(str, lam)) or "-" for lam in mu)


@pytest.mark.parametrize("l,n", [(1, 3), (2, 4), (3, 5)])
def test_gram_cli_without_det_matches_elimination_rank(capsys, l, n):
    # without --det the generic rank comes from degree dominance; the output
    # must still be the --det output less the det keys, with the rank of the
    # elimination over Z[delta]
    for mu in all_labels(l, n):
        argv = ["gram", "--l", str(l), "--n", str(n), "--mu=" + _label_text(mu)]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--det"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert full["generic_rank"] == bareiss_det(gr.gram_matrix(mu, l, n).dense())[0]
        del full["det"], full["det_str"]
        assert plain == json.dumps(full, sort_keys=True, separators=(",", ":")) + "\n", mu


def test_gram_cli_without_det_runs_no_elimination(capsys, monkeypatch):
    def no_elimination(entries):
        raise AssertionError("the generic rank needs no elimination and no rank")

    for mod in (exactla, gr):
        monkeypatch.setattr(mod, "bareiss_det", no_elimination)
        monkeypatch.setattr(mod, "fraction_rank", no_elimination)
    assert main(["gram", "--l", "2", "--n", "4", "--mu=2|1"]) == 0
    assert json.loads(capsys.readouterr().out)["generic_rank"] > 0


@pytest.mark.parametrize("l,n", [(1, 3), (2, 4), (3, 5), (2, 5)])
def test_gram_build_matches_ordered_pairs(l, n):
    for mu in all_labels(l, n):
        g = gr.gram_matrix(mu, l, n)
        entries, exps = ordered_pair_gram(g.mu, l, n)
        assert g.dense() == entries, mu
        assert {(i, j): k for i, j, k, _ in g.blocks()} == exps, mu
