"""Action tables and Gram blocks against dense Z[delta] matrices built entry
by entry, and faults that the block readers must reject."""

import json

import pytest

from tonalg import branching as br
from tonalg import diagram as dg
from tonalg import gamma
from tonalg import gram as gr
from tonalg import standard_modules as sm
from tonalg import symmetric
from tonalg import verify
from tonalg.cli import main
from tonalg.exactla import block_matrix, int_mat_mul, poly_json

from oracles import dense_action, ordered_pair_gram, poly_mat_mul, poly_mat_transpose

CASES = [(1, 3), (2, 4), (3, 4)]


def _label_text(mu):
    return "|".join(",".join(map(str, lam)) or "-" for lam in mu)


def table_of(mod, d):
    return sm.action_table(d, mod.mvec, mod.l, mod.n)


def dense_table(mod, table):
    # each permutation of the table sent to the label's Specht matrix
    return block_matrix(
        ((e[0], j, e[1], mod.rep.matrix(e[2])) for j, e in enumerate(table) if e),
        len(mod.profiles),
        mod.rep.dim,
    )


def dense_blocks(mod, blocks):
    # each entry (k, p) of gram_times sent to delta^k F M(p), F the label's form
    F, matrix = mod.rep.form, mod.rep.matrix
    return block_matrix(
        ((j, c, k, int_mat_mul(F, matrix(p))) for (j, c), (k, p) in blocks.items()),
        len(mod.profiles),
        mod.rep.dim,
    )


def _diagrams(l, n):
    # the generators, which contravariance_check reads
    return list(sm.generator_diagrams(l, n).values())


@pytest.mark.parametrize("l,n", CASES)
def test_squared_maps_match_dense_products(l, n):
    for mu in sm.all_labels(l, n):
        mod = sm.standard_module(mu, l, n)
        for d in sm.generator_diagrams(l, n).values():
            M = dense_action(mod, d)
            T = table_of(mod, d)
            assert dense_table(mod, T) == M, (mu, d)
            assert dense_table(mod, sm.table_product(T, T)) == poly_mat_mul(M, M), (mu, d)


@pytest.mark.parametrize("l,n", [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
def test_table_product_is_the_table_of_the_product(l, n):
    # order-sensitive: table_product(P, Q) sends each block through Q first,
    # and d * e = delta^k de, so the tables of d and e compose to the table
    # of de with k added to every exponent
    gens = list(sm.generator_diagrams(l, n).values())
    for mvec in gamma.gamma_set(l, n):
        for d in gens:
            for e in gens:
                k, de = dg.compose(d, e)
                want = tuple(x and (x[0], x[1] + k, x[2]) for x in sm.action_table(de, mvec, l, n))
                got = sm.table_product(sm.action_table(d, mvec, l, n), sm.action_table(e, mvec, l, n))
                assert got == want, (mvec, d, e)


# (1, 4) adds the vector (3,), whose sandwiches meet matchings of order 3
@pytest.mark.parametrize("l,n", CASES + [(1, 4)])
def test_contravariance_blocks_match_dense_products(l, n):
    diagrams = _diagrams(l, n)
    for mu in sm.all_labels(l, n):
        mod = sm.standard_module(mu, l, n)
        G, _ = ordered_pair_gram(mu, l, n)
        tables = [table_of(mod, d) for d in diagrams]
        for d, GM in zip(diagrams, gr.gram_times(mod.mvec, l, n, tables)):
            M = dense_action(mod, d)
            assert dense_blocks(mod, GM) == poly_mat_mul(G, M), (mu, d)
            # G is symmetric, and the transpose of F M(p) is F M(p^-1), so
            # the mirrored blocks with inverse permutations give M^T G
            MtG = {(c, j): (k, tuple(map(symmetric.perm_inverse, p))) for (j, c), (k, p) in GM.items()}
            assert dense_blocks(mod, MtG) == poly_mat_mul(poly_mat_transpose(M), G), (mu, d)


@pytest.mark.parametrize("l,n", CASES)
def test_dense_output_matches_oracle_matrices(capsys, l, n):
    def as_json(M):
        return [[poly_json(e) for e in row] for row in M]

    for mu in sm.all_labels(l, n):
        mod = sm.standard_module(mu, l, n)
        base = ["--l", str(l), "--n", str(n), "--mu=" + _label_text(mu)]
        assert main(["module", "--matrices"] + base) == 0
        got = json.loads(capsys.readouterr().out)["generators"]
        want = {name: as_json(dense_action(mod, d)) for name, d in sm.generator_diagrams(l, n).items()}
        assert got == want, mu
        assert main(["gram"] + base) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == as_json(ordered_pair_gram(mu, l, n)[0]), mu


SHARED_VECTORS = [((5, 0, 0), 3, 5), ((2, 0, 1), 3, 5), ((2, 1), 2, 4), ((3,), 1, 3)]


@pytest.mark.parametrize("mvec,l,n", SHARED_VECTORS)
def test_labels_of_one_vector_share_products(monkeypatch, mvec, l, n):
    # every label of the vector reads the same per-vector tables, and each
    # label's maps and Gram blocks still match its own dense oracle
    labels = sm.multipartitions_of(mvec)
    assert len(labels) > 1
    diagrams = _diagrams(l, n)
    calls = []
    compose = dg.compose

    def counted(p, q):
        calls.append(p)
        return compose(p, q)

    sm.action_table.cache_clear()
    sm.gram_table.cache_clear()
    gr.gram_matrix.cache_clear()
    monkeypatch.setattr(dg, "compose", counted)
    for mu in labels:
        mod = sm.standard_module(mu, l, n)
        for d in diagrams:
            assert dense_table(mod, table_of(mod, d)) == dense_action(mod, d), (mu, d)
        G, exps = ordered_pair_gram(mu, l, n)
        g = gr.gram_matrix(mu, l, n)
        assert g.dense() == G, mu
        assert {(i, j): k for i, j, k, _ in g.blocks} == exps, mu
    size = len(sm.transversal(mvec, l, n))
    # the oracles compose len(diagrams) * size and size * size per label
    oracle = len(labels) * (len(diagrams) * size + size * size)
    assert len(calls) - oracle == len(diagrams) * size + size * (size + 1) // 2


@pytest.mark.parametrize("perturb", ["exponent", "permutation"])
def test_perturbed_gram_block_breaks_contravariance(monkeypatch, perturb):
    # negative control: the first off-diagonal gram_table entry of the
    # vector (2, 0) at (2, 4), whose matching group is S_2, gains a delta
    # or takes the other matching
    mvec, l, n = (2, 0), 2, 4
    real = gr.gram_table
    table = real(mvec, l, n)
    x = next(x for x, (i, j, _, _) in enumerate(table) if i != j)
    i, j, k, s = table[x]
    if perturb == "exponent":
        k += 1
    else:
        s = next(t for t in sm.matchings(mvec) if t != s)
    table = table[:x] + ((i, j, k, s),) + table[x + 1:]
    assert gr.contravariance_check(mvec, l, n)
    monkeypatch.setattr(gr, "gram_table", lambda *args: table if args == (mvec, l, n) else real(*args))
    assert not gr.contravariance_check(mvec, l, n)


def test_uninverted_tableau_perm_breaks_contravariance(monkeypatch):
    # negative control: matchings act on the tableau factor through
    # themselves, not their inverses; at (1, 4) the vector (3,) meets a
    # matching of order 3, and the generators expose it
    mvec, l, n = (3,), 1, 4
    assert gr.contravariance_check(mvec, l, n)
    monkeypatch.setattr(sm, "_tableau_perm", lambda sigma: tuple(sigma))
    # the per-vector tables are cached per process: build them anew with
    # the patched permutation, and drop them afterwards
    caches = [sm.action_table, sm.gram_table]
    for f in caches:
        f.cache_clear()
    try:
        assert not gr.contravariance_check(mvec, l, n)
    finally:
        for f in caches:
            f.cache_clear()


def test_dropped_map_entry_fails_span_closure(monkeypatch):
    # negative control: an action table that no longer covers its last block
    lam, l, nplus1 = ((2,), ()), 2, 4
    res = br.restriction(lam, l, nplus1)
    assert br._span_closed(res.classes, res.tables, lambda c: c != 0)
    short = [t[:-1] for t in res.tables]
    assert not br._span_closed(res.classes, short, lambda c: c != 0)
    real = br.action_table
    monkeypatch.setattr(br, "action_table", lambda *args: real(*args)[:-1])
    # the restriction is cached per process: build it anew with the short
    # tables, and drop it afterwards
    br.restriction.cache_clear()
    try:
        assert not verify.check_submodule_closure(l, nplus1)
    finally:
        br.restriction.cache_clear()


TABLE_CHECKS = [
    "generator-relations",
    "form-contravariance",
    "module-globalisation",
    "branching-dimensions",
    "submodule-closure",
]


@pytest.mark.parametrize("l,n", [(2, 4), (3, 5)])
def test_table_checks_build_no_specht_matrix(monkeypatch, l, n):
    # these checks compare action tables, so they pass with every Specht
    # matrix out of reach; the matrices cached per OuterRep are emptied
    # first, so none built before the patch is read
    def raised(self, perm):
        raise AssertionError("Specht matrix of %r built" % (perm,))

    monkeypatch.setattr(symmetric.SpechtRep, "matrix", raised)
    symmetric.outer_rep.cache_clear()
    symmetric.OuterRep.matrix.cache_clear()
    for res in verify.run_verify(l, n, TABLE_CHECKS):
        assert (res.ok, res.error) == (True, None), res


def _is_identity(M):
    return all(v == (a == b) for a, row in enumerate(M) for b, v in enumerate(row))


@pytest.mark.parametrize("l,n", [(1, 5), (2, 5), (3, 6)])
def test_labels_act_faithfully_on_the_matching_group(l, n):
    # the converse half of contravariance_check's proof: on some label of
    # the vector, every matching but the identity acts as a non-identity
    for mvec in gamma.gamma_set(l, n):
        labels = sm.multipartitions_of(mvec)
        one = tuple(tuple(range(x)) for x in mvec)
        for s in sm.matchings(mvec):
            if s != one:
                assert not all(_is_identity(symmetric.outer_rep(mu).matrix(s)) for mu in labels), (mvec, s)


def test_specht_matrices_are_built_once_per_matching(monkeypatch):
    calls = []
    real = symmetric.SpechtRep.matrix

    def counted(self, perm):
        calls.append(perm)
        return real(self, perm)

    monkeypatch.setattr(symmetric.SpechtRep, "matrix", counted)
    rep = symmetric.OuterRep(((2, 1), (1,)))
    sigma = ((1, 2, 0), (0,))
    first = rep.matrix(sigma)
    assert rep.matrix(sigma) is first
    assert len(calls) == 2
