"""Action maps and Gram blocks against dense Z[delta] matrices built entry by
entry, and faults that the block readers must reject."""

import json

import pytest

from tonalg import branching as br
from tonalg import diagram as dg
from tonalg import gram as gr
from tonalg import standard_modules as sm
from tonalg import verify
from tonalg.cli import main
from tonalg.exactla import block_matrix

from oracles import dense_action, ordered_pair_gram, poly_mat_mul, poly_mat_transpose

CASES = [(1, 3), (2, 4), (3, 4)]


def _label_text(mu):
    return "|".join(",".join(map(str, lam)) or "-" for lam in mu)


def dense_map(mod, amap):
    return block_matrix(
        ((e[0], j) + e[1:] for j, e in enumerate(amap) if e), len(mod.profiles), mod.rep.dim
    )


def dense_blocks(mod, blocks):
    return block_matrix(
        ((j, c, k, P) for (j, c), (k, P) in blocks.items()), len(mod.profiles), mod.rep.dim
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
            amap = mod.action_map(d)
            assert dense_map(mod, amap) == M, (mu, d)
            assert dense_map(mod, sm.map_product(amap, amap)) == poly_mat_mul(M, M), (mu, d)


@pytest.mark.parametrize("l,n", CASES)
def test_contravariance_blocks_match_dense_products(l, n):
    for mu in sm.all_labels(l, n):
        g = gr.gram_matrix(mu, l, n)
        mod = g.module
        G, _ = ordered_pair_gram(mu, l, n)
        for d in _diagrams(l, n):
            M = dense_action(mod, d)
            GM = gr.gram_times(g, mod.action_map(d))
            assert dense_blocks(mod, GM) == poly_mat_mul(G, M), (mu, d)
            # G is symmetric, so the transposed blocks give M^T G
            MtG = {(c, j): (k, [list(col) for col in zip(*P)]) for (j, c), (k, P) in GM.items()}
            assert dense_blocks(mod, MtG) == poly_mat_mul(poly_mat_transpose(M), G), (mu, d)


@pytest.mark.parametrize("l,n", CASES)
def test_dense_output_matches_oracle_matrices(capsys, l, n):
    def as_json(M):
        return [[e.to_json() for e in row] for row in M]

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
            assert dense_map(mod, mod.action_map(d)) == dense_action(mod, d), (mu, d)
        G, exps = ordered_pair_gram(mu, l, n)
        g = gr.gram_matrix(mu, l, n)
        assert g.dense() == G, mu
        assert {(i, j): k for i, j, k, _ in g.blocks()} == exps, mu
    size = len(sm.transversal(mvec, l, n))
    # the oracles compose len(diagrams) * size and size * size per label
    oracle = len(labels) * (len(diagrams) * size + size * size)
    assert len(calls) - oracle == len(diagrams) * size + size * (size + 1) // 2


def test_raised_exponent_breaks_generator_relations(monkeypatch):
    # negative control: s1 sends its first block with one delta too many
    real = sm.StandardModule.action_map
    s1 = dg.transposition(1, 3)

    def raised(self, d):
        amap = real(self, d)
        if d != s1:
            return amap
        i, k, B = amap[0]
        return ((i, k + 1, B),) + amap[1:]

    assert verify.check_generator_relations(2, 3)
    monkeypatch.setattr(sm.StandardModule, "action_map", raised)
    assert not verify.check_generator_relations(2, 3)


@pytest.mark.parametrize("perturb", ["exponent", "entry"])
def test_perturbed_gram_block_breaks_contravariance(monkeypatch, perturb):
    # negative control: one block of a fresh Gram build is changed
    mu, l, n = ((1,), ()), 2, 3
    g = gr.GramMatrix(mu, l, n)
    k, X = g.rows[0][1]
    if perturb == "exponent":
        g.rows[0][1] = (k + 1, X)
    else:
        g.rows[0][1] = (k, [[x + 1 for x in row] for row in X])
    assert gr.contravariance_check(mu, l, n)
    monkeypatch.setattr(gr, "gram_matrix", lambda *args: g)
    assert not gr.contravariance_check(mu, l, n)


def test_uninverted_tableau_perm_breaks_contravariance(monkeypatch):
    # negative control: matchings act on the tableau factor through
    # themselves, not their inverses; at (1, 4) the label (2, 1) meets a
    # matching of order 3, and the generators expose it
    mu, l, n = ((2, 1),), 1, 4
    assert gr.contravariance_check(mu, l, n)
    monkeypatch.setattr(sm, "_tableau_perm", lambda sigma: tuple(sigma))
    # the per-vector tables and the Gram matrices are cached per process:
    # build them anew with the patched permutation, and drop them afterwards
    caches = [sm.action_table, sm.gram_table, gr.gram_matrix]
    for f in caches:
        f.cache_clear()
    try:
        assert not gr.contravariance_check(mu, l, n)
    finally:
        for f in caches:
            f.cache_clear()


def test_dropped_map_entry_fails_span_closure(monkeypatch):
    # negative control: a map that no longer covers its last block
    lam, l, nplus1 = ((2,), ()), 2, 4
    table = br.restriction(lam, l, nplus1)
    assert br._span_closed(table.classes, table.maps, lambda c: c != 0)
    short = [amap[:-1] for amap in table.maps]
    assert not br._span_closed(table.classes, short, lambda c: c != 0)
    real = sm.StandardModule.action_map
    monkeypatch.setattr(sm.StandardModule, "action_map", lambda self, d: real(self, d)[:-1])
    # the restriction table is cached per process: build it anew with the
    # short maps, and drop it afterwards
    br.restriction.cache_clear()
    try:
        assert not verify.check_submodule_closure(l, nplus1)
    finally:
        br.restriction.cache_clear()


def test_specht_matrices_are_built_once_per_matching(monkeypatch):
    from tonalg import symmetric

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
