from math import factorial

import pytest

from tonalg import diagram as dg
from tonalg import gamma
from tonalg import algebra
from tonalg.algebra import (
    basis_blocks,
    basis_texts,
    corner_images,
    corner_iso_check,
    enumerate_basis,
    sandwich_middles,
    tone_partitions,
)
from tonalg.standard_modules import sum_of_squares_check

from oracles import pair_sweep_corner_iso_check, restrict, set_partitions


def bell(n):
    # Bell numbers via the triangle recurrence (independent oracle)
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def test_set_partition_count_is_bell():
    for n in range(0, 8):
        assert sum(1 for _ in set_partitions(range(n))) == bell(n)


def test_enumerate_basis_small():
    assert list(enumerate_basis(2, 1, 1)) == [dg.identity(1)]
    assert len(enumerate_basis(2, 2, 2)) == 4
    # brute-force oracle: filter all 15 set partitions of 4 points by hand rule
    all4 = [b for b in set_partitions(range(4))]
    assert len(all4) == 15
    even = [b for b in all4 if all(dg.kernel(blk, 2) % 2 == 0 for blk in b)]
    assert len(even) == 4


def test_enumerate_basis_bell():
    for n in range(0, 4):
        assert len(enumerate_basis(1, n, n)) == bell(2 * n)


def test_enumerate_basis_even_block_counts():
    # classical counts of set partitions of 2n points into even blocks
    for n, count in [(0, 1), (1, 1), (2, 4), (3, 31), (4, 379), (5, 6556)]:
        assert len(enumerate_basis(2, n, n)) == count


def _filter_route(l, n, m, partitions=None):
    # the plain route, independent of tone_partitions: every set partition,
    # canonicalised, filtered by the kernel rule, sorted
    if partitions is None:
        partitions = [dg._canonical(b) for b in set_partitions(range(n + m))]
    return sorted(dg.Diagram(n, m, b) for b in partitions if all(dg.kernel(blk, n) % l == 0 for blk in b))


def test_enumerate_basis_matches_filter_route():
    for size in range(0, 9):
        for n in range(size + 1):
            m = size - n
            partitions = [dg._canonical(b) for b in set_partitions(range(size))]
            for l in range(1, 5):
                basis = enumerate_basis(l, n, m)
                assert list(basis) == sorted(basis), (l, n, m)
                assert list(basis) == _filter_route(l, n, m, partitions), (l, n, m)


def test_mutated_charges_fail_the_filter_route():
    # negative control: one top vertex charged -1 instead of +1 (a change
    # that l = 2 cannot see, since -1 = 1 mod 2)
    for l, n, m in [(3, 3, 3), (4, 4, 4), (3, 4, 1)]:
        charges = [-1] + [1] * (n - 1) + [-1] * m
        mutated = [dg.Diagram(n, m, b) for b in tone_partitions(charges, l)]
        assert mutated != _filter_route(l, n, m), (l, n, m)


def test_tone_partitions_edge_cases():
    assert list(tone_partitions([], 3)) == [()]
    assert list(tone_partitions([1, 1], 3)) == []
    assert list(tone_partitions([1, -1], 2)) == [((0, 1),)]
    assert list(tone_partitions([2, 2], 2)) == [((0,), (1,)), ((0, 1),)]


@pytest.mark.parametrize("l, n, m", [(0, 2, 2), (-1, 1, 1), (1, -1, -1), (1, -1, 2), (2, 2, -1)])
def test_enumerate_basis_refuses_bad_sizes(l, n, m):
    with pytest.raises(dg.DiagramError):
        enumerate_basis(l, n, m)


@pytest.mark.parametrize("l, n, m", [(0, 2, 2), (1, -1, 2), (2, 2, -1)])
def test_basis_blocks_refuses_bad_sizes_before_iterating(l, n, m):
    with pytest.raises(dg.DiagramError):
        basis_blocks(l, n, m)


@pytest.mark.parametrize("l, n, m", [(0, 2, 2), (1, -1, 2), (2, 2, -1), (0, 0, 0)])
def test_basis_texts_refuses_bad_sizes_before_iterating(l, n, m):
    with pytest.raises(dg.DiagramError):
        basis_texts(l, n, m)


def test_basis_texts_first_chunk_at_l1_is_bell():
    # at l = 1 the first chunk is the partitions with {T1} a block: Bell(n+m-1)
    for n, m in [(1, 0), (0, 1), (1, 1), (2, 3), (4, 4), (5, 5)]:
        count, chunks = basis_texts(1, n, m)
        assert count == bell(n + m), (n, m)
        assert len(next(chunks)) == bell(n + m - 1), (n, m)


def test_basis_texts_count_matches_its_chunks():
    for l in range(1, 5):
        for n in range(5):
            for m in range(5):
                count, chunks = basis_texts(l, n, m)
                chunks = list(chunks)
                assert count == sum(len(c) for c in chunks) == len(enumerate_basis(l, n, m)), (l, n, m)
                # one nonempty chunk per first block, so the texts of a
                # chunk share their first block and no two chunks do
                firsts = [{t.partition("|")[2].split(";")[0] for t in c} for c in chunks]
                assert all(len(f) == 1 for f in firsts), (l, n, m)
                assert len(set().union(*firsts)) == len(chunks), (l, n, m)


@pytest.mark.parametrize("l", [0, -2])
def test_tone_partitions_refuses_l_below_one(l):
    with pytest.raises(dg.DiagramError):
        tone_partitions([1, -1], l)


def _corner_filter_route(l, n):
    # the plain route for the W_b corner basis: walk every set partition of the two
    # supernodes and the free vertices, expand, keep the l-tone diagrams
    objs = ["TS"] + ["T%d" % v for v in range(l + 2, n + 1)] + ["BS"] + [
        "B%d" % v for v in range(l + 2, n + 1)
    ]
    out = []
    for blocks in set_partitions(objs):
        coded = []
        for b in blocks:
            cb = []
            for o in b:
                if o == "TS":
                    cb.extend(range(l + 1))
                elif o == "BS":
                    cb.extend(range(n, n + l + 1))
                elif o[0] == "T":
                    cb.append(int(o[1:]) - 1)
                else:
                    cb.append(n + int(o[1:]) - 1)
            coded.append(cb)
        d = dg.Diagram(n, n, dg._canonical(coded))
        if dg.is_l_tone(d, l):
            out.append(d)
    return sorted(out)


def test_corner_basis_matches_filter_route():
    for l in range(1, 4):
        for n in range(l + 1, l + 5):
            wb = dg.W_b(l, n)
            assert list(sandwich_middles(wb, wb, l)) == _corner_filter_route(l, n), (l, n)


def test_corner_contraction_is_restriction_on_w_b():
    for l in range(1, 4):
        for n in range(l + 1, l + 4):
            k, images = corner_images(dg.W_b(l, n), l)
            assert k == n - l
            for q, image in images.items():
                assert image == restrict(q, l + 1, n), (l, n, q)


def test_corner_contraction_is_pair_contraction_on_e_pi():
    # lifting each image vertex v back to the pair (2v, 2v+1) gives q again
    for n in (2, 4, 6):
        k, images = corner_images(dg.e_pi(n), 2)
        assert k == n // 2
        for q, image in images.items():
            lifted = [
                [2 * v + i if v < k else n + 2 * (v - k) + i for v in blk for i in (0, 1)]
                for blk in image.blocks
            ]
            assert dg.Diagram(n, n, dg._canonical(lifted)) == q


@pytest.mark.parametrize("l,n", [(1, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
def test_corner_iso_check_rejects_non_idempotent_w(l, n):
    # W(l, n) * q * W(l, n) picks up a factor of delta; at l = 1 the images
    # and structure constants of the corner all agree, so only the e*q*e
    # comparison can reject it
    assert not corner_iso_check(dg.W(l, n), l, l)


@pytest.mark.parametrize("n", [2, 4])
def test_corner_iso_check_rejects_wrong_tone_for_e_pi(n):
    assert not corner_iso_check(dg.e_pi(n), 2, 2)


@pytest.mark.parametrize("l,n", [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)])
def test_corner_iso_check_rejects_wrong_tone_for_w_b(l, n):
    # n - l >= l, so the l-tone and (l+1)-tone bases on n - l strands differ
    assert not corner_iso_check(dg.W_b(l, n), l, l + 1)


def test_corner_iso_check_compares_delta_exponents(monkeypatch):
    # products of (n-l)-strand diagrams gain one extra delta: images and
    # product diagrams still agree, only the exponents differ
    l, n = 1, 3
    compose = dg.compose

    def shifted(p, q):
        k, d = compose(p, q)
        return (k + 1, d) if p.n == n - l else (k, d)

    monkeypatch.setattr(dg, "compose", shifted)
    assert not corner_iso_check(dg.W_b(l, n), l, l)


@pytest.mark.parametrize(
    "e,l,small_l",
    [
        (dg.W_b(1, 4), 1, 1),
        (dg.W_b(2, 5), 2, 2),
        (dg.W_b(2, 6), 2, 2),
        (dg.W_b(3, 6), 3, 3),
        (dg.e_pi(4), 2, 1),
        (dg.e_pi(6), 2, 1),
        (dg.W_b(2, 5), 2, 3),
        (dg.e_pi(4), 2, 2),
        (dg.W(1, 3), 1, 1),
    ],
)
def test_corner_iso_check_matches_pair_sweep(e, l, small_l):
    assert corner_iso_check(e, l, small_l) == pair_sweep_corner_iso_check(e, l, small_l)


@pytest.mark.parametrize(
    "e,l,small_l", [(dg.W_b(1, 4), 1, 1), (dg.W_b(2, 5), 2, 2), (dg.e_pi(4), 2, 1)]
)
def test_corner_iso_check_needs_every_generator(monkeypatch, e, l, small_l):
    # without the last generator, W, nothing lowers the propagating number:
    # the products left to check all hold, but some corner element is never
    # reached, so only the reachability walk can reject
    assert corner_iso_check(e, l, small_l)
    check = algebra.generated_hom_check
    monkeypatch.setattr(
        algebra, "generated_hom_check", lambda gens, images, mul: check(gens[:-1], images, mul)
    )
    assert not corner_iso_check(e, l, small_l)


def test_corner_images_refuse_bad_idempotents():
    with pytest.raises(dg.DiagramError):
        corner_images(dg.parse("2,1|T1,T2,B1"), 1)
    with pytest.raises(dg.DiagramError):
        corner_iso_check(dg.parse("2,2|T1,T2;B1;B2"), 1, 1)


def test_basis_count_at_3_6():
    # 36,243 also equals the sum of squared standard-module dimensions
    assert len(enumerate_basis(3, 6, 6)) == 36243
    assert sum_of_squares_check(3, 6)


def test_op_fixes_canonical_preidempotents():
    for l, n, m in [(2, 3, (1, 1)), (3, 3, (0, 0, 1)), (2, 4, (2, 0))]:
        a = dg.a_m(m, l, n)
        assert dg.flip(a) == a


def test_sandwiched_transposition_drops_below_vector():
    # sandwiching a transposition between copies of the (1,1) element merges
    # the two propagating classes, so the product lies strictly below (1,1)
    l, n = 2, 3
    a = dg.a_m((1, 1), l, n)
    _, x = dg.compose(dg.compose(a, dg.transposition(2, n))[1], a)
    assert gamma.poset_lt(dg.prop_vector(x, l), (1, 1), l)


def test_cut_element_lies_below_top():
    # the cut element has vector (n-l, 0, ..., 0), strictly below the top
    # level (n, 0, ..., 0): the fully-propagating quotient kills it
    for l, n in [(2, 4), (3, 6), (2, 6)]:
        own = tuple([n - l] + [0] * (l - 1))
        top = tuple([n] + [0] * (l - 1))
        assert dg.prop_vector(dg.W(l, n), l) == own
        assert gamma.poset_lt(own, top, l)


def test_basis_partition_by_vector():
    # the exact-vector classes partition the whole basis
    for l, n in [(2, 3), (2, 4), (3, 4), (1, 3)]:
        counts = {}
        for d in enumerate_basis(l, n, n):
            v = dg.prop_vector(d, l)
            counts[v] = counts.get(v, 0) + 1
        assert set(counts) == set(gamma.gamma_set(l, n))
        assert sum(counts.values()) == len(enumerate_basis(l, n, n))


def test_absorbing_corner_dimension():
    # sandwiching by the absorbing idempotent leaves prod(m_i!) classes
    from tonalg.structure import corner_group_check

    for l, n in [(2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (1, 4)]:
        for m in gamma.gamma_set(l, n):
            ok, want = corner_group_check(m, l, n)
            assert ok, (l, n, m)
            expect = 1
            for x in m:
                expect *= factorial(x)
            assert want == expect


def test_lower_ideal_products():
    # products through a lower or incomparable level drop strictly below
    for l, n in [(2, 3), (2, 4), (1, 3), (3, 4)]:
        basis = enumerate_basis(l, n, n)
        g = gamma.gamma_set(l, n)
        for m in g:
            am = dg.a_m(m, l, n)
            for mp in g:
                if gamma.poset_leq(m, mp, l):
                    continue
                amp = dg.a_m(mp, l, n)
                for p in basis:
                    _, q1 = dg.compose(amp, p)
                    _, q2 = dg.compose(q1, am)
                    assert gamma.poset_lt(dg.prop_vector(q2, l), m, l)
