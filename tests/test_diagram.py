import random

import pytest

from tonalg import diagram as dg
from tonalg.algebra import basis_texts, enumerate_basis

from oracles import block_class, plain_compose, plain_flip, restrict


def test_make_diagram_identity():
    d = dg.make_diagram(1, 1, [["T1", "B1"]])
    assert d == dg.identity(1)


def test_make_diagram_special_elements():
    assert dg.make_diagram(2, 2, [["T1", "T2", "B1", "B2"]]) == dg.A(1, 2, 2)
    assert dg.make_diagram(2, 2, [["T1", "T2"], ["B1", "B2"]]) == dg.e(1, 2)


def test_make_diagram_errors_name_vertex():
    with pytest.raises(dg.DiagramError, match="T1"):
        dg.make_diagram(2, 1, [["T1", "B1"], ["T1", "T2"]])
    with pytest.raises(dg.DiagramError, match="B1"):
        dg.make_diagram(1, 1, [["T1"]])
    with pytest.raises(dg.DiagramError):
        dg.make_diagram(1, 1, [["T1", "B1", "B2"]])


@pytest.mark.parametrize("vertex", ["Tx", ("T", "x"), "B1.5"])
def test_unreadable_vertex_is_named(vertex):
    with pytest.raises(dg.DiagramError) as exc:
        dg.make_diagram(2, 2, [["T1", vertex], ["T2", "B1", "B2"]])
    assert str(exc.value) == "cannot interpret vertex %r" % (vertex,)


def test_compose_identity():
    one = dg.identity(3)
    assert dg.compose(one, one) == (0, one)


def test_compose_single_loop():
    u = dg.e(1, 2)
    k, d = dg.compose(u, u)
    assert k == 1 and d == u


def test_compose_strand_joiner():
    a = dg.A(1, 2, 2)
    assert dg.compose(a, a) == (0, a)


def test_compose_shape_error():
    with pytest.raises(dg.DiagramError):
        dg.compose(dg.identity(2), dg.identity(3))


def test_tensor():
    assert dg.tensor(dg.identity(1), dg.identity(1)) == dg.identity(2)
    assert dg.tensor(dg.e(1, 2), dg.identity(2)) == dg.e(1, 4)
    b2 = dg.b_block(2)
    assert dg.tensor(b2, b2) == dg.make_diagram(
        4, 4, [["T1", "T2", "B1", "B2"], ["T3", "T4", "B3", "B4"]]
    )


def test_flip():
    assert dg.flip(dg.identity(4)) == dg.identity(4)
    assert dg.flip(dg.parse("3,0|T1,T2,T3")) == dg.parse("0,3|B1,B2,B3")
    rng = random.Random(1)
    basis = enumerate_basis(2, 3, 3)
    for _ in range(50):
        p = rng.choice(basis)
        assert dg.flip(dg.flip(p)) == p


def test_flip_antiautomorphism():
    rng = random.Random(2)
    basis = enumerate_basis(2, 4, 4)
    for _ in range(200):
        p, q = rng.choice(basis), rng.choice(basis)
        k1, d1 = dg.compose(p, q)
        k2, d2 = dg.compose(dg.flip(q), dg.flip(p))
        assert k1 == k2 and dg.flip(d1) == d2


def test_kernel_and_tone():
    d = dg.identity(5)
    assert all(dg.kernel(b, 5) == 0 for b in d.blocks)
    for l in (1, 2, 3, 5):
        assert dg.is_l_tone(d, l)
    single = dg.Diagram(1, 0, ((0,),))
    assert not dg.is_l_tone(single, 2)
    assert dg.is_l_tone(dg.W(3, 5), 3)
    assert not dg.is_l_tone(dg.epsilon(1, 3), 2)
    assert dg.is_l_tone(dg.epsilon(1, 3), 1)


def test_prop_vector():
    assert dg.prop_vector(dg.identity(4), 3) == (4, 0, 0)
    assert dg.prop_vector(dg.e(1, 2), 1) == (0,)
    for l, n in [(2, 4), (3, 6), (2, 3)]:
        for m in _gamma(l, n):
            assert dg.prop_vector(dg.a_m(m, l, n), l) == m


def _gamma(l, n):
    from tonalg.gamma import gamma_set

    return gamma_set(l, n)


def test_prop_vector_rejects_bad_tone():
    with pytest.raises(dg.DiagramError):
        dg.prop_vector(dg.epsilon(1, 3), 2)
    # the bad block need not propagate: a lone top pair at l = 3
    with pytest.raises(dg.DiagramError):
        dg.prop_vector(dg.Diagram(2, 1, ((0, 1), (2,))), 3)
    with pytest.raises(dg.DiagramError):
        dg.prop_vector(dg.Diagram(1, 0, ((0,),)), 2)


def _prop_vector_two_pass(p, l):
    # the earlier definition: a tone check over every block, then a second
    # walk classifying the propagating blocks
    if not dg.is_l_tone(p, l):
        raise dg.DiagramError("diagram is not %d-tone" % l)
    out = [0] * l
    for b in p.blocks:
        if dg.is_propagating(b, p.n):
            out[block_class(b, p.n, l) - 1] += 1
    return tuple(out)


def test_prop_vector_matches_two_pass_definition():
    for l in range(1, 5):
        for n in range(5):
            for m in range(5):
                for d in enumerate_basis(l, n, m):
                    assert dg.prop_vector(d, l) == _prop_vector_two_pass(d, l), (l, d)


def test_builder_layout():
    # co-l blocks first, then descending, then the non-propagating blocks
    am = dg.a_m((4, 4), 2, 16)
    assert dg.serialize(am) == (
        "16,16|T1,T2,B1,B2;T3,T4,B3,B4;T5,T6,B5,B6;T7,T8,B7,B8;"
        "T9,B9;T10,B10;T11,B11;T12,B12;T13,T14;T15,T16;B13,B14;B15,B16"
    )


def test_a_m_preidempotent():
    for l, n, m in [(2, 4, (2, 0)), (3, 6, (0, 0, 1)), (2, 6, (0, 0))]:
        am = dg.a_m(m, l, n)
        k, d = dg.compose(am, am)
        assert d == am
        assert k == (n - sum((i + 1) * x for i, x in enumerate(m))) // l


def test_b_m_idempotent_and_sandwich():
    bm = dg.b_m((4, 4, 2), 3, 24)
    assert dg.compose(bm, bm) == (0, bm)
    am = dg.a_m((4, 4, 2), 3, 24)
    k1, x = dg.compose(bm, am)
    k2, bab = dg.compose(x, bm)
    assert (k1 + k2, bab) == (0, bm)
    k1, y = dg.compose(am, bm)
    k2, aba = dg.compose(y, am)
    assert (k1 + k2, aba) == (0, am)


def test_sandwich_identities_full_range():
    from tonalg.gamma import gamma_set

    for l in (1, 2, 3):
        for n in range(0, 7):
            for m in gamma_set(l, n):
                am = dg.a_m(m, l, n)
                assert dg.compose(am, am).diagram == am
                if not any(m):
                    continue
                bm = dg.b_m(m, l, n)
                assert dg.compose(bm, bm) == (0, bm)
                k1, x = dg.compose(bm, am)
                k2, bab = dg.compose(x, bm)
                assert (k1 + k2, bab) == (0, bm)
                k1, y = dg.compose(am, bm)
                k2, aba = dg.compose(y, am)
                assert (k1 + k2, aba) == (0, am)


def test_a_m_invalid_vector():
    with pytest.raises(dg.DiagramError):
        dg.a_m((1, 0), 2, 2)
    with pytest.raises(dg.DiagramError):
        dg.b_m((0, 0), 2, 4)


def test_builder_preconditions():
    with pytest.raises(dg.DiagramError):
        dg.e_pi(3)
    with pytest.raises(dg.DiagramError):
        dg.W(3, 2)
    with pytest.raises(dg.DiagramError):
        dg.W_b(2, 2)
    assert dg.e_pi(4) == dg.tensor(dg.b_block(2), dg.b_block(2))


def test_restrict():
    assert restrict(dg.identity(5), 2, 5) == dg.identity(4)
    p = dg.A(1, 2, 3)
    r = restrict(p, 3, 3)
    assert r == dg.identity(1)
    r2 = restrict(dg.e(1, 2), 1, 1)
    assert r2 == dg.make_diagram(1, 1, [["T1"], ["B1"]])


def test_restrict_realizes_corner_map():
    # sandwiching by the (l+1)-block and restricting drops to n-l strands
    l, n = 2, 4
    wb = dg.W_b(l, n)
    rng = random.Random(3)
    basis = enumerate_basis(l, n, n)
    for _ in range(100):
        p = rng.choice(basis)
        _, q1 = dg.compose(wb, p)
        _, q = dg.compose(q1, wb)
        img = restrict(q, l + 1, n)
        assert img.n == img.m == n - l
        assert dg.is_l_tone(img, l)


def test_associativity_with_scalars():
    rng = random.Random(4)
    basis = enumerate_basis(2, 4, 4)
    for _ in range(200):
        a, b, c = (rng.choice(basis) for _ in range(3))
        k1, ab = dg.compose(a, b)
        k2, ab_c = dg.compose(ab, c)
        k3, bc = dg.compose(b, c)
        k4, a_bc = dg.compose(a, bc)
        assert (k1 + k2, ab_c) == (k3 + k4, a_bc)


def test_composition_closure_random():
    rng = random.Random(5)
    for l, n in [(2, 4), (3, 4)]:
        basis = enumerate_basis(l, n, n)
        for _ in range(150):
            p, q = rng.choice(basis), rng.choice(basis)
            _, d = dg.compose(p, q)
            assert dg.is_l_tone(d, l)


def _compose_resorting(p, q):
    # the earlier compose, which re-sorted the components it found
    n, mid, k = p.n, p.m, q.m
    la, lb = dg.labels(p), dg.labels(q)
    na = len(p.blocks)
    parent = list(range(na + len(q.blocks)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(mid):
        ra, rb = find(la[n + i]), find(na + lb[i])
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for v in range(n):
        groups.setdefault(find(la[v]), []).append(v)
    for v in range(k):
        groups.setdefault(find(na + lb[mid + v]), []).append(n + v)
    loops = {find(la[n + i]) for i in range(mid)} - set(groups)
    return len(loops), dg.Diagram(n, k, dg._canonical(groups.values()))


def test_compose_output_is_canonical_without_resorting():
    rng = random.Random(7)
    cases = [(1, 4, 4, 4), (2, 5, 5, 5), (3, 5, 5, 5), (1, 3, 2, 4), (2, 4, 2, 0), (2, 1, 3, 5), (1, 0, 2, 3)]
    for l, n, mid, k in cases:
        left, right = enumerate_basis(l, n, mid), enumerate_basis(l, mid, k)
        pairs = 2000 if n == mid == k else 300
        for _ in range(pairs):
            p, q = rng.choice(left), rng.choice(right)
            scaled = dg.compose(p, q)
            assert scaled.diagram.blocks == dg._canonical(scaled.diagram.blocks), (p, q)
            assert tuple(scaled) == _compose_resorting(p, q), (p, q)


def test_basis_texts_name_vertices_per_shape():
    # the same coded block (0, 1) names different vertices in different
    # shapes, so block texts kept by block alone would cross shapes
    assert list(basis_texts(2, 2, 0)) == ["2,0|T1,T2"]
    assert list(basis_texts(2, 1, 1)) == ["1,1|T1,B1"]
    assert list(basis_texts(2, 2, 0)) == ["2,0|T1,T2"]
    assert list(basis_texts(2, 0, 2)) == ["0,2|B1,B2"]
    assert list(basis_texts(2, 0, 0)) == ["0,0|"]


def test_basis_texts_round_trip():
    for l, n, m in [(1, 3, 2), (2, 4, 4), (3, 3, 6), (2, 0, 4), (1, 0, 0)]:
        texts = list(basis_texts(l, n, m))
        basis = enumerate_basis(l, n, m)
        assert texts == [dg.serialize(d) for d in basis], (l, n, m)
        assert [dg.parse(t) for t in texts] == list(basis), (l, n, m)


def test_serialize_round_trip():
    rng = random.Random(6)
    for l, n in [(1, 3), (2, 4)]:
        basis = enumerate_basis(l, n, n)
        for _ in range(60):
            d = rng.choice(basis)
            assert dg.parse(dg.serialize(d)) == d
    # non-square shapes too
    assert dg.parse("3,0|T1,T2,T3") == dg.Diagram(3, 0, ((0, 1, 2),))
    for text in ("3,0|T1,T2,T3", "0,2|B1,B2"):
        assert dg.serialize(dg.parse(text)) == text


def test_canonical_equality_is_structural():
    a = dg.make_diagram(2, 2, [["B2", "B1"], ["T2", "T1"]])
    b = dg.make_diagram(2, 2, [["T1", "T2"], ["B1", "B2"]])
    assert a == b and hash(a) == hash(b)


def _random_diagram(rng, n, m):
    # a random restricted-growth string over the n + m coded vertices
    lab, top = [], 0
    for _ in range(n + m):
        c = rng.randint(0, top)
        lab.append(c)
        top += c == top
    blocks = {}
    for v, c in enumerate(lab):
        blocks.setdefault(c, []).append(v)
    return dg.make_diagram(n, m, list(blocks.values()))


def test_compose_and_flip_match_plain_oracle():
    rng = random.Random(11)
    shapes = [(0, 0, 0), (3, 0, 0), (0, 0, 3), (2, 0, 2), (0, 3, 0), (3, 3, 0), (0, 2, 4)]
    shapes += [(n, mid, k) for n in range(1, 5) for mid in range(1, 5) for k in range(1, 5)]
    for n, mid, k in shapes:
        for _ in range(20):
            p, q = _random_diagram(rng, n, mid), _random_diagram(rng, mid, k)
            got = dg.compose(p, q)
            assert tuple(got) == plain_compose(p, q), (p, q)
            assert got.diagram.blocks == dg._canonical(got.diagram.blocks), (p, q)
            for d in (p, q, got.diagram):
                f = dg.flip(d)
                assert f == plain_flip(d) and f.blocks == dg._canonical(f.blocks), d
                assert dg.flip(f) == d, d


def test_compose_reads_a_filled_label_cache_on_either_side():
    rng = random.Random(12)
    for n in range(0, 5):
        for _ in range(20):
            d, left, right = (_random_diagram(rng, n, n) for _ in range(3))
            # d's labels are filled as the right factor, then read as the left
            assert tuple(dg.compose(left, d)) == plain_compose(left, d)
            assert d._labels == dg.labels(d)
            assert tuple(dg.compose(d, right)) == plain_compose(d, right)
            assert tuple(dg.compose(d, d)) == plain_compose(d, d)
