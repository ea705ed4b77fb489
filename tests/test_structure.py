from math import factorial

import pytest

from tonalg import diagram as dg
from tonalg import gamma
from tonalg import structure as st
from tonalg.algebra import enumerate_basis
from tonalg.standard_modules import InvariantError


def test_p_chain_labels():
    assert st.p_chain(2, 5).labels == [(5, 0), (3, 0), (1, 0)]
    assert st.p_chain(3, 8).labels == [(8, 0, 0), (5, 0, 0), (2, 0, 0)]
    for l, n in [(2, 4), (2, 5), (3, 7), (1, 4)]:
        assert len(st.p_chain(l, n)) == n // l + 1


def test_a_chain_levels_worked_example():
    labels = st.a_chain(3, 8).labels
    assert labels[0] == (8, (8, 0, 0))
    assert labels[1] == (7, (6, 1, 0))
    assert labels[2] == (6, (5, 0, 1)) and labels[3] == (6, (4, 2, 0))
    assert labels[-1] == (3, (0, 1, 2))
    assert min(t for t, _ in labels) == gamma.h_min(3, 8) == 3


def test_section_checks_sum_and_counts():
    for l, n in [(2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (1, 3)]:
        rep = st.section_checks(l, n)
        assert rep["sections_sum_to_dim"], (l, n)
        for step in rep["steps"]:
            assert all(v["ok"] for v in step["vectors"]), (l, n, step)


def test_preidempotent_exponents():
    rep = st.section_checks(2, 4, 0)
    by_label = {tuple(s["label"]): s for s in rep["steps"]}
    assert by_label[(4, 0)]["preidempotent_exponent"] == 0
    assert by_label[(2, 0)]["preidempotent_exponent"] == 1
    assert by_label[(0, 0)]["preidempotent_exponent"] == 2
    # only the zero-vector bottom step is flagged when delta = 0
    assert by_label[(0, 0)]["non_normalizable"]
    assert not by_label[(2, 0)]["non_normalizable"]
    # odd n: no zero-vector step, nothing flagged even at delta = 0
    rep2 = st.section_checks(2, 5, 0)
    assert not any(s["non_normalizable"] for s in rep2["steps"])


def test_corner_group_small():
    ok, dim = st.corner_group_check((1, 1), 2, 3)
    assert ok and dim == 1
    ok, dim = st.corner_group_check((2, 0), 2, 4)
    assert ok and dim == 2
    ok, dim = st.corner_group_check((2, 1), 2, 4)
    assert ok and dim == 2
    ok, dim = st.corner_group_check((3, 0), 2, 5)
    assert ok and dim == 6


def test_a_sections():
    for l, n in [(2, 3), (2, 4), (3, 4), (3, 5), (1, 3)]:
        assert st.a_section_checks(l, n), (l, n)


def test_fully_propagating_dim_l1_is_factorial():
    # for tone parameter 1 every part has one vertex per side: permutations
    for n in range(1, 5):
        assert st.fully_propagating_dim(1, n) == factorial(n)


def test_chain_order_compatibility_small():
    # for tone parameter 1 the two orders coincide, so this always holds;
    # for l >= 2 it holds at small n only (see the counterexamples below)
    for l, n in [(1, 4), (1, 6), (1, 8), (2, 4), (2, 5), (3, 4), (3, 5)]:
        assert st.chain_order_compatibility(l, n), (l, n)


def test_chain_order_compatibility_counterexamples():
    # the down-set of a chain label need not be an initial segment of the
    # total order: a low-height fully-propagating vector can sit totally
    # below the label without being poset-below it
    assert not st.chain_order_compatibility(3, 6)
    assert gamma.total_key((0, 0, 2)) < gamma.total_key((3, 0, 0))
    assert not gamma.poset_leq((0, 0, 2), (3, 0, 0), 3)
    assert not st.chain_order_compatibility(2, 6)
    assert gamma.total_key((0, 3)) < gamma.total_key((4, 0))
    assert not gamma.poset_leq((0, 3), (4, 0), 2)


def test_structure_report():
    rep = st.structure_report(2, 4, 0)
    assert rep["p_chain"] == [[4, 0], [2, 0], [0, 0]]
    assert rep["a_sections_ok"]
    assert rep["total"] == len(enumerate_basis(2, 4, 4))
    assert rep["delta0"] == "0"


def test_section_checks_raises_on_non_idempotent_generator(monkeypatch):
    monkeypatch.setattr(st.dg, "compose", lambda p, q: (0, dg.identity(p.n)))
    with pytest.raises(InvariantError):
        st.section_checks(2, 4)
