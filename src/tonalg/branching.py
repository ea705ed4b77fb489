"""Restriction of standard modules along the one-strand inclusion, basis
classification by the first-vertex part type, filtration verification, and
the layered restriction (Bratteli) graph.

The inclusion sends d to 1_1 (x) d, so the new strand is vertex 1.  The
restriction of the standard module labelled by a multipartition has a
filtration whose submodule part collects the first-vertex-propagating
classes and whose quotient part collects the first-vertex-non-propagating
class; labels whose vector leaves the index set contribute nothing.
"""

from collections import Counter, namedtuple
from functools import lru_cache

from . import diagram as dg
from .standard_modules import (
    standard_module,
    standard_dim,
    generator_diagrams,
    all_labels,
)
from .symmetric import add_boxes, rem_boxes


def include(d):
    """Image of a square diagram under the one-strand inclusion."""
    return dg.tensor(dg.identity(1), d)


def _valid(mu, l, n):
    mvec = tuple(sum(lam) for lam in mu)
    return dg.gamma_member(mvec, l, n) is not None


# submodule labels (sub) and quotient labels (quo) of a restriction, each sorted
FiltrationMultiset = namedtuple("FiltrationMultiset", ["sub", "quo"])


def _class_labels(lam, l, nplus1):
    """The labels at n = nplus1 - 1 that each first-vertex class of the
    restriction carries, in the key order of classify_basis: class 1 a box
    removed in component 1, class i (2 <= i <= l) a box moved from
    component i to i-1, "lp" a box moved from component 1 to l, and class
    0, the quotient, a box added in component l-1 (for l = 1: the label
    itself and a box added in the only component).  Labels with invalid
    vectors at n are dropped."""
    table = {1: rem_boxes(lam, 1)}
    for i in range(2, l + 1):
        table[i] = [mu for nu in rem_boxes(lam, i) for mu in add_boxes(nu, i - 1)]
    table["lp"] = [mu for nu in rem_boxes(lam, 1) for mu in add_boxes(nu, l)]
    table[0] = [lam] + add_boxes(lam, 1) if l == 1 else add_boxes(lam, l - 1)
    return {c: [mu for mu in labels if _valid(mu, l, nplus1 - 1)] for c, labels in table.items()}


def restrict_rule(lam, l, nplus1):
    """Filtration labels of the restriction from n+1 to n strands: the
    submodule part joins the nonzero classes of _class_labels, the quotient
    part is class 0."""
    lam = tuple(tuple(x) for x in lam)
    if len(lam) != l or not _valid(lam, l, nplus1):
        raise dg.DiagramError("invalid label %r for l=%d, n=%d" % (lam, l, nplus1))
    table = _class_labels(lam, l, nplus1)
    sub = [mu for c, labels in table.items() if c != 0 for mu in labels]
    return FiltrationMultiset(tuple(sorted(sub)), tuple(sorted(table[0])))


def first_vertex_class(profile, l):
    """Part type of top vertex 1: 1 for a propagating singleton, i for a
    class-i part (2 <= i <= l), "lp" for an enlarged class-1 part, 0 for a
    non-propagating part."""
    for block, cls in profile:
        if block[0] == 0:
            if cls == 0:
                return 0
            if cls == 1:
                return 1 if len(block) == 1 else "lp"
            return cls
    raise AssertionError("vertex 1 missing from profile")


Restriction = namedtuple("Restriction", ["module", "classes", "labels", "maps"])


@lru_cache(maxsize=None)
def restriction(lam, l, nplus1):
    """Everything the branching checks read of one label, built once per
    process: the module, the first-vertex class of each transversal
    profile, the labels of each class (_class_labels), and the action map
    of each included generator.  lam must be a tuple of tuples."""
    mod = standard_module(lam, l, nplus1)
    return Restriction(
        mod,
        tuple(first_vertex_class(p, l) for p in mod.profiles),
        _class_labels(lam, l, nplus1),
        tuple(mod.action_map(include(d)) for d in generator_diagrams(l, nplus1 - 1).values()),
    )


def classify_basis(lam, l, nplus1):
    """Cardinalities of the first-vertex classes of the module basis: maps
    each class to the number of basis elements in it (profiles times the
    tableau factor)."""
    table = restriction(tuple(tuple(x) for x in lam), l, nplus1)
    counts = Counter(table.classes)
    keys = [1] + list(range(2, l + 1)) + ["lp", 0]
    return {k: counts[k] * table.module.rep.dim for k in keys}


def classified_dim_checks(lam, l, nplus1):
    """Each first-vertex class carries exactly the dimensions of its labels,
    and the classes together carry standard_dim of the label.

    This is the one dimension check of the restriction.  The classes count
    profiles times the module's tableau count, and standard_dim takes the
    hook product, so the sum holds only when the two agree.  Summed over all
    classes, the per-class equalities give dim M = the sum of the dims of
    all filtration labels, as restrict_rule reads the same _class_labels;
    summed over the nonzero classes and taken at class 0, they give the
    dimensions of the submodule part and of the quotient part.  That the
    submodule part is closed under the included subalgebra is
    submodule_closure_check's A_closed.
    """
    lam = tuple(tuple(x) for x in lam)
    counts = classify_basis(lam, l, nplus1)
    checks = {
        c: sum(standard_dim(mu, l, nplus1 - 1) for mu in labels)
        for c, labels in restriction(lam, l, nplus1).labels.items()
    }
    ok = all(counts[k] == checks[k] for k in counts)
    return ok and sum(counts.values()) == standard_dim(lam, l, nplus1), counts, checks


def _span_closed(classes, maps, member):
    """Does the span of the profiles with member(class)=True absorb the
    included generators, given by their action maps?  A generator sends a
    profile block into at most one block, by an invertible matrix, so the
    span is closed exactly when no inside block is sent to an outside one;
    a map that does not cover every block establishes nothing."""
    inside = [member(c) for c in classes]
    for amap in maps:
        if len(amap) != len(inside):
            return False
        for flag, e in zip(inside, amap):
            if flag and e and not inside[e[0]]:
                return False
    return True


def submodule_closure_check(lam, l, nplus1):
    """Span-closure pattern of the first-vertex classes under the included
    subalgebra: the propagating classes close (individually for 1 and each
    i <= l, jointly for everything away from the non-propagating class)."""
    table = restriction(tuple(tuple(x) for x in lam), l, nplus1)
    classes, maps = table.classes, table.maps
    return {
        "B1_closed": _span_closed(classes, maps, lambda c: c == 1),
        "B12_closed": _span_closed(classes, maps, lambda c: c in (1, 2)),
        "A_closed": _span_closed(classes, maps, lambda c: c != 0),
    }


def leak_check(lam, l, nplus1):
    """Does some included generator map the enlarged-class part into the
    propagating-singleton part with a nonzero coefficient?"""
    table = restriction(tuple(tuple(x) for x in lam), l, nplus1)
    classes = table.classes
    return any(
        c == "lp" and e and classes[e[0]] == 1
        for amap in table.maps
        for c, e in zip(classes, amap)
    )


class BratteliGraph:
    """Layered restriction graph: nodes are labels with dims, edges carry
    restriction multiplicities."""

    def __init__(self, l, n_max):
        self.l = l
        self.n_max = n_max
        self.layers = []
        for n in range(n_max + 1):
            self.layers.append({mu: standard_dim(mu, l, n) for mu in all_labels(l, n)})
        self.edges = []
        for n in range(n_max, 0, -1):
            for lam in self.layers[n]:
                rule = restrict_rule(lam, l, n)
                mult = Counter(rule.sub + rule.quo)
                for mu, k in sorted(mult.items()):
                    self.edges.append((n, lam, mu, k))

    @staticmethod
    def _label(mu):
        return "|".join(",".join(map(str, lam)) if lam else "-" for lam in mu)

    def to_dot(self):
        lines = ["digraph bratteli {", "  rankdir=TB;"]
        for n, layer in enumerate(self.layers):
            lines.append("  { rank=same;")
            for mu, d in sorted(layer.items()):
                lines.append('    "%d:%s" [label="%s (%d)"];' % (n, self._label(mu), self._label(mu), d))
            lines.append("  }")
        for n, lam, mu, k in self.edges:
            attr = ' [label="%d"]' % k if k != 1 else ""
            lines.append(
                '  "%d:%s" -> "%d:%s"%s;' % (n, self._label(lam), n - 1, self._label(mu), attr)
            )
        lines.append("}")
        return "\n".join(lines)

    def to_csv(self):
        lines = ["n,label,dim"]
        for n, layer in enumerate(self.layers):
            for mu, d in sorted(layer.items()):
                lines.append("%d,%s,%d" % (n, self._label(mu), d))
        return "\n".join(lines)

    def to_json(self):
        return {
            "l": self.l,
            "n_max": self.n_max,
            "layers": [
                {self._label(mu): d for mu, d in sorted(layer.items())}
                for layer in self.layers
            ],
            "edges": [
                {"n": n, "from": self._label(lam), "to": self._label(mu), "mult": k}
                for n, lam, mu, k in self.edges
            ],
        }

