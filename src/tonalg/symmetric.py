"""Integer partitions, standard tableaux, and exact Specht modules over Z.

Specht modules are realised as polytabloid spans inside the tabloid
permutation module, with the tabloid inner product as bilinear form.  The
standard-tableau polytabloids are a Z-basis; generator matrices are solved
over Z by forward substitution and verified.  Tableaux are encoded as row
sequences, e.g. the shape (3,1) has standard sequences 1112, 1121, 1211.
"""

from functools import lru_cache
from itertools import product
from math import factorial

from .exactla import int_mat_mul, kron, identity_matrix


# ---------------------------------------------------------------------------
# partitions and boxes


@lru_cache(maxsize=None)
def partitions_of(k):
    """All integer partitions of k as weakly decreasing tuples."""
    if k == 0:
        return ((),)
    out = []

    def rec(rem, maxpart, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rem, maxpart), 0, -1):
            acc.append(p)
            rec(rem - p, p, acc)
            acc.pop()

    rec(k, k, [])
    return tuple(out)


def multipartitions_of(mvec):
    """All tuples (lambda^1, ..., lambda^l) with lambda^i a partition of m_i."""
    pools = [partitions_of(x) for x in mvec]
    return [tuple(t) for t in product(*pools)]


def hook_dim(lam):
    """Number of standard tableaux of shape lam, by the hook length formula."""
    if not lam:
        return 1
    conj = conjugate(lam)
    num = factorial(sum(lam))
    for i, row in enumerate(lam):
        for j in range(row):
            num //= row - j + conj[j] - i - 1
    return num


def conjugate(lam):
    if not lam:
        return ()
    out = []
    for j in range(lam[0]):
        out.append(sum(1 for row in lam if row > j))
    return tuple(out)


def add_positions(lam):
    """Row indices (0-based) where a box may be added."""
    out = []
    for i in range(len(lam)):
        if i == 0 or lam[i - 1] > lam[i]:
            out.append(i)
    out.append(len(lam))
    return out


def rem_positions(lam):
    """Row indices (0-based) where a box may be removed."""
    out = []
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            out.append(i)
    return out


def add_box(lam, i):
    rows = list(lam)
    if i == len(rows):
        rows.append(1)
    else:
        rows[i] += 1
    return tuple(rows)


def rem_box(lam, i):
    rows = list(lam)
    rows[i] -= 1
    if rows[i] == 0:
        rows.pop(i)
    return tuple(rows)


def add_boxes(mu, j):
    """All multipartitions obtained by adding a box in component j (1-based)."""
    if not 1 <= j <= len(mu):
        raise IndexError("component index out of range")
    out = []
    for i in add_positions(mu[j - 1]):
        parts = list(mu)
        parts[j - 1] = add_box(mu[j - 1], i)
        out.append(tuple(parts))
    return out


def rem_boxes(mu, j):
    """All multipartitions obtained by removing a box in component j (1-based)."""
    if not 1 <= j <= len(mu):
        raise IndexError("component index out of range")
    out = []
    for i in rem_positions(mu[j - 1]):
        parts = list(mu)
        parts[j - 1] = rem_box(mu[j - 1], i)
        out.append(tuple(parts))
    return out


# ---------------------------------------------------------------------------
# permutations (0-based image tuples, composed as functions)


def perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_word(p):
    """Adjacent-transposition word with p = s_{w[0]} o s_{w[1]} o ... (1-based)."""
    line = list(p)
    rword = []
    changed = True
    while changed:
        changed = False
        for i in range(len(line) - 1):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                rword.append(i + 1)
                changed = True
    # line * s_{rword[0]} * ... = id, so p = s(last) o ... o s(first)
    return rword[::-1]


# ---------------------------------------------------------------------------
# standard tableaux and tabloids


def standard_tableaux(lam):
    """Row sequences of the standard tableaux of shape lam, in lex order.

    seq[j] is the (1-based) row holding entry j+1.
    """
    k = sum(lam)
    rows = len(lam)
    out = []
    fill = [0] * rows
    seq = []

    def rec(t):
        if t == k:
            out.append(tuple(seq))
            return
        for i in range(rows):
            if fill[i] < lam[i] and (i == 0 or fill[i - 1] > fill[i]):
                fill[i] += 1
                seq.append(i + 1)
                rec(t + 1)
                seq.pop()
                fill[i] -= 1

    rec(0)
    return out


def _tabloids(lam):
    """All row assignments with the content of lam, as row-sequence tuples."""
    k = sum(lam)
    out = []
    seq = []
    fill = [0] * len(lam)

    def rec(t):
        if t == k:
            out.append(tuple(seq))
            return
        for i in range(len(lam)):
            if fill[i] < lam[i]:
                fill[i] += 1
                seq.append(i + 1)
                rec(t + 1)
                seq.pop()
                fill[i] -= 1

    rec(0)
    out.sort()
    return out


def _tableau_columns(lam, seq):
    """Entries of each column of the tableau encoded by seq (1-based entries)."""
    cols = [[] for _ in range(lam[0])] if lam else []
    fill = [0] * len(lam)
    for entry, row in enumerate(seq, start=1):
        cols[fill[row - 1]].append(entry)
        fill[row - 1] += 1
    return cols


def _polytabloid(lam, seq, tab_index):
    """Tabloid-coordinate vector of the polytabloid of the tableau seq."""
    k = sum(lam)
    vec = [0] * len(tab_index)
    cols = _tableau_columns(lam, seq)
    row_of = {entry: seq[entry - 1] for entry in range(1, k + 1)}

    def signed_perms(items):
        if len(items) == 1:
            yield 1, {items[0]: items[0]}
            return
        first, rest = items[0], items[1:]
        for sgn, mp in signed_perms(rest):
            # insert `first` into each position of the image arrangement
            arrangement = [mp[x] for x in rest]
            for pos in range(len(rest) + 1):
                arr = arrangement[:pos] + [first] + arrangement[pos:]
                s = sgn * (1 if pos % 2 == 0 else -1)
                yield s, dict(zip(items, arr))

    col_perm_pools = []
    for col in cols:
        col_perm_pools.append(list(signed_perms(col)))
    for combo in product(*col_perm_pools):
        sgn = 1
        move = {}
        for s, mp in combo:
            sgn *= s
            move.update(mp)
        tab = tuple(row_of[move.get(x, x)] for x in range(1, k + 1))
        vec[tab_index[tab]] += sgn
    return vec


class SpechtRep:
    """Exact Specht module of the symmetric group S_k for a partition.

    Attributes: lam, dim, basis (standard row sequences), gens (integer
    matrices of the adjacent transpositions s_1..s_{k-1} in the polytabloid
    basis), form (tabloid inner-product Gram matrix, integer symmetric).
    """

    def __init__(self, lam):
        self.lam = tuple(lam)
        k = sum(lam)
        self.k = k
        self.basis = standard_tableaux(self.lam) if k else [()]
        self.dim = len(self.basis)
        tabs = _tabloids(self.lam) if k else [()]
        tab_index = {t: i for i, t in enumerate(tabs)}
        E = [[0] * self.dim for _ in range(len(tabs))]
        for c, seq in enumerate(self.basis):
            col = _polytabloid(self.lam, seq, tab_index) if k else [1]
            for r, v in enumerate(col):
                E[r][c] = v
        self._E = E
        self._tabs = tabs
        self._tab_index = tab_index
        self._pivot_rows = [tab_index[seq] for seq in self.basis]
        self.gens = [self._generator_matrix(i) for i in range(1, k)]
        Et = [[E[r][c] for r in range(len(tabs))] for c in range(self.dim)]
        self.form = int_mat_mul(Et, E)

    def _generator_matrix(self, i):
        """Matrix of s_i (swap entries i, i+1) on the polytabloid basis."""
        E = self._E
        permuted = []
        for t in self._tabs:
            lst = list(t)
            lst[i - 1], lst[i] = lst[i], lst[i - 1]
            permuted.append(self._tab_index[tuple(lst)])
        PE = [E[0][:] for _ in range(len(E))]
        for r in range(len(E)):
            PE[permuted[r]] = E[r]
        # on the rows of the standard tabloids {t}, E is lower unitriangular
        # (James, Lemma 8.3: {t} is the last tabloid of e_t in dominance,
        # which lex order extends), so E*M = PE solves by substitution
        out = []
        for i, r in enumerate(self._pivot_rows):
            row = list(PE[r])
            for j in range(i):
                if E[r][j]:
                    row = [a - E[r][j] * b for a, b in zip(row, out[j])]
            out.append(row)
        # exactness check: E * M == P * E
        if int_mat_mul(E, out) != PE:
            raise ArithmeticError("Specht generator solve failed")
        return out

    def matrix(self, perm):
        """Matrix of an arbitrary permutation (0-based image tuple)."""
        if self.k <= 1:
            return identity_matrix(self.dim)
        M = identity_matrix(self.dim)
        for a in perm_word(perm):
            M = int_mat_mul(M, self.gens[a - 1])
        return M


@lru_cache(maxsize=None)
def specht_rep(lam):
    return SpechtRep(lam)


class OuterRep:
    """Outer tensor product of Specht modules for a product of symmetric groups.

    The basis is the set of tuples of standard row sequences; matrices and
    the bilinear form are Kronecker products of the factors'.
    """

    def __init__(self, mu):
        self.mu = tuple(tuple(lam) for lam in mu)
        self.factors = [specht_rep(lam) for lam in self.mu]
        self.dim = 1
        for f in self.factors:
            self.dim *= f.dim
        self.basis = [tuple(t) for t in product(*[f.basis for f in self.factors])]
        F = [[1]]
        for f in self.factors:
            F = kron(F, f.form)
        self.form = F

    @lru_cache(maxsize=None)
    def matrix(self, sigma):
        """Matrix of a tuple of permutations, one per factor, built once per
        tuple: callers share it and must not change it."""
        M = [[1]]
        for f, p in zip(self.factors, sigma):
            M = kron(M, f.matrix(p))
        return M


@lru_cache(maxsize=None)
def outer_rep(mu):
    return OuterRep(mu)
