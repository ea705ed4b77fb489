"""Integer partitions, standard tableaux, and exact Specht modules over Z.

Specht modules are realised as polytabloid spans inside the tabloid
permutation module, with the tabloid inner product as bilinear form.  The
standard-tableau polytabloids are a Z-basis; each permutation's matrix is
solved over Z by forward substitution and checked.  Tableaux are encoded as
row sequences, e.g. the shape (3,1) has standard sequences 1112, 1121, 1211.
"""

from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

from .exactla import int_mat_mul, kron


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


# ---------------------------------------------------------------------------
# standard tableaux and tabloids


def standard_tableaux(lam, tabs=None):
    """Row sequences of the standard tableaux of shape lam, in lex order:
    the lattice words among tabs, the tabloids of lam (built if not given).

    seq[j] is the (1-based) row holding entry j+1.
    """
    return [t for t in (_tabloids(lam) if tabs is None else tabs) if _is_lattice(t)]


def _tabloids(lam):
    """All row assignments with lam[i] entries in row i+1, as row-sequence
    tuples in lex order."""
    if not any(lam):
        return [()]
    out = []
    for i, c in enumerate(lam):
        if c:
            rest = (*lam[:i], c - 1, *lam[i + 1:])
            out += [(i + 1,) + t for t in _tabloids(rest)]
    return out


def _is_lattice(seq):
    """Whether every prefix of seq holds at least as many entries in row i
    as in row i+1, which is when the tabloid's filling is a standard tableau."""
    fill = [0] * (max(seq, default=0) + 1)
    for r in seq:
        fill[r] += 1
        if r > 1 and fill[r] > fill[r - 1]:
            return False
    return True


def _tableau_columns(lam, seq):
    """Entries of each column of the tableau encoded by seq (1-based entries)."""
    cols = [[] for _ in range(lam[0])] if lam else []
    fill = [0] * len(lam)
    for entry, row in enumerate(seq, start=1):
        cols[fill[row - 1]].append(entry)
        fill[row - 1] += 1
    return cols


def _sign(p):
    """(-1) to the number of inversions of the sequence p."""
    return -1 if sum(a > b for a, b in combinations(p, 2)) % 2 else 1


def _polytabloid(lam, seq, tab_index):
    """Tabloid-coordinate vector of the polytabloid of the tableau seq: the
    signed sum of the tabloids of its column permutations."""
    vec = [0] * len(tab_index)
    pools = []
    for col in _tableau_columns(lam, seq):
        rows = [seq[x - 1] for x in col]
        # entry p[i] takes the row of col[i]
        pools.append([(_sign(p), p, rows) for p in permutations(col)])
    for combo in product(*pools):
        sgn = 1
        tab = [0] * len(seq)
        for s, p, rows in combo:
            sgn *= s
            for x, r in zip(p, rows):
                tab[x - 1] = r
        vec[tab_index[tuple(tab)]] += sgn
    return vec


class SpechtRep:
    """Exact Specht module of the symmetric group S_k for a partition.

    Attributes: lam, dim, basis (standard row sequences), form (tabloid
    inner-product Gram matrix, integer symmetric).  matrix(perm) gives the
    integer matrix of a permutation in the polytabloid basis.
    """

    def __init__(self, lam):
        self.lam = tuple(lam)
        self.k = sum(lam)
        tabs = _tabloids(self.lam)
        tab_index = {t: i for i, t in enumerate(tabs)}
        self.basis = standard_tableaux(self.lam, tabs)
        self._pivot_rows = [tab_index[t] for t in self.basis]
        self.dim = len(self.basis)
        E = [[0] * self.dim for _ in range(len(tabs))]
        for c, seq in enumerate(self.basis):
            for r, v in enumerate(_polytabloid(self.lam, seq, tab_index)):
                E[r][c] = v
        self._E = E
        self._tabs = tabs
        self._tab_index = tab_index
        Et = [[E[r][c] for r in range(len(tabs))] for c in range(self.dim)]
        self.form = int_mat_mul(Et, E)

    def matrix(self, perm):
        """Matrix M of a permutation (0-based image tuple) on the polytabloid
        basis, solved from E*M = P*E and checked.

        perm sends the tabloid t to the u with u[perm[j]] = t[j], so
        matrix(p) * matrix(q) == matrix(p o q).
        """
        E, index = self._E, self._tab_index
        inv = perm_inverse(perm)
        PE = [None] * len(E)
        for t, row in zip(self._tabs, E):
            PE[index[tuple([t[j] for j in inv])]] = row
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
            raise ArithmeticError("Specht matrix solve failed for %r" % (perm,))
        return out


@lru_cache(maxsize=None)
def specht_rep(lam):
    return SpechtRep(lam)


class OuterRep:
    """Outer tensor product of Specht modules for a product of symmetric groups.

    The basis is indexed by tuples of standard row sequences; matrices and
    the bilinear form are Kronecker products of the factors'.
    """

    def __init__(self, mu):
        self.mu = tuple(tuple(lam) for lam in mu)
        self.factors = [specht_rep(lam) for lam in self.mu]
        self.dim = 1
        for f in self.factors:
            self.dim *= f.dim
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
