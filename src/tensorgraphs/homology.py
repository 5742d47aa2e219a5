"""Bubble chain complex and integer homology of colored graphs.

A closed graph on ``k`` colors has a chain complex whose degree-``p`` group
is freely generated by its p-bubbles (connected subgraphs spanned by ``p``
of the colors), for ``p = 0 .. k-1``:

* degree 0: the vertices,
* degree 1: the edges,
* degree p >= 2: bubbles over each p-subset of colors.

Boundary maps: an edge maps to (white end) - (black end); a bubble with
colors ``i_1 < ... < i_p`` maps to the alternating sum over ``q`` of its
sub-bubbles obtained by deleting color ``i_q``, with sign ``(-1)**(q+1)``.

The boundary columns are built from the label arrays the graph keeps per
color subset: the bubbles over one color are its edges, those over two
its alternating paths and cycles, each walked once, and those over more
colors unions of bubbles over one color fewer.  A column lists the rows
of its bubble's faces, each face read off at its smallest vertex.  Only
:func:`chain_complex` builds ``Bubble`` bases, and it takes any closed
graph; :func:`homology` and :func:`euler_characteristic` take regular
ones only, in which every vertex carries every color.

A graph of degree 0 needs no boundary map at all.  A connected closed
graph of degree 0 on 3 or more colors is dual to a PL sphere (Gurau,
arXiv:1102.5759; Bonzom, Gurau, Riello and Rivasseau, arXiv:1105.3122), so
its homology is Z in degree 0 and in the top degree and 0 in between.  The
degree follows from the number of 2-bubbles (``graphs._degree_excess``,
the identity behind ``DegreeReport.face_count_degree``), so on such a
graph :func:`homology` and :func:`euler_characteristic` build the color
pairs and the components only (:func:`_sphere_homology`).

Any other graph needs only the rank and the torsion of each map, and
:func:`homology` reduces its complex from the top down by the Gaussian
elimination lemma (Bar-Natan, J. Knot Theory Ramif. 16 (2007)): a +-1
pivot of d_p at row r and column s removes column r from d_p-1 and row s
from d_p+1 and changes nothing else in them.  d_1 and, from 3 colors on,
d_top are signed incidence matrices, whose unit pivots are the edges of
spanning forests; d_top-1 down to d_2 are then eliminated in turn, each
built without the columns of the pivot rows of the map above.  What is
left of a map without a unit pivot gets its invariant factors from a
sparse reduction that keeps only the diagonal (Dumas, Saunders and
Villard, J. Symb. Comput. 32 (2001)), so free ranks and torsion
coefficients are exact.  :func:`chain_complex` keeps the full maps, and
:func:`smith_normal_form` remains the public reference with the
unimodular transforms U and V.  All arithmetic uses Python's
arbitrary-precision integers; no floating point enters anywhere.
"""

from __future__ import annotations

import operator
from itertools import combinations
from math import gcd
from typing import Container, Iterable, NamedTuple, Sequence

from .graphs import WHITE, Bubble, ColoredGraph, GraphError, _Record, bubbles
from .graphs import _degree_excess, _require_regular, _subset_labels, _walk_state

__all__ = [
    "MAX_HOMOLOGY_COLORS",
    "ChainComplex",
    "chain_complex",
    "SmithForm",
    "smith_normal_form",
    "HomologyGroup",
    "HomologyResult",
    "homology",
    "euler_characteristic",
]

Matrix = list[list[int]]
Column = tuple[tuple[int, int], ...]  # the (row, value) entries of a sparse column

# Most colors chain_complex and euler_characteristic accept.  A graph on k
# colors has bubbles over all 2^k color subsets: 1024 at 10 colors, where
# homology of a 6-vertex graph of positive degree (H_2 = Z) takes about
# 0.008 s of CPU (best of 7, on a shared 2-core x86-64 host), and each
# further color about doubles that.  A graph of degree 0 builds only the
# color pairs and its components.
MAX_HOMOLOGY_COLORS = 10


class ChainComplex(_Record):
    """Ordered bubble bases and integer boundary matrices.

    ``basis[p]`` lists the p-bubbles in the canonical order (sorted by
    color subset, then smallest member vertex).  ``matrix(p)`` is the
    boundary map from degree ``p`` to degree ``p - 1``, with
    ``len(basis[p-1])`` rows and ``len(basis[p])`` columns.
    """

    # _columns[p - 1][j] lists the nonzero (row, coefficient) entries of
    # column j of matrix(p).
    __slots__ = _fields = ("colors", "basis", "_columns")

    def __init__(
        self,
        colors: tuple[int, ...],
        basis: tuple[tuple[Bubble, ...], ...],
        _columns: tuple[tuple[Column, ...], ...],
    ) -> None:
        self._set(colors, basis, _columns)

    @property
    def top_degree(self) -> int:
        return len(self.basis) - 1

    def dim(self, p: int) -> int:
        if 0 <= p <= self.top_degree:
            return len(self.basis[p])
        return 0

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.basis)

    def matrix(self, p: int) -> Matrix:
        """The matrix of the boundary map in degree p (1 <= p <= top)."""
        if not 1 <= p <= self.top_degree:
            raise GraphError(f"no boundary matrix in degree {p}")
        m: Matrix = [[0] * len(self.basis[p]) for _ in self.basis[p - 1]]
        for col, entries in enumerate(self._columns[p - 1]):
            for row, x in entries:
                m[row][col] = x
        return m


def _check_complex(g: ColoredGraph) -> int:
    """The top degree; raise unless g is closed with <= MAX_HOMOLOGY_COLORS colors."""
    if g.is_open:
        raise GraphError("chain complex requires a closed graph (no legs)")
    k = len(g.colors)
    if k > MAX_HOMOLOGY_COLORS:
        raise GraphError(
            f"homology: {k} colors give {2 ** k} color subsets; "
            f"at most {MAX_HOMOLOGY_COLORS} colors are supported"
        )
    return max(k - 1, 0)


def _forest(ends: Iterable[tuple[int, int]], n: int) -> set[int]:
    """The indices of the pairs ``ends`` that join two trees of a union-find
    forest over range(n), taken in order: the edges of a spanning forest."""
    parent, found = list(range(n)), set()
    for i, (u, v) in enumerate(ends):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]  # path halving
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            found.add(i)
    return found


def _forests(g: ColoredGraph) -> tuple[set[int], set[int]]:
    """The rows of d_2 of the edges of a spanning forest of a regular g on 4
    or more colors, and the columns of d_top-1 of the edges of one of the
    graph G* on the top cells (see :func:`homology`): a (k-2)-cell over
    C - {a, b} joins the top cells over C - {a} and C - {b} through it."""
    colors, (_, nbrs, _) = g.colors, _walk_state(g)
    edges = [(r, nb[r]) for c, nb in zip(colors, nbrs) for r in _subset_labels(g, (c,))[1]]
    cells, offset = {}, 0
    for a in colors:  # the top cells, numbered by the color each lacks
        lab, reps = _subset_labels(g, tuple(c for c in colors if c != a))
        cells[a] = offset, lab
        offset += len(reps)
    ends = []
    for subset in combinations(colors, len(colors) - 2):
        (at_a, lab_a), (at_b, lab_b) = (cells[c] for c in colors if c not in subset)
        ends += [(at_a + lab_a[r], at_b + lab_b[r]) for r in _subset_labels(g, subset)[1]]
    return _forest(edges, len(g)), _forest(ends, offset)


def _boundary_map(
    g: ColoredGraph, p: int, skip: Container[int] = (), drop: Container[int] = ()
) -> list[tuple[int, dict[int, int]]]:
    """The boundary map of degree p >= 2 as (column, {row: entry}) pairs,
    for the p-cells outside ``skip`` (never built), without the rows in
    ``drop``.  A degree numbers its bubbles by color subset, those of one
    subset in the order of their label arrays (:func:`graphs._subset_labels`).
    A bubble over S - {c} lies in the S-bubble that holds its smallest
    vertex, so the S-bubbles' faces are dealt out by one label read per
    (S - {c})-bubble, ``lab_S[rep]``: by dropped color, then by row.
    """
    faces, start = {}, 0
    for face in combinations(g.colors, p - 1):
        reps = _subset_labels(g, face)[1]
        faces[face] = [(i, r) for i, r in enumerate(reps, start) if i not in drop]
        start += len(reps)
    columns, start = [], 0
    for subset in combinations(g.colors, p):
        lab, reps = _subset_labels(g, subset)
        cols = [None if j in skip else {} for j in range(start, start + len(reps))]
        for q in range(p):
            sign = 1 - q % 2 * 2
            for row, r in faces[subset[:q] + subset[q + 1 :]]:
                if (col := cols[lab[r]]) is not None:
                    col[row] = sign
        columns += [(j, col) for j, col in enumerate(cols, start) if col is not None]
        start += len(reps)
    return columns


def _boundary_columns(g: ColoredGraph) -> list[tuple[Column, ...]]:
    """Columns of the boundary maps of degrees 1 .. top: d_1 has a vertex
    index per row and maps an edge to (white end) - (black end), the others
    are :func:`_boundary_map`'s."""
    if len(g.colors) < 2:
        return []
    labels, nbrs, _ = _walk_state(g)
    d1 = []
    for c, nb in zip(g.colors, nbrs):
        for u in _subset_labels(g, (c,))[1]:
            w, b = (u, nb[u]) if g._parity[labels[u]] == WHITE else (nb[u], u)
            d1.append(((w, 1), (b, -1)))
    maps = [_boundary_map(g, p) for p in range(2, len(g.colors))]
    return [tuple(d1)] + [tuple(tuple(col.items()) for _, col in m) for m in maps]


def chain_complex(g: ColoredGraph) -> ChainComplex:
    """Build the bubble chain complex of a closed graph.

    At most :data:`MAX_HOMOLOGY_COLORS` colors are accepted.
    """
    top = _check_complex(g)
    colors = g.colors
    basis = tuple(
        tuple(b for subset in combinations(colors, p) for b in bubbles(g, subset))
        for p in range(top + 1)
    )
    return ChainComplex(colors, basis, tuple(_boundary_columns(g)))


# -- Smith normal form -------------------------------------------------------


class SmithForm(NamedTuple):
    """U * M * V = diag(d_1, ..., d_r, 0, ...) with d_i | d_{i+1}.

    ``diagonal`` has min(rows, cols) entries, all non-negative; ``rank``
    counts the nonzero ones.  U and V are unimodular.
    """

    diagonal: tuple[int, ...]
    rank: int
    U: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    shape: tuple[int, int]

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Each pivot is the smallest-magnitude nonzero entry of the remaining
    block.  Its column and row are cleared by floor division.  A nonzero
    remainder is smaller than the pivot, so the pivot is chosen again from
    the whole block.  Once both are clear, the block is scanned for an entry
    the pivot does not divide; the first row holding one is added into the
    pivot row and the pivot is chosen again.  This keeps the divisibility
    chain.  Each new choice is smaller than the last pivot, except the one
    right after a fix-up, which may keep it but then leaves a remainder; so
    the call always returns.  Exact integer arithmetic throughout.

    >>> smith_normal_form([[2, 4], [6, 8]]).diagonal
    (2, 4)
    >>> smith_normal_form([[1, 0], [0, 1], [0, 0]]).rank
    2
    """
    rows: Matrix = [[operator.index(x) for x in row] for row in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged matrix")
    # One augmented matrix [[M, U], [V, 0]]: an operation on the first m
    # rows acts on M and U together, one on the first n columns on M and V
    # together, and none ever reaches the zero block.
    a: Matrix = [row + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    a += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]

    def row_sub(i: int, j: int, q: int) -> None:  # row i -= q * row j
        ai, aj = a[i], a[j]
        for k in range(n + m):
            ai[k] -= q * aj[k]

    def col_sub(i: int, j: int, q: int) -> None:  # col i -= q * col j
        for r in a:
            r[i] -= q * r[j]

    def swap_cols(i: int, j: int) -> None:
        for r in a:
            r[i], r[j] = r[j], r[i]

    size = min(m, n)
    t = 0
    while t < size:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    pivot, best = (i, j), abs(x)
        if pivot is None:
            break
        a[t], a[pivot[0]] = a[pivot[0]], a[t]
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        d = a[t][t]
        for i in range(t + 1, m):
            if a[i][t]:
                row_sub(i, t, a[i][t] // d)
        for j in range(t + 1, n):
            if a[t][j]:
                col_sub(j, t, a[t][j] // d)
        # A remainder left in row or column t is smaller than d: choose the
        # pivot again from the whole block.
        if any(a[i][t] for i in range(t + 1, m)) or any(a[t][j] for j in range(t + 1, n)):
            continue
        # divisibility fix-up: d must divide the remaining block
        offender = next(
            (i for i in range(t + 1, m) if any(a[i][j] % d for j in range(t + 1, n))),
            None,
        )
        if offender is None:
            t += 1
        else:
            row_sub(t, offender, -1)

    diagonal = tuple(a[i][i] for i in range(size))
    return SmithForm(
        diagonal,
        sum(1 for d in diagonal if d),
        tuple(tuple(row[n:]) for row in a[:m]),
        tuple(tuple(row[:n]) for row in a[m:]),
        (m, n),
    )


# -- homology ------------------------------------------------------------------


class HomologyGroup(NamedTuple):
    """One homology group: free rank plus torsion coefficients."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class HomologyResult(NamedTuple):
    """Integer homology of the bubble complex, degree by degree."""

    groups: tuple[HomologyGroup, ...]
    euler: int

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(h.free_rank for h in self.groups)

    def lines(self) -> list[str]:
        out = [f"H_{q} = {h}" for q, h in enumerate(self.groups)]
        out.append(f"chi = {self.euler}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _unit_pivots(
    columns: list[tuple[int, dict[int, int]]],
) -> tuple[set[int], set[int], dict[int, dict[int, int]]]:
    """The pivot rows, the pivot columns and the leftover ``{column: {row:
    entry}}`` of a sparse map of (column, {row: entry}) pairs, eliminated on
    +-1 pivots with its columns reduced in place.  Each column is reduced
    against the pivots found so far, each of which vanishes on the rows of
    those before it; that leaves the one vector in the column plus their
    span that vanishes on all pivot rows, the column that eliminating them
    leaves.  A +-1 entry then makes it a pivot; else it is left over, to be
    reduced again when a later pivot's row meets it.
    """
    pivots, used, rest = {}, set(), {}  # pivots: row -> its column
    queue = columns[::-1]
    while queue:
        j, col = queue.pop()
        while hits := col.keys() & pivots.keys():
            for i in hits:
                if f := col.get(i):
                    piv = pivots[i]
                    f *= piv[i]
                    for r, x in piv.items():
                        if y := col.get(r, 0) - f * x:
                            col[r] = y
                        else:
                            del col[r]
        if (i := next((i for i, x in col.items() if x == 1 or x == -1), None)) is None:
            if col:
                rest[j] = col
            continue
        pivots[i] = col
        used.add(j)
        queue += [(k, rest.pop(k)) for k in [k for k, c in rest.items() if i in c]]
    return set(pivots), used, rest


def _invariant_factors(
    columns: dict[int, dict[int, int]], dropped: Container[int] = ()
) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion coefficients of a sparse integer matrix ``{column:
    {row: entry}}`` without the rows in ``dropped``, reduced as its transpose.
    Each pivot is an entry of least magnitude.  Row operations clear its
    column, then column operations, which touch no other row, reduce the
    rest of its row to remainders; a nonzero one is the next pivot.  Else
    the pivot's magnitude is kept and its row and column dropped.  The kept
    d_1, ..., d_r make an equivalent diagonal matrix, and replacing pairs by
    their gcd and lcm gives the invariant factors, with no U or V built.
    """
    rows = {j: {i: x for i, x in col.items() if i not in dropped} for j, col in columns.items()}
    diagonal: list[int] = []
    while any(rows.values()):
        _, r, c = min((abs(x), r, c) for r, row in rows.items() for c, x in row.items())
        row, x = rows[r], rows[r][c]
        for other in rows.values():
            if other is not row and c in other:
                q = other[c] // x
                for c2, y in row.items():
                    if z := other.get(c2, 0) - q * y:
                        other[c2] = z
                    else:
                        del other[c2]
        if any(c in other for other in rows.values() if other is not row):
            continue  # a remainder
        if remainders := {c2: m for c2, y in row.items() if c2 != c and (m := y % x)}:
            rows[r] = {c: x, **remainders}
        else:
            del rows[r]
            diagonal.append(abs(x))
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            d = gcd(diagonal[a], diagonal[b])
            diagonal[a], diagonal[b] = d, diagonal[a] * diagonal[b] // d
    return len(diagonal), tuple(d for d in diagonal if d > 1)


def _sphere_homology(g: ColoredGraph, top: int) -> HomologyResult | None:
    """The homology of a regular closed graph g of top degree 2 or more whose
    components all have degree 0, one sphere each; None for any other g.
    Only the color pairs and the components are built: 4 w / (k-2)! =
    C(k-1, 2) |V| + 2 (k-1) c - 2 F over the c components and F 2-bubbles.
    """
    if top < 2:
        return None
    c = len(_subset_labels(g, g.colors)[1])
    faces = sum(len(_subset_labels(g, pair)[1]) for pair in combinations(g.colors, 2))
    if _degree_excess(top + 1, len(g), c, faces):
        return None
    sphere = HomologyGroup(c)
    return HomologyResult(
        (sphere,) + (HomologyGroup(0),) * (top - 1) + (sphere,), c * (1 + (-1) ** top)
    )


def homology(g: ColoredGraph) -> HomologyResult:
    """Integer homology H_q = ker d_q / im d_{q+1} of a regular closed graph.

    A graph with a vertex missing a color raises :class:`GraphError`.  On 3
    or more colors, a graph whose components all have degree 0 is a union
    of spheres, answered from its 2-bubble count with no map eliminated
    (see the module docstring and :func:`_sphere_homology`).

    Otherwise the complex is reduced by the Gaussian elimination lemma: a
    +-1 pivot of d_p at row r and column s removes column r from d_p-1 and
    row s from d_p+1.  d_1 is a signed incidence matrix, whose unit pivots
    are the edges of a spanning forest, so rank d_1 is |V| minus the number
    of components and d_2 loses their rows.  So is d_top on 3 or more
    colors C, once the column of each (C - {a})-cell is multiplied by
    (-1)**index(a), as a (k-2)-bubble is a face of exactly two top cells:
    rank d_top is their number minus the number of components, and d_top-1
    loses the columns of a spanning forest of the graph G* so made on them.
    Then d_top-1 down to d_2 are eliminated in turn, d_p built without the
    columns of d_p+1's pivot rows, and d_p+1's leftover loses the rows of
    d_p's pivot columns.  rank d_p is its unit pivots plus the rank of its
    leftover, whose invariant factors are the torsion.  A 3-colored graph
    eliminates nothing; the chain ranks ``dims`` are bubble counts.
    """
    top = _check_complex(g)
    _require_regular(g, "homology")
    if (spheres := _sphere_homology(g, top)) is not None:
        return spheres
    comps = len(_subset_labels(g, g.colors)[1]) if top else 0
    dims = [len(g), len(g._edges)] + [
        sum(len(_subset_labels(g, s)[1]) for s in combinations(g.colors, p))
        for p in range(2, top + 1)
    ]
    rank = [0] * (top + 2)  # rank[p] = rank of the degree-p boundary map
    torsion: list[tuple[int, ...]] = [()] * (top + 2)
    if top:  # every vertex has an edge
        rank[1] = len(g) - comps
    if top >= 2:
        rank[top] = dims[top] - comps
    drop, skip = _forests(g) if top >= 3 else ((), ())
    left, used = {}, {1: ()}  # d_1's pivot columns, the forest, are no rows of d_2
    for p in range(top - 1, 1, -1):
        skip, used[p], left[p] = _unit_pivots(_boundary_map(g, p, skip, drop if p == 2 else ()))
        rank[p] = len(used[p])
    for p, rest in left.items():  # d_p's leftover without d_p-1's pivot columns
        if rest:
            extra, torsion[p] = _invariant_factors(rest, used[p - 1])
            rank[p] += extra
    groups = [
        HomologyGroup(dims[q] - rank[q] - rank[q + 1], torsion[q + 1])
        for q in range(top + 1)
    ]
    chi = sum((-1) ** q * h.free_rank for q, h in enumerate(groups))
    return HomologyResult(tuple(groups), chi)


def euler_characteristic(g: ColoredGraph) -> int:
    """Alternating sum over p of the number of p-bubbles, p = 0 .. k-1, of a
    regular closed graph.

    These are the ranks of the chain groups (degree 0 being the vertices),
    whose alternating sum equals that of the homology free ranks; no
    boundary map is built, and a graph of degree 0 is answered as in
    :func:`homology`.  At most :data:`MAX_HOMOLOGY_COLORS` colors are
    accepted.
    """
    top = _check_complex(g)
    _require_regular(g, "euler characteristic")
    if (spheres := _sphere_homology(g, top)) is not None:
        return spheres.euler
    colors = g.colors
    return len(g) + sum(
        (-1) ** p * len(_subset_labels(g, subset)[1])
        for p in range(1, len(colors))
        for subset in combinations(colors, p)
    )
