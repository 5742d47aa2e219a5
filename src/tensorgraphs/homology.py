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

Any other graph needs only the rank and the torsion of each map.  The
first map is a signed incidence matrix, totally unimodular, so its rank
is |V| minus the number of connected components and it has no torsion.
With 3 or more colors the top map is one too, up to column signs, so its
rank is the number of top cells minus the number of components (see
:func:`homology`).  The spanning forests behind these two counts also
shrink the maps in between: from 4 colors on, d_2 loses the
rows of the edges of a spanning forest of the graph and d_top-1 the
columns of a spanning forest of the graph on the top cells, with the
same rank and invariant factors.  These maps are found by sparse
elimination on +-1 pivots, taken in passes over the columns, shortest
first; only the block left without a unit entry goes to the dense Smith
normal form, so free ranks and torsion coefficients are exact.
:func:`chain_complex` keeps the full maps.
:func:`smith_normal_form` remains the public reference and returns the
unimodular transforms U and V.  All arithmetic uses Python's
arbitrary-precision integers; no floating point enters anywhere.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

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
# 0.031 s of CPU (best of 7, on a shared 2-core x86-64 host), and each
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


def _joins(parent: list[int], u: int, v: int) -> bool:
    """Join the trees of u and v in the union-find forest ``parent``; False
    when they are one tree already, so that an edge u-v would close a cycle."""
    while parent[u] != u:
        parent[u] = u = parent[parent[u]]  # path halving
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    if u == v:
        return False
    parent[u] = v
    return True


def _boundary_columns(g: ColoredGraph, reduced: bool = False) -> list[tuple[Column, ...]]:
    """Columns of the boundary maps of degrees 1 .. top, or with ``reduced``
    of degrees 2 .. top - 1 (the maps :func:`homology` eliminates).

    Degree-0 rows are vertex indices; the bubbles of a color subset take
    consecutive rows of their layer, in the order of the walk slot's label
    arrays (:func:`graphs._subset_labels`).  Each bubble over S - {c} lies
    inside one S-bubble, the one that holds its smallest vertex, so the
    faces of the S-bubbles are dealt out by one label read per
    (S - {c})-bubble: ``lab_S[rep]``.

    :func:`homology` never asks for the top map of 3 or more colors C: a
    (k-2)-bubble over C - {a, b} is a face of exactly two top cells, the
    (C - {a})- and the (C - {b})-bubble through it, and once the column of
    each (C - {a})-cell is multiplied by (-1)**index(a) its row holds one +1
    and one -1.  So the top map is the transposed incidence matrix of a
    graph G* on the top cells, whose pieces are the components with an edge.

    With ``reduced`` (for :func:`homology` on a regular graph) two spanning
    forests shrink the maps without changing their ranks or invariant
    factors.  The rows of d_2 of the edges of a spanning forest of the
    graph, picked by union-find over the 1-bubble rows in row order, are
    dropped: E - V + #components rows stay.  And from 4 colors on, the
    columns of d_top-1 of the edges of a spanning forest of G*, whose ends
    are the top cells' labels at the edge's smallest vertex, are never
    built: dim - (#top cells - #components with an edge) columns stay.
    Kept rows keep their full-map numbers.
    """
    first, last = 1 + reduced, len(g.colors) - 1 - reduced
    if first > last:  # e.g. reduced on 3 colors: no 1-bubble is walked
        return []
    labels, nbrs, _ = _walk_state(g)
    colors, parity = g.colors, g._parity
    kept: dict[tuple[int, ...], list[tuple[int, int]]] = {}  # (row, smallest vertex)
    forest = list(range(len(labels)))  # union-find over the vertices
    columns = []
    for p in range(1, last + 1):  # 1-bubble rows serve d_2
        layer, start = [], 0
        dual = reduced and p == len(colors) - 2
        if dual:  # the top cells, numbered by the color each lacks
            cells, offset = {}, 0
            for a in colors:
                cell_lab, cell_reps = _subset_labels(g, tuple(c for c in colors if c != a))
                cells[a] = offset, cell_lab
                offset += len(cell_reps)
            dual_forest = list(range(offset))  # union-find over the top cells
        for subset in combinations(colors, p):
            lab, reps = _subset_labels(g, subset)
            if p == 1:
                nb = nbrs[colors.index(subset[0])]
                if first == 1:  # an edge maps to (white end) - (black end)
                    for u in reps:
                        w, b = (u, nb[u]) if parity[labels[u]] == WHITE else (nb[u], u)
                        layer.append(((w, 1), (b, -1)))
            else:
                cols: list[list[tuple[int, int]]] = [[] for _ in reps]
                for q in range(p):
                    sign = 1 - q % 2 * 2
                    for row, r in kept[subset[:q] + subset[q + 1 :]]:
                        cols[lab[r]].append((row, sign))
                if dual:  # each bubble is the edge of G* between two cells
                    (at_a, lab_a), (at_b, lab_b) = (cells[c] for c in colors if c not in subset)
                    cols = [
                        col
                        for col, r in zip(cols, reps)
                        if not _joins(dual_forest, at_a + lab_a[r], at_b + lab_b[r])
                    ]
                layer.extend(map(tuple, cols))
            if p < last:
                kept[subset] = [
                    (i, r)
                    for i, r in enumerate(reps, start)
                    if not (reduced and p == 1 and _joins(forest, r, nb[r]))
                ]
                start += len(reps)
        if p >= first:
            columns.append(tuple(layer))
    return columns


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


def _rank_and_torsion(
    columns: Sequence[Iterable[tuple[int, int]]],
) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion coefficients of a sparse integer matrix.

    ``columns[j]`` lists the (row, value) entries of column j.  A +-1
    pivot is eliminated from its column by row operations; its row can
    then be cleared by column operations that touch nothing else, so the
    invariant factors are a 1 plus those of the matrix without that row
    and column.  Pivots are taken in passes over the columns, shortest
    first by their lengths at the start of the pass; in each column the
    pivot is the +-1 entry whose row is currently shortest, to keep
    fill-in low.  Passes repeat while the last one found a pivot.
    Whatever block is left has no +-1 entry and goes to
    :func:`smith_normal_form`.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for j, entries in enumerate(columns):
        for i, x in entries:
            if x:
                rows.setdefault(i, {})[j] = x
                cols.setdefault(j, set()).add(i)

    rank = 0
    found = True
    while found:
        found = False
        for j in sorted(cols, key=lambda c: len(cols[c])):
            below = cols.get(j)
            if below is None:
                continue
            units = [k for k in below if rows[k][j] in (1, -1)]
            if not units:
                continue
            found = True
            rank += 1
            i = min(units, key=lambda k: len(rows[k]))
            pivot_row = rows.pop(i)
            u = pivot_row.pop(j)
            del cols[j]
            below.discard(i)
            for c in pivot_row:
                cols[c].discard(i)
            for k in below:
                row = rows[k]
                f = row.pop(j) * u
                for c, x in pivot_row.items():
                    y = row.get(c, 0) - f * x
                    if y:
                        row[c] = y
                        cols[c].add(k)
                    else:
                        del row[c]
                        cols[c].discard(k)
                if not row:
                    del rows[k]
            for c in pivot_row:
                if not cols[c]:
                    del cols[c]

    if not rows:
        return rank, ()
    block = [[rows[i].get(j, 0) for j in sorted(cols)] for i in sorted(rows)]
    rest = smith_normal_form(block)
    return rank + rest.rank, rest.torsion


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

    Two maps are signed incidence matrices, totally unimodular, so each has
    the rank of a graph and no torsion.  rank d_1 is |V| minus the number of
    components.  With 3 or more colors, rank d_top is the number of top
    cells minus the number of components: each (k-2)-bubble is a face of
    exactly two top cells, with opposite signs once the column of each
    (C - {a})-cell is multiplied by (-1)**index(a) (see
    :func:`_boundary_columns`).  Only the maps in between go to
    :func:`_rank_and_torsion`, so a 3-colored graph needs no elimination.

    Those maps are reduced first.  im d_2 lies in ker d_1, a direct summand
    of C_1 that the projection onto the edges outside a spanning forest maps
    isomorphically, so the forest rows of d_2 are dropped.  im d_top is the
    cut space of the graph G* on the top cells, also a summand, on which
    d_top-1 vanishes; the (top-1)-cells outside a spanning forest of G*
    span a complement of it, so only their columns are built.  Neither step
    changes the rank or the invariant factors, and the chain ranks ``dims``
    come from bubble counts.
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
    for p, columns in enumerate(_boundary_columns(g, reduced=True), 2):
        rank[p], torsion[p] = _rank_and_torsion(columns)
    if top >= 2:
        rank[top] = dims[top] - comps
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
