"""Bubble chain complex, Smith normal form, and integer homology."""

from __future__ import annotations

import importlib
import itertools
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgraphs import graphs as graphs_module
from tensorgraphs.graphs import (
    ColoredGraph,
    GraphError,
    add_prefix,
    bubbles,
    connected_components,
    parse,
    validate,
)
from tensorgraphs.homology import (
    MAX_HOMOLOGY_COLORS,
    HomologyGroup,
    HomologyResult,
    _boundary_columns,
    _boundary_map,
    _forests,
    _invariant_factors,
    _sphere_homology,
    _unit_pivots,
    chain_complex,
    euler_characteristic,
    homology,
    smith_normal_form,
)
from tensorgraphs.jackets import gurau_degree
from tensorgraphs.models import (
    build_dipole,
    build_kg,
    build_melon,
    build_necklace,
    build_qg,
    build_r1,
)
from tensorgraphs.surgery import crys_sum

from conftest import CLOSED_FIXTURES, load_fixture, rank_and_torsion

homology_module = importlib.import_module("tensorgraphs.homology")


# ------------------------------------------------------------------ oracles

def bareiss_determinant(m: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact integer determinant."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinant_divisors(m: list[list[int]]) -> list[int]:
    """d_k = gcd of all k x k minors; d_0 = 1.  Brute force, small dims only."""
    rows, cols = len(m), len(m[0]) if m else 0
    out = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                minor = [[m[r][c] for c in ci] for r in ri]
                g = math.gcd(g, abs(bareiss_determinant(minor)))
        out.append(g)
    return out


def snf_from_divisors(m: list[list[int]]) -> list[int]:
    """Invariant factors via determinant divisors: s_k = d_k / d_{k-1}."""
    d = determinant_divisors(m)
    out = []
    for k in range(1, len(d)):
        if d[k] == 0:
            out.append(0)
        else:
            out.append(d[k] // d[k - 1])
    return out


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def embedded_diagonal(diag, shape):
    rows, cols = shape
    return [
        [diag[i] if i == j and i < len(diag) else 0 for j in range(cols)]
        for i in range(rows)
    ]


# ----------------------------------------------------- reference matrices
# Quartic matrix-model contraction R1 (chi = 0), in the basis order used by
# the reference tables: vertices (a b c d p q x y); edges/1-bubbles
# (e1 e2 f1 f2 g1 g2 h1 h2 alpha0 beta0 gamma0 mu0); 2-bubbles
# (B01, B02, B12 on {a,b,p,q}, B12 on {c,d,x,y}).

C0_ORDER = ["a", "b", "c", "d", "p", "q", "x", "y"]
C1_ORDER = [
    "e1", "e2", "f1", "f2", "g1", "g2", "h1", "h2",
    "alpha0", "beta0", "gamma0", "mu0",
]
C2_ORDER = [
    ((0, 1), ("a", "b", "c", "d", "p", "q", "x", "y")),
    ((0, 2), ("a", "b", "c", "d", "p", "q", "x", "y")),
    ((1, 2), ("a", "b", "p", "q")),
    ((1, 2), ("c", "d", "x", "y")),
]

D1_REFERENCE = [
    [-1, -1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0],
    [0, 0, -1, -1, 0, 0, 0, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, -1, 0, 0, -1, 0, 0, 0, -1],
    [0, 0, 0, 0, 0, -1, -1, 0, 0, -1, 0, 0],
    [1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0],
]

D2_REFERENCE = [
    [1, 0, -1, 0],
    [0, 1, 1, 0],
    [1, 0, -1, 0],
    [0, 1, 1, 0],
    [1, 0, 0, -1],
    [0, 1, 0, 1],
    [1, 0, 0, -1],
    [0, 1, 0, 1],
    [-1, -1, 0, 0],
    [-1, -1, 0, 0],
    [-1, -1, 0, 0],
    [-1, -1, 0, 0],
]


def r1_matrices_in_reference_basis():
    cx = chain_complex(build_r1())
    v_idx = {b.vertices[0]: i for i, b in enumerate(cx.basis[0])}
    e_idx = {b.edges[0]: i for i, b in enumerate(cx.basis[1])}
    b_idx = {(b.colors, b.vertices): i for i, b in enumerate(cx.basis[2])}
    rows0 = [v_idx[v] for v in C0_ORDER]
    rows1 = [e_idx[e] for e in C1_ORDER]
    cols2 = [b_idx[key] for key in C2_ORDER]
    m1, m2 = cx.matrix(1), cx.matrix(2)
    d1 = [[m1[r][c] for c in rows1] for r in rows0]
    d2 = [[m2[r][c] for c in cols2] for r in rows1]
    return d1, d2


# ------------------------------------------------------- graphs with torsion

# The 8-vertex crystallization of RP^3: white vertex i meets black vertex
# KLEIN4[c][i] along color c + 1; the four permutations form the Klein
# four-group.
KLEIN4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def graph_from_permutations(perms, missing=()) -> ColoredGraph:
    """Closed graph with an edge w_i -- b_{perms[c][i]} of color c + 1,
    leaving out the (c, i) pairs in `missing`."""
    n = len(perms[0])
    vertices = {f"w{i}": "w" for i in range(n)} | {f"b{i}": "b" for i in range(n)}
    edges = [
        (f"e{c + 1}.{i}", c + 1, f"w{i}", f"b{perm[i]}")
        for c, perm in enumerate(perms)
        for i in range(n)
        if (c, i) not in missing
    ]
    return ColoredGraph(range(1, len(perms) + 1), vertices, edges)


def rp3() -> ColoredGraph:
    return graph_from_permutations(KLEIN4)


def rp3_sum() -> ColoredGraph:
    return crys_sum(add_prefix(rp3(), "a."), "a.w0", add_prefix(rp3(), "b."), "b.b0")


def rp3_chain(copies: int) -> ColoredGraph:
    """Crystallization sum of `copies` RP^3 graphs, each joined to the last."""
    g = add_prefix(rp3(), "c0.")
    for i in range(1, copies):
        g = crys_sum(g, f"c{i - 1}.w1", add_prefix(rp3(), f"c{i}."), f"c{i}.b0")
    return g


def test_rp3_homology_has_z2_torsion():
    res = homology(rp3())
    assert [(h.free_rank, h.torsion) for h in res.groups] == [
        (1, ()), (0, (2,)), (0, ()), (1, ()),
    ]
    assert res.lines()[:4] == ["H_0 = Z", "H_1 = Z/2", "H_2 = 0", "H_3 = Z"]


def test_rp3_crys_sum_has_two_z2_summands():
    res = homology(rp3_sum())
    assert res.betti == (1, 0, 0, 1)
    assert res.groups[1].torsion == (2, 2)
    assert str(res.groups[1]) == "Z/2 + Z/2"


def test_sixteen_rp3_copies_have_sixteen_z2_summands(monkeypatch):
    # The unit pivots of the forest-reduced degree-2 map leave a 16 x 16
    # block without a unit entry, whose invariant factors the diagonal-only
    # reduction finds.
    leftovers = []

    def recording(columns, dropped=()):
        rows = {i for col in columns.values() for i in col if i not in dropped}
        leftovers.append((len(columns), len(rows)))
        return _invariant_factors(columns, dropped)

    monkeypatch.setattr(homology_module, "_invariant_factors", recording)
    res = homology(rp3_chain(16))
    assert leftovers == [(16, 16)]  # of d_2; d_3 leaves none
    assert res.betti == (1, 0, 0, 1)
    assert res.groups[1].torsion == (2,) * 16
    assert all(not h.torsion for q, h in enumerate(res.groups) if q != 1)


@pytest.mark.parametrize("genus", [8, 16, 32, 64])
def test_qg_and_kg_homology_up_to_the_family_cap(genus):
    for build in (build_qg, build_kg):
        res = homology(build(genus))
        assert [(h.free_rank, h.torsion) for h in res.groups] == [
            (1, ()), (2 * genus, ()), (1, ()),
        ]


# Closed graphs beyond the fixture corpus, by name.
EXTRA_CLOSED = {
    "rp3": rp3,
    "rp3#rp3": rp3_sum,
    **{f"qg{g}": (lambda g=g: build_qg(g)) for g in (1, 2, 3)},
    **{f"kg{g}": (lambda g=g: build_kg(g)) for g in (1, 2, 3)},
    "no colors": lambda: ColoredGraph((), {"w0": "w", "b0": "b"}),
}


def closed_graph(name: str) -> ColoredGraph:
    return EXTRA_CLOSED[name]() if name in EXTRA_CLOSED else load_fixture(name)


# -------------------------------------------------------------- complexes

def test_r1_boundary_matrices_match_reference():
    d1, d2 = r1_matrices_in_reference_basis()
    assert d1 == D1_REFERENCE
    assert d2 == D2_REFERENCE


def test_r1_homology_groups():
    res = homology(build_r1())
    assert res.betti == (1, 2, 1)
    assert all(h.torsion == () for h in res.groups)
    assert res.euler == 0
    assert res.lines() == ["H_0 = Z", "H_1 = Z^2", "H_2 = Z", "chi = 0"]


def test_chain_complex_dimensions_r1():
    cx = chain_complex(build_r1())
    assert cx.dims == (8, 12, 4)
    assert cx.top_degree == 2
    # outside 0..top a degree has no cells, and only 1..top a boundary matrix
    assert cx.dim(-1) == cx.dim(3) == 0
    for p in (0, 3):
        with pytest.raises(GraphError, match=f"^no boundary matrix in degree {p}$"):
            cx.matrix(p)


@pytest.mark.parametrize("name", CLOSED_FIXTURES)
def test_boundary_of_boundary_vanishes(name):
    cx = chain_complex(load_fixture(name))
    for p in range(2, cx.top_degree + 1):
        prod = mat_mul(cx.matrix(p - 1), cx.matrix(p))
        assert all(all(x == 0 for x in row) for row in prod)


def test_dipole3_is_a_sphere():
    res = homology(build_dipole(3))
    assert res.betti == (1, 0, 1)
    assert res.euler == 2


def test_melon_has_three_sphere_homology():
    res = homology(build_melon())
    assert res.betti == (1, 0, 0, 1)
    assert all(h.torsion == () for h in res.groups)
    assert res.euler == 0


def test_necklace_has_three_sphere_homology():
    res = homology(build_necklace())
    assert res.betti == (1, 0, 0, 1)
    assert all(h.torsion == () for h in res.groups)


def test_qg2_homology():
    res = homology(load_fixture("qg2.cg"))
    assert res.betti == (1, 4, 1)
    assert all(h.torsion == () for h in res.groups)
    assert res.euler == -2


def test_open_graph_is_rejected():
    with pytest.raises(GraphError, match="closed"):
        homology(load_fixture("twopoint.cg"))
    with pytest.raises(GraphError, match="closed"):
        euler_characteristic(load_fixture("l-2-3.cg"))


def test_homology_caps_the_color_count():
    over = build_dipole(MAX_HOMOLOGY_COLORS + 1)
    message = (
        f"homology: {MAX_HOMOLOGY_COLORS + 1} colors give "
        f"{2 ** (MAX_HOMOLOGY_COLORS + 1)} color subsets; "
        f"at most {MAX_HOMOLOGY_COLORS} colors are supported"
    )
    for func in (chain_complex, euler_characteristic, homology):
        with pytest.raises(GraphError) as info:
            func(over)
        assert str(info.value) == message
    # the cap itself is admitted: a dipole is a sphere
    at_cap = build_dipole(MAX_HOMOLOGY_COLORS)
    assert euler_characteristic(at_cap) == 1 + (-1) ** (MAX_HOMOLOGY_COLORS - 1)
    assert homology(at_cap).betti == (1,) + (0,) * (MAX_HOMOLOGY_COLORS - 2) + (1,)


@pytest.mark.parametrize("name", CLOSED_FIXTURES + list(EXTRA_CLOSED))
def test_euler_characteristic_equals_alternating_sum(name):
    g = closed_graph(name)
    res = homology(g)
    assert euler_characteristic(g) == res.euler
    cx = chain_complex(g)
    alt = sum((-1) ** p * cx.dim(p) for p in range(cx.top_degree + 1))
    assert res.euler == alt
    # H_0 = Z^{#components}: rank d_1 = |V| - #components
    rank_d1 = cx.dim(0) - res.betti[0]
    assert rank_d1 == len(g) - len(connected_components(g))


def reference_matrix(g: ColoredGraph, cx, p: int) -> list[list[int]]:
    """The degree-p boundary matrix from its definition: an edge maps to
    white - black; a bubble to the alternating sum of the bubbles of its own
    subgraph with one color dropped."""
    row = {b.key: i for i, b in enumerate(cx.basis[p - 1])}
    m = [[0] * cx.dim(p) for _ in range(cx.dim(p - 1))]
    for col, b in enumerate(cx.basis[p]):
        if p == 1:
            e = g.edges[b.edges[0]]
            m[row[((), e.white)]][col] += 1
            m[row[((), e.black)]][col] -= 1
            continue
        sub = b.as_graph(g)
        for q, dropped in enumerate(b.colors):
            rest = tuple(c for c in b.colors if c != dropped)
            for w in bubbles(sub, rest):
                m[row[w.key]][col] += (-1) ** q
    return m


IRREGULAR = "rp3 without w0's color-1 and w1's color-2 edges"


@pytest.mark.parametrize("name", CLOSED_FIXTURES + ["rp3", IRREGULAR])
def test_chain_complex_matches_definition(name):
    if name == IRREGULAR:
        g = graph_from_permutations(KLEIN4, missing={(0, 0), (1, 1)})
        assert g.edge_at("w0", 1) is None
    else:
        g = closed_graph(name)
    cx = chain_complex(g)
    for p in range(cx.top_degree + 1):
        found = [b for s in itertools.combinations(g.colors, p) for b in bubbles(g, s)]
        assert cx.basis[p] == tuple(sorted(found, key=lambda b: b.key))
    for p in range(1, cx.top_degree + 1):
        assert cx.matrix(p) == reference_matrix(g, cx, p)
        # entry order, which steers pivot choice: an edge's white end first;
        # a bubble's faces by dropped color in order, then by row
        for b, col in zip(cx.basis[p], cx._columns[p - 1]):
            if p == 1:
                assert [x for _, x in col] == [1, -1]
                continue
            order = [
                (b.colors.index(min(set(b.colors) - set(cx.basis[p - 1][r].colors))), r)
                for r, _ in col
            ]
            assert order == sorted(order)


def reference_homology(g: ColoredGraph) -> HomologyResult:
    """Homology from dense smith_normal_form of the definition's matrices."""
    cx = chain_complex(g)
    forms = {p: smith_normal_form(reference_matrix(g, cx, p)) for p in range(1, cx.top_degree + 1)}
    rank = {p: f.rank for p, f in forms.items()}
    groups = tuple(
        HomologyGroup(
            cx.dim(q) - rank.get(q, 0) - rank.get(q + 1, 0),
            forms[q + 1].torsion if q + 1 in forms else (),
        )
        for q in range(cx.top_degree + 1)
    )
    return HomologyResult(groups, sum((-1) ** q * h.free_rank for q, h in enumerate(groups)))


# Seeded tuples with torsion behind two to four eliminated maps: H =
# (Z, Z/2, 0, 0, Z) on 5 colors, Z/2 in H_1 on 6 and 7 colors.
TORSION_TUPLES = {
    "5 colors, 6 whites": (
        (0, 1, 2, 3, 4, 5), (5, 1, 3, 4, 2, 0), (4, 0, 2, 5, 1, 3), (3, 1, 4, 0, 2, 5),
        (3, 1, 2, 0, 5, 4),
    ),
    "6 colors, 5 whites": (
        (0, 1, 2, 3, 4), (0, 4, 1, 3, 2), (2, 0, 4, 3, 1), (3, 2, 4, 0, 1), (1, 3, 0, 4, 2),
        (4, 2, 3, 1, 0),
    ),
    "7 colors, 4 whites": (
        (0, 1, 2, 3), (3, 1, 2, 0), (2, 0, 3, 1), (0, 2, 1, 3), (1, 3, 2, 0), (3, 0, 2, 1),
        (1, 3, 0, 2),
    ),
    "7 colors, 5 whites": (
        (0, 1, 2, 3, 4), (0, 3, 2, 1, 4), (3, 2, 0, 1, 4), (1, 0, 2, 3, 4), (1, 3, 4, 0, 2),
        (3, 4, 1, 2, 0), (2, 3, 0, 4, 1),
    ),
}


def oracle_cases():
    """Seeded random regular graphs on 2-6 colors, some with two or three
    components, then crystallization sums of 1-3 RP^3 copies, then the
    torsion tuples on 5-7 colors, then graphs on 3 and 4 colors with
    isolated vertices."""
    rng = random.Random(23)
    for t in range(48):
        k = 2 + t % 5
        parts, n = rng.randint(1, 3), rng.randint(1, 6 if k < 5 else 3)
        perms = [[] for _ in range(k)]
        for part in range(parts):
            for perm in perms:
                perm += [part * n + x for x in rng.sample(range(n), n)]
        yield f"random {t}: {k} colors, {parts} x {n} whites", graph_from_permutations(perms)
    for copies in (1, 2, 3):
        yield f"{copies} RP^3 copies", rp3_chain(copies)
    for name, perms in TORSION_TUPLES.items():
        yield f"torsion tuple, {name}", graph_from_permutations(perms)
    k33 = graph_from_permutations([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    for name, g in (("K_3,3", k33), ("RP^3", rp3())):
        yield f"{name} with isolated vertices", with_isolated_vertices(g)


def with_isolated_vertices(g: ColoredGraph) -> ColoredGraph:
    lonely = {**g.vertices, "x0": "w", "x1": "b", "x2": "b"}
    return ColoredGraph(g.colors, lonely, g.edges.values())


def test_homology_matches_dense_snf_of_the_definition():
    components = set()
    for name, g in oracle_cases():
        if validate(g):  # isolated vertices: homology refuses the graph
            with pytest.raises(GraphError, match="^homology: vertex 'x0': missing color 1$"):
                homology(g)
        else:
            assert homology(g) == reference_homology(g), name
        # d_1 is a signed incidence matrix: rank |V| - #components, no torsion
        cx, comps = chain_complex(g), connected_components(g)
        top = cx.top_degree
        if top >= 1:
            assert rank_and_torsion(cx._columns[0]) == (len(g) - len(comps), ()), name
        # so is d_top with 3 or more colors C, once the column of each
        # (C - {a})-cell is multiplied by (-1)**index(a): every row then holds
        # one +1 and one -1, and the rank is #top cells - #components with
        # an edge
        if top >= 2:
            with_edge = sum(1 for comp in comps if comp.edges)
            assert rank_and_torsion(cx._columns[-1]) == (cx.dim(top) - with_edge, ()), name
            rows: list[list[int]] = [[] for _ in cx.basis[top - 1]]
            for cell, col in zip(cx.basis[top], cx._columns[-1]):
                (a,) = set(g.colors) - set(cell.colors)
                for r, x in col:
                    rows[r].append(x * (-1) ** g.colors.index(a))
            assert all(sorted(row) == [-1, 1] for row in rows), name
        components.add(len(comps))
    assert {1, 2, 3} <= components


def has_degree_0(g: ColoredGraph) -> bool:
    """Whether the regular closed graph g is on 3 or more colors and of
    degree 0 (the graphs whose homology is read off the face count)."""
    return len(g.colors) >= 3 and gurau_degree(g).degree == 0


def test_homology_eliminates_only_the_maps_between_d1_and_d_top(monkeypatch):
    # rank d_1 and rank d_top come from component counts: a 3-colored graph
    # needs no elimination at all.  d_top-1 down to d_2 are eliminated in
    # turn, each on the columns of its cells outside the pivot rows of the
    # map above: for d_top-1 the (top-1)-cells of a spanning forest of G*
    # (top cells joined by the (top-1)-cells), below it the unit pivots of
    # d_p+1.  A graph of degree 0 eliminates nothing: its homology is a
    # sphere's.
    calls = []

    def recording(columns):
        cells = [j for j, _ in columns]
        pivot_rows, used, rest = _unit_pivots(columns)
        calls.append((cells, pivot_rows, used))
        return pivot_rows, used, rest

    monkeypatch.setattr(homology_module, "_unit_pivots", recording)
    ks, degree_0, below_top = set(), set(), 0
    for name, g in oracle_cases():
        if validate(g):  # refused before any map is built
            continue
        calls.clear()
        homology(g)
        cx = chain_complex(g)
        top = cx.top_degree
        if has_degree_0(g):
            assert calls == [], name
            degree_0.add(len(g.colors))
        else:
            assert len(calls) == max(top - 2, 0), name
            with_edge = sum(1 for comp in connected_components(g) if comp.edges)
            skip = _forests(g)[1] if top >= 3 else set()
            assert len(skip) == (top >= 3) * (cx.dim(top) - with_edge), name
            for p, (cells, pivot_rows, used) in zip(range(top - 1, 1, -1), calls):
                # dim(p) minus the dual forest (p = top-1) or d_p+1's unit pivots
                assert len(cells) == cx.dim(p) - len(skip), (name, p)
                assert cells == [j for j in range(cx.dim(p)) if j not in skip], (name, p)
                rank = smith_normal_form(cx.matrix(p)).rank
                assert len(used) == len(pivot_rows) <= rank, (name, p)
                below_top += p < top - 1
                skip = pivot_rows
        ks.add(len(g.colors))
    assert ks == set(range(2, 8))
    assert degree_0 & {4, 5, 6}  # a degree-0 graph that would eliminate maps
    assert below_top  # a map built without the pivot rows of an eliminated one


def melonic(k: int, whites: int, rng: random.Random) -> list[list[int]]:
    """Permutations of a melonic graph on k colors, for
    :func:`graph_from_permutations`: from the elementary melon, each new
    white-black pair is inserted on an edge of a random color and joined to
    each other by the other k - 1 colors."""
    perms = [[0] for _ in range(k)]
    for n in range(1, whites):
        c, w = rng.randrange(k), rng.randrange(n)
        for perm in perms:
            perm.append(n)
        perms[c][n], perms[c][w] = perms[c][w], n
    return perms


def cube() -> list[list[int]]:
    """Permutations of the 3-colored cube: color c + 1 flips bit c of a
    vertex of {0, 1}^3, the whites have even weight.  It is planar, so of
    degree 0, and no melon."""
    whites = [v for v in range(8) if bin(v).count("1") % 2 == 0]
    blacks = [v for v in range(8) if bin(v).count("1") % 2]
    return [[blacks.index(w ^ 1 << c) for w in whites] for c in range(3)]


def disjoint(*parts: list[list[int]]) -> list[list[int]]:
    """Permutations of the disjoint union of graphs on the same colors."""
    perms: list[list[int]] = [[] for _ in parts[0]]
    offset = 0
    for part in parts:
        for perm, q in zip(perms, part):
            perm += [offset + x for x in q]
        offset += len(part[0])
    return perms


def degree_0_cases():
    """Seeded melonic graphs on 3-8 colors, the 3-colored cube, disjoint
    unions of 2 and 3 graphs of degree 0, and the dipole on the color cap."""
    rng = random.Random(37)
    for k in range(3, 9):
        for whites in (1, 2, 3, 5) if k < 7 else (2, 3):
            yield f"melonic, {k} colors, {whites} whites", melonic(k, whites, rng)
    yield "cube", cube()
    yield "cube + melonic", disjoint(cube(), melonic(3, 4, rng))
    for k in (4, 5):
        parts = [melonic(k, whites, rng) for whites in (3, 1, 2)]
        yield f"2 melonic, {k} colors", disjoint(*parts[:2])
        yield f"3 melonic, {k} colors", disjoint(*parts)


@pytest.fixture
def past_the_exit(monkeypatch) -> list:
    """What :func:`homology` and :func:`euler_characteristic` build past
    :func:`_require_regular`, in order: "sphere" or "no sphere" for the
    answer of :func:`_sphere_homology`, "forests" for a :func:`_forests`
    call and p for a :func:`_boundary_map` call of degree p.  A graph of
    degree 0 logs ["sphere"] alone, and an irregular one nothing."""
    log = []

    def sphere(g, top):
        found = _sphere_homology(g, top)
        log.append("no sphere" if found is None else "sphere")
        return found

    def forests(g):
        log.append("forests")
        return _forests(g)

    def boundary_map(g, p, *args):
        log.append(p)
        return _boundary_map(g, p, *args)

    monkeypatch.setattr(homology_module, "_sphere_homology", sphere)
    monkeypatch.setattr(homology_module, "_forests", forests)
    monkeypatch.setattr(homology_module, "_boundary_map", boundary_map)
    return log


def eliminated(k: int) -> list:
    """The :func:`past_the_exit` log of a k-colored graph of positive
    degree: from 4 colors on the forests, then d_k-2 down to d_2."""
    return ["no sphere"] + (k >= 4) * ["forests"] + list(range(k - 2, 1, -1))


def test_degree_0_homology_matches_dense_snf_of_the_definition(past_the_exit):
    cases = [(name, graph_from_permutations(perms)) for name, perms in degree_0_cases()]
    cases.append(("dipole on the color cap", build_dipole(MAX_HOMOLOGY_COLORS)))
    for name, g in cases:
        past_the_exit.clear()
        res = homology(g)
        assert past_the_exit == ["sphere"], name
        assert {len(s) for s in g._walks[2]} == {2, len(g.colors)}, name
        assert res == reference_homology(g), name
        comps = len(connected_components(g))
        top = len(g.colors) - 1
        assert res.betti == (comps,) + (0,) * (top - 1) + (comps,), name
        assert res.euler == comps * (1 + (-1) ** top), name
        if len(g.colors) <= 8:
            assert gurau_degree(g).degree == 0, name


def test_degree_0_exit_is_taken_exactly_on_degree_0(past_the_exit):
    # Random closed graphs on 3-8 colors, one to three parts of 1-5 whites
    # (1-3 from 7 colors on), beside seeded melonic ones; several of
    # positive degree have the homology of a sphere, so an exit keyed on the
    # homology would fail.
    rng = random.Random(41)
    taken = {k: set() for k in range(3, 9)}
    spheres_of_positive_degree = 0
    for t in range(120):
        k, parts = 3 + t % 6, 1 + t // 6 % 3
        part_list = [
            [rng.sample(range(n), n) for _ in range(k)]
            for n in [rng.randint(1, 5 if k < 7 else 3) for _ in range(parts)]
        ]
        for perms in (disjoint(*part_list), melonic(k, rng.randint(2, 4), rng)):
            g = graph_from_permutations(perms)
            past_the_exit.clear()
            res = homology(g)
            exited = past_the_exit == ["sphere"]
            assert exited == (gurau_degree(g).degree == 0), (t, perms)
            if exited:
                assert {len(s) for s in g._walks[2]} == {2, k}, (t, perms)
            else:
                assert past_the_exit == eliminated(k), (t, perms)
            taken[k].add(exited)
            top = k - 1
            sphere = res.betti == (1,) + (0,) * (top - 1) + (1,)
            if sphere and not exited and not any(h.torsion for h in res.groups):
                spheres_of_positive_degree += 1
    assert all(found == {True, False} for found in taken.values()), taken
    assert spheres_of_positive_degree >= 5


def test_ten_color_two_white_graphs_of_positive_degree_are_eliminated(past_the_exit):
    # On two whites each color is the identity or the swap.  The graph has
    # degree 0 (one melon inserted in a dipole, or two dipoles) exactly when
    # at most one color is on the other side from the rest; otherwise it
    # has positive degree and still the homology of a sphere.
    rng = random.Random(43)
    sphere = (1,) + (0,) * (MAX_HOMOLOGY_COLORS - 2) + (1,)
    for swapped in range(MAX_HOMOLOGY_COLORS):
        chosen = set(rng.sample(range(MAX_HOMOLOGY_COLORS), swapped))
        perms = [[1, 0] if c in chosen else [0, 1] for c in range(MAX_HOMOLOGY_COLORS)]
        past_the_exit.clear()
        res = homology(graph_from_permutations(perms))
        melonic_or_apart = min(swapped, MAX_HOMOLOGY_COLORS - swapped) <= 1
        want = ["sphere"] if melonic_or_apart else eliminated(MAX_HOMOLOGY_COLORS)
        assert past_the_exit == want, swapped
        if not melonic_or_apart:
            assert res.betti == sphere and not any(h.torsion for h in res.groups), swapped


def test_euler_characteristic_takes_the_sphere_exit(past_the_exit, monkeypatch):
    # chi of a graph of degree 0 is read off its 2-bubble count, as its
    # homology is: only the color pairs and the components are built, the
    # components by one BFS over the arrays of all k colors, with no merge
    # and no subset of 3 to k-1 colors stored
    merges, bfs = [], []
    real, real_orbits = graphs_module._merged_labels, graphs_module._orbits

    def merging(n, lab, reps, maps):
        merges.append(len(maps))
        return real(n, lab, reps, maps)

    def orbits(n, maps):
        bfs.append(len(maps))
        return real_orbits(n, maps)

    monkeypatch.setattr(graphs_module, "_merged_labels", merging)
    monkeypatch.setattr(graphs_module, "_orbits", orbits)
    for name, perms in degree_0_cases():
        g = graph_from_permutations(perms)
        k = len(g.colors)
        merges.clear()
        bfs.clear()
        past_the_exit.clear()
        chi = euler_characteristic(g)
        assert {len(s) for s in g._walks[2]} == {2, k}, name
        assert (merges, bfs) == ([], [k]), name
        assert homology(g).euler == chi, name
        assert past_the_exit == ["sphere", "sphere"], name
        cx = chain_complex(g)
        assert chi == sum((-1) ** p * cx.dim(p) for p in range(cx.top_degree + 1)), name
    # a graph of positive degree still builds every subset
    g = graph_from_permutations(TEN_COLOR_TUPLE)
    euler_characteristic(g)
    assert {len(s) for s in g._walks[2]} == set(range(1, MAX_HOMOLOGY_COLORS + 1))
    assert len(g._walks[2]) == 2 ** MAX_HOMOLOGY_COLORS - 1


# A 3-white tuple on the color cap of positive degree whose homology is no
# sphere's: H_2 = Z, chi = 1 (also pinned in CI, where d_8 .. d_2 are
# eliminated).
TEN_COLOR_TUPLE = [
    [0, 1, 2], [0, 2, 1], [0, 1, 2], [1, 0, 2], [2, 1, 0],
    [1, 0, 2], [1, 2, 0], [0, 2, 1], [1, 2, 0], [2, 0, 1],
]


def test_ten_color_tuple_of_positive_degree_is_eliminated(past_the_exit, monkeypatch):
    leftovers = []

    def recording(columns, dropped=()):
        leftovers.append(len(columns))
        return _invariant_factors(columns, dropped)

    monkeypatch.setattr(homology_module, "_invariant_factors", recording)
    res = homology(graph_from_permutations(TEN_COLOR_TUPLE))
    # d_8 .. d_2 eliminated, and no leftover: unit pivots give every rank
    assert past_the_exit == eliminated(MAX_HOMOLOGY_COLORS) and leftovers == []
    assert res.lines() == (
        ["H_0 = Z", "H_1 = 0", "H_2 = Z"] + [f"H_{q} = 0" for q in range(3, 9)]
        + ["H_9 = Z", "chi = 1"]
    )


def test_isolated_vertices_make_degree_0_graphs_raise_before_any_walk(past_the_exit):
    rng = random.Random(47)
    for k in (3, 4, 6):
        for g in (graph_from_permutations(melonic(k, 3, rng)), build_dipole(k)):
            past_the_exit.clear()
            res = homology(g)
            assert past_the_exit == ["sphere"], k
            past_the_exit.clear()
            lonely = with_isolated_vertices(g)
            with pytest.raises(GraphError, match="^homology: vertex 'x0': missing color 1$"):
                homology(lonely)
            assert past_the_exit == [] and lonely._walks is None, k
            assert res == reference_homology(g), k
            assert res.betti[0] == 1


def padded_rp3_union(k: int, whites: int, rng: random.Random) -> ColoredGraph:
    """RP^3's Klein four-group permutations, padded to k colors by repeating
    three of them, beside a random k-colored part with the given whites."""
    perms = [list(p) for p in KLEIN4] + [list(KLEIN4[1 + i % 3]) for i in range(k - 4)]
    for perm in perms:
        perm += [4 + x for x in rng.sample(range(whites), whites)]
    return graph_from_permutations(perms)


def reduction_cases():
    """Graphs on 4-6 colors: the oracle cases, RP^3 chains of 4-8 copies,
    padded RP^3 beside random 5- and 6-colored parts (5-8 whites), and
    some of them with isolated vertices."""
    rng = random.Random(29)
    for name, g in oracle_cases():
        if len(g.colors) >= 4:
            yield name, g
    for copies in range(4, 9):
        yield f"{copies} RP^3 copies", rp3_chain(copies)
    for k in (5, 6):
        for whites in range(5, 9):
            g = padded_rp3_union(k, whites, rng)
            yield f"padded RP^3 and {whites} whites on {k} colors", g
            if whites % 2:
                yield f"padded RP^3 and {whites} whites on {k} colors, isolated vertices", (
                    with_isolated_vertices(g)
                )


def acyclic(ends) -> bool:
    """Whether the edges (u, v) form a forest."""
    parent: dict = {}

    def root(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for u, v in ends:
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_forest_reduction_keeps_the_homology_of_the_definition():
    seen = set()
    for name, g in reduction_cases():
        if validate(g):  # isolated vertices: homology refuses the graph
            with pytest.raises(GraphError, match="^homology: vertex 'x0': missing color 1$"):
                homology(g)
            continue
        res = homology(g)
        assert res == reference_homology(g), name
        seen.add((len(g.colors), bool(res.groups[1].torsion)))
    assert {(k, True) for k in (4, 5, 6)} <= seen


def test_torsion_tuples_behind_eliminated_maps():
    want = {
        "5 colors, 6 whites": ["Z", "Z/2", "0", "0", "Z", "2"],
        "6 colors, 5 whites": ["Z", "Z + Z/2", "0", "0", "0", "Z", "-1"],
        "7 colors, 4 whites": ["Z", "Z/2", "0", "0", "0", "0", "Z", "2"],
        "7 colors, 5 whites": ["Z", "Z/2", "Z", "0", "0", "0", "Z", "3"],
    }
    for name, perms in TORSION_TUPLES.items():
        lines = homology(graph_from_permutations(perms)).lines()
        assert [line.split(" = ")[1] for line in lines] == want[name], name


def stingy_unit_pivots(columns):
    """:func:`_unit_pivots` that lets only the columns in even positions
    become pivots, so that every map keeps a leftover: the others are
    reduced against all pivots, in the order they were found, and left
    over."""
    pivots, used, rest = {}, set(), {}

    def reduce(col):
        for i, piv in pivots.items():  # each vanishes on the rows before it
            if f := col.get(i):
                f *= piv[i]
                for r, x in piv.items():
                    if y := col.get(r, 0) - f * x:
                        col[r] = y
                    else:
                        del col[r]

    for t, (j, col) in enumerate(columns):
        reduce(col)
        units = [i for i, x in col.items() if x in (1, -1)]
        if t % 2 == 0 and units:
            pivots[units[0]] = col
            used.add(j)
        elif col:
            rest[j] = col
    for col in rest.values():
        reduce(col)
    return set(pivots), used, {j: col for j, col in rest.items() if col}


def test_leftover_rows_dropped_across_eliminated_maps_keep_the_homology(monkeypatch):
    # On these graphs the unit pivots leave no block above d_2, so the rows
    # a leftover loses to the pivot columns of the map below it are never
    # met; with pivots refused in half the columns every map keeps one.
    dropped = []

    def recording(columns, rows=()):
        dropped.append(sum(1 for col in columns.values() for i in col if i in rows))
        return _invariant_factors(columns, rows)

    monkeypatch.setattr(homology_module, "_unit_pivots", stingy_unit_pivots)
    monkeypatch.setattr(homology_module, "_invariant_factors", recording)
    entries_dropped = 0
    for name, g in reduction_cases():
        if validate(g) or has_degree_0(g):
            continue
        dropped.clear()
        assert homology(g) == reference_homology(g), name
        entries_dropped += sum(dropped)
    assert entries_dropped >= 100


def seeded_unimodular(n: int, rng: random.Random) -> list[list[int]]:
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    return u


def test_invariant_factors_match_dense_snf_on_seeded_matrices():
    # Entries up to +-9, shapes 0 x n to 8 x 8 with zero rows and columns,
    # some rows dropped; then diagonal blocks whose torsion is not Z/2 (no
    # graph generator here gives any), conjugated by unimodular matrices.
    rng = random.Random(53)
    beyond_z2 = set()
    for t in range(1500):
        r, c = rng.randint(0, 8), rng.randint(0, 8)
        m = [[rng.choice((0, 0, 0, *range(-9, 10))) for _ in range(c)] for _ in range(r)]
        for i in rng.sample(range(r), rng.randint(0, min(r, 2))):
            m[i] = [0] * c
        for j in rng.sample(range(c), rng.randint(0, min(c, 2))):
            for row in m:
                row[j] = 0
        dropped = set(rng.sample(range(r), rng.randint(0, r // 3)))
        columns = {j: {i: m[i][j] for i in range(r) if m[i][j]} for j in range(c)}
        want = smith_normal_form([row for i, row in enumerate(m) if i not in dropped])
        assert _invariant_factors(columns, dropped) == (want.rank, want.torsion), (m, dropped)
        beyond_z2.update(d for d in want.torsion if d != 2)
    assert len(beyond_z2) >= 20
    assert _invariant_factors({0: {0: 2}, 1: {1: 3}}) == (2, (6,))
    assert _invariant_factors({0: {0: 4}, 1: {1: 6}}) == (2, (2, 12))
    for d in ((2, 3), (4, 6), (3, 3, 9), (2, 4, 8, 0), (6, 10, 15), (9, 12)):
        n = len(d) + rng.randint(0, 2)
        diag = [[d[i] if i == j and i < len(d) else 0 for j in range(n)] for i in range(n)]
        m = mat_mul(mat_mul(seeded_unimodular(n, rng), diag), seeded_unimodular(n, rng))
        want = smith_normal_form(m)
        got = _invariant_factors({j: {i: m[i][j] for i in range(n) if m[i][j]} for j in range(n)})
        assert got == (want.rank, want.torsion) == (sum(1 for x in d if x), want.torsion), d
        assert math.prod(got[1]) == math.prod(x for x in d if x > 1), d


def reduced_map(g: ColoredGraph, p: int) -> list[tuple[int, dict[int, int]]]:
    """d_p as homology first builds it from the two spanning forests alone:
    without the forest rows of the graph when p = 2, and without the forest
    columns of G* when p = top - 1."""
    drop, skip = _forests(g)
    top = len(g.colors) - 1
    return _boundary_map(g, p, skip if p == top - 1 else (), drop if p == 2 else ())


def test_reduced_d2_keeps_the_rows_outside_a_spanning_forest():
    # E - V + #components rows stay, isolated vertices counted as components.
    # From 5 colors on every column of d_2 is built and every edge lies in a
    # 2-bubble, so the rows seen are exactly the rows kept, and the dropped
    # edges must be a spanning forest of the graph.
    for name, g in reduction_cases():
        cx = chain_complex(g)
        d2 = [tuple(col.items()) for _, col in reduced_map(g, 2)]
        rows = {r for col in d2 for r, _ in col}
        size = cx.dim(1) - cx.dim(0) + len(connected_components(g))
        if len(g.colors) == 4:  # rows only in forest columns of d_top-1 are unseen
            assert rows <= set(range(cx.dim(1))) and len(rows) <= size, name
            continue
        assert len(rows) == size, name
        dropped = [cx.basis[1][r] for r in range(cx.dim(1)) if r not in rows]
        ends = [(g.edges[b.edges[0]].white, g.edges[b.edges[0]].black) for b in dropped]
        assert acyclic(ends), name


def test_reduced_d_top_minus_1_leaves_out_a_spanning_forest_of_the_top_cells():
    # dim - (#top cells - #components with an edge) columns stay.  From 5
    # colors on the rows of d_top-1 are not reduced, so each kept column is
    # a column of the full map, and the dropped (top-1)-cells, each joining
    # the two top cells through it, must be a forest.
    for name, g in reduction_cases():
        cx = chain_complex(g)
        top = cx.top_degree
        with_edge = sum(1 for comp in connected_components(g) if comp.edges)
        found = reduced_map(g, top - 1)
        assert len(found) == cx.dim(top - 1) - (cx.dim(top) - with_edge), name
        assert [j for j, _ in found] == [
            j for j in range(cx.dim(top - 1)) if j not in _forests(g)[1]
        ], name
        if len(g.colors) == 4:
            continue
        reduced = [tuple(col.items()) for _, col in found]
        full, kept, dropped = cx._columns[top - 2], iter(reduced), []
        want = next(kept, None)
        for cell, col in zip(cx.basis[top - 1], full):
            if col == want:
                want = next(kept, None)
            else:
                dropped.append(cell)
        assert want is None, name
        top_cell = {
            (b.colors, v): i for i, b in enumerate(cx.basis[top]) for v in b.vertices
        }
        ends = []
        for cell in dropped:
            a, b = (tuple(c for c in g.colors if c != x) for x in set(g.colors) - set(cell.colors))
            ends.append((top_cell[a, cell.vertices[0]], top_cell[b, cell.vertices[0]]))
        assert acyclic(ends), name


def test_homology_and_euler_build_no_bubble(monkeypatch):
    built = []
    real = graphs_module.Bubble

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(graphs_module, "Bubble", counting)
    for name in ["rp3", "qg2", "melon.cg", "necklace.cg", "kg2.cg"]:
        assert homology(closed_graph(name)) is not None
        assert euler_characteristic(closed_graph(name)) is not None
    assert built == []
    bubbles(closed_graph("rp3"), (1, 2))
    assert built


# Irregular closed graphs on 3 or more colors: d_1 d_2 != 0 there, so Betti
# numbers from the ranks of the maps can be negative; on the first case they
# give H_1 free rank -1 (printed "H_1 = 0") and chi = 5.
IRREGULAR_HOMOLOGY = {
    "three colors, one vertex pair on two": (
        "colors 3 closed\nv a w\nv b b\nv c w\nv d b\n"
        "e x 1 a b\ne y 2 a b\ne z 3 a b\ne p 1 c d\ne q 2 c d\n",
        "homology: vertex 'c': missing color 3",
    ),
    IRREGULAR: (
        graph_from_permutations(KLEIN4, missing={(0, 0), (1, 1)}),
        "homology: vertex 'b0': missing color 1",
    ),
}


@pytest.mark.parametrize("name", list(IRREGULAR_HOMOLOGY))
def test_homology_refuses_irregular_graphs_with_three_colors(name):
    g, message = IRREGULAR_HOMOLOGY[name]
    if isinstance(g, str):
        g = parse(g, require_regular=False)
    with pytest.raises(GraphError) as info:
        homology(g)
    assert str(info.value) == message
    chain_complex(g)  # the complex itself is still defined


def test_group_rendering():
    assert str(HomologyGroup(0)) == "0"
    assert str(HomologyGroup(1)) == "Z"
    assert str(HomologyGroup(3)) == "Z^3"
    assert str(HomologyGroup(1, (2, 6))) == "Z + Z/2 + Z/6"
    res = HomologyResult((HomologyGroup(1), HomologyGroup(0, (4,))), euler=1)
    assert res.lines() == ["H_0 = Z", "H_1 = Z/4", "chi = 1"]


# ------------------------------------------------------ smith normal form

def test_snf_known_values():
    assert smith_normal_form([]).diagonal == ()
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert smith_normal_form([[1]]).diagonal == (1,)
    assert smith_normal_form([[2, 4], [6, 8]]).diagonal == (2, 4)
    # classic example with nontrivial invariant factors
    f = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert f.diagonal == (2, 2, 156)


def test_snf_transforms_on_known_matrix():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    f = smith_normal_form(m)
    assert mat_mul(mat_mul(f.U, m), f.V) == embedded_diagonal(f.diagonal, f.shape)
    assert abs(bareiss_determinant(f.U)) == 1
    assert abs(bareiss_determinant(f.V)) == 1


@pytest.mark.parametrize(
    "m, shape",
    [
        ([], (0, 0)),
        ([[]], (1, 0)),
        ([[], []], (2, 0)),
        ([[0, 0, 0]], (1, 3)),
        ([[0], [0]], (2, 1)),
        ([[-3]], (1, 1)),
        ([[0, -2], [0, 0]], (2, 2)),
    ],
)
def test_snf_transforms_on_degenerate_shapes(m, shape):
    f = smith_normal_form(m)
    rows, cols = shape
    assert f.shape == shape
    assert len(f.U) == rows and all(len(r) == rows for r in f.U)
    assert len(f.V) == cols and all(len(r) == cols for r in f.V)
    # U * M * V summed entry by entry: mat_mul cannot tell the width of a
    # matrix without rows
    product = [
        [
            sum(f.U[i][k] * m[k][l] * f.V[l][j] for k in range(rows) for l in range(cols))
            for j in range(cols)
        ]
        for i in range(rows)
    ]
    assert product == embedded_diagonal(f.diagonal, shape)
    assert abs(bareiss_determinant(f.U)) == 1
    assert abs(bareiss_determinant(f.V)) == 1


def test_snf_against_determinant_divisors_small():
    cases = [
        [[6]],
        [[2, 0], [0, 3]],
        [[0, 1], [1, 0]],
        [[4, 2], [2, 4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[3, 0, 0], [0, 0, 0], [0, 0, 5]],
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    ]
    for m in cases:
        f = smith_normal_form(m)
        expected = snf_from_divisors(m)
        assert list(f.diagonal)[: f.rank] == [s for s in expected if s != 0][: f.rank]
        assert f.rank == sum(1 for s in expected if s != 0)


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda r: st.integers(min_value=1, max_value=6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(matrices)
@settings(max_examples=120)
def test_snf_properties_random(m):
    f = smith_normal_form(m)
    # decomposition with unimodular transforms
    assert mat_mul(mat_mul(f.U, m), f.V) == embedded_diagonal(f.diagonal, f.shape)
    assert abs(bareiss_determinant(f.U)) == 1
    assert abs(bareiss_determinant(f.V)) == 1
    # nonnegative, divisibility chain, zeros trail
    assert all(d >= 0 for d in f.diagonal)
    for a, b in zip(f.diagonal, f.diagonal[1:]):
        if a != 0 and b != 0:
            assert b % a == 0
        if a == 0:
            assert b == 0
    # agreement with the determinant-divisor definition
    div = determinant_divisors(m)
    for k in range(1, f.rank + 1):
        assert math.prod(f.diagonal[:k]) == div[k]
    assert f.rank == max((k for k in range(len(div)) if div[k] != 0), default=0)


def test_snf_rejects_non_integer_entries():
    with pytest.raises((GraphError, TypeError, ValueError)):
        smith_normal_form([[Fraction(1, 2)]])


def test_snf_rejects_ragged_matrix():
    with pytest.raises((GraphError, ValueError)):
        smith_normal_form([[1, 2], [3]])


# ------------------------------------------- sparse rank/torsion vs dense SNF


def columns_of(m: list[list[int]], n_cols: int) -> list[list[tuple[int, int]]]:
    return [[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(n_cols)]


def assert_matches_dense(m: list[list[int]], n_cols: int) -> tuple[int, tuple[int, ...]]:
    dense = smith_normal_form(m)
    got = rank_and_torsion(columns_of(m, n_cols))
    assert got == (dense.rank, dense.torsion)
    return got


def shaped_matrices(entries, size: int):
    return st.integers(min_value=0, max_value=size).flatmap(
        lambda r: st.integers(min_value=0, max_value=size).flatmap(
            lambda c: st.tuples(
                st.lists(
                    st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
                ),
                st.just(c),
            )
        )
    )


def test_rank_and_torsion_empty_and_zero_shapes():
    assert rank_and_torsion([]) == (0, ())
    assert _invariant_factors({}) == (0, ())
    for rows, cols in ((0, 3), (3, 0), (1, 1), (2, 5), (5, 2)):
        m = [[0] * cols for _ in range(rows)]
        assert assert_matches_dense(m, cols) == (0, ())


# Sizes: every strategy below goes up to 6 x 6, the size at which the
# clearing passes of smith_normal_form once let entries grow without bound
# (see test_snf_finishes_on_a_6x6_matrix).


@given(shaped_matrices(st.integers(min_value=-3, max_value=3), 6))
@settings(max_examples=150)
def test_rank_and_torsion_matches_dense_snf(case):
    assert_matches_dense(*case)


@given(
    shaped_matrices(st.integers(min_value=-12, max_value=12).filter(lambda x: abs(x) != 1), 6)
)
@settings(max_examples=100)
def test_rank_and_torsion_without_unit_entries(case):
    # No +-1 entry: no pivot is taken and the whole block goes to the dense SNF.
    assert_matches_dense(*case)


@st.composite
def unimodular(draw, n: int) -> list[list[int]]:
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return [[draw(st.sampled_from([1, -1]))]] if n else u
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        q = draw(st.integers(min_value=-3, max_value=3))
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    if draw(st.booleans()):
        u[0] = [-a for a in u[0]]
    return u


@st.composite
def torsion_products(draw):
    d = draw(st.sampled_from([(2, 2), (2, 6), (4,), (1, 2, 2), (1, 1, 4), (3, 3), (2, 2, 2)]))
    n = draw(st.integers(min_value=len(d), max_value=6))
    m = draw(st.integers(min_value=len(d), max_value=6))
    diag = [[d[i] if i == j and i < len(d) else 0 for j in range(m)] for i in range(n)]
    return d, mat_mul(mat_mul(draw(unimodular(n)), diag), draw(unimodular(m)))


def boundary_map_cases():
    """Seeded random closed graphs and chains of RP^3 sums, by name."""
    rng = random.Random(11)
    for t in range(60):
        k, n = rng.randint(3, 5), rng.randint(1, 8)
        perms = [rng.sample(range(n), n) for _ in range(k)]
        yield f"random {t}: {k} colors, {n} whites", graph_from_permutations(perms)
    for copies in (1, 2, 3):
        yield f"{copies} RP^3 copies", rp3_chain(copies)


def test_rank_and_torsion_matches_dense_snf_on_whole_boundary_maps():
    maps = 0
    for name, g in boundary_map_cases():
        cc = chain_complex(g)
        for p in range(1, cc.top_degree + 1):
            dense = smith_normal_form(cc.matrix(p))
            got = rank_and_torsion(cc._columns[p - 1])
            assert got == (dense.rank, dense.torsion), (name, p)
            maps += 1
    assert maps >= 150


@given(torsion_products())
@settings(max_examples=100)
def test_rank_and_torsion_of_unimodular_products(case):
    d, m = case
    # A * diag(d) * B has invariant factors d: Z/2 + Z/2 is never Z/4
    assert assert_matches_dense(m, len(m[0])) == (len(d), tuple(x for x in d if x > 1))


# On this matrix, clearing passes that kept a remainder as the next pivot let
# the entries grow past a million bits by the fourth pivot; choosing the
# pivot again from the whole block finishes in about a millisecond.
STALLING_6X6 = [
    [6, 3, 6, 11, -6, -3],
    [-3, 8, 5, 6, 2, 8],
    [-11, 5, -5, 2, 3, 11],
    [-7, 0, 7, 12, 11, 0],
    [-10, 4, 11, 6, -9, -7],
    [6, 2, 0, 5, -12, 5],
]


def test_snf_finishes_on_a_6x6_matrix():
    def stop(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        f = smith_normal_form(STALLING_6X6)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert f.rank == 6
    assert math.prod(f.diagonal) == abs(bareiss_determinant(STALLING_6X6))
    assert mat_mul(mat_mul(f.U, STALLING_6X6), f.V) == embedded_diagonal(f.diagonal, f.shape)
    assert f.diagonal == (1, 1, 1, 1, 1, 2082471)

