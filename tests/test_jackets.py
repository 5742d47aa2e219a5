"""Jackets, degree computations, and the amplitude exponent."""

from __future__ import annotations

import collections
import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from tensorgraphs import graphs as graphs_module
from tensorgraphs import jackets as jackets_module
from tensorgraphs.graphs import (
    ColoredGraph,
    Edge,
    GraphError,
    add_prefix,
    bubbles,
    connected_components,
    serialize,
    validate,
)
from tensorgraphs.homology import homology
from tensorgraphs.jackets import (
    MAX_JACKET_COLORS,
    DegreeReport,
    Jacket,
    amplitude_exponent,
    boundary_degree,
    canonical_cycle,
    degree_lower_bound,
    enumerate_jackets,
    gurau_degree,
    is_melonic,
)
from tensorgraphs.models import (
    build_dipole,
    build_l,
    build_melon,
    build_necklace,
    build_o,
    build_r1,
    build_tg,
)
from tensorgraphs.ribbon import boundary_components, ribbon_from_colored
from tensorgraphs.surgery import boundary_graph, cone

from conftest import (
    CLOSED_3COLOR_FIXTURES,
    CLOSED_4COLOR_FIXTURES,
    CLOSED_FIXTURES,
    load_fixture,
    run_cli,
)


# -------------------------------------------------------------- cycles

def test_canonical_cycle_normalizes_rotation_and_reversal():
    assert canonical_cycle((2, 3, 0, 1)) == (0, 1, 2, 3)
    assert canonical_cycle((0, 3, 2, 1)) == (0, 1, 2, 3)
    assert canonical_cycle((1, 0, 2, 3)) == (0, 1, 3, 2)
    # idempotent
    assert canonical_cycle((0, 1, 3, 2)) == (0, 1, 3, 2)


# -------------------------------------------------------- enumeration

def test_jacket_count_three_colors():
    assert len(enumerate_jackets(build_dipole(3))) == 1


def test_jacket_count_four_colors():
    assert len(enumerate_jackets(build_melon())) == 3


def test_jacket_count_five_colors():
    assert len(enumerate_jackets(build_dipole(5, base=0))) == 12


def test_jackets_require_closed_graph():
    with pytest.raises(GraphError, match="closed"):
        enumerate_jackets(load_fixture("t1.cg"))


def test_jacket_cycles_are_canonical_and_distinct():
    jackets = enumerate_jackets(build_necklace())
    cycles = [j.cycle for j in jackets]
    assert cycles == sorted(cycles)
    assert len(set(cycles)) == len(cycles)
    assert all(j.cycle == canonical_cycle(j.cycle) for j in jackets)


def _reference_table(colors):
    # canonicalize every cyclic order, then pair each cycle's neighbours
    cycles = sorted({canonical_cycle(p) for p in itertools.permutations(colors)})
    return [(c, jackets_module._adjacent_pairs(c)) for c in cycles]


@pytest.mark.parametrize(
    "colors",
    [tuple(range(b, b + n)) for n in range(3, MAX_JACKET_COLORS + 1) for b in (0, 1)]
    + [(0, 2, 5, 7), (3, 5, 6, 9, 11)],
)
def test_jacket_table_matches_canonical_cycles(colors):
    table = jackets_module._jacket_table(colors)
    assert [(c, list(pairs)) for c, pairs in table] == _reference_table(colors)
    assert len(table) == factorial(len(colors) - 1) // 2
    # one tuple per color pair, shared by all the jackets that have it
    assert len({id(p) for _, pairs in table for p in pairs}) == comb(len(colors), 2)


def test_report_builds_one_jacket_table_per_color_set():
    # two graphs on colors 1..6 share one table; colors 0..5 add one more
    vertices = {"w0": "w", "w1": "w", "b0": "b", "b1": "b"}
    edges = [
        (f"e{c}.{i}", c, f"w{i}", f"b{(i + (c > 3)) % 2}") for c in range(1, 7) for i in (0, 1)
    ]
    other = ColoredGraph(tuple(range(1, 7)), vertices, edges)
    graphs = [build_dipole(6), other, build_dipole(6, base=0)]
    table = jackets_module._jacket_table
    table.cache_clear()
    builds = []
    for g in graphs:
        code, out, _ = run_cli(["report", "-", "--format", "kv"], serialize(g))
        assert code == 0 and out.count("\njacket") == 60
        builds.append(table.cache_info().misses)
    assert builds == [1, 1, 2]


def test_jackets_cap_the_color_count():
    with pytest.raises(GraphError, match=f"at most {MAX_JACKET_COLORS} colors"):
        enumerate_jackets(build_dipole(MAX_JACKET_COLORS + 1))
    assert len(enumerate_jackets(build_dipole(MAX_JACKET_COLORS))) == 2520


# Test-local copy of the jacket loop before it shared one bubble walk per
# color pair and one component map: bubbles per cycle, components as graphs.
# Each jacket is (cycle, faces, genus).  Irregular graphs are refused first.


def _reference_jackets(g):
    problems = validate(g)
    if problems:
        raise GraphError(f"jackets: {problems[0]}")
    colors = g.colors
    cycles = sorted(
        {canonical_cycle((colors[0],) + rest) for rest in itertools.permutations(colors[1:])}
    )
    comps = connected_components(g)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp.vertices}
    out = []
    for cycle in cycles:
        faces = []
        for i in range(len(cycle)):
            faces.extend(bubbles(g, tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))))
        total = 0
        for i, comp in enumerate(comps):
            f = sum(1 for b in faces if comp_of[b.vertices[0]] == i)
            chi = len(comp.vertices) - len(comp.edges) + f
            total += (2 - chi) // 2
        out.append((cycle, tuple(faces), total))
    return out


def _random_closed(rng):
    """Closed, on 3-7 colors, contiguous or gapped, possibly irregular and
    disconnected."""
    k = rng.randint(3, 7)
    if rng.random() < 0.5:
        colors = tuple(range(1, k + 1))
    else:
        colors = tuple(sorted(rng.sample(range(12), k)))
    n = rng.randint(0, 10)
    whites = [f"w{rng.randint(0, 99)}.{i}" for i in range(n)]
    blacks = [f"b{rng.randint(0, 99)}.{i}" for i in range(n)]
    edges = []
    for c in colors:
        image = blacks[:]
        rng.shuffle(image)
        edges += [
            (f"e{c}.{w}", c, w, b) for w, b in zip(whites, image) if rng.random() < 0.9
        ]
    verts = {**dict.fromkeys(whites, "w"), **dict.fromkeys(blacks, "b")}
    return ColoredGraph(colors, verts, edges)


def test_jackets_match_reference_on_random_graphs():
    # the genera come from orbit counts; every field, the faces built when
    # read, and the error on an irregular graph must match the bubble-built
    # oracle
    rng = random.Random(29)
    seen = collections.Counter()
    for t in range(150):
        g = _random_closed(rng)
        if t % 10 == 0:  # a vertex without edges makes the graph irregular
            g = ColoredGraph(g.colors, {**g.vertices, "lone": "w"}, g.edges.values())
            seen["isolated"] += 1
        try:
            found = [(j.cycle, j.face_count, j.genus, j.faces) for j in enumerate_jackets(g)]
        except GraphError as exc:
            found = str(exc)
        try:
            expected = [(c, len(f), genus, f) for c, f, genus in _reference_jackets(g)]
        except GraphError as exc:
            expected = str(exc)
        assert found == expected
        seen["error" if isinstance(found, str) else "ok"] += 1
        seen["irregular"] += bool(validate(g))
        seen["disconnected"] += len(connected_components(g)) > 1
        seen["gapped"] += g.colors[-1] - g.colors[0] >= len(g.colors)
        seen[f"{len(g.colors)} colors"] += 1
    assert min(seen.values()) >= 10, seen


def test_each_color_pair_is_walked_once(monkeypatch):
    # one alternating walk per color pair, and the components by one BFS
    # over the arrays of all 6 colors, with no merge; a jacket builds its
    # faces only when they are read
    faces, merges, bfs = [], [], []
    real_faces, real_merge = graphs_module._face_labels, graphs_module._merged_labels
    real_orbits = graphs_module._orbits

    def walking(n, ma, mb):
        faces.append(n)
        return real_faces(n, ma, mb)

    def merging(n, lab, reps, maps):
        merges.append(len(maps))
        return real_merge(n, lab, reps, maps)

    def orbits(n, maps):
        bfs.append(len(maps))
        return real_orbits(n, maps)

    def forbidden(*args):
        raise AssertionError("a Bubble was built")

    monkeypatch.setattr(graphs_module, "_face_labels", walking)
    monkeypatch.setattr(graphs_module, "_merged_labels", merging)
    monkeypatch.setattr(graphs_module, "_orbits", orbits)
    monkeypatch.setattr(graphs_module, "Bubble", forbidden)
    g = build_dipole(6)
    found = enumerate_jackets(g)
    assert {(j.face_count, j.genus) for j in found} == {(6, 0)}
    pairs = list(itertools.combinations(range(1, 7), 2))
    assert sorted(g._walks[2]) == sorted(pairs + [g.colors])
    assert (len(faces), merges, bfs) == (len(pairs), [], [6])
    monkeypatch.undo()
    assert all(len(j.faces) == j.face_count for j in found)


def test_jacket_equality_compares_cycle_faces_and_genus():
    a, b = enumerate_jackets(build_necklace()), enumerate_jackets(build_necklace())
    assert a == b and {*a} == {*b}
    assert a[0] != a[1]
    # same cycle, face count and genus, other faces
    g = build_dipole(3)
    (p,), (q,) = enumerate_jackets(g), enumerate_jackets(add_prefix(g, "x."))
    assert (p.cycle, p.face_count, p.genus) == (q.cycle, q.face_count, q.genus)
    assert p != q and p == Jacket(p.cycle, p.face_count, p.genus, build_dipole(3))


# ------------------------------------------------------------- degrees

def test_necklace_jacket_profile():
    by_cycle = {j.cycle: j for j in enumerate_jackets(build_necklace())}
    assert len(by_cycle[(0, 1, 2, 3)].faces) == 6
    assert by_cycle[(0, 1, 2, 3)].genus == 0
    assert len(by_cycle[(0, 2, 1, 3)].faces) == 4
    assert by_cycle[(0, 2, 1, 3)].genus == 1
    assert len(by_cycle[(0, 1, 3, 2)].faces) == 6
    assert by_cycle[(0, 1, 3, 2)].genus == 0
    # each face is a 2-bubble of cyclically adjacent colors
    for j in by_cycle.values():
        adjacent = {
            tuple(sorted((j.cycle[i], j.cycle[(i + 1) % len(j.cycle)])))
            for i in range(len(j.cycle))
        }
        assert all(f.colors in adjacent for f in j.faces)


def test_necklace_degree_report():
    rep = gurau_degree(build_necklace())
    assert rep.degree == 1
    assert rep.face_count_degree == 1
    assert rep.amplitude_exponent == Fraction(2)


def test_r1_degree():
    rep = gurau_degree(build_r1())
    assert [j.genus for j in rep.jackets] == [1]
    assert rep.degree == 1
    assert rep.face_count_degree == 1


def test_melon_is_melonic():
    assert gurau_degree(build_melon()).degree == 0
    assert is_melonic(build_melon())
    assert is_melonic(build_dipole(3))
    assert not is_melonic(build_necklace())
    assert not is_melonic(build_r1())


def test_three_colored_cube_has_degree_zero_without_being_a_melon():
    # is_melonic answers "degree 0".  On 3 colors that is planarity, which
    # is weaker than melonicity from 4 whites on: the cube, colored by edge
    # direction, is the sphere with 4 whites, and no two of its vertices
    # share two edges, so no melon can be removed from it.
    corners = list(itertools.product((0, 1), repeat=3))
    vertices = {f"v{x}{y}{z}": "wb"[(x + y + z) % 2] for x, y, z in corners}
    edges = []
    for c in range(3):
        for v in corners:
            if sum(v) % 2 == 0:
                u = tuple(x ^ (i == c) for i, x in enumerate(v))
                edges.append((f"e{c}{v}", c + 1, "v%d%d%d" % v, "v%d%d%d" % u))
    cube = ColoredGraph((1, 2, 3), vertices, edges)
    ends = [frozenset((e.white, e.black)) for e in cube.edges.values()]
    assert len(set(ends)) == len(ends) == 12
    (jacket,) = enumerate_jackets(cube)
    assert (jacket.face_count, jacket.genus) == (6, 0)
    assert gurau_degree(cube).degree == 0 and is_melonic(cube)
    assert homology(cube).lines() == ["H_0 = Z", "H_1 = 0", "H_2 = Z", "chi = 2"]


@pytest.mark.parametrize(
    "name",
    [n for n in CLOSED_3COLOR_FIXTURES + CLOSED_4COLOR_FIXTURES if n != "m.cg"],
)
def test_face_formula_agrees_with_jacket_sum(name):
    g = load_fixture(name)
    assert len(connected_components(g)) == 1
    rep = gurau_degree(g)
    assert rep.degree == rep.face_count_degree


# Test-local copy of gurau_degree from before it took the component count
# from the jacket pass: it splits the graph into component graphs to count
# them.


def _reference_gurau_degree(g):
    jackets = tuple(enumerate_jackets(g))
    degree = sum(j.genus for j in jackets)
    d = len(g.colors)
    n_comp = len(connected_components(g))
    p = len(g.vertices) // 2
    faces = len({b.key for j in jackets for b in j.faces})
    face_deg = Fraction(factorial(d - 2), 2) * (comb(d - 1, 2) * p + (d - 1) * n_comp - faces)
    return DegreeReport(jackets, degree, faces, face_deg, amplitude_exponent(d - 1, degree))


def test_gurau_degree_counts_components_without_building_them(monkeypatch):
    rng = random.Random(41)
    graphs = [load_fixture(name) for name in CLOSED_FIXTURES]
    graphs += [_random_closed(rng) for _ in range(500)]
    graphs += [build_dipole(2), build_dipole(MAX_JACKET_COLORS + 1)]

    def outcome(degree_of, g):
        try:
            return degree_of(g)
        except GraphError as exc:
            return str(exc)

    expected = [outcome(_reference_gurau_degree, g) for g in graphs]
    assert sum(isinstance(x, str) for x in expected) >= 3  # errors are compared too

    def forbidden(g):
        raise AssertionError("gurau_degree built component graphs")

    # jackets does not import connected_components, so a call could only
    # go through the graphs module, where it is patched
    assert not hasattr(jackets_module, "connected_components")
    monkeypatch.setattr(graphs_module, "connected_components", forbidden)
    assert [outcome(gurau_degree, g) for g in graphs] == expected


def test_degree_is_additive_for_m():
    # m.cg is two disjoint copies of p.cg: jacket genera add up
    m, p = load_fixture("m.cg"), load_fixture("p.cg")
    assert gurau_degree(m).degree == 2 * gurau_degree(p).degree


# ------------------------------------------------------ amplitude exponent

def test_amplitude_exponent_matrix_case():
    for g in range(6):
        assert amplitude_exponent(2, g) == 2 - 2 * g


def test_degree_functions_reject_bad_input():
    with pytest.raises(GraphError, match=r"^amplitude exponent defined for rank D >= 2$"):
        amplitude_exponent(1, 0)
    with pytest.raises(GraphError, match="^degree bound requires a closed graph$"):
        degree_lower_bound(load_fixture("twopoint.cg"))
    # one white vertex with a color-1 and a color-2 edge to two black ones
    odd = ColoredGraph(
        (1, 2, 3), {"w": "w", "b1": "b", "b2": "b"},
        [Edge("s", 1, "w", "b1"), Edge("t", 2, "w", "b2")],
    )
    with pytest.raises(GraphError, match="^jackets: vertex 'b1': missing color 2$"):
        gurau_degree(odd)


def test_amplitude_exponent_general_values():
    assert amplitude_exponent(3, 0) == Fraction(3)
    assert amplitude_exponent(3, 1) == Fraction(2)
    assert amplitude_exponent(4, 1) == Fraction(4) - Fraction(2, 6)
    assert amplitude_exponent(5, 3) == Fraction(19, 4)
    assert isinstance(amplitude_exponent(4, 1), Fraction)


# ------------------------------------------------------------ degree bounds

def test_degree_lower_bound_requires_four_colors():
    with pytest.raises(GraphError, match="exactly 4 colors"):
        degree_lower_bound(build_dipole(3))


def test_degree_lower_bound_on_four_color_fixtures():
    for name in CLOSED_4COLOR_FIXTURES:
        g = load_fixture(name)
        assert degree_lower_bound(g) <= gurau_degree(g).degree


def four_colored_o():
    """Close the quartic chi = 0 block with a parallel color-3 matching."""
    o = build_o()
    whites, blacks = sorted(o.whites()), sorted(o.blacks())
    extra = [Edge(f"m{i}", 3, w, b) for i, (w, b) in enumerate(zip(whites, blacks))]
    return ColoredGraph((0, 1, 2, 3), o.vertices, list(o.edges.values()) + extra)


def test_degree_lower_bound_nontrivial_case():
    g4 = four_colored_o()
    rep = gurau_degree(g4)
    bound = degree_lower_bound(g4)
    assert bound == 3
    assert rep.degree == 6
    assert bound <= rep.degree
    assert rep.degree == rep.face_count_degree


# Test-local copy of degree_lower_bound from before it read one ribbon graph
# of the color-deleted graph: one checked bubble graph and ribbon per 3-bubble.


def _per_bubble_lower_bound(g):
    kept = tuple(c for c in g.colors if c != max(g.colors))
    return 3 * sum(
        boundary_components(ribbon_from_colored(b.as_graph(g))).genus
        for b in bubbles(g, kept)
    )


def _random_four_colored(rng, keep):
    """Closed on colors 1..4, each edge kept with probability `keep`."""
    n = rng.randint(1, 12)
    whites = [f"w{i}" for i in range(n)]
    blacks = [f"b{i}" for i in range(n)]
    edges = []
    for c in (1, 2, 3, 4):
        image = blacks[:]
        rng.shuffle(image)
        edges += [(f"e{c}.{w}", c, w, b) for w, b in zip(whites, image) if rng.random() < keep]
    verts = {**dict.fromkeys(whites, "w"), **dict.fromkeys(blacks, "b")}
    return ColoredGraph((1, 2, 3, 4), verts, edges)


@pytest.mark.parametrize("keep", [1.0, 0.9])
def test_degree_lower_bound_matches_the_per_bubble_sum(keep):
    rng = random.Random(41)
    for _ in range(300):
        g = _random_four_colored(rng, keep)
        problems = validate(g)
        if problems:
            with pytest.raises(GraphError, match=f"^degree bound: {problems[0]}$"):
                degree_lower_bound(g)
        else:
            assert degree_lower_bound(g) == _per_bubble_lower_bound(g)
    # a vertex with only the deleted color lies in no 3-bubble, so the sum
    # skips it; the bound refuses the irregular graph
    g = ColoredGraph((1, 2, 3, 4), {"w": "w", "b": "b"}, [("e", 4, "w", "b")])
    assert _per_bubble_lower_bound(g) == 0
    with pytest.raises(GraphError, match="^degree bound: vertex 'b': missing color 1$"):
        degree_lower_bound(g)


# --------------------------------------------------------- open boundary

def test_boundary_degree_requires_open_graph():
    with pytest.raises(GraphError, match="open"):
        boundary_degree(build_dipole(3))


def test_boundary_degree_values():
    assert boundary_degree(build_tg(1)) == 3
    assert boundary_degree(load_fixture("twopoint.cg")) == 0
    assert boundary_degree(load_fixture("l-2-3.cg")) == 3 * (2 + 3)


def _reference_boundary_degree(g):
    """boundary_degree with one ribbon per boundary component."""
    if g.is_closed:
        raise GraphError("boundary degree requires an open graph")
    total = 0
    for comp in connected_components(boundary_graph(g)):
        total += boundary_components(ribbon_from_colored(comp)).genus
    return 3 * total


def _reference_boundary_lines(g):
    """report's kv boundary lines, with one ribbon per boundary component."""
    parts = connected_components(boundary_graph(g))
    lines = [f"boundary.components={len(parts)}"]
    if all(len(part.colors) == 3 for part in parts):
        genera = sorted(boundary_components(ribbon_from_colored(part)).genus for part in parts)
        lines.append("boundary.genera=" + ",".join(map(str, genera)))
    return lines


def _random_regular_closed(rng, colors):
    """Closed and regular on `colors`, possibly disconnected."""
    n = rng.randint(1, 8)
    edges = []
    for c in colors:
        image = list(range(n))
        rng.shuffle(image)
        edges += [(f"e{c}.{i}", c, f"w{i}", f"b{j}") for i, j in enumerate(image)]
    verts = {**{f"w{i}": "w" for i in range(n)}, **{f"b{i}": "b" for i in range(n)}}
    return ColoredGraph(colors, verts, edges)


def test_boundary_genera_from_one_ribbon_match_the_per_component_loop():
    # boundary_degree and report's boundary lines read the genus of every
    # boundary component from one ribbon of the whole boundary; the loop
    # over component graphs, one ribbon each, is the reference
    rng = random.Random(20)
    graphs = []
    for _ in range(12):
        genera = [rng.randint(0, 4) for _ in range(rng.randint(1, 6))]
        rng.shuffle(genera)
        graphs.append(build_l(genera))
    graphs += [build_tg(g) for g in range(5)]
    graphs += [cone(_random_regular_closed(rng, (1, 2, 3))) for _ in range(40)]
    open_three = [cone(build_dipole(2)), cone(_random_regular_closed(rng, (1, 2)))]

    def outcome(degree_of, g):
        try:
            return degree_of(g)
        except GraphError as exc:
            return str(exc)

    seen_genera = set()
    for g in graphs + open_three:
        want = outcome(_reference_boundary_degree, g)
        assert outcome(boundary_degree, g) == want
        assert isinstance(want, str) == (g in open_three)
        code, out, _ = run_cli(["report", "-", "--format", "kv"], serialize(g))
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("boundary.")]
        assert lines == _reference_boundary_lines(g)
        seen_genera.update(lines[1:])
    assert len(seen_genera) > 10  # boundaries of many genus profiles
