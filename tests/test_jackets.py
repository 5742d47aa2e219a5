"""Jackets, degree computations, and the amplitude exponent."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from tensorgraphs import jackets as jackets_module
from tensorgraphs.graphs import (
    ColoredGraph,
    Edge,
    GraphError,
    bubbles,
    connected_components,
)
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
    build_melon,
    build_necklace,
    build_o,
    build_r1,
    build_tg,
)

from conftest import (
    CLOSED_3COLOR_FIXTURES,
    CLOSED_4COLOR_FIXTURES,
    CLOSED_FIXTURES,
    load_fixture,
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


def test_jackets_cap_the_color_count():
    with pytest.raises(GraphError, match=f"at most {MAX_JACKET_COLORS} colors"):
        enumerate_jackets(build_dipole(MAX_JACKET_COLORS + 1))
    assert len(enumerate_jackets(build_dipole(MAX_JACKET_COLORS))) == 2520


# Test-local copy of the jacket loop before it shared one bubble walk per
# color pair and one component map: bubbles per cycle, components as graphs.


def _reference_jackets(g):
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
            if chi % 2:
                raise GraphError("odd jacket Euler characteristic")
            total += (2 - chi) // 2
        out.append(Jacket(cycle, tuple(faces), total))
    return out


def _random_closed(rng):
    """Closed, on 3-5 colors, possibly irregular and disconnected."""
    colors = tuple(range(1, rng.randint(3, 5) + 1))
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
    rng = random.Random(29)
    for _ in range(150):
        g = _random_closed(rng)
        outcomes = []
        for enumerate_ in (enumerate_jackets, _reference_jackets):
            try:
                outcomes.append(enumerate_(g))
            except GraphError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


def test_each_color_pair_is_walked_once(monkeypatch):
    calls = []

    def counting(g, colors):
        calls.append(tuple(colors))
        return bubbles(g, colors)

    monkeypatch.setattr(jackets_module, "bubbles", counting)
    enumerate_jackets(build_dipole(6))
    assert sorted(calls) == list(itertools.combinations(range(1, 7), 2))


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
    p, rem = divmod(len(g.vertices), 2)
    if rem:
        raise GraphError("odd vertex count in a closed bipartite graph")
    faces = len({b.key for j in jackets for b in j.faces})
    face_deg = Fraction(factorial(d - 2), 2) * (comb(d - 1, 2) * p + (d - 1) * n_comp - faces)
    return DegreeReport(jackets, degree, face_deg, amplitude_exponent(d - 1, degree))


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

    monkeypatch.setattr(jackets_module, "connected_components", forbidden)
    assert [outcome(gurau_degree, g) for g in graphs] == expected


def test_degree_is_additive_for_m():
    # m.cg is two disjoint copies of p.cg: jacket genera add up
    m, p = load_fixture("m.cg"), load_fixture("p.cg")
    assert gurau_degree(m).degree == 2 * gurau_degree(p).degree


# ------------------------------------------------------ amplitude exponent

def test_amplitude_exponent_matrix_case():
    for g in range(6):
        assert amplitude_exponent(2, g) == 2 - 2 * g


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


# --------------------------------------------------------- open boundary

def test_boundary_degree_requires_open_graph():
    with pytest.raises(GraphError, match="open"):
        boundary_degree(build_dipole(3))


def test_boundary_degree_values():
    assert boundary_degree(build_tg(1)) == 3
    assert boundary_degree(load_fixture("twopoint.cg")) == 0
    assert boundary_degree(load_fixture("l-2-3.cg")) == 3 * (2 + 3)
