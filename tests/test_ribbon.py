"""Ribbon structures: parsing, face tracing, genus."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorgraphs import ribbon as ribbon_module
from tensorgraphs.graphs import ColoredGraph, GraphError, disjoint_union
from tensorgraphs.ribbon import (
    BoundaryReport,
    RibbonStructure,
    boundary_components,
    euler_agreement,
    genus,
    parse_ribbon,
    ribbon_from_colored,
    serialize_ribbon,
)
from tensorgraphs.models import (
    build_dipole,
    build_melon,
    build_r1,
    build_ribbon_q,
    build_ribbon_r,
    build_ribbon_w,
)

from conftest import (
    CLOSED_3COLOR_FIXTURES,
    RIBBON_FIXTURES,
    fixture_text,
    load_fixture,
)


# ----------------------------------------------------------------- parsing

@pytest.mark.parametrize("name", RIBBON_FIXTURES)
def test_ribbon_roundtrip(name):
    text = fixture_text(name)
    r = parse_ribbon(text)
    assert serialize_ribbon(r) == text
    assert serialize_ribbon(parse_ribbon(serialize_ribbon(r))) == text


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("rv v h1 h2\nrj h1 h1\n", "fixes half-edge"),
        ("rv v h1 h2\nrj h1 h2\nrj h1 h2\n", "paired twice"),
        ("rv v h1 h2\nrj h1 h3\n", "unknown half-edge"),
        ("rv v h1 h2\n", "unpaired half-edges"),
        ("rv v h1 h2\nrv u h2 h3\nrj h1 h3\n", "listed twice"),
    ],
)
def test_ribbon_parse_rejects_malformed(text, fragment):
    with pytest.raises(GraphError) as exc:
        parse_ribbon(text)
    assert fragment in str(exc.value)


def test_ribbon_accessors():
    r = parse_ribbon("rv v h1 h2 h3 h4\nrj h1 h3\nrj h2 h4\n")
    assert r.n_vertices == 1
    assert r.n_edges == 2
    assert r.vertex_of("h3") == "v"
    assert r.next_around_vertex("h4") == "h1"
    assert r.partner("h1") == "h3"


# ----------------------------------------------------- the three examples

def test_w_is_a_one_vertex_torus():
    rep = boundary_components(build_ribbon_w())
    assert (rep.bc, rep.euler, rep.genus) == (1, 0, 1)
    assert rep.per_component == ((1, 0, 1),)


def test_q_is_planar_with_three_boundaries():
    rep = boundary_components(build_ribbon_q())
    assert (rep.bc, rep.euler, rep.genus) == (3, 2, 0)


def test_r_has_a_single_boundary_circle():
    rep = boundary_components(build_ribbon_r())
    assert (rep.bc, rep.euler, rep.genus) == (1, 0, 1)


def test_w_and_q_share_underlying_graph_not_genus():
    # same one-vertex four-valent graph; different cyclic order
    w, q = build_ribbon_w(), build_ribbon_q()
    assert w.n_vertices == q.n_vertices == 1
    assert w.n_edges == q.n_edges == 2
    assert genus(w) != genus(q)


# ------------------------------------------- colored graphs as ribbons

def test_dipole_ribbon_is_a_sphere():
    rep = boundary_components(ribbon_from_colored(build_dipole(3)))
    assert (rep.bc, rep.euler, rep.genus) == (3, 2, 0)


def test_r1_ribbon_is_a_torus_with_four_faces():
    rep = boundary_components(ribbon_from_colored(build_r1()))
    assert (rep.bc, rep.euler, rep.genus) == (4, 0, 1)


def test_ribbon_from_colored_requires_three_closed_colors():
    with pytest.raises(GraphError):
        ribbon_from_colored(build_melon())  # four colors
    with pytest.raises(GraphError):
        ribbon_from_colored(load_fixture("twopoint.cg"))  # open


@pytest.mark.parametrize("name", CLOSED_3COLOR_FIXTURES)
def test_euler_agreement_on_fixture_corpus(name):
    assert euler_agreement(load_fixture(name))


def test_genus_sums_over_components():
    # two tori drawn side by side
    r = RibbonStructure(
        {
            "v": ("a1", "a2", "a3", "a4"),
            "u": ("b1", "b2", "b3", "b4"),
        },
        {"a1": "a3", "a2": "a4", "b1": "b3", "b2": "b4"},
    )
    rep = boundary_components(r)
    assert rep.n_components == 2
    assert genus(r) == 2
    assert rep.per_component == ((1, 0, 1), (1, 0, 1))


def test_face_walk_is_a_permutation_orbit():
    # every half-edge appears in exactly one traced face of W
    r = build_ribbon_w()
    seen = set()
    for h in r.involution:
        cur, steps = h, 0
        while True:
            cur = r.next_around_vertex(r.partner(cur))
            steps += 1
            assert steps <= 2 * r.n_edges
            if cur == h:
                break
        seen.add(h)
    assert seen == set(r.involution)


# ------------------------------------------------- reference boundary walk
#
# Test-local copies of the vertex stack walk (`_components`) and the face
# orbit trace that `boundary_components` ran before both moved onto the
# shared orbit routine.  Every BoundaryReport field must agree, and
# `per_component` follows the smallest *vertex* label of each component.


def _reference_components(r):
    orders = r.orders
    seen = set()
    comps = []
    for start in sorted(orders):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for h in orders[v]:
                u = r.vertex_of(r.partner(h))
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(comp)
    return comps


def _reference_boundary(r):
    orbits = []
    seen = set()
    for h0 in sorted(r.involution):
        if h0 in seen:
            continue
        orbit = set()
        h = h0
        while h not in orbit:
            orbit.add(h)
            h = r.next_around_vertex(r.partner(h))
        orbits.append(orbit)
        seen |= orbit
    orders = r.orders
    per = []
    for comp in _reference_components(r):
        halves = {h for u in comp for h in orders[u]}
        bc = sum(1 for o in orbits if next(iter(o)) in halves)
        chi = len(comp) - len(halves) // 2 + bc
        per.append((bc, chi, (2 - chi) // 2))
    return BoundaryReport(
        bc=sum(p[0] for p in per),
        euler=sum(p[1] for p in per),
        genus=sum(p[2] for p in per),
        n_components=len(per),
        per_component=tuple(per),
    )


def _random_ribbon(rng, n_comps):
    """Components with vertex labels ascending and half-edge labels
    descending, so the two label orders disagree."""
    orders, pairs = [], []
    for k in range(n_comps):
        halves = []
        for j in range(rng.randint(1, 4)):
            v = f"v{k:03d}.{j}"
            cycle = tuple(f"h{999 - k:03d}.{j}.{i}" for i in range(rng.randint(2, 4)))
            orders.append((v, cycle))
            halves += cycle
        if len(halves) % 2:
            v, cycle = orders[-1]
            orders[-1] = (v, cycle + (f"h{999 - k:03d}.x",))
            halves.append(orders[-1][1][-1])
        rng.shuffle(halves)
        pairs += zip(halves[::2], halves[1::2])
    rng.shuffle(orders)
    rng.shuffle(pairs)
    return RibbonStructure(orders, pairs)


def test_per_component_follows_vertex_order_not_half_edge_order():
    r = RibbonStructure(
        {"a": ("z1", "z2", "z3", "z4"), "b": ("a1", "a2")},
        {"z1": "z3", "z2": "z4", "a1": "a2"},
    )
    rep = boundary_components(r)
    assert rep.per_component == ((1, 0, 1), (2, 2, 0))
    assert rep == _reference_boundary(r)


def test_boundary_matches_reference_on_random_ribbons():
    rng = random.Random(3)
    for _ in range(400):
        r = _random_ribbon(rng, rng.randint(0, 8))
        assert boundary_components(r) == _reference_boundary(r)
    big = _random_ribbon(rng, 300)
    rep = boundary_components(big)
    assert rep.n_components >= 300
    assert rep == _reference_boundary(big)


@given(st.integers(0, 6), st.randoms(use_true_random=False))
def test_boundary_matches_reference_on_drawn_ribbons(n_comps, rng):
    r = _random_ribbon(rng, n_comps)
    assert boundary_components(r) == _reference_boundary(r)


def _random_closed_3colored(rng):
    n = rng.randint(1, 40)
    whites = [f"w{rng.randint(0, 99)}.{i}" for i in range(n)]
    blacks = [f"b{rng.randint(0, 99)}.{i}" for i in range(n)]
    edges = []
    for c in (1, 2, 3):
        image = blacks[:]
        rng.shuffle(image)
        edges += [(f"e{c}.{w}", c, w, b) for w, b in zip(whites, image)]
    return ColoredGraph((1, 2, 3), {**dict.fromkeys(whites, "w"), **dict.fromkeys(blacks, "b")}, edges)


def _seeded_closed_3colored(seed, count):
    """Closed 3-colored graphs, a third of them a disjoint union of two."""
    rng = random.Random(seed)
    for i in range(count):
        g = _random_closed_3colored(rng)
        yield disjoint_union(g, _random_closed_3colored(rng)) if i % 3 == 0 else g


def _colored_corpus():
    yield from _seeded_closed_3colored(17, 200)
    for name in CLOSED_3COLOR_FIXTURES:
        yield load_fixture(name)


def test_boundary_matches_reference_on_colored_graphs():
    # the 2-bubble count of a colored source equals the face trace, both the
    # test-local one and the general one on the same tables read back
    disconnected = 0
    for g in _colored_corpus():
        r = ribbon_from_colored(g)
        rep = boundary_components(r)
        assert rep == _reference_boundary(r)
        assert rep == boundary_components(parse_ribbon(serialize_ribbon(r)))
        disconnected += rep.n_components > 1
    assert disconnected >= 60
    for name in RIBBON_FIXTURES:
        r = parse_ribbon(fixture_text(name))
        assert boundary_components(r) == _reference_boundary(r)


# Test-local copy of ribbon_from_colored from before its tables were built
# on first read: string half-edges, checked at once.


def _eager_ribbon(g):
    orders = {
        v: tuple(f"{v}:{c}" for c in (g.colors if p == "w" else g.colors[::-1]))
        for v, p in sorted(g.vertices.items())
    }
    pairing = {f"{e.white}:{e.color}": f"{e.black}:{e.color}" for e in g.edges.values()}
    return RibbonStructure(orders, pairing)


def test_lazy_tables_equal_the_eager_ribbon():
    for g in _colored_corpus():
        want = _eager_ribbon(g)
        r = ribbon_from_colored(g)
        assert serialize_ribbon(r) == serialize_ribbon(want)
        assert (r.orders, r.involution) == (want.orders, want.involution)
        assert (r.n_vertices, r.n_edges) == (want.n_vertices, want.n_edges)
        for h in want.involution:
            assert r.vertex_of(h) == want.vertex_of(h)
            assert r.next_around_vertex(h) == want.next_around_vertex(h)
            assert r.partner(h) == want.partner(h)
        # each accessor builds the tables on its own
        for read in (lambda x: x.n_vertices, lambda x: x.involution, serialize_ribbon):
            assert read(ribbon_from_colored(g)) == read(want)


def test_irregular_graph_raises_when_its_ribbon_is_made():
    rng = random.Random(29)
    for _ in range(100):
        g = _random_closed_3colored(rng)
        kept = [e for e in g.edges.values() if rng.random() < 0.8]
        if len(kept) == len(g.edges):
            kept.pop()
        h = ColoredGraph(g.colors, dict(g.vertices), kept)
        with pytest.raises(GraphError) as want:
            _eager_ribbon(h)
        with pytest.raises(GraphError, match="unpaired half-edges") as got:
            ribbon_from_colored(h)
        assert str(got.value) == str(want.value)


def test_reading_the_genus_builds_no_half_edge(monkeypatch):
    def forbidden(self):
        raise AssertionError("half-edge tables built")

    monkeypatch.setattr(RibbonStructure, "_built", forbidden)
    for g in _seeded_closed_3colored(31, 20):
        r = ribbon_from_colored(g)
        assert (genus(r), boundary_components(r).bc) == (
            boundary_components(_eager_ribbon(g)).genus,
            boundary_components(_eager_ribbon(g)).bc,
        )
        assert r._orders is None


@pytest.mark.parametrize("name", CLOSED_3COLOR_FIXTURES)
def test_euler_agreement_traces_the_faces(monkeypatch, name):
    # the ribbon side of euler_agreement must not be the 2-bubble count
    def forbidden(*args):
        raise AssertionError("2-bubble count used")

    monkeypatch.setattr(ribbon_module, "_euler_counts", forbidden)
    assert euler_agreement(load_fixture(name))
