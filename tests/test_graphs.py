"""Core graph type: parsing, validation, bubbles, components, isomorphism."""

from __future__ import annotations

import itertools
import math
import random
import re
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorgraphs import graphs as graphs_module
from tensorgraphs.graphs import (
    MAX_D,
    WHITE,
    Bubble,
    ColoredGraph,
    Edge,
    GraphError,
    IsoResult,
    Leg,
    _component_certs,
    _orbits,
    _slot_index,
    add_prefix,
    amputate,
    bubbles,
    canonical_certificate,
    connected_components,
    disjoint_union,
    export_dot,
    is_isomorphic,
    parse,
    recolor,
    relabel,
    remove_color,
    serialize,
    validate,
)
from tensorgraphs.models import (
    ModelSpec,
    _swap_bubble_colors,
    build_cg,
    build_dipole,
    build_kg,
    build_l,
    build_n,
    build_necklace,
    build_o,
    build_qgbc,
    build_r1,
    build_tg,
    builtin_model,
    default_probes,
    enumerate_vacuum,
)
from tensorgraphs.surgery import (
    boundary_graph,
    close_legs,
    cone,
    connected_sum,
    crys_sum,
    open_edge,
)

from conftest import (
    CLOSED_FIXTURES,
    OPEN_FIXTURES,
    fixture_text,
    graph_state,
    load_fixture,
)

ALL_GRAPH_FIXTURES = CLOSED_FIXTURES + OPEN_FIXTURES


# ---------------------------------------------------------------- parsing

@pytest.mark.parametrize("name", ALL_GRAPH_FIXTURES)
def test_serialize_parse_identity(name):
    text = fixture_text(name)
    g = parse(text)
    assert serialize(g) == text
    assert serialize(parse(serialize(g))) == text


def test_parse_closed_header_maps_colors():
    g = parse("colors 3 closed\nv a w\nv b b\ne e1 1 a b\ne e2 2 a b\ne e3 3 a b\n")
    assert g.colors == (1, 2, 3)
    assert g.is_closed and not g.is_open


def test_parse_open_header_includes_color_zero():
    g = parse(
        "colors 2 open\n"
        "v a w\nv b b\n"
        "e e1 1 a b\ne e2 2 a b\n"
        "e z 0 a b\n"
    )
    assert g.colors == (0, 1, 2)
    # no legs: operationally closed even though stored with the open header
    assert g.is_closed


def test_parse_legs():
    g = parse(
        "colors 1 open\n"
        "v a w\nv b b\n"
        "e e1 1 a b\n"
        "leg la a\nleg lb b\n"
    )
    assert g.is_open
    assert [leg.label for leg in g.legs.values()] == ["la", "lb"]
    assert g.leg_at("a").label == "la"
    assert g.neighbor("a", 1) == "b"
    assert g.edge_at("a", 0) is None


def test_parse_comments_and_blank_lines():
    g = parse("# a comment\ncolors 1 closed\n\nv a w\nv b b  # trailing\ne e1 1 a b\n")
    assert sorted(g.vertices) == ["a", "b"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("colors x closed\n", "line 1"),
        ("colors 2 closed\nv a w\nv a b\n", "duplicate vertex"),
        (
            "colors 2 closed\nv a w\nv b b\ne e1 1 a b\ne e2 1 a b\n",
            "duplicate color",
        ),
        ("colors 2 closed\nv a w\nv b b\ne e1 3 a b\n", "outside color set"),
        ("colors 2 closed\nv a w\nv b b\ne e1 1 b a\n", "is not 'w'"),
        ("colors 2 closed\nv a w\ne e1 1 a zz\n", "unknown vertex"),
        ("colors 2 closed\nv a w\nv b b\nleg l1 a\n", "color 0 not in color set"),
    ],
)
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(GraphError) as exc:
        parse(text)
    assert fragment in str(exc.value)


def test_parse_caps_the_header_dimension():
    with pytest.raises(GraphError, match=f"line 1: D must be <= {MAX_D}"):
        parse(f"colors {MAX_D + 1} closed\n")
    with pytest.raises(GraphError, match=f"line 2: D must be <= {MAX_D}"):
        parse(f"# big\ncolors {MAX_D + 1} open\n")
    assert parse(f"colors {MAX_D} open\n").colors == tuple(range(MAX_D + 1))


def test_parse_requires_regularity_by_default():
    text = "colors 2 closed\nv a w\nv b b\ne e1 1 a b\n"
    with pytest.raises(GraphError, match="missing color"):
        parse(text)
    g = parse(text, require_regular=False)
    issues = validate(g)
    assert any("missing color 2" in issue for issue in issues)


@pytest.mark.parametrize("name", ALL_GRAPH_FIXTURES)
def test_fixtures_validate_clean(name):
    assert validate(load_fixture(name)) == []


# Test-local copy of validate's vertex walk, from before it answered a
# regular graph by counting filled slots.


def _reference_validate(g):
    problems = []
    for v in sorted(g.vertices):
        for c in g.colors:
            if g.edge_at(v, c) is not None:
                continue
            if c == 0 and g.leg_at(v) is not None:
                continue
            problems.append(f"vertex {v!r}: missing color {c}")
    return problems


def _filled_graph(rng, colors, legs):
    """Every slot filled; with `legs`, color 0 is a partial matching and
    each vertex it leaves out carries a leg."""
    n = rng.randint(0, 8)
    verts = {**{f"w{i}": "w" for i in range(n)}, **{f"b{i}": "b" for i in range(n)}}
    edges, open_ends = [], []
    for c in colors:
        image = list(range(n))
        rng.shuffle(image)
        for i, j in enumerate(image):
            if legs and c == 0 and rng.random() < 0.5:
                open_ends += [f"w{i}", f"b{j}"]
            else:
                edges.append((f"e{c}.{i}", c, f"w{i}", f"b{j}"))
    return ColoredGraph(colors, verts, edges, [(f"l.{v}", v) for v in open_ends])


def test_validate_matches_the_vertex_walk_on_seeded_graphs():
    rng = random.Random(23)
    seen = set()
    for _ in range(300):
        g = _random_graph(rng)
        want = _reference_validate(g)
        assert validate(g) == want
        seen.add((g.is_open, bool(want)))
    for _ in range(100):
        legs = rng.random() < 0.5
        colors = tuple(range(0 if legs else 1, rng.randint(2, 5)))
        g = _filled_graph(rng, colors, legs)
        assert validate(g) == _reference_validate(g) == []
        seen.add((g.is_open, False))
        if g.legs:  # one leg fewer leaves one slot open
            drop = rng.choice(sorted(g.legs))
            h = ColoredGraph(
                g.colors, dict(g.vertices), g.edges.values(),
                [l for k, l in g.legs.items() if k != drop],
            )
            assert validate(h) == _reference_validate(h) != []
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


# ---------------------------------------------------------------- bubbles

def test_dipole_two_bubbles():
    d = build_dipole(3)
    one = bubbles(d, (1, 2))
    assert len(one) == 1
    assert one[0].vertices == tuple(sorted(d.vertices))
    assert one[0].colors == (1, 2)


def test_r1_two_bubble_census():
    g = build_r1()
    counts = {
        (c1, c2): len(bubbles(g, (c1, c2)))
        for c1 in g.colors
        for c2 in g.colors
        if c1 < c2
    }
    assert counts == {(0, 1): 1, (0, 2): 1, (1, 2): 2}
    inner = bubbles(g, (1, 2))
    assert [b.vertices for b in inner] == [("a", "b", "p", "q"), ("c", "d", "x", "y")]


def test_bubbles_do_not_cross_legs():
    g = load_fixture("twopoint.cg")
    zero = bubbles(g, (0, 1))
    for b in zero:
        assert set(b.edges) <= set(g.edges)


def test_single_color_bubbles_are_edges():
    g = build_r1()
    assert len(bubbles(g, (1,))) == 4
    assert all(len(b.edges) == 1 for b in bubbles(g, (0,)))


# ------------------------------------------------------- transformations

def test_remove_color_drops_edges_and_palette():
    g = build_r1()
    h = remove_color(g, 0)
    assert h.colors == (1, 2)
    assert len(h.edges) == 8
    assert len(h.vertices) == 8


def test_amputate_strips_legs():
    g = load_fixture("twopoint.cg")
    h = amputate(g)
    assert not h.legs
    assert h.vertices == g.vertices


def test_relabel_preserves_structure():
    g = build_dipole(3)
    h = relabel(g, vertex_map={"w": "north", "b": "south"})
    assert sorted(h.vertices) == ["north", "south"]
    assert is_isomorphic(g, h).isomorphic


def test_add_prefix_is_pure_renaming():
    g = build_r1()
    h = add_prefix(g, "copy.")
    assert all(v.startswith("copy.") for v in h.vertices)
    assert all(e.startswith("copy.") for e in h.edges)
    assert canonical_certificate(g) == canonical_certificate(h)


def test_recolor_changes_exact_class_only():
    g = build_necklace(0)
    h = recolor(g, {0: 1, 1: 2, 2: 3, 3: 4})
    assert not is_isomorphic(g, h).isomorphic
    res = is_isomorphic(g, h, mode="up-to-color-permutation")
    assert res.isomorphic
    assert res.color_map == {0: 1, 1: 2, 2: 3, 3: 4}


def test_disjoint_union_namespaces_on_collision():
    d = build_dipole(3)
    u = disjoint_union(d, d)
    assert len(u.vertices) == 4
    assert len(u.edges) == 6
    assert len(connected_components(u)) == 2


def test_union_and_sum_share_the_namespacing():
    d = build_dipole(3)
    u = disjoint_union(d, d)
    prefixed = [p + v for p in ("l.", "r.") for v in d.vertices]
    assert list(u.vertices) == prefixed
    assert list(u.edges) == [p + e for p in ("l.", "r.") for e in d.edges]
    e = sorted(d.edges)[0]
    assert list(connected_sum(d, e, d, e).vertices) == prefixed
    # no collision: labels are kept as they are
    other = relabel(d, {v: v + "'" for v in d.vertices}, {x: x + "'" for x in d.edges})
    assert list(disjoint_union(d, other).vertices) == list(d.vertices) + list(other.vertices)


# ---------------------------------------------------------- components

def test_connected_components_of_m():
    m = load_fixture("m.cg")
    parts = connected_components(m)
    assert len(parts) == 2
    p = load_fixture("p.cg")
    assert all(is_isomorphic(part, p).isomorphic for part in parts)


def test_connected_fixture_is_single_component():
    assert len(connected_components(load_fixture("l-2-3.cg"))) == 1


# ---------------------------------------------------------- isomorphism

def test_iso_witness_maps_edges_correctly():
    g = build_cg(1)
    h = add_prefix(g, "zz.")
    res = is_isomorphic(g, h)
    assert res.isomorphic
    # the vertex witness must carry every edge onto an edge of equal color
    for e in g.edges.values():
        image = h.edge_at(res.witness[e.white], e.color)
        assert image is not None
        assert image.black == res.witness[e.black]


def test_iso_distinguishes_r0_from_r1():
    r0 = load_fixture("r0.cg")
    r1 = load_fixture("r1.cg")
    assert not is_isomorphic(r0, r1).isomorphic


def test_iso_rejects_unknown_mode():
    d = build_dipole(3)
    with pytest.raises(GraphError, match="unknown isomorphism mode"):
        is_isomorphic(d, d, mode="whatever")


def _two_dipoles(k, crossed=False):
    """Two k-colored dipoles, or with `crossed` one connected graph: color k
    joins a-q and b-p instead of a-p and b-q."""
    edges = []
    for c in range(1, k + 1):
        swap = crossed and c == k
        edges.append((f"e{c}", c, "a", "q" if swap else "p"))
        edges.append((f"f{c}", c, "b", "p" if swap else "q"))
    return ColoredGraph(range(1, k + 1), {"a": "w", "b": "w", "p": "b", "q": "b"}, edges)


def test_color_permutation_mode_caps_the_colors(monkeypatch):
    a, b = _two_dipoles(8), _two_dipoles(8, crossed=True)
    assert not is_isomorphic(a, b, "up-to-color-permutation")
    a, b = _two_dipoles(9), _two_dipoles(9, crossed=True)
    assert not is_isomorphic(a, b, "exact-colors")

    def forbidden(*args):
        raise AssertionError("a certificate was computed past the cap")

    monkeypatch.setattr(graphs_module, "_component_certs", forbidden)
    with pytest.raises(GraphError, match=r"^9 colors exceed the permutation cap \(8\)$"):
        is_isomorphic(a, b, "up-to-color-permutation")


@pytest.mark.parametrize("name", ALL_GRAPH_FIXTURES)
def test_certificate_invariant_under_relabeling(name):
    g = load_fixture(name)
    assert canonical_certificate(add_prefix(g, "x.")) == canonical_certificate(g)


@given(st.permutations(list("abcdpqxy")))
def test_certificate_invariant_under_vertex_permutation(perm):
    g = build_r1()
    mapping = dict(zip(sorted(g.vertices), perm))
    # legal renaming: parities travel with the vertices
    h = relabel(g, vertex_map=mapping)
    assert canonical_certificate(h) == canonical_certificate(g)
    assert is_isomorphic(g, h).isomorphic


# ------------------------------------------- certificate kernel vs. reference
#
# `_component_certs` tries white roots only and abandons a root at its first
# row larger than the best code's.  The reference below is the plain
# definition: a BFS from every root of the component, the smallest code
# winning and the earliest root keeping ties, with every root of that code
# listed in label order; the color-permutation mode builds `recolor(a, cmap)`
# for every bijection.  Codes, BFS orders (with their insertion order), tied
# roots, certificates, witnesses and color maps must agree.


def _reference_bfs_code(g, root):
    order = {root: 0}
    queue = [root]
    rows = []
    for v in queue:
        row = [0 if g.parity(v) == WHITE else 1]
        for c in g.colors:
            e = g.edge_at(v, c)
            if e is None:
                row.append(-2 if c == 0 and g.leg_at(v) is not None else -1)
                continue
            u = e.other(v)
            if u not in order:
                order[u] = len(queue)
                queue.append(u)
            row.append(order[u])
        rows.append(tuple(row))
    return tuple(rows), order


def _reference_component_certs(g):
    seen = set()
    out = []
    for start in sorted(g.vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for c in g.colors:
                u = g.neighbor(v, c)
                if u is not None and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        best = None
        for root in sorted(comp):
            code, order = _reference_bfs_code(g, root)
            if best is None or code < best[0]:
                best = (code, order, [root])
            elif code == best[0]:
                best[2].append(root)
        out.append(best)
    return out


def _reference_iso_exact(a, b):
    if (a.colors, len(a), len(a.edges), len(a.legs)) != (
        b.colors, len(b), len(b.edges), len(b.legs)
    ):
        return IsoResult(False)
    certs_a = _reference_component_certs(a)
    certs_b = _reference_component_certs(b)
    if sorted(c for c, _, _ in certs_a) != sorted(c for c, _, _ in certs_b):
        return IsoResult(False)
    by_code = {}
    for code, order, _ in certs_b:
        by_code.setdefault(code, []).append(order)
    witness = {}
    for code, order_a, _ in certs_a:
        inv_b = {i: v for v, i in by_code[code].pop().items()}
        for v, i in order_a.items():
            witness[v] = inv_b[i]
    return IsoResult(True, witness)


def _reference_is_isomorphic(a, b, mode):
    if mode == "exact-colors":
        return _reference_iso_exact(a, b)
    if len(a.colors) != len(b.colors):
        return IsoResult(False)
    fix_zero = bool(a.legs) or bool(b.legs)
    if fix_zero and (0 not in a.colors or 0 not in b.colors):
        return IsoResult(False)
    for perm in itertools.permutations(b.colors):
        cmap = dict(zip(a.colors, perm))
        if fix_zero and cmap[0] != 0:
            continue
        res = _reference_iso_exact(recolor(a, cmap), b)
        if res:
            return IsoResult(True, res.witness, cmap)
    return IsoResult(False)


def _iso_key(res):
    witness = None if res.witness is None else list(res.witness.items())
    return res.isomorphic, witness, res.color_map


def assert_kernel_matches_reference(a, b):
    for g in (a, b):
        labels, certs = _component_certs(g)
        fast = [
            (code, [(labels[v], k) for k, v in enumerate(order)], [labels[v] for v in ties])
            for code, order, ties in certs
        ]
        slow = [
            (code, list(order.items()), ties)
            for code, order, ties in _reference_component_certs(g)
        ]
        assert fast == slow
        assert canonical_certificate(g) == (g.colors, tuple(sorted(c for c, _, _ in slow)))
    for mode in ("exact-colors", "up-to-color-permutation"):
        for x, y in ((a, b), (b, a)):
            assert _iso_key(is_isomorphic(x, y, mode)) == _iso_key(
                _reference_is_isomorphic(x, y, mode)
            )


def _partial_graph(colors, parities, matchings, legs):
    """A graph on vertices ``v<i>`` from per-color (white, black) index pairs."""
    verts = {f"v{i}": p for i, p in enumerate(parities)}
    edges = [
        (f"e{c}.{w}", c, f"v{w}", f"v{b}") for c, pairs in zip(colors, matchings)
        for w, b in pairs
    ]
    zero = {x for c, pairs in zip(colors, matchings) if c == 0 for p in pairs for x in p}
    legs = set(legs) & set(range(len(parities))) - zero if 0 in colors else ()
    leg_list = [(f"l{i}", f"v{i}") for i in sorted(legs)]
    return ColoredGraph(colors, verts, edges, leg_list)


def _random_graph(rng, colors=None):
    """Open or closed, irregular, on 1-5 colors, usually disconnected."""
    if colors is None:
        d = rng.randint(1, 5)
        colors = tuple(range(d + 1)) if rng.random() < 0.4 else tuple(range(1, d + 1))
    n = rng.randint(0, 12)
    parities = [rng.choice("wb") for _ in range(n)]
    whites = [i for i, p in enumerate(parities) if p == "w"]
    blacks = [i for i, p in enumerate(parities) if p == "b"]
    matchings = []
    for _ in colors:
        rng.shuffle(blacks)
        matchings.append([wb for wb in zip(whites, blacks) if rng.random() < 0.8])
    legs = [i for i in range(n) if rng.random() < 0.5]
    return _partial_graph(colors, parities, matchings, legs)


def _shuffled_copy(g, rng):
    """`g` under fresh vertex labels, recolored (fixing 0 when it has legs)."""
    vs = sorted(g.vertices)
    fresh = [f"u{i}" for i in range(len(vs))]
    rng.shuffle(fresh)
    h = relabel(g, dict(zip(vs, fresh)))
    movable = [c for c in g.colors if not (g.legs and c == 0)]
    image = movable[:]
    rng.shuffle(image)
    return recolor(h, dict(zip(movable, image)))


def test_kernel_matches_reference_on_seeded_random_graphs():
    rng = random.Random(20161)
    for _ in range(300):
        a = _random_graph(rng)
        roll = rng.random()
        if roll < 0.6:
            b = _shuffled_copy(a, rng)
        elif roll < 0.8 and a.edges:
            h = _shuffled_copy(a, rng)
            drop = rng.choice(sorted(h.edges))
            b = ColoredGraph(
                h.colors, dict(h.vertices),
                [e for k, e in h.edges.items() if k != drop], h.legs.values(),
            )
        else:
            b = _random_graph(rng)
        assert_kernel_matches_reference(a, b)


@st.composite
def small_graphs(draw):
    d = draw(st.integers(1, 4))
    colors = tuple(range(d + 1)) if draw(st.booleans()) else tuple(range(1, d + 1))
    parities = draw(st.lists(st.sampled_from("wb"), max_size=8))
    whites = [i for i, p in enumerate(parities) if p == "w"]
    blacks = [i for i, p in enumerate(parities) if p == "b"]
    matchings = []
    for _ in colors:
        order = draw(st.permutations(blacks))
        keep = draw(st.lists(st.booleans(), min_size=len(whites), max_size=len(whites)))
        matchings.append([wb for wb, k in zip(zip(whites, order), keep) if k])
    legs = draw(st.sets(st.integers(0, max(len(parities) - 1, 0))))
    return _partial_graph(colors, parities, matchings, legs)


@given(small_graphs(), small_graphs(), st.randoms(use_true_random=False))
def test_kernel_matches_reference_on_drawn_graphs(a, other, rng):
    assert_kernel_matches_reference(a, other)
    assert_kernel_matches_reference(a, _shuffled_copy(a, rng))


@pytest.mark.parametrize(
    "g",
    [
        ColoredGraph((1, 2, 3), {}),
        ColoredGraph((1, 2), {"a": "w"}),
        ColoredGraph((1, 2), {"a": "b"}),
        ColoredGraph((0, 1, 2), {"a": "w"}, legs=[("l", "a")]),
        ColoredGraph((0, 1), {"a": "b", "z": "w"}, legs=[("l", "a")]),
    ],
    ids=["empty", "white-vertex", "black-vertex", "leg-only", "leg-and-isolated"],
)
def test_kernel_matches_reference_on_edge_cases(g):
    assert_kernel_matches_reference(g, g)
    assert_kernel_matches_reference(g, relabel(g, {v: v + "'" for v in g.vertices}))
    assert is_isomorphic(g, g).isomorphic


def test_legs_hold_color_zero_fixed():
    # A color-0 edge at one pair, legs at the other: only bijections fixing 0
    # are tried, and the first of them in permutation order is reported.
    a = parse(
        "colors 2 open\n"
        "v p w\nv q b\nv r w\nv s b\n"
        "e e0 0 p q\ne e1 1 p q\ne e2 2 p q\n"
        "e f1 1 r s\ne f2 2 r s\n"
        "leg lr r\nleg ls s\n"
    )
    b = relabel(recolor(a, {1: 2, 2: 1}), {"p": "r", "q": "s", "r": "p", "s": "q"})
    res = is_isomorphic(a, b, "up-to-color-permutation")
    assert res.isomorphic and res.color_map == {0: 0, 1: 1, 2: 2}
    assert res.witness == {"p": "r", "q": "s", "r": "p", "s": "q"}
    assert_kernel_matches_reference(a, b)
    # without legs on either side, color 0 may move
    closed = amputate(a)
    moved = recolor(closed, {0: 1, 1: 0})
    assert is_isomorphic(closed, moved, "up-to-color-permutation").color_map == {
        0: 1, 1: 0, 2: 2
    }
    assert_kernel_matches_reference(closed, moved)
    # a leg on one side only pins color 0, which the other side lacks
    shifted = recolor(closed, {0: 3, 1: 1, 2: 2})
    assert not is_isomorphic(shifted, a, "up-to-color-permutation")
    assert_kernel_matches_reference(shifted, a)


def _brute_automorphisms(g):
    """Every vertex bijection of g preserving parity, colors, edges and legs."""
    whites, blacks = sorted(g.whites()), sorted(g.blacks())
    edges = {(e.color, e.white, e.black) for e in g.edges.values()}
    legged = {l.vertex for l in g.legs.values()}
    out = []
    for ws in itertools.permutations(whites):
        for bs in itertools.permutations(blacks):
            f = dict(zip(whites, ws)) | dict(zip(blacks, bs))
            if {(c, f[w], f[b]) for c, w, b in edges} == edges and {
                f[v] for v in legged
            } == legged:
                out.append(f)
    return out


def test_tied_roots_are_the_automorphisms():
    # |Aut| by brute force on seeded connected graphs with 2-5 colors and at
    # most 4 whites, some with missing edges, some with legs; a closed
    # balanced one is also a model vertex, whose automorphisms (extended
    # from the tied roots) must be exactly the brute-force bijections
    rng = random.Random(1307)
    checked = symmetric = modeled = 0
    while checked < 400:
        d = rng.randint(2, 5)
        colors = tuple(range(d)) if rng.random() < 0.5 else tuple(range(1, d + 1))
        nw = rng.randint(1, 4)
        nb = nw if rng.random() < 0.8 else rng.randint(1, 4)
        keep = rng.choice((1.0, 0.8))
        blacks = list(range(nw, nw + nb))
        matchings = []
        for _ in colors:
            rng.shuffle(blacks)
            matchings.append([wb for wb in zip(range(nw), blacks) if rng.random() < keep])
        legs = [i for i in range(nw + nb) if rng.random() < 0.4] if rng.random() < 0.5 else []
        g = _partial_graph(colors, ["w"] * nw + ["b"] * nb, matchings, legs)
        labels, certs = _component_certs(g)
        if len(certs) != 1:
            continue
        _, order, ties = certs[0]
        autos = _brute_automorphisms(g)
        assert ties[0] == order[0] and ties == sorted(set(ties))
        assert len(ties) == len(autos), serialize(g)
        checked += 1
        symmetric += len(autos) > 1
        if 0 not in colors and nw == nb:
            index = {x: i for i, x in enumerate(labels)}
            spec = ModelSpec("oracle", d, (g,), ("v",))
            assert set(spec._symmetries[0][1]) == {
                tuple(index[f[x]] for x in labels) for f in autos
            }
            modeled += 1
    assert symmetric > 40 and modeled > 100


# ---------------------------------------------------- Burnside class counts
#
# A closed C-colored graph with n white and n black vertices is a tuple of C
# permutations of S_n (white i meets black sigma_c(i) along color c), and
# isomorphism is the S_n x S_n action (sigma_c) -> (beta sigma_c alpha^-1).
# By Burnside the number of classes is sum_{lambda |- n} z_lambda^(C-2)
# (Ben Geloun & Ramgoolam, arXiv:1307.6490).  Every class has a member with
# sigma_1 = id, so only those tuples are certified.


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _z(partition):
    out = 1
    for k in set(partition):
        m = partition.count(k)
        out *= k**m * math.factorial(m)
    return out


def _burnside_count(n_colors, n):
    return sum(_z(lam) ** (n_colors - 2) for lam in _partitions(n))


@pytest.mark.parametrize(
    "n_colors, n, expected", [(3, 2, 4), (3, 3, 11), (3, 4, 43), (4, 2, 8), (4, 3, 49)]
)
def test_certificate_classes_match_burnside(n_colors, n, expected):
    assert _burnside_count(n_colors, n) == expected
    colors = tuple(range(1, n_colors + 1))
    verts = {**{f"w{i}": "w" for i in range(n)}, **{f"b{i}": "b" for i in range(n)}}
    identity = tuple(range(n))
    classes = set()
    for rest in itertools.product(itertools.permutations(range(n)), repeat=n_colors - 1):
        edges = [
            (f"e{c}.{i}", c, f"w{i}", f"b{sigma[i]}")
            for c, sigma in zip(colors, (identity,) + rest)
            for i in range(n)
        ]
        classes.add(canonical_certificate(ColoredGraph(colors, verts, edges)))
    assert len(classes) == expected


# ------------------------------------------------------- component walks
#
# Test-local copies of the stack walks that `bubbles` and
# `connected_components` ran before both moved onto `_orbits`.  Bubble
# lists and component graphs (vertex, edge and leg insertion order
# included) must agree with them.


def _reference_bubbles(g, colors):
    csub = tuple(sorted(set(colors)))
    if not csub:
        return [Bubble((), (v,), ()) for v in sorted(g.vertices)]
    seen = set()
    out = []
    for start in sorted(g.vertices):
        if start in seen or all(g.edge_at(start, c) is None for c in csub):
            continue
        comp_v, comp_e = {start}, set()
        stack = [start]
        while stack:
            v = stack.pop()
            for c in csub:
                e = g.edge_at(v, c)
                if e is None:
                    continue
                comp_e.add(e.label)
                u = e.other(v)
                if u not in comp_v:
                    comp_v.add(u)
                    stack.append(u)
        seen |= comp_v
        out.append(Bubble(csub, tuple(sorted(comp_v)), tuple(sorted(comp_e))))
    return out


def _reference_components(g):
    out = []
    seen = set()
    for start in sorted(g.vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for c in g.colors:
                u = g.neighbor(v, c)
                if u is not None and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(
            ColoredGraph(
                g.colors,
                {v: g.parity(v) for v in sorted(comp)},
                [e for e in g.edges.values() if e.white in comp],
                [l for l in g.legs.values() if l.vertex in comp],
            )
        )
    return out


def _items(g):
    return g.colors, list(g.vertices.items()), list(g.edges.items()), list(g.legs.items())


def assert_walks_match_reference(g):
    # the second pass reads the walks the graph kept from the first
    subsets = [
        s for r in range(len(g.colors) + 1) for s in itertools.combinations(g.colors, r)
    ]
    for warm in (False, True):
        for subset in subsets:
            found = bubbles(g, subset)
            assert found == _reference_bubbles(g, subset), (subset, warm)
            found.clear()  # the caller's own list: the next call is unchanged
    assert [_items(c) for c in connected_components(g)] == [
        _items(c) for c in _reference_components(g)
    ]


def _scrambled(g, rng):
    """`g` with its vertices, edges and legs inserted in a random order."""
    parts = [list(g.vertices.items()), list(g.edges.values()), list(g.legs.values())]
    for part in parts:
        rng.shuffle(part)
    return ColoredGraph(g.colors, *parts)


def _many_components(rng):
    """Hundreds of small pieces: sparse matchings on 600-900 vertices."""
    n = rng.randint(600, 900)
    colors = (0, 1, 2) if rng.random() < 0.5 else (1, 2)
    parities = [rng.choice("wb") for _ in range(n)]
    whites = [i for i, p in enumerate(parities) if p == "w"]
    blacks = [i for i, p in enumerate(parities) if p == "b"]
    matchings = []
    for _ in colors:
        rng.shuffle(blacks)
        matchings.append([wb for wb in zip(whites, blacks) if rng.random() < 0.35])
    legs = [i for i in range(n) if rng.random() < 0.3]
    return _scrambled(_partial_graph(colors, parities, matchings, legs), rng)


def test_walks_match_reference_on_seeded_random_graphs():
    rng = random.Random(5)
    for _ in range(300):
        assert_walks_match_reference(_scrambled(_random_graph(rng), rng))
    # 3-6 colors, closed or open: a bubble's edges are the edges of its
    # colors with their ends among its vertices
    for _ in range(60):
        d = rng.randint(3, 6)
        colors = tuple(range(d)) if rng.random() < 0.5 else tuple(range(1, d + 1))
        g = _scrambled(_random_graph(rng, colors), rng)
        assert_walks_match_reference(g)
        for r in range(1, d + 1):
            for subset in itertools.combinations(colors, r):
                for b in bubbles(g, subset):
                    inside = set(b.vertices)
                    assert b.edges == tuple(sorted(
                        label for label, e in g.edges.items()
                        if e.color in subset and e.white in inside
                    ))


def test_walks_match_reference_on_hundreds_of_components():
    rng = random.Random(11)
    for _ in range(3):
        g = _many_components(rng)
        comps = connected_components(g)
        assert len(comps) >= 200
        assert [_items(c) for c in comps] == [_items(c) for c in _reference_components(g)]
        for subset in ((0,), (1,), (1, 2), g.colors):
            if set(subset) <= set(g.colors):
                assert bubbles(g, subset) == _reference_bubbles(g, subset)


@given(small_graphs(), st.randoms(use_true_random=False))
def test_walks_match_reference_on_drawn_graphs(g, rng):
    assert_walks_match_reference(g)
    assert_walks_match_reference(_scrambled(g, rng))


@pytest.mark.parametrize(
    "g",
    [
        ColoredGraph((1, 2, 3), {}),
        ColoredGraph((), {"a": "w", "b": "b"}),
        ColoredGraph((1, 2), {"a": "b", "z": "w"}),
        ColoredGraph((0, 1, 2), {"a": "w"}, legs=[("l", "a")]),
        ColoredGraph((0, 1), {"a": "b", "z": "w"}, [("e", 1, "z", "a")], [("l", "a")]),
    ],
    ids=["empty", "colorless", "isolated", "leg-only", "leg-and-edge"],
)
def test_walks_match_reference_on_edge_cases(g):
    assert_walks_match_reference(g)


def test_certificates_read_a_filled_walk_slot_as_fresh_arrays():
    # a graph whose walk slot holds some color subsets lends its arrays and
    # orbits to _component_certs; every read order gives what a copy
    # without a slot gives, and the copy is given none
    rng = random.Random(19)
    lent = 0
    for _ in range(200):
        g = _random_graph(rng)
        fresh = ColoredGraph(g.colors, dict(g.vertices), g.edges.values(), g.legs.values())
        for r in range(1, len(g.colors) + 1):
            for subset in itertools.combinations(g.colors, r):
                if rng.random() < 0.5:
                    bubbles(g, subset)
        picked = list(g.colors)
        rng.shuffle(picked)
        reads = [None, g.colors[::-1], g.colors[1:], picked[: rng.randint(1, len(picked))]]
        for read in reads:
            lent += tuple(sorted(read or g.colors)) in (g._walks or ({}, {}, {}))[2]
            assert _component_certs(g, read) == _component_certs(fresh, read), read
        assert fresh._walks is None
    assert lent > 100


@pytest.mark.parametrize("name", ALL_GRAPH_FIXTURES)
def test_only_bubbles_keeps_walks_on_the_graph(name):
    # certificates and components read fresh arrays, so a graph kept alive
    # for its certificate (enumerate --dedup) carries no arrays
    g = load_fixture(name)
    canonical_certificate(g)
    is_isomorphic(g, g)
    is_isomorphic(g, g, "up-to-color-permutation")
    connected_components(g)
    assert g._walks is None
    bubbles(g, g.colors[:2])
    assert list(g._walks[2]) == [g.colors[:2]]


def _reference_orbits(n, maps):
    """Union-find classes of i ~ m[i], as sorted lists in order of minimum."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for m in maps:
        for i, j in enumerate(m):
            if j >= 0:
                parent[find(i)] = find(j)
    classes = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    return sorted(classes.values())


@given(st.data())
def test_orbits_of_involutions_and_a_permutation(data):
    n = data.draw(st.integers(0, 24))
    maps = []
    for _ in range(data.draw(st.integers(0, 3))):
        perm = data.draw(st.permutations(range(n)))
        m = [-1] * n
        for i, j in zip(perm[::2], perm[1::2]):
            if data.draw(st.booleans()):
                m[i], m[j] = j, i
        maps.append(m)
    assert _orbits(n, maps) == _reference_orbits(n, maps)
    sigma = data.draw(st.permutations(range(n)))
    assert _orbits(n, [sigma]) == _reference_orbits(n, [sigma])


# ------------------------------------------------------------- export

def test_export_dot_mentions_every_element():
    g = build_dipole(3)
    dot = export_dot(g)
    assert dot.startswith("graph")
    for v in g.vertices:
        assert f'"{v}"' in dot
    assert dot.count("--") == len(g.edges) + len(g.legs)
    assert export_dot(g) == dot  # deterministic


# ------------------------------------------------------------ interface

def test_graph_is_immutable():
    g = build_dipole(3)
    with pytest.raises(TypeError):
        g.vertices["new"] = "w"  # type: ignore[index]
    with pytest.raises(TypeError):
        g.edges["e1"] = Edge("e1", 1, "w", "b")  # type: ignore[index]
    e, l = Edge("e1", 1, "w", "b"), Leg("l1", "w")
    with pytest.raises(AttributeError):
        e.color = 2  # type: ignore[misc]
    with pytest.raises(AttributeError):
        l.vertex = "b"  # type: ignore[misc]
    assert repr(e) == "Edge(label='e1', color=1, white='w', black='b')"
    assert repr(l) == "Leg(label='l1', vertex='w')"
    assert (e.other("w"), e.other("b")) == ("b", "w")
    with pytest.raises(GraphError, match="vertex 'x' is not an end of edge 'e1'"):
        e.other("x")


def test_constructor_rejects_bad_parity_tag():
    with pytest.raises(GraphError):
        ColoredGraph((1,), {"a": "white"}, [])


# ------------------------------------------- constructor vs. reference
#
# The constructor checks each edge, then each leg, once in input order and
# builds its indexes as it goes.  The reference below is an independent
# one-item-at-a-time constructor: on every input, valid or not, both must
# raise the same first message or build the same five dicts, insertion
# order included.


def _reference_construct(colors, vertices, edges, legs):
    colors = tuple(sorted(colors))
    if len(set(colors)) != len(colors):
        raise GraphError("duplicate colors in color set")
    if any(c < 0 for c in colors):
        raise GraphError("colors must be non-negative integers")
    parity = {}
    items = vertices.items() if isinstance(vertices, Mapping) else vertices
    for label, p in items:
        _reference_hashable("vertex", label, label, "label")
        if label in parity:
            raise GraphError(f"duplicate vertex label {label!r}")
        if p not in (WHITE, "b"):
            raise GraphError(f"vertex {label!r}: parity must be 'w' or 'b'")
        parity[label] = p
    edge_map, slots = {}, {}
    for item in edges:
        e = _reference_record(Edge, item, "edge", "(label, color, white, black)")
        _reference_hashable("edge", e.label, e.label, "label")
        if e.label in edge_map:
            raise GraphError(f"duplicate edge label {e.label!r}")
        if e.color not in colors:
            raise GraphError(
                f"edge {e.label!r}: color {e.color} outside color set {colors}"
            )
        for end, want in ((e.white, WHITE), (e.black, "b")):
            _reference_hashable("edge", e.label, end, f"vertex {end!r}")
            if end not in parity:
                raise GraphError(f"edge {e.label!r}: unknown vertex {end!r}")
            if parity[end] != want:
                raise GraphError(f"edge {e.label!r}: vertex {end!r} is not {want!r}")
        for end in (e.white, e.black):
            slot = (end, e.color)
            if slot in slots:
                raise GraphError(
                    f"duplicate color at vertex: color {e.color} at {end!r} "
                    f"(edges {slots[slot].label!r} and {e.label!r})"
                )
            slots[slot] = e
        edge_map[e.label] = e
    leg_map, leg_at = {}, {}
    for item in legs:
        l = _reference_record(Leg, item, "leg", "(label, vertex)")
        _reference_hashable("leg", l.label, l.label, "label")
        if l.label in leg_map:
            raise GraphError(f"duplicate leg label {l.label!r}")
        if 0 not in colors:
            raise GraphError(f"leg {l.label!r}: color 0 not in color set")
        _reference_hashable("leg", l.label, l.vertex, f"vertex {l.vertex!r}")
        if l.vertex not in parity:
            raise GraphError(f"leg {l.label!r}: unknown vertex {l.vertex!r}")
        if (l.vertex, 0) in slots:
            raise GraphError(
                f"leg {l.label!r}: vertex {l.vertex!r} already has a color-0 edge"
            )
        if l.vertex in leg_at:
            raise GraphError(f"two legs at vertex {l.vertex!r}")
        leg_at[l.vertex] = l
        leg_map[l.label] = l
    slot_items = [*slots.items(), *(((v, None), l) for v, l in leg_at.items())]
    return colors, list(parity.items()), list(edge_map.items()), slot_items, list(leg_map.items())


def _reference_hashable(kind, label, value, what):
    try:
        hash(value)
    except TypeError:
        raise GraphError(f"{kind} {label!r}: {what} is not hashable") from None


def _is_record(cls, item):
    """Whether `item` is an iterable of as many values as `cls` has fields."""
    try:
        return len(tuple(item)) == len(cls._fields)
    except TypeError:
        return False


def _reference_record(cls, item, kind, fields):
    """`item` as a `cls`; an item that is not an iterable of its fields raises."""
    if isinstance(item, cls):
        return item
    if not _is_record(cls, item):
        raise GraphError(f"{kind} {item!r}: expected {fields}")
    return cls(*item)


def _outcome(build, *args):
    try:
        result = build(*args)
    except GraphError as exc:
        return "error", str(exc)
    return "ok", result if isinstance(result, tuple) else graph_state(result)


class _PlainMapping(Mapping):
    """A Mapping that is neither a dict nor a mapping proxy."""

    def __init__(self, pairs):
        self._data = dict(pairs)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


_VERTEX_FORMS = (list, dict, lambda pairs: MappingProxyType(dict(pairs)), _PlainMapping)


def assert_constructor_matches_reference(colors, vertices, edges, legs):
    """Same first message or same dicts, for every form of the vertices.

    Returns the reference outcome for the vertices as given (a list of
    pairs, the only form that can repeat a label).
    """
    outcomes = []
    for form in _VERTEX_FORMS:
        new = _outcome(ColoredGraph, colors, form(vertices), edges, legs)
        ref = _outcome(_reference_construct, colors, form(vertices), edges, legs)
        assert new == ref
        outcomes.append(ref)
    return outcomes[0]


def _parts(g, rng):
    """Colors, vertex pairs, edges (tuples or Edge) and legs of g, shuffled."""
    vertices = list(g.vertices.items())
    edges = [
        e if rng.random() < 0.5 else (e.label, e.color, e.white, e.black)
        for e in g.edges.values()
    ]
    legs = [l if rng.random() < 0.5 else (l.label, l.vertex) for l in g.legs.values()]
    for part in (vertices, edges, legs):
        rng.shuffle(part)
    return list(g.colors), vertices, edges, legs


def _insert(rng, items, item):
    items.insert(rng.randint(0, len(items)), item)


def _mutate(rng, colors, vertices, edges, legs):
    """Apply one random defect; the defects cover every constructor check."""
    names = [v for v, _ in vertices]
    whites = [v for v, p in vertices if p == WHITE]
    blacks = [v for v, p in vertices if p != WHITE]
    # earlier defects may have inserted malformed items; only records are read
    records = [i for i, e in enumerate(edges) if _is_record(Edge, e)]
    edge_objs = {i: Edge(*edges[i]) for i in records}
    legs_ok = [Leg(*l) for l in legs if _is_record(Leg, l)]
    kind = rng.randrange(16)
    if kind == 0 and colors:
        colors.append(rng.choice(colors))
    elif kind == 1:
        colors.append(-rng.randint(1, 3))
    elif kind == 2 and vertices:
        _insert(rng, vertices, (rng.choice(names), rng.choice("wb")))
    elif kind == 3 and vertices:
        i = rng.randrange(len(vertices))
        vertices[i] = (vertices[i][0], rng.choice(["white", "B", "", None]))
    elif kind == 4 and colors and whites:
        _insert(rng, edges, ("new", rng.choice(colors), rng.choice(whites), "nowhere"))
    elif kind == 5 and colors and blacks:
        _insert(rng, edges, ("new", rng.choice(colors), "nowhere", rng.choice(blacks)))
    elif kind == 6 and records:
        i = rng.choice(records)
        e = edge_objs[i]
        edges[i] = (e.label, e.color, e.black, e.white)
    elif kind == 7 and whites and blacks:
        _insert(rng, edges, ("new", max(colors, default=0) + 1, whites[0], blacks[0]))
    elif kind == 8 and len(records) > 1:
        i, j = rng.sample(records, 2)
        e = edge_objs[i]
        edges[i] = (edge_objs[j].label, e.color, e.white, e.black)
    elif kind == 9 and records and blacks:
        e = edge_objs[rng.choice(records)]
        _insert(rng, edges, ("dbl", e.color, e.white, rng.choice(blacks)))
    elif kind == 10 and 0 in colors and legs:
        colors.remove(0)
    elif kind == 11:
        _insert(rng, legs, ("lost", "nowhere"))
    elif kind == 12 and any(e.color == 0 for e in edge_objs.values()):
        e = rng.choice([e for e in edge_objs.values() if e.color == 0])
        _insert(rng, legs, ("onedge", rng.choice((e.white, e.black))))
    elif kind == 13 and legs_ok:
        _insert(rng, legs, ("twice", rng.choice(legs_ok).vertex))
    elif kind == 14 and legs_ok and names:
        _insert(rng, legs, (rng.choice(legs_ok).label, rng.choice(names)))
    elif kind == 15:
        target, bad = rng.choice([
            (edges, ("e3", 1, "w")), (edges, ("e5", 1, "w", "b", "x")), (edges, 5),
            (legs, ("l1",)), (legs, 5),
        ])
        _insert(rng, target, bad)


# The first words of every constructor message, so a run can show that it
# met each check.
_MESSAGE_KINDS = (
    "duplicate colors", "colors must be", "duplicate vertex", "parity must",
    "duplicate edge", "outside color set", "unknown vertex", "is not",
    "duplicate color at", "color 0 not", "already has", "two legs", "duplicate leg",
    "expected (",
)


def test_constructor_matches_reference_on_seeded_inputs():
    rng = random.Random(2016)
    met = set()
    valid = 0
    for _ in range(600):
        parts = _parts(_random_graph(rng), rng)
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            _mutate(rng, *parts)
        kind, result = assert_constructor_matches_reference(*parts)
        if kind == "ok":
            valid += 1
        else:
            met.update(k for k in _MESSAGE_KINDS if k in result)
    assert valid >= 150
    assert met == set(_MESSAGE_KINDS)


@given(small_graphs(), st.randoms(use_true_random=False), st.integers(0, 3))
def test_constructor_matches_reference_on_drawn_inputs(g, rng, defects):
    parts = _parts(g, rng)
    for _ in range(defects):
        _mutate(rng, *parts)
    assert_constructor_matches_reference(*parts)


@pytest.mark.parametrize(
    "colors,vertices,edges,legs",
    [
        ((1, 1), [("a", "w")], [], []),
        ((2, -1), [("a", "w")], [], []),
        ((1,), [("a", "w"), ("a", "w")], [], []),
        ((1,), [("a", "w"), ("b", "x"), ("b", "w")], [], []),
        ((1,), [("a", "w"), ("b", "b")], [("e", 1, "a", "b"), ("e", 1, "a", "b")], []),
        ((1,), [("a", "w"), ("b", "b")], [("e", 1, "a", "zz")], []),
        ((1,), [("a", "w"), ("b", "b")], [("e", 1, "b", "a")], []),
        ((1,), [("a", "w"), ("b", "b")], [("e", 2, "a", "b")], []),
        ((1,), [("a", "w"), ("b", "b")], [("e", [1], "a", "b")], []),
        ((1,), [("a", "w"), ("b", "b"), ("c", "b")],
         [("e", 1, "a", "b"), ("f", 1, "a", "c"), ("g", 1, "q", "c")], []),
        ((1,), [("a", "w")], [], [("l", "a")]),
        ((0, 1), [("a", "w")], [], [("l", "zz")]),
        ((0, 1), [("a", "w"), ("b", "b")], [("z", 0, "a", "b")], [("l", "a")]),
        ((0, 1), [("a", "w")], [], [("l", "a"), ("k", "a")]),
        ((0, 1), [("a", "w"), ("b", "b")], [], [("l", "a"), ("l", "b")]),
        ((0, 1), [("a", "w"), ("b", "b"), ("c", "b")],
         [("z", 0, "a", "b"), ("y", 0, "a", "c")], [("l", "zz")]),
        ((0, 1), [("a", "w"), ("b", "b")], [("z", 0, "a", "b")],
         [("l", "b"), ("k", "b"), ("m", "zz")]),
        ((1,), [("a", "w"), ("b", "b")], [("e", 1, "a")], []),
        ((1,), [("a", "w"), ("b", "b")], [("e", 1, "a", "b"), 5], []),
        ((0, 1), [("a", "w")], [], [("l",)]),
        ((0, 1), [("a", "w")], [], [("l", "zz"), None]),
        ((1,), [("w", "w"), ("b", "b")], [(["x"], 1, "w", "b")], []),
        ((1,), [("w", "w"), ("b", "b")], [("x", 1, ["w"], "b")], []),
        ((1,), [("w", "w"), ("b", "b")], [("x", 1, "w", ["b"])], []),
        ((1,), [("w", "w"), ("b", "b")], [("x", 1, ["w"], "zz")], []),
        ((1,), [("w", "w"), ("b", "b")], [("x", 1, "zz", ["b"])], []),
        ((0, 1), [("a", "w")], [], [(["l"], "a")]),
        ((0, 1), [("a", "w")], [], [("l", ["a"])]),
        ((1,), [("a", "w")], [], [("l", ["a"])]),
    ],
    ids=[
        "duplicate-colors", "negative-color", "duplicate-vertex", "bad-parity-first",
        "duplicate-edge", "unknown-end", "swapped-ends", "color-outside-set",
        "unhashable-color", "doubled-slot-before-unknown-end", "leg-without-color-0",
        "leg-on-unknown-vertex", "leg-on-color-0-edge", "two-legs-on-one-vertex",
        "duplicate-leg", "doubled-slot-before-bad-leg", "leg-on-edge-before-unknown",
        "short-edge", "non-iterable-edge", "short-leg",
        "unknown-vertex-before-non-iterable-leg",
        "unhashable-edge-label", "unhashable-white-end", "unhashable-black-end",
        "unhashable-white-before-unknown-black", "unknown-white-before-unhashable-black",
        "unhashable-leg-label", "unhashable-leg-vertex", "no-color-0-before-unhashable-leg",
    ],
)
def test_constructor_matches_reference_on_named_defects(colors, vertices, edges, legs):
    kind, message = assert_constructor_matches_reference(colors, vertices, edges, legs)
    assert kind == "error" and message


@pytest.mark.parametrize(
    "colors,vertices,edges,message",
    [
        ((1,), {"w": "w", "b": "b"}, [(["x"], 1, "w", "b")],
         "edge ['x']: label is not hashable"),
        ((1,), {"w": "w", "b": "b"}, [("x", 1, ["w"], "b")],
         "edge 'x': vertex ['w'] is not hashable"),
        ((1,), [(["v"], "w")], [], "vertex ['v']: label is not hashable"),
    ],
    ids=["edge-label", "edge-end", "vertex-pair-label"],
)
def test_unhashable_label_is_a_graph_error(colors, vertices, edges, message):
    # a dict cannot hold the unhashable vertex label, so the pair form is
    # checked here rather than through every vertex form
    with pytest.raises(GraphError) as info:
        ColoredGraph(colors, vertices, edges)
    assert str(info.value) == message
    assert _outcome(_reference_construct, colors, vertices, edges, []) == ("error", message)


# ----------------------------------- trusted assembly vs. validating rebuild
#
# Operations whose output is valid whenever their input graphs are skip the
# constructor's checks.  Each output must equal the graph the validating
# constructor builds from its public parts, slot index and insertion order
# included, and must own its dicts.  It must also equal the output of the
# operation as it was written before it skipped the checks: the references
# below, which build through the validating constructor.  An output stores
# its parts only: its slot index is built on the first read.


def _dicts(g):
    return (g._parity, g._edges, _slot_index(g), g._legs)


def assert_index_built_on_first_read(g):
    assert g._slots is None
    assert g.edge_at("", 0) is None  # any read fills the whole index
    assert g._slots is not None


def assert_rebuilds(out, *inputs):
    rebuilt = ColoredGraph(out.colors, out.vertices, out.edges.values(), out.legs.values())
    assert graph_state(out) == graph_state(rebuilt)
    shared = {id(d) for g in inputs for d in _dicts(g)}
    assert shared.isdisjoint(id(d) for d in _dicts(out))


def _ref_fresh(label, taken):
    taken = set(taken)
    while label in taken:
        label += "'"
    return label


def _ref_add_prefix(g, prefix):
    return relabel(
        g,
        {v: prefix + v for v in g.vertices},
        {e: prefix + e for e in g.edges},
        {l: prefix + l for l in g.legs},
    )


def _ref_namespace(a, b):
    if set(a.vertices) & set(b.vertices) or set(a.edges) & set(b.edges) or set(
        a.legs
    ) & set(b.legs):
        return _ref_add_prefix(a, "l."), _ref_add_prefix(b, "r."), "l.", "r."
    return a, b, "", ""


def _ref_disjoint_union(a, b):
    a, b, _, _ = _ref_namespace(a, b)
    return ColoredGraph(
        a.colors,
        {**a.vertices, **b.vertices},
        [*a.edges.values(), *b.edges.values()],
        [*a.legs.values(), *b.legs.values()],
    )


def _ref_recolor(g, color_map):
    cmap = {c: color_map.get(c, c) for c in g.colors}
    edges = [Edge(e.label, cmap[e.color], e.white, e.black) for e in g.edges.values()]
    return ColoredGraph(cmap.values(), g.vertices, edges, g.legs.values())


def _ref_connected_sum(a, e, b, f):
    a, b, pa, pb = _ref_namespace(a, b)
    e, f = a.edges[pa + e], b.edges[pb + f]
    edges = [x for x in a.edges.values() if x.label != e.label]
    edges += [x for x in b.edges.values() if x.label != f.label]
    e_new = _ref_fresh(e.label + "'", [x.label for x in edges])
    f_new = _ref_fresh(f.label + "'", [x.label for x in edges] + [e_new])
    edges += [Edge(e_new, e.color, e.white, f.black), Edge(f_new, f.color, f.white, e.black)]
    return ColoredGraph(
        a.colors, {**a.vertices, **b.vertices}, edges, [*a.legs.values(), *b.legs.values()]
    )


def _ref_crys_sum(a, p, b, q):
    a, b, pa, pb = _ref_namespace(a, b)
    p, q = pa + p, pb + q
    edges = [x for x in a.edges.values() if p not in (x.white, x.black)]
    edges += [x for x in b.edges.values() if q not in (x.white, x.black)]
    for c in a.colors:
        ea, eb = a.edge_at(p, c), b.edge_at(q, c)
        label = _ref_fresh(f"{ea.label}~{eb.label}", [x.label for x in edges])
        edges.append(Edge(label, c, eb.white, ea.black))
    vertices = {v: x for v, x in a.vertices.items() if v != p}
    vertices.update((v, x) for v, x in b.vertices.items() if v != q)
    return ColoredGraph(a.colors, vertices, edges)


def _ref_open_edge(g, e):
    edge = g.edges[e]
    lw = _ref_fresh(f"{e}.w", g.legs)
    lb = _ref_fresh(f"{e}.b", [*g.legs, lw])
    legs = [*g.legs.values(), Leg(lw, edge.white), Leg(lb, edge.black)]
    edges = [x for x in g.edges.values() if x.label != e]
    return ColoredGraph(g.colors, g.vertices, edges, legs)


def _ref_close_legs(g, l1, l2):
    v1, v2 = g.legs[l1].vertex, g.legs[l2].vertex
    white, black = (v1, v2) if g.parity(v1) == "w" else (v2, v1)
    edge = Edge(_ref_fresh(f"{l1}~{l2}", g.edges), 0, white, black)
    legs = [x for x in g.legs.values() if x.label not in (l1, l2)]
    return ColoredGraph(g.colors, g.vertices, [*g.edges.values(), edge], legs)


def _ref_swap_bubble_colors(g, bubble):
    swap = {1: 2, 2: 1}
    edges = [
        Edge(e.label, swap[e.color], e.white, e.black) if e.label in bubble.edges else e
        for e in g.edges.values()
    ]
    return ColoredGraph(g.colors, g.vertices, edges, g.legs.values())


def _ref_enumerate_vacuum(model, k):
    out = []
    for combo in itertools.combinations_with_replacement(range(len(model.upsilon)), k):
        pieces = [_ref_add_prefix(model.upsilon[t], f"x{i}.") for i, t in enumerate(combo)]
        vertices = {v: p for piece in pieces for v, p in piece.vertices.items()}
        edges = [e for piece in pieces for e in piece.edges.values()]
        whites = sorted(v for v, p in vertices.items() if p == "w")
        blacks = sorted(v for v, p in vertices.items() if p == "b")
        for matching in itertools.permutations(range(len(blacks))):
            zero = [Edge(f"z{j}", 0, w, blacks[matching[j]]) for j, w in enumerate(whites)]
            out.append(ColoredGraph((0, *range(1, model.rank + 1)), vertices, edges + zero))
    return out


def _ref_boundary_graph(g):
    if 0 not in g.colors:
        raise GraphError("boundary graph needs color 0 in the color set")
    colors = tuple(c for c in g.colors if c != 0)
    if not g.legs:
        return ColoredGraph(colors, {})
    leg_of = {l.vertex: l.label for l in g.legs.values()}
    vertices = {l.label: g.parity(l.vertex) for l in g.legs.values()}
    edges = []
    for label, leg in sorted(g.legs.items()):
        if g.parity(leg.vertex) != "w":
            continue
        for c in colors:
            cur = leg.vertex
            while True:
                nxt = g.neighbor(cur, c)
                if nxt is None:
                    raise GraphError(
                        f"broken (0,{c})-path at vertex {cur!r}: missing color {c}"
                    )
                if nxt in leg_of:
                    edges.append(Edge(f"{label}.{c}", c, label, leg_of[nxt]))
                    break
                cur = g.neighbor(nxt, 0)
                if cur is None:
                    raise GraphError(
                        f"broken (0,{c})-path at vertex {nxt!r}: no color-0 edge or leg"
                    )
    return ColoredGraph(colors, vertices, edges)


# name -> (operation, reference); every operation that assembles unchecked.
_TRUSTED_OPERATIONS = {
    "add_prefix": (add_prefix, _ref_add_prefix),
    "connected_components": (connected_components, _reference_components),
    "amputate": (amputate, lambda g: ColoredGraph(g.colors, g.vertices, g.edges.values())),
    "remove_color": (
        remove_color,
        lambda g, c: ColoredGraph(
            [x for x in g.colors if x != c],
            g.vertices,
            [e for e in g.edges.values() if e.color != c],
            () if c == 0 else g.legs.values(),
        ),
    ),
    "disjoint_union": (disjoint_union, _ref_disjoint_union),
    "recolor": (recolor, _ref_recolor),
    "connected_sum": (connected_sum, _ref_connected_sum),
    "crys_sum": (crys_sum, _ref_crys_sum),
    "open_edge": (open_edge, _ref_open_edge),
    "close_legs": (close_legs, _ref_close_legs),
    "cone": (
        cone,
        lambda b: ColoredGraph(
            (0, *b.colors), b.vertices, b.edges.values(),
            [Leg(f"{v}'", v) for v in sorted(b.vertices)],
        ),
    ),
    "swap_bubble_colors": (_swap_bubble_colors, _ref_swap_bubble_colors),
    "boundary_graph": (boundary_graph, _ref_boundary_graph),
}


def _regular_graph(rng, colors):
    """A closed graph with every slot filled: one perfect matching per color."""
    n = rng.randint(1, 5)
    verts = {f"w{i}": "w" for i in range(n)} | {f"b{i}": "b" for i in range(n)}
    edges = []
    for c in colors:
        image = list(range(n))
        rng.shuffle(image)
        edges += [(f"e{c}.{i}", c, f"w{i}", f"b{j}") for i, j in enumerate(image)]
    return ColoredGraph(colors, verts, edges)


def _trusted_cases(rng):
    """(operation name, arguments) for every trusted operation that applies
    to one random graph and a partner on the same colors."""
    g = _random_graph(rng)
    h = g if rng.random() < 0.3 else _random_graph(rng, g.colors)
    yield "add_prefix", (g, "p.")
    yield "connected_components", (g,)
    zeros = [e for e in g.edges if g.edges[e].color == 0]
    opened = g
    if zeros:
        e = rng.choice(zeros)
        yield "open_edge", (g, e)
        opened = open_edge(g, e)
    if opened.legs:
        yield "amputate", (opened,)
    yield "remove_color", (g, rng.choice(g.colors))
    yield "disjoint_union", (g, h)
    movable = [c for c in g.colors if not (g.legs and c == 0)]
    image = movable[:]
    rng.shuffle(image)
    yield "recolor", (g, dict(zip(movable, image)))
    pairs = [(e, f) for e in g.edges for f in h.edges if g.edges[e].color == h.edges[f].color]
    if pairs:
        e, f = rng.choice(pairs)
        yield "connected_sum", (g, e, h, f)
    a, b = _regular_graph(rng, g.colors), _regular_graph(rng, g.colors)
    yield "crys_sum", (a, rng.choice(a.whites()), b, rng.choice(b.blacks()))
    whites = [l for l, x in opened.legs.items() if opened.parity(x.vertex) == "w"]
    blacks = [l for l, x in opened.legs.items() if opened.parity(x.vertex) == "b"]
    if whites and blacks:
        l1, l2 = rng.choice(whites), rng.choice(blacks)
        yield "close_legs", (opened, l1, l2) if rng.random() < 0.5 else (opened, l2, l1)
    yield "cone", (remove_color(amputate(g) if g.legs else g, 0) if 0 in g.colors else g,)
    if {1, 2} <= set(g.colors):
        for bubble in bubbles(g, (1, 2)):
            yield "swap_bubble_colors", (g, bubble)
    if 0 in g.colors:
        yield "boundary_graph", (opened,)  # irregular: its tracing may raise
        for e in sorted(e for e, x in a.edges.items() if x.color == 0)[::2]:
            a = open_edge(a, e)
        yield "boundary_graph", (a,)


def test_trusted_operations_match_rebuild_and_reference():
    rng = random.Random(1604)
    graphs = dict.fromkeys(_TRUSTED_OPERATIONS, 0)
    for _ in range(1500):
        applied = set()
        for name, args in _trusted_cases(rng):
            operation, reference = _TRUSTED_OPERATIONS[name]
            try:
                ref = reference(*args)
            except GraphError as exc:
                with pytest.raises(GraphError, match=f"^{re.escape(str(exc))}$"):
                    operation(*args)
                continue
            out = operation(*args)
            outs, refs = (out, ref) if name == "connected_components" else ([out], [ref])
            for x in outs:
                assert_index_built_on_first_read(x)
            assert list(map(graph_state, outs)) == list(map(graph_state, refs)), name
            inputs = [x for x in args if isinstance(x, ColoredGraph)]
            for x in outs:
                assert_rebuilds(x, *inputs)
            applied.add(name)
        for name in applied:
            graphs[name] += 1
        if min(graphs.values()) >= 300:
            break
    assert min(graphs.values()) >= 300, graphs


@pytest.mark.parametrize(
    "model,k",
    [("phi4-matrix", 1), ("phi4-matrix", 2), ("phi4-matrix", 3), ("phi4-rank3", 1),
     ("phi4-rank3", 2), ("matrix-2p:3", 1), ("matrix-2p:3", 2)],
)
def test_wick_contractions_match_rebuild_and_reference(model, k):
    spec = builtin_model(model)
    out = enumerate_vacuum(spec, k)
    for g in out:
        assert_index_built_on_first_read(g)
    reference = _ref_enumerate_vacuum(spec, k)
    assert list(map(graph_state, out)) == list(map(graph_state, reference))
    owned = set()
    for g in out:
        assert_rebuilds(g, *spec.upsilon)
        ids = {id(d) for d in _dicts(g)}
        assert owned.isdisjoint(ids)
        owned |= ids


def test_trusted_outputs_of_the_builders_rebuild():
    for g in (build_o(), build_n(), build_qgbc(2, 1, 2), build_l([1, 0, 2]), build_kg(2)):
        assert_rebuilds(g)
    for genus in range(5):
        c, t = build_cg(genus), build_tg(genus)
        assert_index_built_on_first_read(c)
        assert_index_built_on_first_read(t)
        assert_rebuilds(c)
        assert_rebuilds(t)
        assert graph_state(boundary_graph(t)) == graph_state(_ref_boundary_graph(t))
    for pair in default_probes():
        for g in pair:
            assert_rebuilds(g)
            b = boundary_graph(g)
            assert_rebuilds(b, g)
            assert graph_state(b) == graph_state(_ref_boundary_graph(g))


# ------------------------------------------------- the slot index of legs
#
# Each leg sits in the slot index at (vertex, None), after the edges at
# their (vertex, color) keys; no color is None.


def test_edge_at_never_returns_a_leg():
    rng = random.Random(2023)
    opened = 0
    while opened < 100:
        g = _random_graph(rng)
        if g.is_closed:
            continue
        opened += 1
        for h in (g, add_prefix(g, "t.")):  # checked, then trusted
            for v in h.vertices:
                for c in h.colors:
                    e = h.edge_at(v, c)
                    assert e is None or type(e) is Edge and e.color == c
                    assert h.neighbor(v, c) == (None if e is None else e.other(v))
                assert h.leg_at(v) == next((l for l in h.legs.values() if l.vertex == v), None)


def test_leg_at_and_validate_on_trusted_irregular_graphs_match_the_rebuild():
    rng = random.Random(2024)
    irregular = 0
    for _ in range(200):
        g = _random_graph(rng)
        outs = [amputate(g)] if g.legs else []
        outs += [open_edge(g, e) for e, x in g.edges.items() if x.color == 0]
        for out in outs:
            rebuilt = ColoredGraph(out.colors, out.vertices, out.edges.values(), out.legs.values())
            assert validate(out) == validate(rebuilt)
            assert [out.leg_at(v) for v in out.vertices] == [
                rebuilt.leg_at(v) for v in out.vertices
            ]
            irregular += bool(validate(out))
    assert irregular >= 100


def test_relabel_with_a_colliding_map_still_raises():
    g = build_r1()
    # p and q merge into one vertex, which then holds two color-1 edges
    with pytest.raises(GraphError, match="color 1 at 'q' \\(edges 'e1' and 'f1'\\)"):
        relabel(g, {"p": "q"})
    with pytest.raises(GraphError, match="duplicate edge label 'e2'"):
        relabel(g, edge_map={"e1": "e2"})
