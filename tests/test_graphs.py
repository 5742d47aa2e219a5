"""Core graph type: parsing, validation, bubbles, components, isomorphism."""

from __future__ import annotations

import collections
import itertools
import math
import random
import re
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tensorgraphs
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
    _face_labels,
    _merged_labels,
    _orbits,
    _slot_arrays,
    _slot_index,
    _subset_labels,
    _walk_state,
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
from tensorgraphs.homology import _boundary_columns, _boundary_map, _forests
from tensorgraphs.models import (
    ModelSpec,
    _leg_fragment,
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
    rank_and_torsion,
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


def _without(g, *labels):
    """g less the named edges."""
    kept = [x for e, x in g.edges.items() if e not in labels]
    return ColoredGraph(g.colors, g.vertices, kept, g.legs.values())


_CLOSED_READERS = ("homology", "euler_characteristic", "enumerate_jackets", "gurau_degree",
                   "is_melonic")

# Irregular graphs and the invariant readers that take their kind of graph.
# The necklace case once gave degree -2, from jacket genera (-1, -1, 0).
_IRREGULAR = {
    "isolated vertex": (
        lambda: ColoredGraph((1, 2, 3), {"w": "w", "b": "b", "z": "b"},
                             build_dipole(3).edges.values()),
        _CLOSED_READERS + ("ribbon_from_colored",),
    ),
    "partial vertex": (
        lambda: _without(build_dipole(4), "e4"), _CLOSED_READERS + ("degree_lower_bound",)
    ),
    "open, missing color 2": (
        lambda: _without(build_tg(1), "a0.c21"), ("boundary_graph", "boundary_degree")
    ),
    "necklace without e1 and e3": (
        lambda: _without(build_necklace(1), "e1", "e3"),
        _CLOSED_READERS + ("degree_lower_bound",),
    ),
    # no d_2 on 2 colors, so d_1 d_2 = 0 holds, but the readers still refuse
    "two colors, one gap each": (
        lambda: ColoredGraph((1, 2), {"w": "w", "b": "b", "v": "w"},
                             [("x", 1, "w", "b"), ("y", 2, "v", "b")]),
        ("homology", "euler_characteristic"),
    ),
}


@pytest.mark.parametrize("case", list(_IRREGULAR))
def test_invariant_readers_refuse_irregular_graphs(case):
    make, readers = _IRREGULAR[case]
    g = make()
    first = validate(g)[0]
    for name in readers:
        with pytest.raises(GraphError) as info:
            getattr(tensorgraphs, name)(g)
        assert str(info.value).endswith(f": {first}"), name
    if g.is_closed:  # the complex is the definition, defined on any graph
        tensorgraphs.chain_complex(g)


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


# ------------------------------------ bulk-checked parse vs. reference
#
# parse checks its collected parts in bulk and assembles a valid graph
# directly; only a rejected file reaches the checking constructor, which
# names the offender.  The reference is parse as it was written before:
# the same line loop, then the checking constructor on every file.  On every
# file both must build the same graph, insertion order and slot index
# included, or raise the same message; a parsed graph builds its slot index
# on first read.


def _reference_number(token):
    """int(token), refusing the signs, underscores and other digit systems
    int() reads as well: a number is ASCII decimal digits."""
    value = int(token)
    if not re.fullmatch("[0-9]+", token):
        raise ValueError(f"expected ASCII decimal digits: {token!r}")
    return value


def _reference_parse(text, require_regular=True):
    colors = None
    vertices, edges, legs = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        try:
            if kind == "colors":
                if colors is not None:
                    raise GraphError("second 'colors' header")
                if len(args) != 2 or args[1] not in ("closed", "open"):
                    raise GraphError("expected: colors <D> <closed|open>")
                d = _reference_number(args[0])
                if d < 1:
                    raise GraphError("D must be >= 1")
                if d > MAX_D:
                    raise GraphError(f"D must be <= {MAX_D}")
                colors = tuple(range(1, d + 1)) if args[1] == "closed" else tuple(range(d + 1))
            elif kind == "v":
                if colors is None:
                    raise GraphError("'colors' header must come first")
                if len(args) != 2:
                    raise GraphError("expected: v <label> <w|b>")
                vertices.append((args[0], args[1]))
            elif kind == "e":
                if colors is None:
                    raise GraphError("'colors' header must come first")
                if len(args) != 4:
                    raise GraphError("expected: e <label> <color> <white> <black>")
                edges.append(Edge(args[0], _reference_number(args[1]), args[2], args[3]))
            elif kind == "leg":
                if colors is None:
                    raise GraphError("'colors' header must come first")
                if len(args) != 2:
                    raise GraphError("expected: leg <label> <inner-vertex>")
                legs.append(Leg(args[0], args[1]))
            else:
                raise GraphError(f"unknown directive {kind!r}")
        except (GraphError, ValueError) as exc:
            raise GraphError(f"line {lineno}: {exc}") from None
    if colors is None:
        raise GraphError("missing 'colors' header")
    g = ColoredGraph(colors, vertices, edges, legs)
    if require_regular:
        problems = validate(g)
        if problems:
            raise GraphError("; ".join(problems))
    return g


def assert_parse_matches_reference(text):
    """Same graph or same message, with and without the regularity check.

    Returns both outcomes of the reference, without the check first.
    """
    outcomes = []
    for regular in (False, True):
        try:
            g = parse(text, require_regular=regular)
        except GraphError as exc:
            new = "error", str(exc)
        else:
            assert_index_built_on_first_read(g)
            new = "ok", graph_state(g)
        ref = _outcome(_reference_parse, text, regular)
        assert new == ref
        outcomes.append(ref)
    return outcomes


_OPEN_BASE = "colors 2 open\nv a w\nv b b\ne x 1 a b\ne y 2 a b\nleg la a\nleg lb b\n"

# Files with one defect each, or none; each named case the checking
# constructor rejects is in _CONSTRUCTOR_REJECTS.
_PARSE_BATTERY = {
    "valid open": _OPEN_BASE,
    "valid empty": "colors 3 closed\n",
    "duplicate vertex": _OPEN_BASE + "v a b\n",
    "duplicate edge": "colors 1 closed\nv a w\nv b b\nv c w\nv d b\ne x 1 a b\ne x 1 c d\n",
    "duplicate leg": _OPEN_BASE.replace("leg lb b", "leg la b"),
    "bad parity": _OPEN_BASE + "v c white\n",
    "unknown white end": _OPEN_BASE + "v c b\ne z 1 nowhere c\n",
    "unknown black end": "colors 1 closed\nv a w\ne x 1 a nowhere\n",
    "wrong-parity end": "colors 1 open\nv a w\nv b b\ne x 1 b a\n",
    "doubled white slot": "colors 1 closed\nv a w\nv b b\nv c b\ne x 1 a b\ne y 1 a c\n",
    "doubled black slot": "colors 1 closed\nv a w\nv c w\nv b b\ne x 1 a b\ne y 1 c b\n",
    "color outside the set": "colors 1 closed\nv a w\nv b b\ne x 2 a b\n",
    "color 0 under a closed header": "colors 1 closed\nv a w\nv b b\ne x 0 a b\n",
    "leg on a white color-0 end": "colors 1 open\nv a w\nv b b\ne z 0 a b\nleg l a\n",
    "leg on a black color-0 end": "colors 1 open\nv a w\nv b b\ne z 0 a b\nleg l b\n",
    "two legs at one vertex": _OPEN_BASE + "leg lc a\n",
    "leg under a closed header": "colors 1 closed\nv a w\nv b b\ne x 1 a b\nleg l a\n",
    "leg on an unknown vertex": _OPEN_BASE.replace("leg lb b", "leg lb nowhere"),
    "bad integer": "colors 1 closed\nv a w\nv b b\ne x one a b\n",
    "fractional color": "colors 1 closed\nv a w\nv b b\ne x 1.0 a b\n",
    "bad header integer": "colors three closed\n",
    "Arabic-Indic digit color": "colors 1 closed\nv a w\nv b b\ne x \u0661 a b\n",
    "signed, underscored color": "colors 1 closed\nv a w\nv b b\ne x +0_1 a b\n",
    "negative color": "colors 1 closed\nv a w\nv b b\ne x -1 a b\n",
    "signed header": "colors +1 closed\n",
    "negative header": "colors -1 closed\n",
    "full-width digit header": "colors \uff11 closed\n",
    "signs in labels": "colors 1 closed\nv a-1 w\nv b_+ b\ne x- 1 a-1 b_+\n",
    "signs in labels, bad integer": "colors 1 closed\nv a-1 w\nv b b\ne x one a-1 b\n",
    "non-ASCII labels": "colors 1 closed\nv \u00e4 w\nv b b\ne x 1 \u00e4 b\n",
    "short vertex line": "colors 1 closed\nv a\n",
    "long edge line": "colors 1 closed\nv a w\nv b b\ne x 1 a b c\n",
    "long leg line": "colors 1 open\nleg l a b\n",
    "edge before the header": "e x 1 a b\ncolors 1 closed\n",
    "vertex before the header": "# first\nv a w\ncolors 1 closed\n",
    "second header": "colors 1 closed\ncolors 1 closed\n",
    "unknown directive": "colors 1 closed\nvertex a w\n",
    "missing header": "# nothing\n\n",
    "missing color": "colors 2 closed\nv a w\nv b b\ne x 1 a b\n",
    "comments and blank lines": (
        "# head\n\ncolors 1 closed  # c\n  v a w\n\tv b b # x\n#e y 1 a b\ne x 1 a b#y\n"
    ),
    "CRLF": _OPEN_BASE.replace("\n", "\r\n"),
    "CRLF, short line 3": "colors 1 closed\r\nv a w\r\nv b\r\n",
    "\\x1c line breaks": _OPEN_BASE.replace("\n", "\x1c"),
    "\\x1c line breaks, short line 2": "colors 1 closed\x1cv a\x1c",
    "\\x1c line breaks, duplicate vertex": "colors 1 closed\x1cv a w\x1cv a b\x1c",
}

_CONSTRUCTOR_REJECTS = {
    "duplicate vertex", "duplicate edge", "duplicate leg", "bad parity", "unknown white end",
    "unknown black end", "wrong-parity end", "doubled white slot", "doubled black slot",
    "color outside the set", "color 0 under a closed header", "leg on a white color-0 end",
    "leg on a black color-0 end",
    "two legs at one vertex", "leg under a closed header", "leg on an unknown vertex",
    "\\x1c line breaks, duplicate vertex",
}


@pytest.mark.parametrize("name", ALL_GRAPH_FIXTURES)
def test_parse_matches_reference_on_fixtures(name):
    assert assert_parse_matches_reference(fixture_text(name))[1][0] == "ok"


@pytest.mark.parametrize("name", list(_PARSE_BATTERY))
def test_parse_matches_reference_on_named_files(name):
    loose, _ = assert_parse_matches_reference(_PARSE_BATTERY[name])
    if name in _CONSTRUCTOR_REJECTS:
        assert loose[0] == "error" and not loose[1].startswith("line ")


@pytest.mark.parametrize(
    "text, number",
    [
        ("colors 1 closed\nv a w\nv b b\ne x \u0661 a b\n", "\u0661"),
        ("colors 1 closed\nv a w\nv b b\ne x +0_1 a b\n", "+0_1"),
        ("colors 1 open\nv a w\nv b b\ne x -0 a b\n", "-0"),
        ("colors +1 closed\n", "+1"),
        ("colors 1_0 closed\n", "1_0"),
    ],
)
def test_numbers_are_ascii_decimal_digits(text, number):
    # int() reads each of these as a number that serializes differently
    with pytest.raises(GraphError) as raised:
        parse(text, require_regular=False)
    line = text.count("\n")
    assert str(raised.value) == f"line {line}: expected ASCII decimal digits: {number!r}"


def _add_defect(rng, g, header, body):
    """Append lines with one defect to `body`, when g has room for the
    defect drawn.  The defects cover every check of the constructor and of
    the line loop; where another check could also catch a defect, fresh
    vertices keep it alone."""
    vs = sorted(g.vertices) or ["a"]
    es = sorted(g.edges.values())
    ls = sorted(g.legs.values())
    zero = [e for e in es if e.color == 0]
    ws, bs = g.whites() or ["a"], g.blacks() or ["b"]
    v, c = rng.choice(vs), rng.choice(g.colors)
    kind = rng.randrange(14)
    if kind == 0:
        body.append(f"v {v} {rng.choice('wb')}")
    elif kind == 1 and es:
        body += ["v new.w w", "v new.b b", f"e {rng.choice(es).label} {c} new.w new.b"]
    elif kind == 2 and ls:
        body += ["v new w", f"leg {rng.choice(ls).label} new"]
    elif kind == 3:
        body.append(f"v new {rng.choice(['x', 'W', '0', 'bb'])}")
    elif kind == 4:
        ends = rng.choice([("nowhere", "new.b"), ("new.w", "nowhere"), ("nowhere", "nowhere")])
        body += ["v new.w w", "v new.b b", "e new {} {} {}".format(c, *ends)]
    elif kind == 5:
        ends = rng.choice([("new.b", "new.b2"), ("new.w", "new.w2"), ("new.b", "new.w")])
        body += ["v new.w w", "v new.w2 w", "v new.b b", "v new.b2 b"]
        body.append("e new {} {} {}".format(c, *ends))
    elif kind == 6 and es:
        e = rng.choice(es)
        if rng.random() < 0.5:
            body += ["v dbl.b b", f"e dbl {e.color} {e.white} dbl.b"]
        else:
            body += ["v dbl.w w", f"e dbl {e.color} dbl.w {e.black}"]
    elif kind == 7 and zero:
        e = rng.choice(zero)
        body.append(f"leg onedge {rng.choice((e.white, e.black))}")
    elif kind == 8 and ls:
        body.append(f"leg twice {rng.choice(ls).vertex}")
    elif kind == 9:
        body.append(f"leg new {v}")  # fine on a free vertex under an open header
    elif kind == 10:
        body.append("leg lost nowhere")
    elif kind == 11:
        body.append(f"e out {rng.choice([max(g.colors) + 1, -1])} {rng.choice(ws)} {rng.choice(bs)}")
    elif kind == 12:  # int() reads the Arabic-Indic digit one as 1; parse refuses it
        color = rng.choice(["one", "1.5", "0x1", "\u0661"])
        body.append(f"e bad {color} {rng.choice(ws)} {rng.choice(bs)}")
    elif kind == 13:
        body.append(rng.choice(["v a", "e x 1 a", "leg l", header, "edge x 1 a b", "leg l a b"]))


def _graph_file(rng, g, defects):
    """The file of g with `defects` defective lines, its body shuffled and,
    at random, decorated with comments, blank lines and odd whitespace."""
    header, *body = serialize(g).splitlines()
    for _ in range(defects):
        _add_defect(rng, g, header, body)
    rng.shuffle(body)
    lines = [header] + body
    if rng.random() < 0.5:
        decorated = []
        for line in lines:
            roll = rng.random()
            if roll < 0.1:
                decorated.append(rng.choice(["", " ", "\t"]))
            elif roll < 0.2:
                decorated.append("#" + rng.choice([" note", "e x 1 a b", "", "#"]))
            if rng.random() < 0.2:
                line += rng.choice(["  # tail", "#", "\t#e y 1", " \u3000"])
            if rng.random() < 0.1:
                line = rng.choice([" ", "\t", "\u3000"]) + line
            decorated.append(line)
        lines = decorated
    sep = rng.choice(["\n", "\n", "\r\n", "\r", "\x1c", "\u2028"])
    return sep.join(lines) + rng.choice([sep, ""])


def test_parse_matches_reference_on_seeded_files():
    rng = random.Random(3104)
    accepted = regular = 0
    met = set()
    for i in range(400):
        d = rng.randint(1, 6)
        with_legs = rng.random() < 0.5
        colors = tuple(range(0 if with_legs else 1, d + 1))
        g = _filled_graph(rng, colors, with_legs) if i % 2 else _random_graph(rng, colors)
        text = _graph_file(rng, g, rng.choice((0, 0, 1, 1, 2)))
        loose, strict = assert_parse_matches_reference(text)
        accepted += loose[0] == "ok"
        regular += strict[0] == "ok"
        for kind, message in (loose, strict):
            if kind == "error":
                met.update(k for k in _PARSE_MESSAGE_KINDS if k in message)
    assert accepted >= 150 and regular >= 100
    assert met == set(_PARSE_MESSAGE_KINDS)


# The first words of every message parse raises past its line loop, the
# line prefix of every message raised inside it, and the regularity check.
_PARSE_MESSAGE_KINDS = (
    "duplicate vertex", "parity must", "duplicate edge", "outside color set", "unknown vertex",
    "is not", "duplicate color at", "color 0 not", "already has", "two legs", "duplicate leg",
    "line ", "missing color",
)


def test_parse_calls_the_checking_constructor_only_to_name_a_fault(monkeypatch):
    calls = []
    checking = ColoredGraph.__init__

    def recording(self, *args):
        try:
            checking(self, *args)
        except GraphError as exc:
            calls.append(exc)
            raise
        calls.append(None)

    monkeypatch.setattr(ColoredGraph, "__init__", recording)
    for name in ALL_GRAPH_FIXTURES:
        parse(fixture_text(name))
    assert calls == []
    for name, text in _PARSE_BATTERY.items():
        calls.clear()
        raised = None
        try:
            parse(text, require_regular=False)
        except GraphError as exc:
            raised = exc
        if name in _CONSTRUCTOR_REJECTS:
            assert raised is not None and calls == [raised], name
        else:
            assert calls == [], name


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


def test_transformations_reject_bad_input():
    d3 = build_dipole(3)
    twopoint = load_fixture("twopoint.cg")
    with pytest.raises(GraphError, match=r"^amputate: graph is closed \(no legs\)$"):
        amputate(d3)
    with pytest.raises(GraphError, match=r"^color 7 outside color set \(1, 2, 3\)$"):
        remove_color(d3, 7)
    with pytest.raises(GraphError, match="^recoloring is not injective on the color set$"):
        recolor(d3, {1: 2})
    with pytest.raises(GraphError, match="^cannot move color 0 of a graph with legs$"):
        recolor(twopoint, {0: 3, 3: 0})
    with pytest.raises(GraphError, match=r"^color sets differ: \(1, 2, 3\) vs \(1, 2, 3, 4\)$"):
        disjoint_union(d3, build_dipole(4))


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
    # _component_certs builds its own arrays, so a walk slot holding some
    # color subsets changes nothing: every read order gives what a copy
    # without a slot gives, the copy is given none, and g's slot keeps the
    # subsets it held
    rng = random.Random(19)
    filled = 0
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
        walked = g._walks and list(g._walks[2])
        for read in reads:
            filled += tuple(sorted(read or g.colors)) in (walked or ())
            assert _component_certs(g, read) == _component_certs(fresh, read), read
        assert fresh._walks is None
        assert (g._walks and list(g._walks[2])) == walked
    assert filled > 100


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
    # a larger subset with no subset one color smaller built is merged from
    # that pair, and only it is stored
    bubbles(g, g.colors)
    assert list(g._walks[2]) == list(dict.fromkeys([g.colors[:2], g.colors]))


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


# ------------------------------------------------------------ label walks
#
# The walk slot keeps each color subset as a label array and the smallest
# vertex of each bubble, built from the edges (one color), by alternating
# walks (two) or by merging the bubbles of a smaller subset (more).  Every
# read order must give the orbits of the subset's neighbour arrays, and the
# boundary columns read from the labels must be those built vertex by
# vertex from sorted orbits.


def _label_walk_cases(rng):
    """Graphs on 1-8 colors: regular closed, irregular closed and open, open
    with legs on every free color-0 slot, with isolated vertices added, and
    hundreds of small components."""
    cases = []
    for t in range(48):
        k = 1 + t % 8
        colors = tuple(range(k)) if t % 3 == 0 else tuple(range(1, k + 1))
        cases.append(_regular_graph(rng, tuple(range(1, k + 1))))
        cases.append(_random_graph(rng, colors))
        if t % 4 == 0:
            cases.append(_filled_graph(rng, tuple(range(min(k, 6))), True))
    for g in cases[::5]:
        isolated = {**g.vertices, "iso.w": "w", "iso.b": "b"}
        cases.append(ColoredGraph(g.colors, isolated, g.edges.values(), g.legs.values()))
    for k in (3, 4, 5):  # connected and not, with dozens of bubbles to merge
        verts = {f"{p}{i}": p for p in "wb" for i in range(20)}
        edges = [
            (f"e{c}.{i}", c, f"w{i}", f"b{j}")
            for c in range(1, k + 1)
            for i, j in enumerate(rng.sample(range(10), 10) + rng.sample(range(10, 20), 10))
        ]
        cases.append(ColoredGraph(range(1, k + 1), verts, edges))
        cases.append(ColoredGraph(range(1, k + 1), verts, edges[5:]))
    cases += [_many_components(rng) for _ in range(2)]
    return cases


def _read_orders(colors, rng):
    subsets = [s for r in range(1, len(colors) + 1) for s in itertools.combinations(colors, r)]
    shuffled = subsets[:]
    rng.shuffle(shuffled)
    return {
        "pairs first": sorted(subsets, key=lambda s: (len(s) != 2, len(s))),
        "all colors first": sorted(subsets, key=len, reverse=True),
        "random": shuffled,
    }


def test_label_walks_give_the_orbits_in_every_read_order():
    rng = random.Random(32)
    seen = collections.Counter()
    for g in _label_walk_cases(rng):
        labels, _ = _slot_arrays(g, g.colors)
        for order, subsets in _read_orders(g.colors, rng).items():
            h = ColoredGraph(g.colors, dict(g.vertices), g.edges.values(), g.legs.values())
            for subset in subsets:
                lab, reps = _subset_labels(h, subset)
                members = {}
                for v, i in enumerate(lab):
                    if i >= 0:
                        members.setdefault(i, []).append(v)
                assert len(lab) == len(labels) and sorted(members) == list(range(len(reps)))
                want = [o for o in _orbits(len(labels), _slot_arrays(g, subset)[1]) if len(o) > 1]
                assert [members[i] for i in range(len(reps))] == want, (order, subset)
                assert reps == [o[0] for o in want], (order, subset)
                assert _subset_labels(h, subset) == (lab, reps)
            assert sorted(h._walks[2]) == sorted(subsets)
        seen[len(g.colors)] += 1
        seen["open"] += g.is_open
        seen["irregular"] += bool(validate(g))
        seen["isolated"] += any(
            g.leg_at(v) is None and all(g.edge_at(v, c) is None for c in g.colors)
            for v in g.vertices
        )
    assert min(seen.values()) >= 6, seen


def test_one_bfs_labels_a_subset_as_merging_a_pair_does():
    # with no subset one color smaller built, a subset of 3 or more colors
    # is one BFS over its arrays; merging the bubbles of its first two
    # colors along the edges of all the others must give the same labels,
    # -1 for a vertex with no edge of the subset (a leg is none)
    rng = random.Random(3406)
    seen = collections.Counter()
    for t in range(240):
        k = 3 + t % 4
        colors = tuple(range(k)) if t % 3 == 0 else tuple(range(1, k + 1))
        g = _filled_graph(rng, colors, True) if t % 3 == 0 else _regular_graph(rng, colors)
        if t % 2:  # drop some edges, so some vertices lose a subset's every edge
            kept = [e for e in g.edges.values() if rng.random() < 0.6]
            g = ColoredGraph(g.colors, g.vertices, kept, g.legs.values())
        labels, nbrs, walked = _walk_state(g)
        n = len(labels)
        for r in range(3, k + 1):
            for subset in itertools.combinations(colors, r):
                walked.clear()
                maps = [nbrs[colors.index(c)] for c in subset]
                merged = _merged_labels(n, *_face_labels(n, *maps[:2]), maps[2:])
                assert _subset_labels(g, subset) == merged, (colors, subset)
                seen["unlabelled"] += -1 in merged[0]
                seen["several"] += len(merged[1]) > 1
        seen[k] += 1
    assert min(seen.values()) >= 50, seen


def _vertex_built_columns(g, reduced=False):
    """The boundary columns as built from sorted orbit lists: a per-vertex
    row array per color subset, the top cell through each vertex, and one
    dict write per vertex per dropped color for each column."""
    labels, nbrs = _slot_arrays(g, g.colors)
    colors, parity = g.colors, g.vertices

    def orbits(subset):
        maps = [nbrs[colors.index(c)] for c in subset]
        return [o for o in _orbits(len(labels), maps) if len(o) > 1]

    def joins(parent, u, v):
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        parent[u] = v
        return u != v

    first, last = 1 + reduced, len(colors) - 1 - reduced
    if first > last:
        return []
    row_of, forest, columns = {}, list(range(len(labels))), []
    for p in range(1, last + 1):
        layer, start = [], 0
        dual = reduced and p == len(colors) - 2
        if dual:
            cell_of, cells = {}, 0
            for a in colors:
                top = orbits(tuple(c for c in colors if c != a))
                cell = cell_of[a] = [-1] * len(labels)
                for i, orbit in enumerate(top, cells):
                    for v in orbit:
                        cell[v] = i
                cells += len(top)
            dual_forest = list(range(cells))
        for subset in itertools.combinations(colors, p):
            found = orbits(subset)
            if p == 1 and first == 1:
                layer.extend(
                    ((u, 1), (v, -1)) if parity[labels[u]] == WHITE else ((v, 1), (u, -1))
                    for u, v in found
                )
            elif p > 1:
                faces = [(1 - q % 2 * 2, row_of[subset[:q] + subset[q + 1 :]]) for q in range(p)]
                if dual:
                    a, b = (c for c in colors if c not in subset)
                for orbit in found:
                    if dual and joins(dual_forest, cell_of[a][orbit[0]], cell_of[b][orbit[0]]):
                        continue
                    col = {}
                    for sign, row in faces:
                        for v in orbit:
                            col[row[v]] = sign
                    col.pop(-1, None)
                    layer.append(tuple(col.items()))
            if p < last:
                row = row_of[subset] = [-1] * len(labels)
                for i, orbit in enumerate(found, start):
                    if reduced and p == 1 and joins(forest, *orbit):
                        continue
                    for v in orbit:
                        row[v] = i
                start += len(found)
        if p >= first:
            columns.append(tuple(layer))
    return columns


def _forest_reduced_columns(g):
    """The maps d_2 .. d_top-1 as homology first builds them, from the two
    spanning forests alone: d_2 without the forest rows of the graph and
    d_top-1 without the forest columns of the graph on the top cells."""
    top = len(g.colors) - 1
    if top < 3:
        return []
    drop, skip = _forests(g)
    return [
        tuple(
            tuple(col.items())
            for _, col in _boundary_map(g, p, skip if p == top - 1 else (), drop if p == 2 else ())
        )
        for p in range(2, top)
    ]


def test_boundary_columns_read_from_labels_match_the_vertex_built_ones():
    rng, pick = random.Random(33), random.Random(34)
    reduced_maps = skipped = 0
    for g in _label_walk_cases(rng):
        if g.is_open:
            continue
        regular = not validate(g)
        want = _vertex_built_columns(g)
        want_reduced = _vertex_built_columns(g, reduced=True) if regular else None
        for order, subsets in _read_orders(g.colors, rng).items():
            h = ColoredGraph(g.colors, dict(g.vertices), g.edges.values(), g.legs.values())
            for subset in subsets[: rng.randint(0, len(subsets))]:  # a partly filled slot
                _subset_labels(h, subset)
            assert _boundary_columns(h) == want, order
            if regular:
                found = _forest_reduced_columns(h)
                assert found == want_reduced, order
                assert list(map(rank_and_torsion, found)) == list(
                    map(rank_and_torsion, want_reduced)
                ), order
                reduced_maps += len(found)
            for p in range(2, len(g.colors)):  # any skipped columns keep their numbers
                skip = set(pick.sample(range(len(want[p - 1])), pick.randint(0, len(want[p - 1]))))
                assert [(j, tuple(col.items())) for j, col in _boundary_map(h, p, skip)] == [
                    (j, col) for j, col in enumerate(want[p - 1]) if j not in skip
                ], (order, p)
                skipped += len(skip)
    assert reduced_maps >= 100 and skipped >= 1000


# ------------------------------------------------------------- export

def test_export_dot_mentions_every_element():
    g = build_dipole(3)
    dot = export_dot(g)
    assert dot.startswith("graph")
    for v in g.vertices:
        assert f'"{v}"' in dot
    assert dot.count("--") == len(g.edges) + len(g.legs)
    assert export_dot(g) == dot  # deterministic


# Test-local copy of export_dot from before it escaped quotes and
# backslashes in labels; no fixture label holds either.


def _unescaped_dot(g):
    lines = ["graph coloredgraph {", "  node [shape=circle];"]
    for v, p in sorted(g.vertices.items()):
        fill = "white" if p == WHITE else "black, fontcolor=white"
        lines.append(f'  "{v}" [style=filled, fillcolor={fill}];')
    palette = ("gray40", "red", "blue", "forestgreen", "orange", "purple", "brown", "cadetblue")
    for _, e in sorted(g.edges.items()):
        lines.append(
            f'  "{e.white}" -- "{e.black}" [label="{e.color}", '
            f'color="{palette[e.color % 8]}", tooltip="{e.label}"];'
        )
    for _, l in sorted(g.legs.items()):
        lines.append(f'  "out_{l.label}" [shape=point, label=""];')
        lines.append(
            f'  "{l.vertex}" -- "out_{l.label}" [label="0", style=dashed, tooltip="{l.label}"];'
        )
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize("name", ALL_GRAPH_FIXTURES)
def test_export_dot_is_unchanged_on_labels_without_quotes(name):
    g = load_fixture(name)
    assert export_dot(g) == _unescaped_dot(g)


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


def _ref_swap_bubble_colors(g, labels):
    swap = {1: 2, 2: 1}
    edges = [
        Edge(e.label, swap[e.color], e.white, e.black) if e.label in labels else e
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
    problems = validate(g)
    if problems:
        raise GraphError(f"boundary graph: {problems[0]}")
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
                if nxt in leg_of:
                    edges.append(Edge(f"{label}.{c}", c, label, leg_of[nxt]))
                    break
                cur = g.neighbor(nxt, 0)
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
    if rng.random() < 0.3:  # labels apart; the shared scheme collides on nonempty graphs
        h = _ref_add_prefix(h, "s.")
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
    if rng.random() < 0.5:  # labels apart, else the same scheme collides
        b = _ref_add_prefix(b, "s.")
    yield "crys_sum", (a, rng.choice(a.whites()), b, rng.choice(b.blacks()))
    whites = [l for l, x in opened.legs.items() if opened.parity(x.vertex) == "w"]
    blacks = [l for l, x in opened.legs.items() if opened.parity(x.vertex) == "b"]
    if whites and blacks:
        l1, l2 = rng.choice(whites), rng.choice(blacks)
        yield "close_legs", (opened, l1, l2) if rng.random() < 0.5 else (opened, l2, l1)
    yield "cone", (remove_color(amputate(g) if g.legs else g, 0) if 0 in g.colors else g,)
    if {1, 2} <= set(g.colors):
        for bubble in bubbles(g, (1, 2)):
            yield "swap_bubble_colors", (g, bubble.edges)
    if 0 in g.colors:
        yield "boundary_graph", (opened,)  # irregular: raises at entry
        for e in sorted(e for e, x in a.edges.items() if x.color == 0)[::2]:
            a = open_edge(a, e)
        yield "boundary_graph", (a,)


def test_trusted_operations_match_rebuild_and_reference():
    # the sums and the union are held to the reference both with labels
    # apart and with colliding ones, namespaced l./r. inside the assembly
    rng = random.Random(1604)
    graphs = dict.fromkeys(_TRUSTED_OPERATIONS, 0)
    namespaced = collections.Counter()
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
            if name in ("connected_sum", "crys_sum", "disjoint_union"):
                namespaced[name, _ref_namespace(inputs[0], inputs[1])[2]] += 1
        for name in applied:
            graphs[name] += 1
        if min(graphs.values()) >= 300 and min(namespaced.values()) >= 50:
            break
    assert min(graphs.values()) >= 300, graphs
    assert len(namespaced) == 6 and min(namespaced.values()) >= 50, namespaced


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


def _ref_build_tg(g):
    # build_tg's gadgets prefixed one by one, then joined in the same order
    n = 2 * g + 1
    pieces = []
    for i in range(n):
        pieces.append(_ref_add_prefix(_leg_fragment(1, "a"), f"a{i}."))
        pieces.append(_ref_add_prefix(_leg_fragment(2, "p"), f"m{i}."))
    edges = [e for piece in pieces for e in piece.edges.values()]
    for i in range(n):
        edges += [
            Edge(f"z1.{i}", 0, f"m{i}.b", f"a{i}.p"),
            Edge(f"z2.{i}", 0, f"m{i}.a", f"a{(i + 1) % n}.q"),
            Edge(f"z3.{i}", 0, f"a{i}.b", f"m{(i + g) % n}.q"),
        ]
    return ColoredGraph(
        (0, 1, 2, 3),
        {v: p for piece in pieces for v, p in piece.vertices.items()},
        edges,
        [l for piece in pieces for l in piece.legs.values()],
    )


def test_tg_matches_its_gadgets_prefixed_one_by_one():
    for g in range(9):
        assert graph_state(build_tg(g)) == graph_state(_ref_build_tg(g)), g


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
