"""Command-line interface: golden outputs, exit codes, pipelines."""

from __future__ import annotations

import argparse
import collections
import importlib
import itertools
import math
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgraphs import graphs as graphs_module
from tensorgraphs import models as models_module
from tensorgraphs.graphs import (
    MAX_D,
    ColoredGraph,
    GraphError,
    connected_components,
    is_isomorphic,
    parse,
    serialize,
)
from tensorgraphs.homology import MAX_HOMOLOGY_COLORS
from tensorgraphs.jackets import MAX_JACKET_COLORS
from tensorgraphs.models import (
    MAX_FAMILY_PARAMETER,
    build_dipole,
    builtin_model,
    enumerate_vacuum,
)
from tensorgraphs.surgery import boundary_graph, open_edge

from conftest import FIXTURES, OPEN_FIXTURES, ROOT, fixture_text, run_cli

cli_module = importlib.import_module("tensorgraphs.cli")
homology_module = importlib.import_module("tensorgraphs.homology")
jackets_module = importlib.import_module("tensorgraphs.jackets")


def fx(name: str) -> str:
    return str(FIXTURES / name)


R1_REPORT = """\
validation: ok
vertices: 8
edges: 12
legs: 0
colors: 0 1 2
2-bubbles: {01}:1 {02}:1 {12}:2
homology: H_0 = Z; H_1 = Z^2; H_2 = Z
chi: 0
jacket (012): faces = 4, genus = 1
degree: 1
boundary: empty
member phi4-matrix: yes
member phi4-rank3: n/a
"""

L23_REPORT = """\
validation: ok
vertices: 100
edges: 188
legs: 24
colors: 0 1 2 3
2-bubbles: {01}:13 {02}:14 {03}:12 {12}:25 {13}:37 {23}:38
homology: n/a (open graph)
boundary components: 2
boundary genera: 2, 3
member phi4-matrix: n/a
member phi4-rank3: yes
"""

# Closed graphs on colors 1..D, the shape of most benchmark inputs: no
# propagator color, so no boundary and no model membership.
C1_REPORT = """\
validation: ok
vertices: 6
edges: 9
legs: 0
colors: 1 2 3
2-bubbles: {12}:1 {13}:1 {23}:1
homology: H_0 = Z; H_1 = Z^2; H_2 = Z
chi: 0
jacket (123): faces = 3, genus = 1
degree: 1
boundary: n/a (no propagator color)
member phi4-matrix: n/a
member phi4-rank3: n/a
"""

C1_REPORT_KV = """\
validation=ok
vertices=6
edges=9
legs=0
colors=1,2,3
2-bubbles={12}:1,{13}:1,{23}:1
homology=H_0=Z;H_1=Z^2;H_2=Z
chi=0
jacket.(123)=faces=3,genus=1
degree=1
boundary=n/a,(no,propagator,color)
member.phi4-matrix=n/a
member.phi4-rank3=n/a
"""

NECKLACE_BASE1_REPORT = """\
validation: ok
vertices: 4
edges: 8
legs: 0
colors: 1 2 3 4
2-bubbles: {12}:2 {13}:1 {14}:1 {23}:1 {24}:1 {34}:2
homology: H_0 = Z; H_1 = 0; H_2 = 0; H_3 = Z
chi: 0
jacket (1234): faces = 6, genus = 0
jacket (1243): faces = 6, genus = 0
jacket (1324): faces = 4, genus = 1
degree: 1
boundary: n/a (no propagator color)
member phi4-matrix: n/a
member phi4-rank3: n/a
"""

NECKLACE_BASE1_REPORT_KV = """\
validation=ok
vertices=4
edges=8
legs=0
colors=1,2,3,4
2-bubbles={12}:2,{13}:1,{14}:1,{23}:1,{24}:1,{34}:2
homology=H_0=Z;H_1=0;H_2=0;H_3=Z
chi=0
jacket.(1234)=faces=6,genus=0
jacket.(1243)=faces=6,genus=0
jacket.(1324)=faces=4,genus=1
degree=1
boundary=n/a,(no,propagator,color)
member.phi4-matrix=n/a
member.phi4-rank3=n/a
"""

NECKLACE_JACKETS_KV = """\
jacket.0123.faces=6
jacket.0123.genus=0
jacket.0132.faces=6
jacket.0132.genus=0
jacket.0213.faces=4
jacket.0213.genus=1
degree=1
faces=8
amplitude-exponent=2
"""


# ------------------------------------------------------------------ reports

def test_report_r1_golden():
    code, out, err = run_cli(["report", fx("r1.cg")])
    assert (code, err) == (0, "")
    assert out == R1_REPORT


def test_report_l23_golden():
    code, out, err = run_cli(["report", fx("l-2-3.cg")])
    assert (code, err) == (0, "")
    assert out == L23_REPORT


@pytest.mark.parametrize(
    "name, text, kv",
    [
        ("c1.cg", C1_REPORT, C1_REPORT_KV),
        ("necklace-base1.cg", NECKLACE_BASE1_REPORT, NECKLACE_BASE1_REPORT_KV),
    ],
    ids=["c1", "necklace-base1"],
)
def test_report_on_graphs_without_a_propagator_color(name, text, kv):
    assert run_cli(["report", fx(name)]) == (0, text, "")
    assert run_cli(["report", fx(name), "--format", "kv"]) == (0, kv, "")


def test_report_kv_format():
    code, out, _ = run_cli(["report", fx("necklace.cg"), "--format", "kv"])
    assert code == 0
    lines = out.splitlines()
    assert "vertices=4" in lines
    assert "2-bubbles={01}:2,{02}:1,{03}:1,{12}:1,{13}:1,{23}:2" in lines
    assert "homology=H_0=Z;H_1=0;H_2=0;H_3=Z" in lines
    assert "member.phi4-rank3=yes" in lines
    # kv output is machine-friendly: one = separated pair per line, no spaces
    assert all(" " not in ln and ln.count("=") >= 1 for ln in lines)


def test_report_counts_the_boundary_pieces_as_its_components():
    # report counts the boundary's all-color orbits; every vertex of a
    # boundary read from a file has an edge of each color, so these are its
    # connected components (boundaries with 2, 3 and 5 colors, on graphs of
    # one to three blocks)
    rng = random.Random(2016)
    graphs = [parse(fixture_text(name)) for name in OPEN_FIXTURES]
    for d in (2, 3, 5):
        for _ in range(10):
            starts = [0]
            for _ in range(rng.randint(1, 3)):
                starts.append(starts[-1] + rng.randint(1, 3))
            n = starts[-1]
            parity = {**{f"w{i}": "w" for i in range(n)}, **{f"b{i}": "b" for i in range(n)}}
            edges = [
                (f"e{c}.{i}", c, f"w{i}", f"b{j}")
                for c in range(d + 1)
                for a, b in zip(starts, starts[1:])
                for i, j in zip(range(a, b), rng.sample(range(a, b), b - a))
            ]
            g = ColoredGraph(tuple(range(d + 1)), parity, edges)
            for label in rng.sample([f"e0.{i}" for i in range(n)], rng.randint(1, n)):
                g = open_edge(g, label)
            graphs.append(g)
    for g in graphs:
        code, out, err = run_cli(["report", "-"], stdin_text=serialize(g))
        pieces = len(connected_components(boundary_graph(g)))
        assert (code, err) == (0, "")
        assert f"boundary components: {pieces}\n" in out, serialize(g)


# ---------------------------------------------------------------- queries

def test_homology_text_and_kv():
    code, out, _ = run_cli(["homology", fx("r1.cg")])
    assert code == 0
    assert out == "H_0 = Z\nH_1 = Z^2\nH_2 = Z\nchi = 0\n"
    code, out, _ = run_cli(["homology", fx("r1.cg"), "--format", "kv"])
    assert code == 0
    assert out == "H_0=Z\nH_1=Z^2\nH_2=Z\nchi=0\n"


def test_homology_open_graph_fails_cleanly():
    code, out, err = run_cli(["homology", fx("t1.cg")])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_euler():
    code, out, _ = run_cli(["euler", fx("r0.cg")])
    assert (code, out) == (0, "chi = 2\n")


def test_bubbles_listing():
    code, out, _ = run_cli(["bubbles", fx("r1.cg"), "--colors", "1,2"])
    assert code == 0
    assert out == (
        "bubble {12}: a b p q\n"
        "bubble {12}: c d x y\n"
        "count = 2\n"
    )
    code, out, _ = run_cli(["bubbles", fx("r1.cg"), "--colors", "1,2", "--format", "kv"])
    assert out == "bubble.{12}=a,b,p,q\nbubble.{12}=c,d,x,y\ncount=2\n"


def test_jackets_golden():
    code, out, _ = run_cli(["jackets", fx("necklace.cg"), "--format", "kv"])
    assert code == 0
    assert out == NECKLACE_JACKETS_KV
    code, out, _ = run_cli(["jackets", fx("necklace.cg")])
    assert "jacket (0213): faces = 4, genus = 1" in out
    assert "degree = 1" in out
    assert "amplitude-exponent = 2" in out


def test_degree():
    code, out, _ = run_cli(["degree", fx("r1.cg")])
    assert code == 0
    assert out == "jacket (012): faces = 4, genus = 1\ndegree = 1\n"


def test_melonic_exit_codes():
    assert run_cli(["melonic", fx("melon.cg")])[0] == 0
    assert run_cli(["melonic", fx("melon.cg")])[1] == "melonic\n"
    code, out, _ = run_cli(["melonic", fx("necklace.cg")])
    assert (code, out) == (1, "not melonic\n")


def test_genus_and_bc_on_both_formats():
    assert run_cli(["genus", fx("w.rg")])[1] == "genus = 1\n"
    assert run_cli(["bc", fx("w.rg")])[1] == "bc = 1\n"
    # colored files are converted through the cyclic-order construction
    assert run_cli(["genus", fx("c1.cg")])[1] == "genus = 1\n"
    assert run_cli(["bc", fx("dipole3.cg")])[1] == "bc = 3\n"
    assert run_cli(["genus", fx("w.rg"), "--format", "kv"])[1] == "genus=1\n"


def test_boundary_degree():
    code, out, _ = run_cli(["boundary-degree", fx("l-2-3.cg")])
    assert (code, out) == (0, "boundary-degree = 15\n")


def test_validate_ok_and_failing(tmp_path):
    assert run_cli(["validate", fx("r1.cg")]) == (0, "ok\n", "")
    bad = tmp_path / "bad.cg"
    bad.write_text("colors 2 closed\nv a w\nv b b\ne e1 1 a b\n")
    code, out, _ = run_cli(["validate", str(bad)])
    assert code == 1
    assert out == "vertex 'a': missing color 2\nvertex 'b': missing color 2\n"


# ---------------------------------------------------------------- surgery

def test_sum_pipeline(tmp_path):
    out_path = tmp_path / "s.cg"
    code, _, _ = run_cli(
        ["sum", fx("r1.cg"), "alpha0", fx("r1.cg"), "beta0", "-o", str(out_path)]
    )
    assert code == 0
    code, out, _ = run_cli(["euler", str(out_path)])
    assert out == "chi = -2\n"


def test_open_cap_roundtrip(tmp_path):
    opened = tmp_path / "o.cg"
    run_cli(["open", fx("r1.cg"), "alpha0", "-o", str(opened)])
    code, out, _ = run_cli(["cap", str(opened), "alpha0.w", "alpha0.b"])
    assert code == 0
    assert is_isomorphic(parse(out), parse(fixture_text("r1.cg"))).isomorphic


def test_cap_rejects_a_repeated_leg(tmp_path):
    opened = tmp_path / "o.cg"
    run_cli(["open", fx("r1.cg"), "alpha0", "-o", str(opened)])
    code, out, err = run_cli(["cap", str(opened), "alpha0.w", "alpha0.w"])
    assert (code, out, err) == (1, "", "error: the two legs must be distinct\n")


def test_cone_boundary_pipeline():
    code, coned, _ = run_cli(["cone", fx("dipole3.cg")])
    assert code == 0
    code, bdry, _ = run_cli(["boundary", "-"], stdin_text=coned)
    assert code == 0
    code, verdict, _ = run_cli(["iso", "-", fx("dipole3.cg")], stdin_text=bdry)
    assert (code, verdict) == (0, "isomorphic\n")


def test_crys_sum_command():
    code, out, _ = run_cli(["crys-sum", fx("r1.cg"), "p", fx("r1.cg"), "a"])
    assert code == 0
    g = parse(out)
    assert len(g.vertices) == 14


def test_boundary_of_vacuum_graph():
    code, out, _ = run_cli(["boundary", fx("r1.cg")])
    assert (code, out) == (0, "colors 2 closed\n")


# ------------------------------------------------------------------- iso

def test_iso_exit_codes():
    code, out, _ = run_cli(["iso", fx("r0.cg"), fx("r1.cg")])
    assert (code, out) == (1, "not isomorphic\n")
    code, out, _ = run_cli(["iso", fx("r1.cg"), fx("r1.cg")])
    assert (code, out) == (0, "isomorphic\n")
    code, out, _ = run_cli(
        [
            "iso",
            fx("necklace.cg"),
            fx("necklace-base1.cg"),
            "--mode",
            "up-to-color-permutation",
        ]
    )
    assert (code, out) == (0, "isomorphic\n")
    assert run_cli(["iso", fx("necklace.cg"), fx("necklace-base1.cg")])[0] == 1


# ------------------------------------------------------------- membership

def test_member_command():
    code, out, _ = run_cli(["member", fx("r1.cg"), "--model", "phi4-matrix"])
    assert code == 0
    assert out == "component a: V\ncomponent c: V\nmember\n"
    code, _, err = run_cli(["member", fx("r1.cg"), "--model", "phi4-rank3"])
    assert code == 1
    assert "do not match rank-3 model" in err


def test_member_not_member_exit():
    code, out, _ = run_cli(["member", fx("twopoint.cg"), "--model", "phi4-rank3"])
    assert code == 1
    assert out.endswith("not member\n")


# ------------------------------------------------------------ enumeration

def test_enumerate_counts():
    code, out, _ = run_cli(["enumerate", "--model", "phi4-matrix", "-k", "2"])
    assert (code, out) == (0, "count = 24\n")
    code, out, _ = run_cli(
        ["enumerate", "--model", "phi4-rank3", "-k", "2", "--dedup"]
    )
    assert (code, out) == (0, "count = 144\ndistinct = 54\n")


@pytest.mark.parametrize("model", ["phi4-matrix", "phi4-rank3", "matrix-2p:2", "matrix-2p:3"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_enumerate_dedup_counts_match_the_library(model, k):
    # The command counts without building a graph; the library's raw and
    # dedup lists must have as many graphs as it counts.
    argv = ["enumerate", "--model", model, "-k", str(k), "--dedup", "--format", "kv"]
    try:
        count = len(enumerate_vacuum(builtin_model(model), k))
        distinct = len(enumerate_vacuum(builtin_model(model), k, dedup=True))
    except GraphError as exc:
        assert run_cli(argv) == (1, "", f"error: {exc}\n")
        return
    assert run_cli(argv) == (0, f"count={count}\ndistinct={distinct}\n", "")


# ------------------------------------------------------------- builders

def test_build_is_deterministic():
    a = run_cli(["build", "qg", "--genus", "1"])
    b = run_cli(["build", "qg", "--genus", "1"])
    assert a == b
    assert a[0] == 0


def test_build_matches_fixture_bytes():
    code, out, _ = run_cli(["build", "l", "--genera", "2,3"])
    assert code == 0
    assert out == fixture_text("l-2-3.cg")


@pytest.mark.parametrize("genera", ["x", "1,,x", "1.5"])
def test_build_l_rejects_a_bad_genus_list(genera):
    code, out, err = run_cli(["build", "l", "--genera", genera])
    assert (code, out) == (1, "")
    assert err == f"error: bad genus list {genera!r} (expected e.g. 2,3)\n"


def test_build_unknown_family():
    code, _, err = run_cli(["build", "ufo"])
    assert code == 1
    assert err.startswith("error: unknown family")


def test_build_tg_boundary_is_cg_pipeline(tmp_path):
    t = tmp_path / "t1.cg"
    assert run_cli(["build", "tg", "--genus", "1", "-o", str(t)])[0] == 0
    code, bdry, _ = run_cli(["boundary", str(t)])
    code2, verdict, _ = run_cli(["iso", "-", fx("c1.cg")], stdin_text=bdry)
    assert (code2, verdict) == (0, "isomorphic\n")


# ------------------------------------------------------------ separators

def test_find_separators_output(tmp_path):
    pout, mout = tmp_path / "p.cg", tmp_path / "m.cg"
    code, out, _ = run_cli(
        ["find-separators", "--out-p", str(pout), "--out-m", str(mout)]
    )
    assert code == 0
    assert out == (
        "separator P: 4 vertices, splice edges z0, z1\n"
        "separator M: 8 vertices, splice edges z0, z1\n"
    )
    assert pout.read_text() == fixture_text("p.cg")
    assert mout.read_text() == fixture_text("m.cg")


# ----------------------------------------------------------------- misc

def test_export_dot():
    code, out, _ = run_cli(["export-dot", fx("dipole3.cg")])
    assert code == 0
    assert out.startswith("graph")
    assert '"w"' in out and '"b"' in out


def test_export_dot_draws_each_leg_to_a_point():
    # twopoint has 11 edges and the legs lw at w1 and lb at b3
    code, out, err = run_cli(["export-dot", fx("twopoint.cg")])
    assert (code, err) == (0, "")
    dashed = [line for line in out.splitlines() if "style=dashed" in line]
    assert dashed == [
        '  "b3" -- "out_lb" [label="0", style=dashed, tooltip="lb"];',
        '  "w1" -- "out_lw" [label="0", style=dashed, tooltip="lw"];',
    ]
    assert '  "out_lw" [shape=point, label=""];' in out.splitlines()
    assert out.count(" -- ") == 11 + 2


DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_export_dot_escapes_quotes_and_backslashes(tmp_path):
    # labels may hold quotes and backslashes; each must stay one quoted DOT
    # string that reads back to the label
    path = tmp_path / "quoted.cg"
    path.write_text('colors 1 open\nv a"b w\nv c\\ b\ne x\\"y 1 a"b c\\\nleg l" a"b\nleg m\\ c\\\n')
    code, out, err = run_cli(["export-dot", str(path)])
    assert (code, err) == (0, "")
    for line in out.splitlines():
        assert '"' not in DOT_STRING.sub("", line), line
    found = {re.sub(r"\\(.)", r"\1", x[1:-1]) for x in DOT_STRING.findall(out)}
    assert {'a"b', "c\\", 'x\\"y', 'l"', 'out_l"', "m\\", "out_m\\"} <= found


def test_stdin_stdout_dash():
    text = fixture_text("r0.cg")
    code, out, _ = run_cli(["euler", "-"], stdin_text=text)
    assert (code, out) == (0, "chi = 2\n")
    code, out, _ = run_cli(["validate", "-"], stdin_text=text)
    assert (code, out) == (0, "ok\n")


def test_fixture_at_references(monkeypatch):
    monkeypatch.setenv("TGRAPH_FIXTURES", str(FIXTURES))
    code, out, _ = run_cli(["euler", "@r1.cg"])
    assert (code, out) == (0, "chi = 0\n")
    monkeypatch.setenv("TGRAPH_FIXTURES", "/nonexistent")
    code, _, err = run_cli(["euler", "@r1.cg"])
    assert code == 1 and err.startswith("error:")


def test_missing_file_is_a_domain_error():
    code, out, err = run_cli(["euler", "/no/such/file.cg"])
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [["nope"], ["homology"], ["bubbles", "x.cg"], []],
)
def test_usage_errors_exit_2(argv):
    code, _, err = run_cli(argv)
    assert code == 2
    assert "usage" in err.lower() or err == ""



# Each input error as (argv, standard input, error line).
INPUT_ERRORS = [
    (["validate", "-"], "colors 3 closed\nv a\n", "line 2: expected: v <label> <w|b>"),
    (["validate", "-"], "e x 1 a b\n", "line 1: 'colors' header must come first"),
    (["validate", "-"], "leg l a\n", "line 1: 'colors' header must come first"),
    (
        ["validate", "-"], "colors 3 closed\ne x 1 a\n",
        "line 2: expected: e <label> <color> <white> <black>",
    ),
    (["validate", "-"], "colors 3 open\nleg l\n", "line 2: expected: leg <label> <inner-vertex>"),
    (["genus", "-"], "# c\n\nrv v h1\n", "line 3: rv needs a vertex and >= 2 half-edges"),
    (["genus", "-"], "rv v h1 h2\nrj h1\n", "line 2: expected: rj <h> <h'>"),
    (
        ["build", "necklace", "--base", "5"], "",
        "color set (5, 6, 7, 8) is not contiguous; cannot serialize",
    ),
    (["bubbles", fx("r0.cg"), "--colors", "7"], "", "color 7 outside color set (0, 1, 2)"),
    (
        ["member", fx("r0.cg"), "--model", "matrix-2p:x"], "",
        "bad matrix-2p parameter in 'matrix-2p:x'",
    ),
    (["enumerate", "--model", "phi4-matrix", "-k", "0"], "", "k must be >= 1"),
    (["build", "cg", "--genus", "-1"], "", "genus must be >= 0"),
    (["build", "tg", "--genus", "-1"], "", "genus must be >= 0"),
    (["build", "kg", "--genus", "0"], "", "kg needs g >= 1"),
    (["build", "qgbc", "--genus", "-1"], "", "qgbc parameters must be non-negative"),
    (["build", "l", "--genera=-1"], "", "genera must be non-negative"),
    (["find-separators", "--max-vertices", "0"], "", "max_vertices must be >= 1"),
    (["cap", fx("twopoint.cg"), "nope", "lb"], "", "no leg 'nope'"),
]


@pytest.mark.parametrize(
    "argv,text,message", INPUT_ERRORS, ids=[m for _, _, m in INPUT_ERRORS]
)
def test_input_errors_are_domain_errors(argv, text, message):
    assert run_cli(argv, text) == (1, "", f"error: {message}\n")


def test_header_dimension_cap_is_a_domain_error():
    for command in ("validate", "report", "homology"):
        code, out, err = run_cli([command, "-"], f"colors {MAX_D + 1} closed\n")
        assert (code, out) == (1, "")
        assert err == f"error: line 1: D must be <= {MAX_D}\n"


def test_a_file_that_is_not_utf8_is_a_domain_error(tmp_path):
    path = tmp_path / "bad.cg"
    path.write_bytes(b"colors 3 closed\nv a\xff w\n")
    message = f"error: {path}: not utf-8 text (invalid start byte at byte 19)\n"
    for argv in (
        ["report", str(path)], ["validate", str(path)], ["homology", str(path)],
        ["genus", str(path)], ["iso", fx("r0.cg"), str(path)], ["cone", str(path), "-o", "-"],
    ):
        assert run_cli(argv) == (1, "", message), argv


def test_a_label_that_utf8_cannot_encode_is_a_domain_error(tmp_path):
    # standard input read through surrogateescape turns the byte 0xff into
    # the lone surrogate U+DCFF; a stream with no byte buffer hands it on as
    # text.  The output file is left as it was
    out = tmp_path / "out.cg"
    out.write_text("kept\n")
    text = "colors 1 closed\nv a\udcff w\nv b b\ne e 1 a\udcff b\n"
    assert run_cli(["cone", "-", "-o", str(out)], text, text_only=True) == (
        1, "", "error: 'utf-8' codec can't encode character '\\udcff' in position 17: "
        "surrogates not allowed\n",
    )
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize(
    "setting",
    [{"PYTHONIOENCODING": "utf-8:strict"}, {"PYTHONIOENCODING": "utf-8:surrogateescape"},
     {"LC_ALL": "C"}],
    ids=["strict", "surrogateescape", "c-locale"],
)
def test_standard_input_that_is_not_utf8_is_a_domain_error(tmp_path, setting):
    # a fresh interpreter reads the raw bytes of standard input and decodes
    # them as it decodes a file, whatever the locale's decoder would let
    # through (a C locale's surrogateescape passed the byte 0xff on)
    out = tmp_path / "out.cg"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    result = subprocess.run(
        [sys.executable, "-m", "tensorgraphs.cli", "cone", "-", "-o", str(out)],
        input=b"colors 1 closed\nv a\xff w\nv b b\ne e 1 a\xff b\n",
        capture_output=True,
        env={**env, "PYTHONPATH": str(ROOT / "src"), **setting},
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (1, b"")
    message = "error: standard input: not utf-8 text (invalid start byte at byte 19)\n"
    assert result.stderr.decode() == message
    assert not out.exists()


def test_standard_input_that_is_not_utf8_is_a_domain_error_in_process():
    # the in-process twin: run_cli's standard input has a byte buffer, which
    # the CLI decodes strictly, as it decodes a file
    code, out, err = run_cli(["cone", "-"], b"colors 1 closed\nv a\xff w\nv b b\ne e 1 a\xff b\n")
    assert (code, out) == (1, "")
    assert err == "error: standard input: not utf-8 text (invalid start byte at byte 19)\n"


def test_jacket_cap_is_a_domain_error():
    n = MAX_JACKET_COLORS + 1
    text = serialize(build_dipole(n))
    for command in ("jackets", "degree", "melonic", "report"):
        code, out, err = run_cli([command, "-"], text)
        assert (code, out) == (1, "")
        assert err == (
            f"error: jackets: {n} colors give {math.factorial(n - 1) // 2} jackets; "
            f"at most {MAX_JACKET_COLORS} colors are supported\n"
        )


def test_homology_cap_is_a_domain_error():
    n = MAX_HOMOLOGY_COLORS + 1
    text = serialize(build_dipole(n))
    for command in ("homology", "euler", "report"):
        code, out, err = run_cli([command, "-"], text)
        assert (code, out) == (1, "")
        assert err == (
            f"error: homology: {n} colors give {2 ** n} color subsets; "
            f"at most {MAX_HOMOLOGY_COLORS} colors are supported\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["qg", "--genus", str(MAX_FAMILY_PARAMETER + 1)],
        ["kg", "--genus", str(MAX_FAMILY_PARAMETER + 1)],
        ["tg", "--genus", str(MAX_FAMILY_PARAMETER + 1)],
        ["cg", "--genus", str(MAX_FAMILY_PARAMETER + 1)],
        ["qgbc", "--genus", "1", "-B", "0", "-C", str(MAX_FAMILY_PARAMETER + 1)],
        ["l", "--genera", f"1,{MAX_FAMILY_PARAMETER + 1}"],
        ["l", "--genera", ",".join(["0"] * (MAX_FAMILY_PARAMETER + 1))],
        ["dipole", "--colors", str(MAX_FAMILY_PARAMETER + 1)],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_family_parameter_cap_is_a_domain_error(argv):
    code, out, err = run_cli(["build", *argv])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {argv[0]}: ")
    assert err.endswith(f"is above the family-parameter cap ({MAX_FAMILY_PARAMETER})\n")


def test_matrix_2p_parameter_cap_is_a_domain_error():
    too_big = f"matrix-2p:{MAX_FAMILY_PARAMETER + 1}"
    for argv in (["member", fx("r0.cg")], ["enumerate", "-k", "1"]):
        code, out, err = run_cli([*argv, "--model", too_big])
        assert (code, out) == (1, "")
        assert err == (
            f"error: matrix-2p: p = {MAX_FAMILY_PARAMETER + 1} is above the "
            f"family-parameter cap ({MAX_FAMILY_PARAMETER})\n"
        )
    largest = f"matrix-2p:{MAX_FAMILY_PARAMETER}"
    assert run_cli(["member", fx("r0.cg"), "--model", largest]) == (
        1, "component a: no match\ncomponent c: no match\nnot member\n", "",
    )
    assert run_cli(["enumerate", "--model", largest, "-k", "1"]) == (
        1, "", f"error: {MAX_FAMILY_PARAMETER} white vertices exceed the enumeration "
        "cap (6); k is too large for this model\n",
    )


def test_enumerate_counts_whites_before_building_pieces(monkeypatch):
    built = []
    monkeypatch.setattr(models_module, "add_prefix", lambda *a: built.append(a))
    code, out, err = run_cli(["enumerate", "--model", "phi4-matrix", "-k", "1000"])
    assert (code, out, built) == (1, "", [])
    assert err == (
        "error: 2000 white vertices exceed the enumeration cap (6); "
        "k is too large for this model\n"
    )


def test_enumerate_builds_no_graph(monkeypatch):
    # the command counts, contractions by sum of w! and classes by Burnside
    # over automorphisms the model already holds: once the models are built,
    # no graph is assembled, namespaced or certified
    runs = (("phi4-matrix", 3), ("phi4-rank3", 3), ("matrix-2p:3", 2))
    for name, _ in runs:
        builtin_model(name)
    calls = []

    def recording(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    trusted = graphs_module.ColoredGraph._trusted.__func__
    monkeypatch.setattr(
        graphs_module.ColoredGraph, "_trusted", classmethod(recording("_trusted", trusted))
    )
    for module in (graphs_module, models_module):
        for name in ("add_prefix", "_component_certs"):
            monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    for name, k in runs:
        code, out, err = run_cli(["enumerate", "--model", name, "-k", str(k), "--dedup"])
        assert (code, err, calls) == (0, "", [])
        assert out.startswith("count = ") and "\ndistinct = " in out
    # the wrappers do see the enumerator's graph work
    enumerate_vacuum(builtin_model("phi4-matrix"), 1, dedup=True)
    assert set(calls) == {"_trusted", "add_prefix", "_component_certs"}


def test_jacket_commands_walk_each_color_pair_once(monkeypatch):
    # every call of _slot_arrays, _orbits and the two subset builders, in
    # every module that could make one, is counted by the function that
    # made it.  The walk slot builds the neighbour arrays once; each subset
    # of 1 or 2 colors is one walk and each subset of 3 or more colors one
    # merge, both made by _subset_labels, the components being the
    # all-color subset, one BFS over all its arrays.  report's membership
    # test builds its certificates' own arrays of colors 1..3 and their
    # orbits, and leaves the slot as it found it.  The graph the command
    # parsed keeps the subsets it built.
    modules = (graphs_module, homology_module, jackets_module, cli_module)
    calls = collections.Counter()
    loaded = []

    def counting(name):
        real = getattr(graphs_module, name)

        def wrapper(*args):
            calls[name, sys._getframe(1).f_code.co_name] += 1
            return real(*args)

        for module in modules:
            monkeypatch.setattr(module, name, wrapper, raising=False)

    def keeping(*args, **kwargs):
        loaded.append(parse(*args, **kwargs))
        return loaded[-1]

    for name in ("phi4-matrix", "phi4-rank3"):
        builtin_model(name)  # the model vertices are built once per process
    for name in ("_orbits", "_slot_arrays", "_face_labels", "_merged_labels"):
        counting(name)
    monkeypatch.setattr(cli_module, "parse", keeping)
    colors = (0, 1, 2, 3)
    pairs = list(itertools.combinations(colors, 2))
    subsets = [s for r in (1, 2, 3) for s in itertools.combinations(colors, r)]
    for command, walked in (("jackets", pairs), ("degree", pairs), ("report", subsets)):
        calls.clear()
        loaded.clear()
        code, _, _ = run_cli([command, fx("necklace.cg")])
        assert code == 0
        walks = collections.Counter({  # no entry for a count of 0
            ("_slot_arrays", "_walk_state"): 1,
            ("_face_labels", "_subset_labels"): sum(len(s) <= 2 for s in walked),
            ("_merged_labels", "_subset_labels"): sum(len(s) > 2 for s in walked),
            ("_orbits", "_subset_labels"): 1,
        })
        if command == "report":
            walks |= {("_slot_arrays", "_iso_arrays"): 1, ("_orbits", "_iso_arrays"): 1}
        assert calls == walks, command
        (g,) = loaded
        assert sorted(g._walks[2]) == sorted(walked + [colors]), command


def test_report_and_jacket_commands_build_no_bubble(monkeypatch):
    # homology, the 2-bubble counts, the jacket genera and the face totals
    # all count vertex-index orbits
    def forbidden(*args):
        raise AssertionError("a Bubble was built")

    monkeypatch.setattr(graphs_module, "Bubble", forbidden)
    for command in ("report", "jackets", "degree"):
        for name in ("necklace.cg", "r1.cg", "m.cg"):
            code, _, err = run_cli([command, fx(name)])
            assert (code, err) == (0, ""), (command, name)


def test_report_certifies_the_model_vertices_once_per_process(monkeypatch):
    # builtin_model builds and certifies each model's vertices once; a later
    # report certifies only the graph it reads
    certified = []
    real = models_module._component_certs

    def recording(g, *args):
        certified.append(g)
        return real(g, *args)

    monkeypatch.setattr(models_module, "_component_certs", recording)
    models_module._builtin_model.cache_clear()
    first = run_cli(["report", fx("necklace.cg")])
    assert first[0] == 0
    vertices = [v for m in ("phi4-matrix", "phi4-rank3") for v in builtin_model(m).upsilon]
    assert [any(g is v for v in vertices) for g in certified] == [True] * 4 + [False]
    certified.clear()
    assert run_cli(["report", fx("necklace.cg")]) == first
    assert len(certified) == 1 and not any(certified[0] is v for v in vertices)
    assert builtin_model("matrix-2p:03") is builtin_model("matrix-2p:3")


# ------------------------------------------------ forms pinned in both formats

SEPARATOR_LINES = (
    "separator P: 4 vertices, splice edges z0, z1\n",
    "separator M: 8 vertices, splice edges z0, z1\n",
)


def test_single_value_commands_in_kv_format():
    assert run_cli(["euler", fx("r0.cg"), "--format", "kv"]) == (0, "chi=2\n", "")
    assert run_cli(["boundary-degree", fx("l-2-3.cg"), "--format", "kv"]) == (
        0, "boundary-degree=15\n", "",
    )
    # degree is jackets without the faces and amplitude-exponent lines
    expected = NECKLACE_JACKETS_KV.split("faces=8")[0]
    assert run_cli(["degree", fx("necklace.cg"), "--format", "kv"]) == (0, expected, "")


def test_enumerate_dedup_in_both_formats():
    argv = ["enumerate", "--model", "phi4-matrix", "-k", "2", "--dedup"]
    assert run_cli(argv) == (0, "count = 24\ndistinct = 8\n", "")
    assert run_cli(argv + ["--format", "kv"]) == (0, "count=24\ndistinct=8\n", "")
    argv = ["enumerate", "--model", "phi4-rank3", "-k", "2", "--dedup", "--format", "kv"]
    assert run_cli(argv) == (0, "count=144\ndistinct=54\n", "")


def test_find_separators_kv():
    assert run_cli(["find-separators", "--format", "kv"]) == (
        0,
        "p.vertices=4\np.k=z0\np.l=z1\nm.vertices=8\nm.k=z0\nm.l=z1\n",
        "",
    )


def test_find_separators_graphs_follow_their_lines_on_stdout():
    code, out, err = run_cli(["find-separators", "--out-p", "-", "--out-m", "-"])
    assert (code, err) == (0, "")
    p_line, m_line = SEPARATOR_LINES
    assert out == p_line + fixture_text("p.cg") + m_line + fixture_text("m.cg")


def test_find_separators_unwritable_out_p(tmp_path):
    path = tmp_path / "missing" / "p.cg"
    code, out, err = run_cli(["find-separators", "--out-p", str(path)])
    # the P line is printed before the write fails; M is never reached
    assert (code, out) == (1, SEPARATOR_LINES[0])
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_bubbles_rejects_a_bad_color_list():
    code, out, err = run_cli(["bubbles", fx("o.cg"), "--colors", "1,x"])
    assert (code, out) == (1, "")
    assert err == "error: bad color list '1,x' (expected e.g. 1,2)\n"


def test_bubbles_with_no_colors_lists_every_vertex():
    code, out, _ = run_cli(["bubbles", fx("r1.cg"), "--colors", ""])
    assert code == 0
    assert out == "".join(f"bubble {{}}: {v}\n" for v in "abcdpqxy") + "count = 8\n"
    code, out, _ = run_cli(["bubbles", fx("r1.cg"), "--colors", "", "--format", "kv"])
    assert out == "".join(f"bubble.{{}}={v}\n" for v in "abcdpqxy") + "count=8\n"


def test_report_ribbon_kv():
    code, out, err = run_cli(["report", fx("w.rg"), "--format", "kv"])
    assert (code, err) == (0, "")
    assert out == (
        "validation=ok\nribbon.vertices=1\nribbon.edges=2\nbc=1\nchi=0\ngenus=1\n"
    )


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\f", "\u2028"])
def test_first_directive_tells_ribbon_files_from_graph_files(newline):
    # Comment and blank lines before the first directive are skipped, on
    # every line boundary str.splitlines() knows; "rv" in a comment is no
    # directive.
    head = ["# rv in a comment", "", "   # rj"]
    for name, genus in (("w.rg", 1), ("dipole3.cg", 0)):
        lines = head + fixture_text(name).splitlines()
        code, out, err = run_cli(["genus", "-"], newline.join(lines) + newline)
        assert (code, out, err) == (0, f"genus = {genus}\n", ""), name


def test_report_irregular_kv():
    text = "colors 2 closed\nv a w\nv b b\ne e1 1 a b\n"
    code, out, err = run_cli(["report", "-", "--format", "kv"], text)
    assert (code, err) == (1, "")
    assert out == (
        "vertex 'a': missing color 2\nvertex 'b': missing color 2\nvalidation=2,issues\n"
    )


# ------------------------------------------------------- parser structure

# The subcommands in `tgraph --help` order with their help text; each
# argument as (option strings, dest, default, choices, required, type,
# metavar, help, nargs).  These are argparse data, not rendered help, so
# they read the same on every supported Python.
PARSER_HEAD = (
    "tgraph", "Analyze and build edge-colored bipartite graphs.", "command", True, "command"
)
PARSER_COMMANDS = [
    ("validate", "check a graph file for regularity", [
        ((), "file", None, None, True, None, None, None, None),
    ]),
    ("homology", "integer bubble homology of a closed graph", [
        ((), "file", None, None, True, None, None, None, None),
        (("--format",), "format", "text", ("text", "kv"), False, None, None, None, None),
    ]),
    ("euler", "Euler characteristic from bubble counts", [
        ((), "file", None, None, True, None, None, None, None),
        (("--format",), "format", "text", ("text", "kv"), False, None, None, None, None),
    ]),
    ("bubbles", "list bubbles for a color set", [
        ((), "file", None, None, True, None, None, None, None),
        (("--colors",), "colors", None, None, True, None, "LIST", "e.g. 1,2", None),
        (("--format",), "format", "text", ("text", "kv"), False, None, None, None, None),
    ]),
    ("jackets", "jacket genera, degree and face data", [
        ((), "file", None, None, True, None, None, None, None),
        (("--format",), "format", "text", ("text", "kv"), False, None, None, None, None),
    ]),
    ("degree", "jacket summary and total degree", [
        ((), "file", None, None, True, None, None, None, None),
        (("--format",), "format", "text", ("text", "kv"), False, None, None, None, None),
    ]),
    ("melonic", "is the graph melonic (degree 0)?", [
        ((), "file", None, None, True, None, None, None, None),
    ]),
    ("boundary", "boundary graph of an open graph", [
        ((), "file", None, None, True, None, None, None, None),
        (("-o", "--output"), "output", None, None, False, None, "FILE", None, None),
    ]),
    ("boundary-degree", "degree of the boundary graph", [
        ((), "file", None, None, True, None, None, None, None),
        (("--format",), "format", "text", ("text", "kv"), False, None, None, None, None),
    ]),
    ("genus", "genus of a ribbon or 3-colored graph", [
        ((), "file", None, None, True, None, None, None, None),
        (("--format",), "format", "text", ("text", "kv"), False, None, None, None, None),
    ]),
    ("bc", "boundary components of a ribbon or 3-colored graph", [
        ((), "file", None, None, True, None, None, None, None),
        (("--format",), "format", "text", ("text", "kv"), False, None, None, None, None),
    ]),
    ("sum", "connected sum along two same-colored edges", [
        ((), "file_a", None, None, True, None, None, None, None),
        ((), "edge_a", None, None, True, None, None, None, None),
        ((), "file_b", None, None, True, None, None, None, None),
        ((), "edge_b", None, None, True, None, None, None, None),
        (("-o", "--output"), "output", None, None, False, None, "FILE", None, None),
    ]),
    ("crys-sum", "vertex-deletion (crystallization) sum", [
        ((), "file_a", None, None, True, None, None, None, None),
        ((), "white", None, None, True, None, None,
         "white vertex to delete in the first graph", None),
        ((), "file_b", None, None, True, None, None, None, None),
        ((), "black", None, None, True, None, None,
         "black vertex to delete in the second graph", None),
        (("-o", "--output"), "output", None, None, False, None, "FILE", None, None),
    ]),
    ("open", "open an internal color-0 edge into two legs", [
        ((), "file", None, None, True, None, None, None, None),
        ((), "edge", None, None, True, None, None, None, None),
        (("-o", "--output"), "output", None, None, False, None, "FILE", None, None),
    ]),
    ("cap", "close two opposite-parity legs into an edge", [
        ((), "file", None, None, True, None, None, None, None),
        ((), "leg_a", None, None, True, None, None, None, None),
        ((), "leg_b", None, None, True, None, None, None, None),
        (("-o", "--output"), "output", None, None, False, None, "FILE", None, None),
    ]),
    ("cone", "cone over a closed graph (adds color 0 legs)", [
        ((), "file", None, None, True, None, None, None, None),
        (("-o", "--output"), "output", None, None, False, None, "FILE", None, None),
    ]),
    ("iso", "are two graphs isomorphic?", [
        ((), "file_a", None, None, True, None, None, None, None),
        ((), "file_b", None, None, True, None, None, None, None),
        (("--mode",), "mode", "exact-colors", ("exact-colors", "up-to-color-permutation"),
         False, None, None, None, None),
    ]),
    ("member", "Feynman membership against a model", [
        ((), "file", None, None, True, None, None, None, None),
        (("--model",), "model", None, None, True, None, None, None, None),
    ]),
    ("build", "build a named graph family member", [
        ((), "family", None, None, True, None, None, None, None),
        (("--genus",), "genus", None, None, False, "int", None, None, None),
        (("--colors",), "colors", None, None, False, "int", None, "dipole color count", None),
        (("--base",), "base", None, None, False, "int", None, "first color label", None),
        (("-B",), "boundaries_full", None, None, False, "int", None,
         "blocks opened at alpha0 and beta0 (qgbc)", None),
        (("-C",), "boundaries", None, None, False, "int", None,
         "blocks opened at least at alpha0 (qgbc)", None),
        (("--genera",), "genera", None, None, False, None, "LIST", "e.g. 2,3 (l)", None),
        (("-o", "--output"), "output", None, None, False, None, "FILE", None, None),
    ]),
    ("enumerate", "count Wick contractions of a model", [
        (("--model",), "model", None, None, True, None, None, None, None),
        (("-k",), "k", None, None, True, "int", None, "number of interaction vertices", None),
        (("--dedup",), "dedup", False, None, False, None, None, None, 0),
        (("--format",), "format", "text", ("text", "kv"), False, None, None, None, None),
    ]),
    ("find-separators", "search for the separator graphs", [
        (("--model",), "model", "phi4-rank3", None, False, None, None, None, None),
        (("--max-vertices",), "max_vertices", 2, None, False, "int", None,
         "interaction-vertex bound for the search", None),
        (("--out-p",), "out_p", None, None, False, None, "FILE", None, None),
        (("--out-m",), "out_m", None, None, False, None, "FILE", None, None),
        (("--format",), "format", "text", ("text", "kv"), False, None, None, None, None),
    ]),
    ("export-dot", "emit Graphviz DOT", [
        ((), "file", None, None, True, None, None, None, None),
        (("-o", "--output"), "output", None, None, False, None, "FILE", None, None),
    ]),
    ("report", "full analysis bundle for one file", [
        ((), "file", None, None, True, None, None, None, None),
        (("--format",), "format", "text", ("text", "kv"), False, None, None, None, None),
    ]),
]


def parser_structure(parser: argparse.ArgumentParser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    commands = []
    for name, p in sub.choices.items():
        assert p.description == helps[name], name
        args = [
            (
                tuple(a.option_strings), a.dest, a.default, a.choices and tuple(a.choices),
                a.required, a.type and a.type.__name__, a.metavar, a.help, a.nargs,
            )
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        commands.append((name, helps[name], args))
    return (parser.prog, parser.description, sub.dest, sub.required, sub.metavar), commands


def test_parser_structure_is_pinned():
    head, commands = parser_structure(cli_module._build_parser())
    assert head == PARSER_HEAD
    assert [c[0] for c in commands] == [c[0] for c in PARSER_COMMANDS]
    for got, want in zip(commands, PARSER_COMMANDS):
        assert got == want
    assert cli_module.__all__ == ["main"]


def test_parser_is_built_once_and_reused():
    assert cli_module._build_parser() is cli_module._build_parser()
    report = run_cli(["report", fx("necklace.cg")])
    assert report[0] == 0
    assert run_cli(["report"])[0] == 2
    code, _, err = run_cli(["open", fx("necklace.cg"), "nope"])
    assert (code, err) == (1, "error: no edge 'nope'\n")
    assert run_cli(["report", fx("necklace.cg")]) == report


def test_readme_lists_every_command_with_its_help():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("| command | purpose |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \|$", table, re.M)
    _, commands = parser_structure(cli_module._build_parser())
    assert rows == [(name, help_text) for name, help_text, _ in commands]


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


# -- fuzzing: mutated fixtures never end in a traceback -------------------------

FUZZ_TEXTS = [
    fixture_text(p.name)
    for p in sorted(FIXTURES.iterdir())
    if p.suffix in (".cg", ".rg")
]
# Every command that reads one graph file, with the options it needs.
FUZZ_COMMANDS = (
    ("validate",), ("homology",), ("euler",), ("jackets",), ("degree",), ("melonic",),
    ("report",), ("boundary",), ("boundary-degree",), ("genus",), ("bc",), ("cone",),
    ("export-dot",), ("bubbles", "--colors", "1,2"), ("member", "--model", "phi4-rank3"),
)
FUZZ_NUMBERS = st.sampled_from([-1, 0, 1, 2, 3, 4, 9, 10, 11, 31, 32, 33, 10**9])


@st.composite
def mutated_fixture(draw):
    """A fixture text with lines dropped, tokens swapped, numbers changed or
    a large ``colors`` header put in front."""
    lines = draw(st.sampled_from(FUZZ_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("drop", "swap", "number", "header")))
        if op == "header" or not lines:
            d = draw(st.integers(MAX_JACKET_COLORS, MAX_D + 1))
            lines.insert(0, f"colors {d} {draw(st.sampled_from(('closed', 'open')))}")
            # replace the old header, keep the body (a text whose lines were
            # all dropped has no old header)
            if len(lines) > 1 and draw(st.booleans()):
                del lines[1]
            continue
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        if op == "drop":
            del lines[i]
        elif op == "swap" and len(tokens) >= 2:
            a = draw(st.integers(0, len(tokens) - 1))
            b = draw(st.integers(0, len(tokens) - 1))
            tokens[a], tokens[b] = tokens[b], tokens[a]
            lines[i] = " ".join(tokens)
        elif op == "number" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = str(draw(FUZZ_NUMBERS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(text=mutated_fixture(), command=st.sampled_from(FUZZ_COMMANDS))
def test_mutated_fixtures_exit_cleanly(text, command):
    # run_cli turns only SystemExit into a code; any other exception fails
    code, out, err = run_cli([command[0], "-", *command[1:]], text)
    assert code in (0, 1, 2)
    if code:
        assert out or err  # validate and report list issues on stdout
