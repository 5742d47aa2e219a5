"""Shared helpers for the test suite.

Tests import graphs from ``fixtures/`` (regenerated byte-for-byte by
``fixtures/MANIFEST``) and drive the CLI in-process through ``run_cli``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import settings

from tensorgraphs.cli import main
from tensorgraphs.graphs import ColoredGraph, _slot_index, parse, relabel
from tensorgraphs.ribbon import RibbonStructure, parse_ribbon

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Every *.cg fixture that is closed (no legs); used by whole-corpus checks.
CLOSED_FIXTURES = [
    "dipole3.cg",
    "melon.cg",
    "r0.cg",
    "r1.cg",
    "necklace.cg",
    "necklace-base1.cg",
    "c1.cg",
    "c2.cg",
    "c3.cg",
    "o.cg",
    "n.cg",
    "qg2.cg",
    "kg2.cg",
    "p.cg",
    "m.cg",
]

OPEN_FIXTURES = ["twopoint.cg", "t1.cg", "qgbc-0-1-1.cg", "l-2-3.cg"]

RIBBON_FIXTURES = ["w.rg", "q.rg", "r.rg"]

# Closed *and* built on exactly three colors: the surface-geometry corpus.
# (p.cg / m.cg are rank-3 closures on four colors and do not belong here.)
CLOSED_3COLOR_FIXTURES = [
    "dipole3.cg",
    "r0.cg",
    "r1.cg",
    "c1.cg",
    "c2.cg",
    "c3.cg",
    "o.cg",
    "n.cg",
    "qg2.cg",
    "kg2.cg",
]

# Closed fixtures on four colors (jacket corpus).
CLOSED_4COLOR_FIXTURES = [
    "melon.cg",
    "necklace.cg",
    "necklace-base1.cg",
    "p.cg",
    "m.cg",
]


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def load_fixture(name: str) -> ColoredGraph:
    return parse(fixture_text(name))


def load_ribbon_fixture(name: str) -> RibbonStructure:
    return parse_ribbon(fixture_text(name))


def graph_state(g: ColoredGraph) -> tuple:
    """Everything a graph stores, and its slot index, with the insertion
    order of every dict."""
    dicts = (g._parity, g._edges, _slot_index(g), g._legs)
    return g._colors, *(list(d.items()) for d in dicts)


def every_edge_choice(probes: list) -> list:
    """One probe pair per ordered choice of a color-0 edge on each side of
    each pair of `probes`, the chosen edges renamed ``!<label>`` so that
    :func:`~tensorgraphs.surgery.separator_check` cuts them first.  A side
    with no color-0 edge admits no choice, and its pair is kept as it is."""
    out = []
    for g, h in probes:
        g_edges = sorted(e for e, x in g.edges.items() if x.color == 0)
        h_edges = sorted(e for e, x in h.edges.items() if x.color == 0)
        if not g_edges or not h_edges:
            out.append((g, h))
        out += [
            (relabel(g, edge_map={ge: "!" + ge}), relabel(h, edge_map={he: "!" + he}))
            for ge in g_edges
            for he in h_edges
        ]
    return out


def run_cli(
    argv: list[str], stdin_text: str | bytes = "", *, text_only: bool = False
) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit_code, stdout, stderr).

    Standard input is a text stream over the bytes of `stdin_text` (a str
    is encoded as UTF-8), so a command that reads ``-`` decodes its byte
    buffer, as the installed CLI does.  With `text_only` it is a stream of
    the str with no byte buffer, as a program that calls ``main`` may set
    it, and the CLI reads the text as it is."""
    if text_only:
        stdin = io.StringIO(stdin_text)
    else:
        data = stdin_text.encode("utf-8") if isinstance(stdin_text, str) else stdin_text
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 0
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")
