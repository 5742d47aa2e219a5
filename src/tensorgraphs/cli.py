"""Command-line front end: ``tgraph <command> [options]``.

Conventions shared by all commands:

* graph file arguments accept ``-`` for standard input, and ``@name`` as
  shorthand for a file inside the fixture directory (``./fixtures`` by
  default, overridable via the ``TGRAPH_FIXTURES`` environment variable);
* commands that emit a graph print it to standard output unless ``-o`` is
  given, so commands compose as pipelines;
* ``--format kv`` switches summary output from ``key = value`` lines to
  machine-friendly ``key=value`` lines without spaces;
* exit status: 0 on success (including "yes" verdicts), 1 on domain errors
  and "no" verdicts, 2 on usage errors.

All numeric output is exact (integers or rationals); nothing is floated.

Every command is one entry of :data:`_COMMANDS`.  Its handler returns either
``(rows, exit code)`` or a graph, ribbon structure or DOT text; :func:`main`
prints the rows in the chosen format, or serializes the graph to ``-o``.  A
row is its text line followed by its kv line(s).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from itertools import combinations
from typing import Sequence

from .graphs import (
    ColoredGraph,
    GraphError,
    _subset_labels,
    bubbles,
    export_dot,
    is_isomorphic,
    parse,
    serialize,
    validate,
)
from .homology import euler_characteristic, homology
from .jackets import boundary_degree, gurau_degree, is_melonic
from .models import (
    build,
    builtin_model,
    count_vacuum,
    find_separators,
    is_member,
)
from .ribbon import (
    RibbonStructure,
    boundary_components,
    parse_ribbon,
    ribbon_from_colored,
    serialize_ribbon,
)
from .surgery import (
    boundary_graph,
    close_legs,
    cone,
    connected_sum,
    crys_sum,
    open_edge,
)

__all__ = ["main"]

_FIXTURES_ENV = "TGRAPH_FIXTURES"

_Row = tuple[str, ...]


# -- plumbing -----------------------------------------------------------------


def _resolve(path: str) -> str:
    if path.startswith("@"):
        root = os.environ.get(_FIXTURES_ENV, "fixtures")
        return os.path.join(root, path[1:])
    return path


def _read(path: str) -> str:
    try:
        if path == "-":  # the bytes, decoded as a file is, not by the locale
            buffer = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        with open(_resolve(path), "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        source = "standard input" if path == "-" else path
        raise GraphError(
            f"{source}: not {exc.encoding} text ({exc.reason} at byte {exc.start})"
        ) from None


def _load(path: str) -> ColoredGraph:
    return parse(_read(path))


# The nonempty lines of str.splitlines(): runs of anything but its boundaries.
_LINES = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def _load_either(
    path: str, require_regular: bool = True
) -> ColoredGraph | RibbonStructure:
    """A ribbon structure if the first directive is ``rv`` or ``rj``, else a
    colored graph."""
    text = _read(path)
    for line in _LINES.finditer(text):  # lazily, up to the first directive
        words = line[0].split("#", 1)[0].split()
        if words:
            if words[0] in ("rv", "rj"):
                return parse_ribbon(text)
            break
    return parse(text, require_regular=require_regular)


def _load_ribbon(path: str) -> RibbonStructure:
    """Read a ribbon structure from a ribbon file or a 3-colored graph file."""
    r = _load_either(path)
    return r if isinstance(r, RibbonStructure) else ribbon_from_colored(r)


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        # A label read through surrogateescape cannot be encoded: fail
        # before the file is opened, so an existing file is left as it was.
        text.encode("utf-8")
        with open(_resolve(output), "w", encoding="utf-8") as fh:
            fh.write(text)


def _same(line: str) -> _Row:
    """A row that reads the same in both formats."""
    return (line, line)


def _kv(key: str, value) -> _Row:
    return (f"{key} = {value}", f"{key}={value}")


def _squeeze(key: str, value: str) -> _Row:
    """A report row; its kv line strips the spaces."""
    k = key.replace(" ", ".")
    v = value.replace(" = ", "=").replace(", ", ",").replace("; ", ";").replace(" ", ",")
    return (f"{key}: {value}", f"{k}={v}")


def _cycle_tag(cycle: tuple[int, ...]) -> str:
    return "".join(str(c) for c in cycle)


def _parse_color_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise GraphError(f"bad color list {text!r} (expected e.g. 1,2)") from None


def _parse_genera(text: str) -> list[int]:
    """The genera of ``build l --genera``; empty parts are skipped."""
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise GraphError(f"bad genus list {text!r} (expected e.g. 2,3)") from None


# -- commands -----------------------------------------------------------------


def _cmd_validate(args):
    issues = validate(parse(_read(args.file), require_regular=False))
    return [_same(issue) for issue in issues] or [_same("ok")], int(bool(issues))


def _cmd_homology(args):
    lines = homology(_load(args.file)).lines()
    return [(line, line.replace(" = ", "=")) for line in lines], 0


def _cmd_bubbles(args):
    g = _load(args.file)
    colors = _parse_color_list(args.colors)
    found = bubbles(g, colors)
    tag = "{" + "".join(str(c) for c in colors) + "}"
    rows = [
        (f"bubble {tag}: {' '.join(b.vertices)}", f"bubble.{tag}={','.join(b.vertices)}")
        for b in found
    ]
    return rows + [_kv("count", len(found))], 0


def _jacket_rows(path: str) -> list[_Row]:
    """The jackets, then degree, faces and amplitude exponent."""
    report = gurau_degree(_load(path))
    rows = []
    for j in report.jackets:
        tag = _cycle_tag(j.cycle)
        rows.append(
            (
                f"jacket ({tag}): faces = {j.face_count}, genus = {j.genus}",
                f"jacket.{tag}.faces={j.face_count}",
                f"jacket.{tag}.genus={j.genus}",
            )
        )
    return rows + [
        _kv("degree", report.degree),
        _kv("faces", report.faces),
        _kv("amplitude-exponent", report.amplitude_exponent),
    ]


def _verdict(ok, yes: str, no: str):
    return [_same(yes if ok else no)], int(not ok)


def _cmd_member(args):
    report = is_member(_load(args.file), builtin_model(args.model))
    return [_same(line) for line in report.lines()], int(not report.ok)


def _cmd_build(args):
    values = (args.genus, args.colors, args.base, args.boundaries_full, args.boundaries)
    params = {k: v for k, v in zip(("g", "d", "base", "b", "c"), values) if v is not None}
    if args.genera is not None:
        params["genera"] = _parse_genera(args.genera)
    return build(args.family, **params)


def _cmd_enumerate(args):
    count, distinct = count_vacuum(builtin_model(args.model), args.k)
    rows = [_kv("count", count)]
    if args.dedup:
        rows.append(_kv("distinct", distinct))
    return rows, 0


def _separator_rows(args):
    """Each separator's row, then its graph to ``--out-p``/``--out-m``.

    A generator, so a graph written to standard output follows its row, and
    a failed write comes after the row it belongs to.
    """
    first, second = find_separators(builtin_model(args.model), args.max_vertices)
    for tag, result, out in (("P", first, args.out_p), ("M", second, args.out_m)):
        n, t = len(result.graph), tag.lower()
        yield (
            f"separator {tag}: {n} vertices, splice edges {result.k}, {result.l}",
            f"{t}.vertices={n}",
            f"{t}.k={result.k}",
            f"{t}.l={result.l}",
        )
        if out:
            _emit(serialize(result.graph), out)


def _report_colored(g: ColoredGraph) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = [("validation", "ok")]
    pairs.append(("vertices", str(len(g))))
    pairs.append(("edges", str(len(g.edges))))
    pairs.append(("legs", str(len(g.legs))))
    pairs.append(("colors", " ".join(str(c) for c in g.colors)))
    counts = [
        f"{{{i}{j}}}:{len(_subset_labels(g, (i, j))[1])}" for i, j in combinations(g.colors, 2)
    ]
    pairs.append(("2-bubbles", " ".join(counts)))
    if g.is_open:
        pairs.append(("homology", "n/a (open graph)"))
    else:
        result = homology(g)
        pairs.append(("homology", "; ".join(result.lines()[:-1])))
        pairs.append(("chi", str(result.euler)))
        if len(g.colors) >= 3:
            report = gurau_degree(g)
            for j in report.jackets:
                pairs.append(
                    (
                        f"jacket ({_cycle_tag(j.cycle)})",
                        f"faces = {j.face_count}, genus = {j.genus}",
                    )
                )
            pairs.append(("degree", str(report.degree)))
    if 0 not in g.colors:
        pairs.append(("boundary", "n/a (no propagator color)"))
    elif g.is_open:
        boundary = boundary_graph(g)
        # every boundary vertex has an edge of each color, so is in a component
        pieces = len(_subset_labels(boundary, boundary.colors)[1])
        pairs.append(("boundary components", str(pieces)))
        if len(boundary.colors) == 3:
            per = boundary_components(ribbon_from_colored(boundary)).per_component
            genera = sorted(genus for _, _, genus in per)
            pairs.append(("boundary genera", ", ".join(str(x) for x in genera)))
    else:
        pairs.append(("boundary", "empty"))
    for name in ("phi4-matrix", "phi4-rank3"):
        try:
            verdict = "yes" if is_member(g, builtin_model(name)) else "no"
        except GraphError:
            verdict = "n/a"
        pairs.append((f"member {name}", verdict))
    return pairs


def _report_ribbon(r: RibbonStructure) -> list[tuple[str, str]]:
    report = boundary_components(r)
    return [
        ("validation", "ok"),
        ("ribbon vertices", str(r.n_vertices)),
        ("ribbon edges", str(r.n_edges)),
        ("bc", str(report.bc)),
        ("chi", str(report.euler)),
        ("genus", str(report.genus)),
    ]


def _cmd_report(args):
    g = _load_either(args.file, require_regular=False)
    if isinstance(g, RibbonStructure):
        pairs = _report_ribbon(g)
    else:
        issues = validate(g)
        if issues:
            rows = [_same(issue) for issue in issues]
            return rows + [_squeeze("validation", f"{len(issues)} issues")], 1
        pairs = _report_colored(g)
    return [_squeeze(key, value) for key, value in pairs], 0


# -- command table --------------------------------------------------------------


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_FILE = _arg("file")
_FORMAT = _arg("--format", choices=("text", "kv"), default="text")
_OUTPUT = _arg("-o", "--output", default=None, metavar="FILE")
_FILE_KV = (_FILE, _FORMAT)
_FILE_OUT = (_FILE, _OUTPUT)

# (name, help, arguments, handler), in the order `tgraph --help` lists them.
_COMMANDS = (
    ("validate", "check a graph file for regularity", (_FILE,), _cmd_validate),
    ("homology", "integer bubble homology of a closed graph", _FILE_KV, _cmd_homology),
    ("euler", "Euler characteristic from bubble counts", _FILE_KV,
     lambda a: ([_kv("chi", euler_characteristic(_load(a.file)))], 0)),
    ("bubbles", "list bubbles for a color set",
     (_FILE, _arg("--colors", required=True, metavar="LIST", help="e.g. 1,2"), _FORMAT),
     _cmd_bubbles),
    ("jackets", "jacket genera, degree and face data", _FILE_KV,
     lambda a: (_jacket_rows(a.file), 0)),
    ("degree", "jacket summary and total degree", _FILE_KV,
     lambda a: (_jacket_rows(a.file)[:-2], 0)),
    ("melonic", "is the graph melonic (degree 0)?", (_FILE,),
     lambda a: _verdict(is_melonic(_load(a.file)), "melonic", "not melonic")),
    ("boundary", "boundary graph of an open graph", _FILE_OUT,
     lambda a: boundary_graph(_load(a.file))),
    ("boundary-degree", "degree of the boundary graph", _FILE_KV,
     lambda a: ([_kv("boundary-degree", boundary_degree(_load(a.file)))], 0)),
    ("genus", "genus of a ribbon or 3-colored graph", _FILE_KV,
     lambda a: ([_kv("genus", boundary_components(_load_ribbon(a.file)).genus)], 0)),
    ("bc", "boundary components of a ribbon or 3-colored graph", _FILE_KV,
     lambda a: ([_kv("bc", boundary_components(_load_ribbon(a.file)).bc)], 0)),
    ("sum", "connected sum along two same-colored edges",
     (_arg("file_a"), _arg("edge_a"), _arg("file_b"), _arg("edge_b"), _OUTPUT),
     lambda a: connected_sum(_load(a.file_a), a.edge_a, _load(a.file_b), a.edge_b)),
    ("crys-sum", "vertex-deletion (crystallization) sum",
     (_arg("file_a"), _arg("white", help="white vertex to delete in the first graph"),
      _arg("file_b"), _arg("black", help="black vertex to delete in the second graph"),
      _OUTPUT),
     lambda a: crys_sum(_load(a.file_a), a.white, _load(a.file_b), a.black)),
    ("open", "open an internal color-0 edge into two legs",
     (_FILE, _arg("edge"), _OUTPUT),
     lambda a: open_edge(_load(a.file), a.edge)),
    ("cap", "close two opposite-parity legs into an edge",
     (_FILE, _arg("leg_a"), _arg("leg_b"), _OUTPUT),
     lambda a: close_legs(_load(a.file), a.leg_a, a.leg_b)),
    ("cone", "cone over a closed graph (adds color 0 legs)", _FILE_OUT,
     lambda a: cone(_load(a.file))),
    ("iso", "are two graphs isomorphic?",
     (_arg("file_a"), _arg("file_b"),
      _arg("--mode", choices=("exact-colors", "up-to-color-permutation"),
           default="exact-colors")),
     lambda a: _verdict(is_isomorphic(_load(a.file_a), _load(a.file_b), a.mode),
                        "isomorphic", "not isomorphic")),
    ("member", "Feynman membership against a model",
     (_FILE, _arg("--model", required=True)), _cmd_member),
    ("build", "build a named graph family member",
     (_arg("family"), _arg("--genus", type=int, default=None),
      _arg("--colors", type=int, default=None, help="dipole color count"),
      _arg("--base", type=int, default=None, help="first color label"),
      _arg("-B", dest="boundaries_full", type=int, default=None,
           help="blocks opened at alpha0 and beta0 (qgbc)"),
      _arg("-C", dest="boundaries", type=int, default=None,
           help="blocks opened at least at alpha0 (qgbc)"),
      _arg("--genera", default=None, metavar="LIST", help="e.g. 2,3 (l)"), _OUTPUT),
     _cmd_build),
    ("enumerate", "count Wick contractions of a model",
     (_arg("--model", required=True),
      _arg("-k", type=int, required=True, help="number of interaction vertices"),
      _arg("--dedup", action="store_true"), _FORMAT),
     _cmd_enumerate),
    ("find-separators", "search for the separator graphs",
     (_arg("--model", default="phi4-rank3"),
      _arg("--max-vertices", type=int, default=2,
           help="interaction-vertex bound for the search"),
      _arg("--out-p", default=None, metavar="FILE"),
      _arg("--out-m", default=None, metavar="FILE"), _FORMAT),
     lambda a: (_separator_rows(a), 0)),
    ("export-dot", "emit Graphviz DOT", _FILE_OUT, lambda a: export_dot(_load(a.file))),
    ("report", "full analysis bundle for one file", _FILE_KV, _cmd_report),
)


# -- parser and entry point -----------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``tgraph`` parser, built once per process from :data:`_COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="tgraph",
        description="Analyze and build edge-colored bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text, arguments, handler in _COMMANDS:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=handler)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    kv = getattr(args, "format", "text") == "kv"
    try:
        result = args.func(args)
        if isinstance(result, tuple):
            rows, code = result
            for row in rows:
                print(*(row[1:] if kv else row[:1]), sep="\n")
            return code
        if isinstance(result, RibbonStructure):
            result = serialize_ribbon(result)
        elif isinstance(result, ColoredGraph):
            result = serialize(result)
        _emit(result, args.output)
        return 0
    except (GraphError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
