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
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .graphs import (
    ColoredGraph,
    GraphError,
    bubbles,
    connected_components,
    export_dot,
    is_isomorphic,
    parse,
    serialize,
    validate,
)
from .homology import euler_characteristic, homology
from .jackets import (
    _face_total,
    _gurau_degree,
    _pair_faces,
    boundary_degree,
    gurau_degree,
    is_melonic,
)
from .models import (
    build,
    builtin_model,
    enumerate_vacuum,
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


# -- plumbing -----------------------------------------------------------------


def _resolve(path: str) -> str:
    if path.startswith("@"):
        root = os.environ.get(_FIXTURES_ENV, "fixtures")
        return os.path.join(root, path[1:])
    return path


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(_resolve(path), "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> ColoredGraph:
    return parse(_read(path))


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(_resolve(output), "w", encoding="utf-8") as fh:
            fh.write(text)


def _first_directive(text: str) -> str:
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            return line.split()[0]
    return ""


def _load_ribbon(path: str) -> RibbonStructure:
    """Read a ribbon structure from a ribbon file or a 3-colored graph file."""
    text = _read(path)
    if _first_directive(text) in ("rv", "rj"):
        return parse_ribbon(text)
    return ribbon_from_colored(parse(text))


def _line(key: str, value, fmt: str) -> str:
    return f"{key}={value}" if fmt == "kv" else f"{key} = {value}"


def _cycle_tag(cycle: tuple[int, ...]) -> str:
    return "".join(str(c) for c in cycle)


def _jacket_lines(report, fmt: str) -> list[str]:
    out = []
    for j in report.jackets:
        tag = _cycle_tag(j.cycle)
        if fmt == "kv":
            out.append(f"jacket.{tag}.faces={j.face_count}")
            out.append(f"jacket.{tag}.genus={j.genus}")
        else:
            out.append(f"jacket ({tag}): faces = {j.face_count}, genus = {j.genus}")
    return out


def _parse_color_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise GraphError(f"bad color list {text!r} (expected e.g. 1,2)") from None


# -- commands -----------------------------------------------------------------


def _cmd_validate(args) -> int:
    g = parse(_read(args.file), require_regular=False)
    issues = validate(g)
    for issue in issues:
        print(issue)
    if issues:
        return 1
    print("ok")
    return 0


def _cmd_homology(args) -> int:
    result = homology(_load(args.file))
    if args.format == "kv":
        for q, group in enumerate(result.groups):
            print(f"H_{q}={group}")
        print(f"chi={result.euler}")
    else:
        for line in result.lines():
            print(line)
    return 0


def _cmd_euler(args) -> int:
    print(_line("chi", euler_characteristic(_load(args.file)), args.format))
    return 0


def _cmd_bubbles(args) -> int:
    g = _load(args.file)
    colors = _parse_color_list(args.colors)
    found = bubbles(g, colors)
    tag = "{" + "".join(str(c) for c in colors) + "}"
    for b in found:
        if args.format == "kv":
            print(f"bubble.{tag}={','.join(b.vertices)}")
        else:
            print(f"bubble {tag}: {' '.join(b.vertices)}")
    print(_line("count", len(found), args.format))
    return 0


def _cmd_jackets(args) -> int:
    g = _load(args.file)
    report = gurau_degree(g)
    for line in _jacket_lines(report, args.format):
        print(line)
    print(_line("degree", report.degree, args.format))
    print(_line("faces", _face_total(report.jackets), args.format))
    print(_line("amplitude-exponent", report.amplitude_exponent, args.format))
    return 0


def _cmd_degree(args) -> int:
    report = gurau_degree(_load(args.file))
    for line in _jacket_lines(report, args.format):
        print(line)
    print(_line("degree", report.degree, args.format))
    return 0


def _cmd_melonic(args) -> int:
    ok = is_melonic(_load(args.file))
    print("melonic" if ok else "not melonic")
    return 0 if ok else 1


def _cmd_boundary(args) -> int:
    _emit(serialize(boundary_graph(_load(args.file))), args.output)
    return 0


def _cmd_boundary_degree(args) -> int:
    print(_line("boundary-degree", boundary_degree(_load(args.file)), args.format))
    return 0


def _cmd_genus(args) -> int:
    report = boundary_components(_load_ribbon(args.file))
    print(_line("genus", report.genus, args.format))
    return 0


def _cmd_bc(args) -> int:
    report = boundary_components(_load_ribbon(args.file))
    print(_line("bc", report.bc, args.format))
    return 0


def _cmd_sum(args) -> int:
    out = connected_sum(_load(args.file_a), args.edge_a, _load(args.file_b), args.edge_b)
    _emit(serialize(out), args.output)
    return 0


def _cmd_crys_sum(args) -> int:
    out = crys_sum(_load(args.file_a), args.white, _load(args.file_b), args.black)
    _emit(serialize(out), args.output)
    return 0


def _cmd_open(args) -> int:
    _emit(serialize(open_edge(_load(args.file), args.edge)), args.output)
    return 0


def _cmd_cap(args) -> int:
    _emit(serialize(close_legs(_load(args.file), args.leg_a, args.leg_b)), args.output)
    return 0


def _cmd_cone(args) -> int:
    _emit(serialize(cone(_load(args.file))), args.output)
    return 0


def _cmd_iso(args) -> int:
    result = is_isomorphic(_load(args.file_a), _load(args.file_b), args.mode)
    print("isomorphic" if result else "not isomorphic")
    return 0 if result else 1


def _cmd_member(args) -> int:
    report = is_member(_load(args.file), builtin_model(args.model))
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_build(args) -> int:
    params = {}
    if args.genus is not None:
        params["g"] = args.genus
    if args.colors is not None:
        params["d"] = args.colors
    if args.base is not None:
        params["base"] = args.base
    if args.boundaries_full is not None:
        params["b"] = args.boundaries_full
    if args.boundaries is not None:
        params["c"] = args.boundaries
    if args.genera is not None:
        params["genera"] = [int(part) for part in args.genera.split(",") if part]
    made = build(args.family, **params)
    if isinstance(made, RibbonStructure):
        _emit(serialize_ribbon(made), args.output)
    else:
        _emit(serialize(made), args.output)
    return 0


def _cmd_enumerate(args) -> int:
    model = builtin_model(args.model)
    raw = enumerate_vacuum(model, args.k)
    print(_line("count", len(raw), args.format))
    if args.dedup:
        distinct = enumerate_vacuum(model, args.k, dedup=True)
        print(_line("distinct", len(distinct), args.format))
    return 0


def _cmd_find_separators(args) -> int:
    first, second = find_separators(builtin_model(args.model), args.max_vertices)
    for tag, result, out in (("P", first, args.out_p), ("M", second, args.out_m)):
        if args.format == "kv":
            print(f"{tag.lower()}.vertices={len(result.graph)}")
            print(f"{tag.lower()}.k={result.k}")
            print(f"{tag.lower()}.l={result.l}")
        else:
            print(
                f"separator {tag}: {len(result.graph)} vertices, "
                f"splice edges {result.k}, {result.l}"
            )
        if out:
            _emit(serialize(result.graph), out)
    return 0


def _cmd_export_dot(args) -> int:
    _emit(export_dot(_load(args.file)), args.output)
    return 0


def _report_colored(g: ColoredGraph) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = [("validation", "ok")]
    pairs.append(("vertices", str(len(g))))
    pairs.append(("edges", str(len(g.edges))))
    pairs.append(("legs", str(len(g.legs))))
    pairs.append(("colors", " ".join(str(c) for c in g.colors)))
    faces_of = _pair_faces(g)
    counts = [f"{{{i}{j}}}:{len(faces)}" for (i, j), faces in faces_of.items()]
    pairs.append(("2-bubbles", " ".join(counts)))
    if g.is_open:
        pairs.append(("homology", "n/a (open graph)"))
    else:
        result = homology(g)
        pairs.append(
            ("homology", "; ".join(f"H_{q} = {grp}" for q, grp in enumerate(result.groups)))
        )
        pairs.append(("chi", str(result.euler)))
        if len(g.colors) >= 3:
            report = _gurau_degree(g, faces_of)
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
        parts = connected_components(boundary_graph(g))
        pairs.append(("boundary components", str(len(parts))))
        if all(len(part.colors) == 3 for part in parts):
            genera = sorted(
                boundary_components(ribbon_from_colored(part)).genus for part in parts
            )
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


def _cmd_report(args) -> int:
    text = _read(args.file)
    if _first_directive(text) in ("rv", "rj"):
        pairs = _report_ribbon(parse_ribbon(text))
    else:
        g = parse(text, require_regular=False)
        issues = validate(g)
        if issues:
            for issue in issues:
                print(issue)
            print(_squeeze("validation", f"{len(issues)} issues", args.format))
            return 1
        pairs = _report_colored(g)
    for key, value in pairs:
        print(_squeeze(key, value, args.format))
    return 0


def _squeeze(key: str, value: str, fmt: str) -> str:
    """Render one report line; kv mode strips spaces."""
    if fmt != "kv":
        return f"{key}: {value}"
    k = key.replace(" ", ".")
    v = value.replace(" = ", "=").replace(", ", ",").replace("; ", ";").replace(" ", ",")
    return f"{k}={v}"


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgraph",
        description="Analyze and build edge-colored bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        return p

    def with_format(p):
        p.add_argument("--format", choices=("text", "kv"), default="text")
        return p

    def with_output(p):
        p.add_argument("-o", "--output", default=None, metavar="FILE")
        return p

    p = command("validate", _cmd_validate, "check a graph file for regularity")
    p.add_argument("file")

    p = command("homology", _cmd_homology, "integer bubble homology of a closed graph")
    p.add_argument("file")
    with_format(p)

    p = command("euler", _cmd_euler, "Euler characteristic from bubble counts")
    p.add_argument("file")
    with_format(p)

    p = command("bubbles", _cmd_bubbles, "list bubbles for a color set")
    p.add_argument("file")
    p.add_argument("--colors", required=True, metavar="LIST", help="e.g. 1,2")
    with_format(p)

    p = command("jackets", _cmd_jackets, "jacket genera, degree and face data")
    p.add_argument("file")
    with_format(p)

    p = command("degree", _cmd_degree, "jacket summary and total degree")
    p.add_argument("file")
    with_format(p)

    p = command("melonic", _cmd_melonic, "is the graph melonic (degree 0)?")
    p.add_argument("file")

    p = command("boundary", _cmd_boundary, "boundary graph of an open graph")
    p.add_argument("file")
    with_output(p)

    p = command("boundary-degree", _cmd_boundary_degree, "degree of the boundary graph")
    p.add_argument("file")
    with_format(p)

    p = command("genus", _cmd_genus, "genus of a ribbon or 3-colored graph")
    p.add_argument("file")
    with_format(p)

    p = command("bc", _cmd_bc, "boundary components of a ribbon or 3-colored graph")
    p.add_argument("file")
    with_format(p)

    p = command("sum", _cmd_sum, "connected sum along two same-colored edges")
    p.add_argument("file_a")
    p.add_argument("edge_a")
    p.add_argument("file_b")
    p.add_argument("edge_b")
    with_output(p)

    p = command("crys-sum", _cmd_crys_sum, "vertex-deletion (crystallization) sum")
    p.add_argument("file_a")
    p.add_argument("white", help="white vertex to delete in the first graph")
    p.add_argument("file_b")
    p.add_argument("black", help="black vertex to delete in the second graph")
    with_output(p)

    p = command("open", _cmd_open, "open an internal color-0 edge into two legs")
    p.add_argument("file")
    p.add_argument("edge")
    with_output(p)

    p = command("cap", _cmd_cap, "close two opposite-parity legs into an edge")
    p.add_argument("file")
    p.add_argument("leg_a")
    p.add_argument("leg_b")
    with_output(p)

    p = command("cone", _cmd_cone, "cone over a closed graph (adds color 0 legs)")
    p.add_argument("file")
    with_output(p)

    p = command("iso", _cmd_iso, "are two graphs isomorphic?")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument(
        "--mode",
        choices=("exact-colors", "up-to-color-permutation"),
        default="exact-colors",
    )

    p = command("member", _cmd_member, "Feynman membership against a model")
    p.add_argument("file")
    p.add_argument("--model", required=True)

    p = command("build", _cmd_build, "build a named graph family member")
    p.add_argument("family")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--colors", type=int, default=None, help="dipole color count")
    p.add_argument("--base", type=int, default=None, help="first color label")
    p.add_argument("-B", dest="boundaries_full", type=int, default=None,
                   help="blocks opened at alpha0 and beta0 (qgbc)")
    p.add_argument("-C", dest="boundaries", type=int, default=None,
                   help="blocks opened at least at alpha0 (qgbc)")
    p.add_argument("--genera", default=None, metavar="LIST", help="e.g. 2,3 (l)")
    with_output(p)

    p = command("enumerate", _cmd_enumerate, "count Wick contractions of a model")
    p.add_argument("--model", required=True)
    p.add_argument("-k", type=int, required=True, help="number of interaction vertices")
    p.add_argument("--dedup", action="store_true")
    with_format(p)

    p = command(
        "find-separators", _cmd_find_separators, "search for the separator graphs"
    )
    p.add_argument("--model", default="phi4-rank3")
    p.add_argument("--max-vertices", type=int, default=2,
                   help="interaction-vertex bound for the search")
    p.add_argument("--out-p", default=None, metavar="FILE")
    p.add_argument("--out-m", default=None, metavar="FILE")
    with_format(p)

    p = command("export-dot", _cmd_export_dot, "emit Graphviz DOT")
    p.add_argument("file")
    with_output(p)

    p = command("report", _cmd_report, "full analysis bundle for one file")
    p.add_argument("file")
    with_format(p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
