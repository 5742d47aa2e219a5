"""Edge-colored bipartite graphs: homology, jackets, surgery, tensor models.

The package analyzes (D+1)-colored bipartite multigraphs -- the Feynman
graphs of colored tensor models -- and the surfaces/pseudomanifolds they
encode:

* :mod:`tensorgraphs.graphs` -- the graph type, file format, bubbles,
  components, isomorphism, DOT export;
* :mod:`tensorgraphs.homology` -- integer bubble homology by top-down
  unit-pivot elimination of the chain complex, with the invariant factors
  of each leftover block from a diagonal-only reduction, and the dense
  Smith normal form (with U and V) as the public reference;
* :mod:`tensorgraphs.ribbon` -- ribbon structures, boundary components,
  genus;
* :mod:`tensorgraphs.jackets` -- jackets, the degree, melonicity, degree
  bounds;
* :mod:`tensorgraphs.surgery` -- connected sums, edge opening/capping,
  cones, boundary graphs, the separator predicate;
* :mod:`tensorgraphs.models` -- model specs, membership, Wick enumeration
  and counting, and builders for all named graph families;
* :mod:`tensorgraphs.cli` -- the ``tgraph`` command-line tool.

``tensorgraphs.homology`` is the function, which shadows its submodule even
under ``import tensorgraphs.homology as h``; reach the module with
``importlib.import_module("tensorgraphs.homology")``.
"""

from .graphs import (
    Bubble,
    ColoredGraph,
    Edge,
    GraphError,
    IsoResult,
    Leg,
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
from .homology import (
    ChainComplex,
    HomologyGroup,
    HomologyResult,
    SmithForm,
    chain_complex,
    euler_characteristic,
    homology,
    smith_normal_form,
)
from .jackets import (
    DegreeReport,
    Jacket,
    amplitude_exponent,
    boundary_degree,
    degree_lower_bound,
    enumerate_jackets,
    gurau_degree,
    is_melonic,
)
from .models import (
    MembershipReport,
    ModelSpec,
    SeparatorResult,
    build,
    build_families,
    builtin_model,
    count_vacuum,
    default_probes,
    enumerate_vacuum,
    find_separators,
    is_member,
    separator_m,
    separator_p,
)
from .ribbon import (
    BoundaryReport,
    RibbonStructure,
    boundary_components,
    euler_agreement,
    genus,
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
    separator_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "Bubble",
    "ColoredGraph",
    "Edge",
    "GraphError",
    "IsoResult",
    "Leg",
    "add_prefix",
    "amputate",
    "bubbles",
    "canonical_certificate",
    "connected_components",
    "disjoint_union",
    "export_dot",
    "is_isomorphic",
    "parse",
    "recolor",
    "relabel",
    "remove_color",
    "serialize",
    "validate",
    # homology
    "ChainComplex",
    "HomologyGroup",
    "HomologyResult",
    "SmithForm",
    "chain_complex",
    "euler_characteristic",
    "homology",
    "smith_normal_form",
    # jackets
    "DegreeReport",
    "Jacket",
    "amplitude_exponent",
    "boundary_degree",
    "degree_lower_bound",
    "enumerate_jackets",
    "gurau_degree",
    "is_melonic",
    # models
    "MembershipReport",
    "ModelSpec",
    "SeparatorResult",
    "build",
    "build_families",
    "builtin_model",
    "count_vacuum",
    "default_probes",
    "enumerate_vacuum",
    "find_separators",
    "is_member",
    "separator_m",
    "separator_p",
    # ribbon
    "BoundaryReport",
    "RibbonStructure",
    "boundary_components",
    "euler_agreement",
    "genus",
    "parse_ribbon",
    "ribbon_from_colored",
    "serialize_ribbon",
    # surgery
    "boundary_graph",
    "close_legs",
    "cone",
    "connected_sum",
    "crys_sum",
    "open_edge",
    "separator_check",
]
