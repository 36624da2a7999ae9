"""Structural analysis of graphs constrained by girth and excluded odd holes.

Public surface: the immutable :class:`Graph` with its two interchange
formats, witness-producing class membership for the four hole-constrained
families, BFS levellings with stability classification and the weak-stable
extraction algorithm, lollipop/licking machinery, an exact chromatic
oracle, constructive and heuristic colorers with bound certification, and
seeded generation of class members.
"""

from .coloring import (
    Coloring,
    dsatur,
    four_color_a3_components,
    is_proper,
)
from .exact import (
    ChromaResult,
    OracleCapExceeded,
    chi_of_subset,
    chromatic_number,
    is_k_colorable,
)
from .generate import (
    GenResult,
    GenSpec,
    SplitMix64,
    complete_bipartite,
    corpus_filename,
    cycle_graph,
    generate_member,
    grotzsch,
    mycielskian,
    named_graph,
    path_graph,
    petersen,
    random_in_class,
    random_tree,
)
from .graph import (
    Graph,
    GraphError,
    ParseError,
    bipartition_or_odd_cycle,
    components,
    components_of_subset,
    induced_subgraph,
    is_bipartite_subset,
    is_induced_path,
    parse_graph,
    parse_graph6,
    parse_edge_list,
    to_edge_list,
    to_graph6,
)
from .holes import (
    AttachmentProfile,
    ClassSpec,
    HoleWitness,
    MembershipVerdict,
    class_membership,
    enumerate_induced_cycles,
    find_long_odd_hole,
    girth,
    hole_attachment_profile,
    induced_cycles_of_length,
    is_induced_cycle,
    shortest_cycle,
    witness_violates,
)
from .levelling import (
    PLAIN,
    STABLE,
    WEAK_STABLE,
    InexactChiWarning,
    Levelling,
    LickingExhausted,
    Lollipop,
    PreconditionViolated,
    SpineLevelling,
    bfs_layers,
    ceiling_path,
    classify_types,
    cleanliness,
    find_licking,
    floor_path,
    prune_to_dependent_spine,
    stability_kind,
    type_closures,
    validate_levelling,
    validate_lollipop,
    weak_stabilize,
)
from .util import Deadline, DeadlineExceeded
from .verify import (
    CertifiedColoring,
    CorpusReport,
    MembershipError,
    certified_class_color,
    class_bound,
    verify_corpus,
    verify_graph,
)

__version__ = "0.1.0"
