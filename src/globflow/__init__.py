"""Globular complexes, flows, and dihomotopy analyses for concurrent programs.

The package models a concurrent system as a finite globular complex
(states, directed transitions, commuting squares), realizes it as a flow
(all execution paths with concatenation and square-move adjacency), and
answers equivalence and safety questions on the result: homotopy classes
of execution traces, germ structure at states, S-equivalence and
T-dihomotopy of flows, and deadlock detection.  A small PV process
language compiles shared-resource programs into complexes.
"""

from .complexes import (
    ComplexMorphism,
    Edge,
    ExecPath,
    GlobularComplex,
    Square,
    StateId,
    ValidationReport,
    complex_deadlocks,
    complex_morphism_violations,
    compose_complex_morphisms,
    enumerate_paths,
    glob_discrete,
    identity_complex_morphism,
    is_complex_morphism,
    path_classes,
    same_move_class,
    square_move_neighbors,
    subdivide_edge,
    validate_complex,
)
from .equivalence import (
    DEFAULT_SEARCH_BUDGET,
    TDihomotopyReport,
    check_t_dihomotopy,
    enumerate_flow_morphisms,
    find_flow_isomorphism,
    s_equivalent,
)
from .errors import (
    FormatError,
    GlobflowError,
    InvalidAttachmentError,
    InvalidComplexError,
    InvalidFlowError,
    InvalidMorphismError,
    PvError,
    PvSyntaxError,
    RealizationLimitExceeded,
    SearchBudgetExceeded,
    UnknownIdError,
)
from .flows import (
    FiniteFlow,
    FlowMorphism,
    GermSet,
    compose_flow_morphisms,
    deadlocks,
    dihomotopy_classes,
    flow_morphism_violations,
    germs,
    glob_flow,
    identity_flow_morphism,
    is_flow_morphism,
    restrict,
    s_homotopic,
    validate_flow,
)
from .formats import (
    complex_from_doc,
    complex_to_doc,
    dumps_complex,
    dumps_flow,
    dumps_morphism,
    dumps_realization,
    export_dot,
    flow_from_doc,
    flow_to_doc,
    loads_complex,
    loads_flow,
    loads_morphism,
    morphism_from_doc,
    morphism_to_doc,
    realization_from_doc,
)
from .pv import PvProgram, PvStep, parse_pv, pv_to_complex, state_name
from .realization import (
    DEFAULT_REALIZE_LIMIT,
    IncrementalRealizer,
    all_exec_paths,
    path_id,
    realize,
    realize_morphism,
)

__version__ = "0.1.0"

__all__ = [
    # complexes
    "StateId", "ExecPath", "Edge", "Square", "GlobularComplex", "ComplexMorphism",
    "ValidationReport", "validate_complex", "glob_discrete", "enumerate_paths",
    "path_classes", "square_move_neighbors", "same_move_class",
    "is_complex_morphism", "complex_morphism_violations",
    "identity_complex_morphism", "compose_complex_morphisms", "subdivide_edge",
    "complex_deadlocks",
    # flows
    "FiniteFlow", "FlowMorphism", "GermSet", "validate_flow", "glob_flow",
    "restrict", "germs", "dihomotopy_classes", "is_flow_morphism",
    "flow_morphism_violations", "identity_flow_morphism", "compose_flow_morphisms",
    "s_homotopic", "deadlocks",
    # realization
    "realize", "realize_morphism", "IncrementalRealizer",
    "all_exec_paths", "path_id", "DEFAULT_REALIZE_LIMIT",
    # equivalence
    "s_equivalent", "find_flow_isomorphism", "check_t_dihomotopy",
    "TDihomotopyReport", "enumerate_flow_morphisms", "DEFAULT_SEARCH_BUDGET",
    # pv
    "PvProgram", "PvStep", "parse_pv", "pv_to_complex", "state_name",
    # formats
    "complex_to_doc", "complex_from_doc", "dumps_complex", "loads_complex",
    "flow_to_doc", "flow_from_doc", "dumps_flow", "loads_flow",
    "morphism_to_doc", "morphism_from_doc", "dumps_morphism", "loads_morphism",
    "dumps_realization", "realization_from_doc",
    "export_dot",
    # errors
    "GlobflowError", "UnknownIdError", "InvalidComplexError", "InvalidFlowError",
    "InvalidMorphismError", "InvalidAttachmentError", "SearchBudgetExceeded",
    "RealizationLimitExceeded",
    "FormatError", "PvError", "PvSyntaxError",
]
