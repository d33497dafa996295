"""wheelkit: wheels, disc-planar terminal graphs, K5-subdivisions,
separations, and exhaustive small-graph verification."""

from wheelkit.catalog import CatalogMember, catalog, matches_catalog, rooted_isomorphic
from wheelkit.coloring import assign_then_extend, four_color, is_proper
from wheelkit.errors import (
    ConstructionError,
    InputDomainError,
    LiftingError,
    PreconditionError,
    ResourceLimitError,
    WheelkitError,
)
from wheelkit.gadgets import GadgetRule, Lift, apply_gadget, gadget_library, lift_subdivision
from wheelkit.graph import Graph, add, identify, remove, union
from wheelkit.planarity import (
    Embedding,
    TerminalGraph,
    embed,
    embed_terminal,
    is_disc_planar,
    is_planar,
)
from wheelkit.separations import (
    Separation,
    Verdict,
    check_trichotomy,
    enumerate_separations,
    is_k_connected,
)
from wheelkit.subdivisions import (
    PathSystem,
    Subdivision,
    find_disjoint_paths,
    find_k5_subdivision,
    validate_subdivision,
    wheel_plus_paths_to_k5,
)
from wheelkit.wheels import Wheel, find_s_good_wheel, is_s_good, is_wheel

__version__ = "0.1.0"

__all__ = [
    "CatalogMember",
    "ConstructionError",
    "Embedding",
    "GadgetRule",
    "Graph",
    "InputDomainError",
    "Lift",
    "LiftingError",
    "PathSystem",
    "PreconditionError",
    "ResourceLimitError",
    "Separation",
    "Subdivision",
    "TerminalGraph",
    "Verdict",
    "Wheel",
    "WheelkitError",
    "add",
    "apply_gadget",
    "assign_then_extend",
    "catalog",
    "check_trichotomy",
    "embed",
    "embed_terminal",
    "enumerate_separations",
    "find_disjoint_paths",
    "find_k5_subdivision",
    "find_s_good_wheel",
    "four_color",
    "gadget_library",
    "identify",
    "is_disc_planar",
    "is_k_connected",
    "is_planar",
    "is_proper",
    "is_s_good",
    "is_wheel",
    "lift_subdivision",
    "matches_catalog",
    "remove",
    "rooted_isomorphic",
    "union",
    "validate_subdivision",
    "wheel_plus_paths_to_k5",
]
