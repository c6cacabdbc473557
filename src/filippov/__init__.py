"""Stability of boundary equilibria of three-dimensional Filippov systems.

The package decides whether a point that lies on a switching surface and
is an equilibrium of exactly one of the two smooth pieces attracts or
repels nearby orbits: it derives the local quantities, applies the
eigenvalue trichotomy, and in the rotational case computes the return
multiplier of the associated four-parameter piecewise-linear hybrid
system, cross-checked by an independent event-driven simulator.
"""

__version__ = "0.1.0"

from .core import (
    BoundaryData,
    FilippovSystem,
    RegionKind,
    SystemSpec,
    boundary_data,
    classify_region,
    fold_curvature,
    is_observable,
    load_system_spec,
    normal_rates,
    sliding_field,
    system_spec_from_dict,
)
from .errors import FilippovError
from .expr import (
    ScalarField,
    VectorField,
    gradient_fd,
    parse_expr,
)
from .hybrid import (
    HybridParams,
    LambdaArrays,
    LambdaResult,
    LambdaStatus,
    SegmentEvent,
    SlideBlocks,
    first_hit_line,
    first_hit_plane,
    first_return,
    return_map,
    return_multiplier,
    slide_blocks,
)
from .simulate import (
    Orbit,
    Segment,
    SimConfig,
    Terminal,
    export_orbit,
    return_multiplier_empirical,
    simulate,
    simulate_hybrid,
)
from .spectrum import RealPlusPair, ThreeReal, eig3
from .stability import (
    Degenerate,
    Rotational,
    StableNode,
    StabilityVerdict,
    UnstableEigenvalue,
    UnstableRightward,
    classify_equilibrium,
    hybrid_params_from_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
