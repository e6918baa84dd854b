"""Exact-arithmetic toolkit for generalized transmission graphs.

Builds and verifies the reductions between combinatorial line-arrangement
descriptions and transmission graphs of line segments and circular
sectors, entirely in exact rational arithmetic.
"""

from .arrangement import (
    Description,
    LineArrangement,
    Slab,
    containing_slab,
    description,
    extract_description,
    is_simple,
    slope_sorted,
    validate_description,
)
from .geometry import (
    Disk,
    Line,
    Point,
    Rotation,
    Sector,
    Segment,
    Vec2,
    angle_at_most,
    line_from_slope_intercept,
    rotation_from_parameter,
    vec,
)
from .graphs import (
    A,
    B,
    C,
    Label,
    LabelledDigraph,
    SA,
    SB,
    SC,
    digraph,
    graph_diff,
)
from .realization import (
    check_observation1,
    check_ordering_gadget,
    is_equiangular,
    is_wide_spread,
    realize_sectors,
    realize_segments,
)
from .reductions import reduce_sectors, reduce_segments
from .transmission import Instance, distinguished_point, instance, transmission_graph
from .verification import (
    RandomSpec,
    random_simple_arrangement,
    round_trip_sectors,
    round_trip_segments,
)

__version__ = "0.1.0"
