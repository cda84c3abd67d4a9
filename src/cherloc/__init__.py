"""Exact combinatorics of multipartition box orders and their deformations."""

from .boxorder import Params, content_table
from .combinatorics import (
    Box,
    Multipartition,
    boxes,
    enumerate_multipartitions,
)
from .deform import (
    ASSUMED_LEMMAS,
    Certificate,
    DeformationError,
    deform_formal,
    deform_rational,
    index_classes,
    localize,
    verify_preservation,
)
from .loci import (
    ContentHyperplane,
    IndexMode,
    KappaFraction,
    Stability,
    aspherical_witnesses,
    genericity_witness,
    is_N_in_bound,
    theta_of_p,
)
from .mporder import OrderInstance, leq_p, relation_p
from .poset import (
    RefinementResult,
    Relation,
    common_refinement,
    hasse,
    is_partial_order,
    refines,
    reflexive_closure,
    to_dot,
)
from .scalars import (
    KappaMode,
    ParamScalar,
    format_rational,
    parse_rational,
    parse_scalar,
)

__version__ = "0.1.0"

__all__ = [
    "ASSUMED_LEMMAS",
    "Box",
    "Certificate",
    "ContentHyperplane",
    "DeformationError",
    "IndexMode",
    "KappaFraction",
    "KappaMode",
    "Multipartition",
    "OrderInstance",
    "ParamScalar",
    "Params",
    "RefinementResult",
    "Relation",
    "Stability",
    "aspherical_witnesses",
    "boxes",
    "common_refinement",
    "content_table",
    "deform_formal",
    "deform_rational",
    "enumerate_multipartitions",
    "format_rational",
    "genericity_witness",
    "hasse",
    "index_classes",
    "is_N_in_bound",
    "is_partial_order",
    "leq_p",
    "localize",
    "parse_rational",
    "parse_scalar",
    "reflexive_closure",
    "refines",
    "relation_p",
    "theta_of_p",
    "to_dot",
    "verify_preservation",
]
