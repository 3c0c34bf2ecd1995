"""Noncommutative toric algebras from polyhedral data.

The pipeline: a Gorenstein affine toric variety and a collection of
divisor classes give a quiver of sections with divisor labels; its
anticanonical cycles form the superpotential, whose derivatives give
relations and a consistency verdict; consistent algebras in dimension
three and four carry a toric cell complex whose cellular complex of
projective bimodules resolves the algebra; three-dimensional algebras
project to a tiling of the two-torus.
"""

from .complexes import (
    ToricCellComplex,
    general_complex,
    mckay_complex,
    sign_infeasibility,
)
from .errors import ConstructionError, InputError, InternalError
from .matchings import extremal_matching, perfect_matchings, weight_zero_check
from .quiver import QuiverOfSections, build_quiver
from .resolution import (
    build_resolution,
    graded_piece,
    mckay_sign_crosscheck,
    verify_exactness,
    verify_minimality,
    verify_square_zero,
)
from .superpotential import (
    FRelation,
    Superpotential,
    consistency,
    relations,
    superpotential,
)
from .tiling import dimer_reconstruct, projection_maps, verify_tiling
from .variety import (
    AbelianGroupData,
    Collection,
    GorensteinToricVariety,
    WeilClass,
    mckay_toric_data,
)

__version__ = "0.1.0"
