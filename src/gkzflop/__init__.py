"""GKZ-type hypergeometric series, twisted sectors, and wall-crossing transforms for circuit flops."""

__version__ = "0.1.0"

from .errors import (
    BranchCut,
    DivergenceSuspected,
    GkzflopError,
    Infeasible,
    InfeasibleArgs,
    InputError,
    LocalizationRankDeficient,
    MonomialUnreduced,
    NilpotencyUnconfirmed,
    NonFiniteValue,
    NonInteriorPoint,
    NonUnitDegree,
    NotACone,
    NotATriangulation,
    NotAdjacent,
    NotInvertible,
    ParseError,
    PoleOnContour,
    PoleProximity,
    PoleRightOfLine,
    RankDeficient,
    SublatticeIndex,
    TailBoundViolated,
)
from .toric import (
    Circuit,
    Lift,
    ToricData,
    Triangulation,
    TwistedSector,
    adjacent_sector,
    canonical_lift,
    check_triangulation,
    compute_box,
    essential_cones,
    essential_sectors,
    find_circuit,
    star_of,
    validate_toric_data,
)
from .fixtures import load_fixture, parse_fixture, write_fixture
from .rings import (
    AlgebraElement,
    Chamber,
    SectorAlgebra,
    algebra_exp,
    algebra_inverse,
)
from .deform import DeformationRing
from .series import (
    TruncationPolicy,
    evaluate_gamma,
    evaluate_gamma_dual,
    pde_residuals,
)
from .wall import (
    ContourSpec,
    PathSpec,
    WallContext,
    ac_transform,
    coefficient_C,
    fm_transform,
    mb_contour_oracle,
    oracle_report,
    select_endpoints,
    verify_fm_equals_ac,
)
from .dual import CompactKModule
