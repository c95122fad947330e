"""Exception types shared across the package.

Each failure mode gets its own class so callers (and the CLI) can map
problems to exit codes without string matching.
"""


class GkzflopError(Exception):
    """Base class for all package-specific errors."""


class InputError(GkzflopError):
    """Bad user input (fixture files, configs, infeasible requests)."""


class NonUnitDegree(InputError):
    """Some point has degree != 1 under the grading functional."""


class RankDeficient(InputError):
    """The points do not span the ambient lattice over Q."""


class NotACone(InputError):
    """An index set is not a cone of the triangulation at hand."""


class NotAdjacent(InputError):
    """Two triangulations are not related by a single circuit flip."""


class Infeasible(InputError):
    """No rational lift with the prescribed fractional parts exists."""


class InfeasibleArgs(InputError):
    """Cannot place arg y inside (-2pi, 0) with all arg x_j in (-pi, pi)."""


class NonInteriorPoint(InputError):
    """A parameter c that must lie in the open cone does not."""


class PoleRightOfLine(InputError):
    """A ratio-factor pole lies right of the line that splits an orbit."""


class NotATriangulation(InputError):
    """The cones given for a triangulation do not form one."""


class SublatticeIndex(InputError):
    """The points span a proper sublattice of the ambient lattice."""


class ParseError(InputError):
    """Malformed fixture or configuration file."""


class NotInvertible(GkzflopError):
    """Element with zero scalar part passed to an inversion routine."""


class BranchCut(GkzflopError):
    """Branched power requested on the negative real axis."""


class DivergenceSuspected(GkzflopError):
    """Partial sums grow: tail-fit slope >= 1 in the series evaluator."""


class PoleProximity(GkzflopError):
    """Evaluation point too close to a pole of the integrand."""


class PoleOnContour(GkzflopError):
    """A pole (nearly) sits on the requested integration line."""


class TailBoundViolated(GkzflopError):
    """Contour truncation tail estimate exceeds the requested budget."""


class NonFiniteValue(GkzflopError):
    """A numeric evaluation produced NaN or infinity."""


class NilpotencyUnconfirmed(GkzflopError):
    """A sector algebra or divisor class is not confirmed nilpotent."""


class MonomialUnreduced(GkzflopError):
    """A monomial of a sector algebra is missing from its reduction table."""


class LocalizationRankDeficient(GkzflopError):
    """No Laurent monomials found whose localization values span the side."""
