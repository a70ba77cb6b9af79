"""Exception types shared across the package."""


class StereowireError(Exception):
    """Base class for all package errors."""


# --- camera / epipolar geometry ---

class DegenerateProjection(StereowireError):
    """Point lies on the camera's principal plane (homogeneous depth ~ 0)."""


class RankDeficient(StereowireError):
    """Projection matrix has rank < 3, or a matrix to normalize is zero."""


class CoincidentCenters(StereowireError):
    """Camera centers coincide; epipolar geometry is undefined."""


class ZeroLine(StereowireError):
    """Epiline degenerates to the zero vector (input was the epipole)."""


class InsufficientPoints(StereowireError):
    """Too few correspondences for DLT calibration."""


class DegenerateConfiguration(StereowireError):
    """Calibration input is rank-deficient (e.g. coplanar world points)."""


# --- B-splines ---

class IndexOutOfRange(StereowireError, IndexError):
    """Basis-function index outside 0..m-p-1."""


class OutOfDomain(StereowireError, ValueError):
    """Curve parameter outside the evaluation domain [t_p, t_(m-p)]."""


class DegenerateCurve(StereowireError):
    """Polyline or curve has (near-)zero or non-finite extent."""


class TooFewPoints(StereowireError):
    """Fewer than degree+1 distinct points for an interpolating fit."""


class SolveFailure(StereowireError):
    """Singular interpolation system."""


# --- stereo matching / triangulation ---

class NoMatches(StereowireError):
    """Fewer than two valid epipolar correspondences were found."""


class NonMonotoneInput(StereowireError):
    """PCHIP input violates strictly-increasing x / nondecreasing y."""


class PointAtInfinity(StereowireError):
    """Triangulated point has (near-)zero homogeneous weight."""


# --- spherical chains ---

class NonUniformSpacing(StereowireError):
    """Chain spacing deviates more than 1% from its mean step."""


# --- rod model ---

class UnreachableConstraint(StereowireError):
    """Pinned tip lies outside the set of points the rod's tip can reach."""


class CurvatureOverflow(StereowireError, ValueError):
    """Rest curvature whose squared joint bends overflow a float, or whose
    joint bend reaches pi, which folds a segment back onto the one before it."""


class RodOutOfRange(StereowireError, ValueError):
    """Rod whose total length, or whose pinned relax's energy scale, leaves
    the float range."""


# --- file I/O ---

class ParseError(StereowireError, ValueError):
    """Malformed or schema-violating input file."""


class SchemaMismatch(ParseError):
    """File parses but is of the wrong kind (e.g. episode passed as curve)."""
