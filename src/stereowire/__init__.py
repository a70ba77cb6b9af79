"""Biplanar reconstruction, synthesis, and evaluation of 3D curvilinear wires.

Submodules:

* cameras   - projective cameras, fundamental matrices, epilines, DLT
* bspline   - basis evaluation, arclength parameterization, curve fitting
* stereo    - epipolar curve matching, triangulation, reprojection gate
* spherical - tip + fixed-radius angular chain encoding of 3D curves
* rod       - rigid-segment bending model and synthetic wire generation
* metrics   - shape-error and navigation-episode metrics
* io / cli  - strict JSON schemas and the pipeline commands
"""

from .bspline import (
    BSplineCurve,
    basis,
    fit_curve,
    parameterize_arclength,
    sample_uniform,
)
from .cameras import (
    ProjectiveCamera,
    calibrate_dlt,
    epiline,
    fundamental_matrix,
    skew,
)
from .metrics import (
    CurveMetrics,
    Episode,
    EpisodeMetrics,
    curve_metrics,
    discrete_frechet,
    episode_metrics,
    force_magnitude,
    reward,
)
from .rod import (
    RelaxResult,
    RodState,
    bending_energy,
    relax,
    synth_guidewire,
)
from .spherical import (
    SphericalChain,
    cart_to_sph,
    decode_chain,
    encode_chain,
    resample_uniform_spacing,
    sph_to_cart,
)
from .stereo import (
    ParamMatch,
    ReconstructionReport,
    intersect_epiline,
    match_curves,
    pchip_fit,
    reconstruct_curve,
    triangulate_point,
)

__version__ = "0.1.0"
