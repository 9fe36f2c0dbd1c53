"""Numerical workbench for constant negative scalar-Weyl curvature metrics."""

from .grid import (
    Chart,
    ChartError,
    FieldError,
    MetricField,
    integrate,
    make_chart,
)
from .tensor import Riem4Field, kulkarni_nomizu, riemann_norm
from .curvature import (
    CurvatureBundle,
    christoffel,
    curvature_bundle,
    curvature_scalars,
    hessian,
    ricci_scalar,
    riemann,
    weyl,
)
from .conformal import (
    ConformalParams,
    conformal_metric,
    modified_laplacian_apply,
    scalar_weyl,
)
from .deformation import (
    DeformationBundle,
    deform,
    deformation_energy,
    deformed_norm,
    deformed_scalar_closed_form,
    weyl_error,
)
from .yamabe import (
    SolveReport,
    TrichotomyResult,
    first_eigenvalue,
    solve_constant_F,
)
from .presets import (
    ball_flat_metric,
    conformally_flat_metric,
    flat_metric,
    fourier_metric,
    fourier_scalar,
)
from .construct import (
    BumpProfile,
    ConstructionConfig,
    ConstructionResult,
    PinchingReport,
    RadialFields,
    SearchReport,
    construct_constant_F,
    make_bump,
    pinching_report,
    radial_fields,
    search_parameters,
)

__version__ = "0.1.0"
