"""Twisted resolvent kernels, scattering coefficients and resonance
lattices on hyperbolic model ends (cylinder, funnel, cusp)."""

from .errors import (
    DiagonalError,
    DomainError,
    NonConvergenceError,
    NonUnitaryError,
    OverflowBudgetError,
    PoleError,
    QuadratureError,
    RadiusExceededError,
    ResonanceLabError,
    TruncationError,
)
from .free_resolvent import free_kernel, g_s
from .geometry import CylCoord, HPoint, cusp_to_plane, cyl_to_plane, sigma
from .model_kernels import (
    cusp_kernel,
    cusp_kernel_images,
    cusp_mode,
    cyl_kernel_fourier,
    cyl_kernel_images,
    cyl_mode,
    funnel_kernel,
    funnel_kernel_fourier,
    funnel_mode,
    s_xi_continued,
    s_xi_direct,
)
from .resonances import (
    Resonance,
    ResonanceSet,
    SurfaceSpec,
    census,
    counting_function,
    counting_law,
    cusp_resonances,
    cylinder_resonances,
    funnel_resonances,
    surface_resonances,
)
from .scattering import (
    functional_equation_residual,
    poisson_mode,
    scattering_coeff,
)
from .specfun import bessel_i, bessel_k, log_gamma, reg_hyp2f1
from .twist import TwistSpec, eigen_angles

__version__ = "0.1.0"

__all__ = [
    "CylCoord",
    "DiagonalError",
    "DomainError",
    "HPoint",
    "NonConvergenceError",
    "NonUnitaryError",
    "OverflowBudgetError",
    "PoleError",
    "QuadratureError",
    "RadiusExceededError",
    "Resonance",
    "ResonanceLabError",
    "ResonanceSet",
    "SurfaceSpec",
    "TruncationError",
    "TwistSpec",
    "bessel_i",
    "bessel_k",
    "census",
    "counting_function",
    "counting_law",
    "cusp_kernel",
    "cusp_kernel_images",
    "cusp_mode",
    "cusp_resonances",
    "cusp_to_plane",
    "cyl_kernel_fourier",
    "cyl_kernel_images",
    "cyl_mode",
    "cyl_to_plane",
    "cylinder_resonances",
    "eigen_angles",
    "free_kernel",
    "funnel_kernel",
    "funnel_kernel_fourier",
    "funnel_mode",
    "funnel_resonances",
    "g_s",
    "log_gamma",
    "poisson_mode",
    "reg_hyp2f1",
    "s_xi_continued",
    "s_xi_direct",
    "scattering_coeff",
    "sigma",
    "surface_resonances",
    "functional_equation_residual",
]
