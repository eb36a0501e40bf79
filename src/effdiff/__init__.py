"""Effective 2-D diffusion tensors for 3-D diffusion confined between two
surfaces, with independent numerical oracles and a conservative solver for
the projected diffusion equation."""

from .expr import (
    EvalDomainError, Expr, ExprError, ParseError,
    differentiate, evaluate, parse, to_text,
)
from .geometry import (
    DegenerateConfigError, Domain, ExpressionField, FrameData, GeometryError,
    GridField, InputError, OutsideDomainError, PlaneConfig, PlaneFrame,
    ScalarField, SurfacePair, SurfaceValidationError, frame_field,
    frame_for_planes, frame_from_gradients, frame_from_slopes,
)
from .tensor import (
    EffectiveTensor, EllipsoidData, ExtremeTiltError, MediumParams,
    TensorError, channel_recovery, effective_tensor, extreme_tilt_tensor,
    polar_decompose, rho_omega, sample_tensor, tensor_field, to_cartesian,
)
from .quadrature import (
    ApexProximityError, OracleError, SingularSystemError, WedgeQuadratureJob,
    quadrature_tensor,
)
from .brownian import (
    BrownianError, McJob, McResult, Slab, StepTooLargeError,
    mc_projected_tensor,
)
from .pde import (
    ConfigurationError, PdeError, PdeGrid, StabilityError, evolve,
    stability_bound, step_finite_rate, step_infinite_rate,
)

__version__ = "0.1.0"
