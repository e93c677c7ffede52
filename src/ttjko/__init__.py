"""Low-rank Eulerian density fitting by entropic proximal steps, with
gradient-free sampling of the fitted model."""

from .cross import CrossConfig, CrossInfo, CrossOracleError, maxvol, tt_cross
from .diagnostics import (MHConfig, MHResult, SinkhornConfig, double_ot_protocol,
                          map_and_hdi, metropolis_hastings)
from .driver import (FlowModel, GaussianInitial, Schedule, kl_estimate,
                     marginal_1d, marginals, run)
from .fixed_point import (DivisionFloorError, FixedPointConfig, StepState,
                          certificate_indices, cycle, solve_step,
                          terminal_identity_error)
from .grid import Grid, interpolate_batch, laplacian_1d, quadrature_weights
from .heat import HeatPropagator
from .importance import (QuantityOfInterest, compare_estimators, fit_importance,
                         importance_estimate, sum_of_parameters)
from .sampler import Ensemble, SamplerConfig, StepDynamics, sample
from .targets import (CachedDensity, DoubleMoon, Gaussian, GaussianMixture,
                      NonconvexPotential, PosteriorTarget, hyperbolic_posterior,
                      parabolic_posterior)
from .tt import (TTTensor, tt_axpy, tt_contract_all, tt_eval, tt_inner, tt_load,
                 tt_marginal, tt_ones, tt_rank_one, tt_round, tt_sample, tt_save)

__version__ = "0.1.0"
