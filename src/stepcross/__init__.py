"""Step hyperbolic cross Fourier approximation on the torus.

Sparse trigonometric polynomials, dyadic-block index sets, de la
Vallee-Poussin block filters, mixed-smoothness class norms, and the
experiment harness that checks the predicted approximation orders at desk
scale.
"""

__version__ = "0.1.0"

from .blocks import (SmoothParams, block_anchor, block_indices, even_shell,
                     hyperbolic_cross, weighted_tail_sums)
from .poly import (GridSpec, TrigPoly, blocks_of, eval_grid, project_cross,
                   read_jsonl, write_jsonl)
from .kernels import (block_filter_coeff, smooth_aggregate, smooth_block,
                      smooth_blocks_of, vdp_coeff)
from .norms import QuadratureError, besov_mixed_norm, bq1_norm, lp_norm, nikolskii_check
from .approx import (best_approx_upper, fourier_sum_error, projector_norm_probe,
                     random_mixed_poly)
from .extremal import dirichlet_shell, shell_extremal, shifted_rect_sample
from .rates import (RateFit, SweepRow, fit_rates, predicted_order,
                    sweep_extremal, theory_exponents)
from .entropy import (CloudProblem, covering_number_exact, covering_number_greedy,
                      entropy_number_estimate, packing_number_exact,
                      packing_number_greedy)
from .experiments import ExperimentConfig, run_experiment
