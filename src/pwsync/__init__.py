"""Coupling-gain certification and simulation for networks of piecewise-smooth systems.

The package answers, for a network of identical piecewise-smooth nodes coupled
through a linear diffusive layer plus a discontinuous (sign-coupling) layer:
how large must the two coupling gains be for global asymptotic
synchronization? The sufficient gains are

    c > c*  = mu2(Q)    / (lambda2(L)  * mu2_lower(P Gamma)),
    cd >= cd* = mu_inf(M) / (delta_d    * mu_inf_lower(P Gamma_d)),

where (P, Q, M) certify the node dynamics, lambda2 is the algebraic
connectivity of the diffusive layer and delta_d the *minimum density* of the
discontinuous layer, a sparsest-cut connectivity measure computed here exactly
(small graphs) or by a size-constrained Kernighan-Lin search. A fixed-step
simulator verifies gains on concrete networks.
"""

from . import dynamics, graphs, matrix_measures, min_density, presets, star_functions, thresholds
from . import simulate as _simulate  # the submodule: the star import below binds `simulate` to the function
from .dynamics import *  # noqa: F403
from .graphs import *  # noqa: F403
from .matrix_measures import *  # noqa: F403
from .min_density import *  # noqa: F403
from .presets import *  # noqa: F403
from .simulate import *  # noqa: F403
from .star_functions import *  # noqa: F403
from .thresholds import *  # noqa: F403

__version__ = "0.1.0"

# Every library submodule's public names; the command-line module `cli` stays out.
__all__ = [
    name
    for module in (dynamics, graphs, matrix_measures, min_density, presets, _simulate, star_functions, thresholds)
    for name in module.__all__
]
