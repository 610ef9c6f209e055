"""Exact-arithmetic toolkit for the binary trapdoor channel.

The channel keeps one labeled ball in a box; each use adds the input ball
and emits either it or the stored one, chosen uniformly when they differ.
This package provides the block-length-n transition matrices and their
exact inverses, enumeration of feasible outputs with exact likelihoods,
the conditional-entropy and weight-vector recursions behind the capacity
upper bound log2(5/2)/2, a Blahut-Arimoto certifier showing the bound
dominates the true simplex maximum, and the iterated-function-system view
that renders the channel as a fractal.  Everything except the final
logarithms and the numerical optimizer is computed in exact dyadic
arithmetic.
"""

from .bounds import (
    BoundResult,
    EntropyVector,
    OmegaVector,
    closed_form,
    closed_form_S,
    constraint_check,
    d_vector,
    entropy_state1,
    entropy_vector_direct,
    entropy_vector_recursive_even,
    entropy_vector_recursive_step,
    exp2_sum,
    golden_ratio_reference,
    omega_direct,
    omega_recursive,
    omega_state1,
    upper_bound,
)
from .channel import (
    ChannelMatrix,
    build_channel_matrix,
    channel_pair,
    disjoint_support_check,
    exchange_conjugate,
    invert_channel_matrix,
    invert_two_step,
)
from .dyadic import Dyadic
from .enumeration import (
    OutputDistribution,
    feasibility,
    generate_outputs,
)
from .fractal import (
    AffineMap3,
    GridSemanticsError,
    Ifs,
    ShapeGrid,
    ifs_iterate,
    render_pgm,
    rho_representation,
    sierpinski_ifs,
    tau_transform,
    trapdoor_ifs,
    unit_grid,
)
from .matrices import DyadicMatrix
from .optimize import (
    ConvergenceError,
    OptimizationReport,
    blahut_arimoto,
    mutual_information,
    mutual_information_exact,
    verify_bound,
)
from .serialization import (
    format_dyadic,
    parse_dyadic,
    read_matrix_csv,
    write_matrix_csv,
    write_pgm,
    write_png,
)

__version__ = "0.1.0"
