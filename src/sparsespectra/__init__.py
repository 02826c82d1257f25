"""Spectra of heterogeneous random multigraphs and their limit laws.

Sampling (configuration-model and poissonized multigraphs over prescribed
degree profiles), empirical spectra, the fixed-point Stieltjes solver for
the limiting density, and closed-form support analysis including the
two-atom hole phase diagram.
"""

from .degrees import (
    DegreeGroup,
    DegreeSequence,
    build_degree_sequence,
    build_grouped_degrees,
)
from .families import ContinuousLaw, OnePlusExponential, UniformLaw
from .graphs import (
    Multigraph,
    extend_configuration,
    sample_configuration,
    sample_poissonized,
    scaled_adjacency,
    scaled_adjacency_distance,
    scaled_adjacency_pair,
)
from .limit_law import (
    ConvergenceError,
    DensityCurve,
    density_curve,
    density_mp,
    quantize_measure,
    solve_g,
    stieltjes_mu,
    symmetric_grid,
)
from .measures import (
    DiscreteMeasure,
    kolmogorov_distance,
    kolmogorov_vs_cdf,
    wasserstein1,
)
from .spectrum import (
    eigenvalues_symmetric,
    eigenvalues_symmetric_pair,
    freedman_diaconis_histogram,
    write_histogram_csv,
    write_spectrum_csv,
)
from .support import (
    SupportIntervals,
    TwoAtomLaw,
    phase_diagram,
    support_mp,
    two_atom_discriminant,
    two_atom_has_hole,
    two_atom_threshold,
    xi,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuousLaw",
    "ConvergenceError",
    "DegreeGroup",
    "DegreeSequence",
    "DensityCurve",
    "DiscreteMeasure",
    "Multigraph",
    "OnePlusExponential",
    "SupportIntervals",
    "TwoAtomLaw",
    "UniformLaw",
    "build_degree_sequence",
    "build_grouped_degrees",
    "density_curve",
    "density_mp",
    "eigenvalues_symmetric",
    "eigenvalues_symmetric_pair",
    "extend_configuration",
    "freedman_diaconis_histogram",
    "kolmogorov_distance",
    "kolmogorov_vs_cdf",
    "phase_diagram",
    "quantize_measure",
    "sample_configuration",
    "sample_poissonized",
    "scaled_adjacency",
    "scaled_adjacency_distance",
    "scaled_adjacency_pair",
    "solve_g",
    "stieltjes_mu",
    "support_mp",
    "symmetric_grid",
    "two_atom_discriminant",
    "two_atom_has_hole",
    "two_atom_threshold",
    "wasserstein1",
    "write_histogram_csv",
    "write_spectrum_csv",
    "xi",
]
