"""Minimum guesswork of quantum ensembles under balanced cost functions.

Computes the minimum expected cost of sequentially guessing which state of a
known ensemble was drawn.  For uniform-prior qubit ensembles the problem is
solved exactly by maximizing |w(n)|^2, w(n) = sum_t (gamma(t) - mean) v(n(t))
over the Bloch vectors v, across numberings n (by a sweep up to M = 8, over
the great-circle arrangement of the Bloch vectors up to the enumeration cap,
in closed form above it for benevolent Bloch Gram matrices); in arbitrary dimension a
sufficient optimality condition certifies two-outcome measurements.
"""

from .costs import CostFunction, compose, cost_function, identity_cost, invert
from .engine import (
    GuessworkReport,
    NumberingMeasurement,
    condition_check,
    effective_operator,
    guesswork_value,
    min_guesswork_general,
    min_guesswork_qubit,
    optimal_two_outcome_measurement,
    simulate,
    solve,
    tracenorm_argmax,
)
from .ensembles import (
    Ensemble,
    antiprism_h_bound,
    constant_overlap_check,
    generate_mub,
    generate_polygon_antiprism,
    generate_random_uniform_prior,
    generate_sic,
    is_uniform_prior,
    validate,
)
from .errors import NumericalCheckError
from .operators import (
    SpectralParts,
    from_bloch,
    pauli_vector,
    spectral_parts,
    trace_norm,
)
from .qap import (
    BenevolenceReport,
    arrangement_solve,
    benevolent_solve,
    bloch_gram,
    find_benevolent_permutation,
    is_benevolent,
    zigzag_numbering,
)

__version__ = "0.1.0"
