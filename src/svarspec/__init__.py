"""Exact frequency-domain algebra and causal identification for SVAR process graphs."""

from .ratfield import (NEG_INFINITY, P_ONE, P_ZERO, Poly, PoleError, R_ONE,
                       R_ZERO, RatFn, poly_gcd, poly_lcm)
from .ratlinalg import (RatMatrix, SingularMatrixError, det, rank, solve,
                        solve_many)
from .graph import (CyclicGraphError, GraphValidationError, LfhtcCheck,
                    LfhtcOrder, LfhtcTriple, Path, ProcessGraph,
                    TimeSeriesGraph, Trek, count_treks, d_separated,
                    enumerate_paths, enumerate_treks, htr, lfhtc_check,
                    lfhtc_order, lfhtc_prerequisite_edges, lfhtc_search,
                    t_separation_min)
from .svar import (ParameterError, SpectrumBundle, SvarParams,
                   conditional_spectrum, generic_rank, lag_poly,
                   sample_stable_params, spectral_density, spectrum,
                   spectrum_trek, transfer_matrix)
from .identify import (Cpdag, IdentificationCertificate, IdentificationStep,
                       LinkRecoveryError, MissingPrerequisiteError,
                       ZeroInstrumentError, discover_cpdag, identify_all,
                       identify_instrument, lfhtc_identify_step,
                       recover_lag_coefficients, spectral_ci_oracle)

__version__ = "0.1.0"

#: The floating-point layer's names, re-exported on first use: `simulate`
#: loads numpy, which the exact layer never needs.
_SIMULATION = ("EstimationError", "IllConditionedBlockError", "SeriesSample",
               "SimulationError", "SpectrumEstimate", "empirical_ci_test",
               "estimate_spectrum", "exact_spectrum_values", "simulate_series")


def __getattr__(name: str):
    if name in _SIMULATION:
        from . import simulate
        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SIMULATION))
