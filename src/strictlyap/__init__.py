"""strictlyap: strict ISS/DIS Lyapunov function construction and validation.

Turn a non-strict Lyapunov function with a persistently exciting decay rate
into a strict one of the form V#(t,x) = V(t,x) + xi(t) w(V(t,x)), and check
every inequality involved by deterministic sampling, coordinate-descent
refinement of each check's worst sample, and ODE simulation.
"""

from .decay import (DecayRate, PEEstimate, PETriple, estimate_pe,
                    NotPersistentlyExcitingError, underline_p, xi)
from .dynsys import (BlowUpError, ControlSystem, Signal, Trajectory,
                     close_loop, integrate)
from .funcalc import (GainFunction, KLFunction, BracketNotFoundError,
                      compose, gain_from_expr, identity_gain, inverse_gain,
                      invert, rescale_kl)
from .strictify import (LyapunovCandidate, SlopeBoundViolatedError,
                        StrictCertificate, UnboundedSupError,
                        ValidationFailedError, build_alpha2_tilde, build_w,
                        construct_omega, dis_to_issp_chi, strictify_disp,
                        strictify_from_state_form, strictify_issp)
from .verify import (InequalityReport, SampleDomain, check_disp_lyap,
                     check_iss_estimate, check_issp_lyap,
                     check_strict_iss_lyap, check_uppd, fit_iss_envelope,
                     FitFailedError)
from .config import (ConfigError, Problem, load_problem, strictify_problem)
from .errors import ValidationFailure
from .fixtures import get_fixture, FIXTURES, check_reference_admissibility

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "BracketNotFoundError", "ConfigError", "ControlSystem",
    "DecayRate", "FIXTURES", "FitFailedError", "GainFunction",
    "InequalityReport", "KLFunction", "LyapunovCandidate",
    "NotPersistentlyExcitingError", "PEEstimate", "PETriple", "Problem",
    "SampleDomain", "Signal", "SlopeBoundViolatedError", "StrictCertificate",
    "Trajectory", "UnboundedSupError", "ValidationFailedError",
    "ValidationFailure",
    "build_alpha2_tilde", "build_w", "check_disp_lyap", "check_iss_estimate",
    "check_issp_lyap", "check_reference_admissibility",
    "check_strict_iss_lyap", "check_uppd", "close_loop", "compose",
    "construct_omega", "dis_to_issp_chi", "estimate_pe",
    "fit_iss_envelope", "gain_from_expr", "get_fixture", "identity_gain",
    "integrate", "inverse_gain", "invert", "load_problem",
    "rescale_kl", "strictify_disp", "strictify_from_state_form",
    "strictify_issp", "strictify_problem", "underline_p", "xi",
]
