"""Verblunsky coefficients of q-Gamma weights and the discrete Painleve
structure they carry: moment tables, the Szego recursion, fitted q-difference
spectral matrices, the birational step in three equivalent forms, the exact
lattice translation behind it, and the continuum limit."""

__version__ = "0.1.0"

from .errors import (ChartError, ConfigError, ConsistencyError,
                     ConstraintError, ConvergenceError, DegenerateError,
                     DegreeError, DomainError, FitError, GaugeError,
                     IndeterminacyError, NumericalError, PoleError,
                     PrecisionError, QpviError, SingularGaugeError,
                     SingularMeasureError, SingularityError, StepFailure)
from .qseries import MomentTable, QWeightParams, moments
from .opuc import VerblunskyTable, verblunsky_from_moments
from .laxpair import SpectralFit, fit_spectral_matrix
from .painleve import (SurfaceCoords, SurfaceParams, params_from_weight,
                       phi_orbit, phi_step)
from .continuum import LimitParams, limit_check
from .verify import run_all
