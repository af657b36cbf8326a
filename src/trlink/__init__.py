"""Link-level simulator for time-reversal precoding in rich-multipath
sub-THz channels, with receive-spatial-modulation (RASK/ERASK) evaluation
on a non-coherent power-detector receiver.

The package exports the experiment boundary only: scenarios and ensemble
files are checked once, when they are loaded, and the experiments run on
what loaded. The stage functions (channels, precoding, detection, DSP) live
in their modules and trust their arguments.
"""

from .channel import export_ensemble, load_ensemble
from .dsp import NUMERIC_RTOL
from .errors import ConfigurationError, DomainError, TrLinkError
from .harness import (
    BerRecord,
    Scenario,
    derive_seed,
    grid_positions,
    load_scenario,
    run_ber_sweep,
    run_focusing_experiment,
    run_sounding_study,
)
from .precoding import FocusingReport

__version__ = "0.1.0"

__all__ = [
    "BerRecord",
    "ConfigurationError",
    "DomainError",
    "FocusingReport",
    "NUMERIC_RTOL",
    "Scenario",
    "TrLinkError",
    "derive_seed",
    "export_ensemble",
    "grid_positions",
    "load_ensemble",
    "load_scenario",
    "run_ber_sweep",
    "run_focusing_experiment",
    "run_sounding_study",
]
