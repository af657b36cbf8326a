"""Link-level simulator for time-reversal precoding in rich-multipath
sub-THz channels, with receive-spatial-modulation (RASK/ERASK) evaluation
on a non-coherent power-detector receiver.
"""

from .channel import (
    CavityParams,
    Cir,
    SoundingConfig,
    SpatialChannelEnsemble,
    export_ensemble,
    load_ensemble,
    sound_cir,
    synth_cavity_ensemble,
)
from .dsp import NUMERIC_RTOL, convolve, make_chirp, xcorr
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
from .modem import (
    DetectionWindow,
    FixedThreshold,
    PilotThreshold,
    RsmConfig,
    Scheme,
    calibrate_threshold,
    erask_modulate,
    power_detect,
    rask_modulate,
)
from .precoding import (
    FocusingReport,
    focusing_report,
    focusing_report_to_csv,
    propagate,
    pulse_responses,
    received_at,
    tr_kernel,
    tr_precode,
)

__version__ = "0.1.0"

__all__ = [
    "BerRecord",
    "CavityParams",
    "Cir",
    "ConfigurationError",
    "DetectionWindow",
    "DomainError",
    "FixedThreshold",
    "FocusingReport",
    "NUMERIC_RTOL",
    "PilotThreshold",
    "RsmConfig",
    "Scenario",
    "Scheme",
    "SoundingConfig",
    "SpatialChannelEnsemble",
    "TrLinkError",
    "calibrate_threshold",
    "convolve",
    "derive_seed",
    "erask_modulate",
    "export_ensemble",
    "focusing_report",
    "focusing_report_to_csv",
    "grid_positions",
    "load_ensemble",
    "load_scenario",
    "make_chirp",
    "power_detect",
    "propagate",
    "pulse_responses",
    "rask_modulate",
    "received_at",
    "run_ber_sweep",
    "run_focusing_experiment",
    "run_sounding_study",
    "sound_cir",
    "synth_cavity_ensemble",
    "tr_kernel",
    "tr_precode",
    "xcorr",
]
