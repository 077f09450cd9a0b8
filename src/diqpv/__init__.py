"""Device-independent quantum position verification at desk scale.

Trial simulation, certified statistical test factors, the calibration
and analysis pipeline with p-value accumulation and entanglement bounds,
and spacetime target-region geometry.  The CLI entry point is
diqpv.cli:main; the submodules carry the library API:

    trialdata    binary trial files, counts tables, settings weights
    polytopes    LR / no-signaling / quantum-set polytopes and LP support
    estimation   maximum-likelihood calibration fitting, regularization
    testfactor   factor construction, certification, mixing with unity
    protocol     instance scoring, planning, run segmentation
    simulator    honest and adversarial trial models, trial sampling
    geometry     target regions, sizes, quantum-advantage ratios
    reference    bundled reference calibration counts and timing survey
"""

__version__ = "0.1.0"

from .errors import (
    AnalysisAbort,
    CertificationError,
    DegenerateDataError,
    DiqpvError,
    EmptyRegionError,
    InfeasiblePlanError,
    LpStructureError,
    UselessFactorError,
)

__all__ = [
    "__version__",
    "AnalysisAbort",
    "CertificationError",
    "DegenerateDataError",
    "DiqpvError",
    "EmptyRegionError",
    "InfeasiblePlanError",
    "LpStructureError",
    "UselessFactorError",
]
