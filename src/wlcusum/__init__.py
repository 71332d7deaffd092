"""Window-limited CuSum change detection with non-stationary post-change models.

Quick start::

    import numpy as np
    from wlcusum import GemModel, WlCusum, cusum_threshold, window_size, GrowthCurve

    model = GemModel(mu0=0.1, sigma0_sq=1e4, theta=0.4)
    alpha = 1e-3
    b = cusum_threshold(alpha)
    m = window_size(GrowthCurve(model), alpha)
    det = WlCusum(model, threshold=b, window=m)
    for x in np.random.default_rng(7).normal(0.1, 100.0, size=200):
        out = det.step(x)
        if out.alarm:
            break
"""

from .models import (
    SupportError,
    ObservationModel,
    GemModel,
    DecayModel,
    BetaWaveModel,
    wave_multiplier,
    build_model,
)
from .growth import GrowthCurve, check_growth_condition, lemma1_diagnostics
from .calibration import (
    CalibrationError,
    cusum_threshold,
    unit_ball_volume,
    glr_threshold,
    window_size,
    gem_epsilon,
)
from .detectors import (
    DetectorOutput,
    WlCusum,
    FullCusum,
    WlGlr,
    SrStatistic,
    theta_grid,
    run_until_alarm,
)
from .montecarlo import (
    TrialPlan,
    DelayEstimate,
    QqReport,
    run_trials,
    estimate_mtfa,
    estimate_add,
    operating_characteristic,
    geometric_qq,
)
from .epidata import (
    CaseSeries,
    FractionSeries,
    BetaFit,
    WaveFit,
    MonitorResult,
    load_case_csv,
    to_fraction_series,
    fit_beta_prechange,
    fit_wave_shape,
    monitor,
)

__version__ = "0.1.0"

__all__ = [
    "SupportError",
    "ObservationModel",
    "GemModel",
    "DecayModel",
    "BetaWaveModel",
    "wave_multiplier",
    "build_model",
    "GrowthCurve",
    "check_growth_condition",
    "lemma1_diagnostics",
    "CalibrationError",
    "cusum_threshold",
    "unit_ball_volume",
    "glr_threshold",
    "window_size",
    "gem_epsilon",
    "DetectorOutput",
    "WlCusum",
    "FullCusum",
    "WlGlr",
    "SrStatistic",
    "theta_grid",
    "run_until_alarm",
    "TrialPlan",
    "DelayEstimate",
    "QqReport",
    "run_trials",
    "estimate_mtfa",
    "estimate_add",
    "operating_characteristic",
    "geometric_qq",
    "CaseSeries",
    "FractionSeries",
    "BetaFit",
    "WaveFit",
    "MonitorResult",
    "load_case_csv",
    "to_fraction_series",
    "fit_beta_prechange",
    "fit_wave_shape",
    "monitor",
    "__version__",
]
