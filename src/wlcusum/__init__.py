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

from . import calibration, detectors, epidata, growth, models, montecarlo
from .models import *
from .growth import *
from .calibration import *
from .detectors import *
from .montecarlo import *
from .epidata import *

__version__ = "0.1.0"

# every public name of the modules, in model-to-monitor order
__all__ = [*models.__all__, *growth.__all__, *calibration.__all__, *detectors.__all__,
           *montecarlo.__all__, *epidata.__all__, "__version__"]
