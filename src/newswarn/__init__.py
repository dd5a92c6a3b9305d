"""newswarn: district-level food-crisis early warning from news streams."""

import os

# Threaded BLAS splits its reductions by thread count, which moves the last
# bits of fits and so of downstream outputs. One thread makes a bundle
# byte-identical whatever the core count or the caller's thread settings. The
# pin takes effect only when newswarn is imported before numpy, as the command
# line does.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                "1"))

from .config import PipelineConfig, load_config
from .errors import ConfigError, DataError, NumericalError, PipelineError
from .pipeline import run_pipeline
from .synth import PlantedFeature, SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "NumericalError",
    "PipelineConfig",
    "PipelineError",
    "PlantedFeature",
    "SyntheticSpec",
    "generate_synthetic",
    "load_config",
    "run_pipeline",
    "__version__",
]
