"""Budget-restricted random graph process: simulator, builder strategies,
and a Monte Carlo harness for the diamond / k-fan budget thresholds.

The Python API is imported from the modules (`process`, `detect`,
`strategies`, `experiments`, `errors`, `rng`, `cli`); the top level keeps
only the four names the benchmark's setup imports."""

__version__ = "0.3.0"

from .process import ProcessConfig, new_process  # noqa: F401
from .strategies import build_strategy, select_strategy  # noqa: F401
