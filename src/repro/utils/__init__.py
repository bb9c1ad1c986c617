"""Shared utilities: seeding, CPU-aware parallel defaults, result tables,
logging, plotting, persistence."""

from repro.utils.seeding import get_rng, set_global_seed
from repro.utils.parallel import available_cpu_count, default_worker_count
from repro.utils.tables import ResultTable
from repro.utils.logging import TrainingLogger
from repro.utils.plotting import ascii_heatmap, ascii_series, box_series_table

# Note: repro.utils.persistence is intentionally not re-exported here -- it
# depends on the experts/nn layers above this package; import it directly as
# ``from repro.utils.persistence import save_cocktail_result``.

__all__ = [
    "get_rng",
    "set_global_seed",
    "available_cpu_count",
    "default_worker_count",
    "ResultTable",
    "TrainingLogger",
    "ascii_series",
    "ascii_heatmap",
    "box_series_table",
]
