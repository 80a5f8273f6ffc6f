import os
import sys
from pathlib import Path

# one BLAS thread before numpy loads: verdicts near the closure bounds and
# validation times depend on the thread count (the package itself sets nothing)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import HealthCheck, settings  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
