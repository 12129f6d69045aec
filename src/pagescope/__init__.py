"""pagescope: huge-page experiment harness with a desk-scale DTLB model.

Subpackages by job:
  counterhub  - counter sessions and named region attribution
  metrics     - derived performance measures and with/without ratios
  hugepagectl - meminfo/THP observation, launch plans, usage verdicts
  blockmesh   - block-mesh array geometry, traces, and sum workloads
  tlbsim      - LRU TLB replay with an independent stack-distance oracle
  report      - experiment orchestration, tables, charts, capability doctor
"""

__version__ = "0.1.0"

from ._kernels import NUMBA_ENABLED  # noqa: F401
