"""pagescope: huge-page experiment harness with a desk-scale DTLB model.

Subpackages by job:
  counterhub  - counter sessions and named region records
  metrics     - derived performance measures and with/without ratios
  hugepagectl - meminfo/THP observation, launch plans, usage verdicts
  blockmesh   - block-mesh array geometry, traversal runs that drive both
                traces and sum workloads, the built-in workload names
                (WORKLOAD_PATTERNS)
  tlbsim      - LRU TLB replay with an independent stack-distance oracle
  report      - experiment orchestration, tables, charts, capability doctor
  render      - text tables, CSV and SVG bar charts of reports
  cli         - the `pagescope` command; `trace` and `tlbsim` load only
                blockmesh, tlbsim and hugepagectl
  _kernels    - only NUMBA_ENABLED, which the benchmark's provenance reads
"""

__version__ = "0.1.0"
