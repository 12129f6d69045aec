"""Kept only because perfbench/worker.py records NUMBA_ENABLED in its provenance."""

NUMBA_ENABLED = False  # there is no compiled kernel variant
