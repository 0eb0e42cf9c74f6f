"""Continuous-time hydrodynamic force forecasting toolkit."""

__version__ = "0.1.0"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
"""The environment variables that set BLAS's and OpenMP's thread counts;
numpy's BLAS reads them once, when numpy is first imported."""
