"""DNS DoS detection testbed: traffic simulation, windowed features, classifiers."""

__version__ = "0.1.0"

# The variables that set the BLAS thread count; numpy reads them once, on import.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
