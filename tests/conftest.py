import freegeo  # noqa: F401  (before any test module loads numpy: sets the BLAS thread count)
