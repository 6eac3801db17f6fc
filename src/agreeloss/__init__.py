"""Agreement-based loss functions, extremum estimators, and experiments."""

__version__ = "0.1.0"
