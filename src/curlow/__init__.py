"""Low-rank matrix recovery from uniformly sampled columns, rows, and
entries, plus an empirical lab for the error and concentration bounds
that govern when the recovery works.
"""

__version__ = "0.1.0"
