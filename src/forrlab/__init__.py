"""forrlab: a stopped-diffusion sampling laboratory.

The package simulates a correlated Brownian motion stopped at the boundary
of the solid cube [-1/2, 1/2]^N, analyzes Boolean functions through their
multilinear (Fourier) expansions, computes the forrelation statistic and
the matching one-query acceptance probability, and packages every identity
and bound the construction relies on as an executable, seed-reproducible
check.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
