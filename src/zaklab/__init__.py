"""zaklab: a verification laboratory for low-regularity well-posedness
thresholds of the one-dimensional Zakharov system.

Subpackages cover exact rational admissibility algebra (params), Fourier
lattices with the discrete hat-Sobolev data norm and rough data (grids),
quadrature certification of the trilinear kernel suprema (kernels), a
pseudospectral integrator with empirical flow-map probes (solver), and a
reproducible command-line front end (cli, reports).
"""

__version__ = "0.1.0"


class ZaklabError(ValueError):
    """Base of the library's domain errors, which the CLI reports with exit 2."""
