"""Two-component mixture modeling of epoch-structured voxel time series.

Fits, per voxel, a responding model (scaled response shape plus
Kronecker-structured noise across epochs and within-epoch samples) and
a non-responding model (white noise), mixed with a shared responding
probability, by generalized EM. On top of the fit: amplitude t-tests
under the fitted covariance with adaptive FDR control and spatial
clustering, principal-component analysis of trial-to-trial response variability,
and information-criterion comparison of nested model variants.

Importing the package loads none of its modules: each name is imported
from the module that defines it, e.g. ``from trialmix.em import em_fit``.
"""

__version__ = "0.1.0"
