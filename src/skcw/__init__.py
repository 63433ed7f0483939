"""Numerical laboratory for the Sherrington-Kirkpatrick model with a
Curie-Weiss coupling in the paramagnetic regime.

Subpackages / modules:

* ``combinat``    -- exact integer combinatorics (Catalan weights, doubled
  Chebyshev polynomials, generating-function coefficients, walk moments).
* ``randmat``     -- reproducible Gaussian coupling matrices and trace
  utilities.
* ``cycles``      -- signed cycle statistics and their Chebyshev
  linear-spectral-statistic approximations.
* ``gibbs``       -- Hamiltonian, exact log partition functions, likelihood
  ratios and the Gaussian limit-law parameters.
* ``experiments`` -- replicated Monte Carlo runs, statistics and reports.
* ``cli``         -- command line front end (``skcw`` entry point).
"""

__version__ = "0.1.0"
