"""mildheat: a numerical laboratory for absorbing-boundary heat flow with
measure initial data.

Subpackages cover explicit Dirichlet heat kernels on the whole space, the
half-space and the interval (``kernels``), nonnegative Radon measures with
interior, surface and atomic parts (``measures``), singularity-aware
adaptive quadrature (``quadrature``), monotone Picard construction of mild
solutions and the scale dichotomy sweep (``solver``), initial-trace
recovery (``trace``), numeric solvability criterion checks
(``criteria``), the differential-inequality threshold bound
(``cutoffs``), and a config-driven batch experiment runner (``cli``).
"""

__version__ = "0.1.0"
