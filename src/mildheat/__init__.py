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

``scipy.integrate`` and ``scipy.optimize`` are imported where they are
called, never at module import: the solver uses neither, and importing
both added about 30 MB and 0.2 s to every process that loads the CLI.
"""

__version__ = "0.1.0"
