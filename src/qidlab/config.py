"""Numeric defaults.

Library functions take explicit keyword overrides; these constants are
the single place where the default resolutions and tolerances live.
"""

# Density grids: number of cells per unit of support width.
DEFAULT_CELLS = 1024

# Atoms closer than this merge into one (convolution of lattice laws
# produces exact collisions up to float rounding).
ATOM_MERGE_TOL = 1e-12

# Mass-sum tolerances for law validation.
DISCRETE_MASS_TOL = 1e-12
DENSITY_MASS_TOL = 1e-8

# Continuous Bernoulli: |q - 1/2| below this is rejected (the
# normalizing constant degenerates to 0/0 at q = 1/2).
Q_HALF_EXCLUSION = 1e-3

# Shift-symmetry detection tolerance (relative, on masses/samples).
SHIFT_SYMMETRY_TOL = 1e-9

# Lattice detection: relative tolerance on span fitting.
LATTICE_REL_TOL = 1e-9

# Log branch of a lattice polynomial: the modulus floor that spectral
# extraction must prove between its FFT nodes.
LOG_MODULUS_FLOOR = 1e-6

# Local refinement of scan roots and minima. REFINE_XTOL is absolute for
# the root polish (Chandrupatla brackets close below this width, and each
# step moves at least half of it) and relative for the parabolic polish
# of minima (its stencil half-width stops at REFINE_XTOL * (|lo| + |hi|)
# of the bracket). REFINE_TOP is the number of lowest grid minima that
# min_modulus_scan polishes.
REFINE_XTOL = 1e-12
REFINE_TOP = 5

# Delta selection: the window inside which bad mixing weights are
# collected.
BADSET_WINDOW = 64.0 * 3.141592653589793

# Delta selection: candidates tried and the minimal distance the chosen
# delta must keep from every bad delta.
DELTA_CANDIDATES = 8
DELTA_SEPARATION = 1e-6

# Certified-minimum floor under which a candidate delta is rejected.
CERTIFICATE_FLOOR = 1e-9

# CLI verdict threshold: scans refining below this count as "zero found".
ZERO_VERDICT_TOL = 1e-8
