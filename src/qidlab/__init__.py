"""qidlab: constructive zero-free approximation of univariate
probability laws with certified total-variation error, spectral-pair
extraction for lattice laws, and desk-scale demonstrations of the
non-approximability phenomena for non-lattice discrete laws."""

from .charfn import (CharFn, ZeroFreeCertificate, decay_window, imag_zero_scan,
                     min_modulus_scan)
from .dist import (Atom, DensityLaw, DiscreteLaw, Law, SupportInfo,
                   continuous_bernoulli, convolve, density_from_callable,
                   is_shift_symmetric, l1_modulus, law_from_atoms,
                   law_from_density, mass_on_interval, mix, point_mass,
                   restrict_density, support_info, tv_distance, uniform_density)
from .errors import (InputError, LawShapeError, MethodError, NotLatticeError,
                     PipelineError, QidlabError, SelectionUnverifiableError,
                     SpectralExtractionError)
from .impossibility import (InfScanReport, KutluScan, inf_scan, kutlu_phi,
                            kutlu_zero_scan, one_period_floor, parse_alpha,
                            three_point_cf)
from .pipelines import (ApproxResult, approximate_abs_cont, approximate_lattice,
                        approximate_mixture, truncate_density, truncate_lattice)
from .spectral import (SpectralPair, lattice_spectral_pair, pair_roundtrip_error,
                       reconstruct_cf)
from .zerofree import DeltaSelection, bad_delta_set, select_delta

__version__ = "0.1.0"

__all__ = [
    "Atom", "DiscreteLaw", "DensityLaw", "Law", "SupportInfo",
    "law_from_atoms", "law_from_density", "point_mass", "uniform_density",
    "density_from_callable", "continuous_bernoulli", "support_info",
    "is_shift_symmetric", "mix", "convolve", "tv_distance",
    "l1_modulus", "mass_on_interval", "restrict_density",
    "CharFn", "ZeroFreeCertificate",
    "min_modulus_scan", "decay_window", "imag_zero_scan",
    "DeltaSelection", "bad_delta_set", "select_delta",
    "ApproxResult", "truncate_density", "truncate_lattice",
    "approximate_abs_cont", "approximate_lattice", "approximate_mixture",
    "SpectralPair", "lattice_spectral_pair", "reconstruct_cf",
    "pair_roundtrip_error",
    "KutluScan", "InfScanReport", "kutlu_phi", "kutlu_zero_scan",
    "three_point_cf", "inf_scan", "one_period_floor", "parse_alpha",
    "QidlabError", "InputError", "LawShapeError", "NotLatticeError",
    "MethodError", "SelectionUnverifiableError",
    "SpectralExtractionError", "PipelineError",
]
