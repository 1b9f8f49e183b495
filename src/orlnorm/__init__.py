"""Orlicz modulars and the norms generated by lattice norms on the plane.

The package computes the Luxemburg norm, the dual (sum-type) norm and the
general family  inf_{k>0} (1/k) p((1, I(kx)))  indexed by a planar lattice
norm p, and ships desk-scale verifiers for the geometry of the resulting
spaces: norm axioms, sandwich/ordering bounds, attainment, strict
convexity, the monotonicity hierarchy, and constructive embeddings of the
bounded-sequence space.
"""
from .catalog import (catalog_orlicz_functions, catalog_planar_norms,
                      strictly_monotone_planar_norms)
from .engine import (K_CAP, LemmaBounds, NormResult, generated_norm,
                     generated_norm_on_grid, lemma_bounds_check, luxemburg_norm,
                     orlicz_dual_norm)
from .errors import ContractError, DomainError, PreconditionError
from .orlicz import (REGIME_GLOBAL, REGIME_INFINITY, REGIME_ZERO, ConvexityProbe,
                     Delta2Report, OrliczFunction, delta2_check, exp_minus,
                     flat_then_power, orlicz_from_descriptor, piecewise_linear, power,
                     strict_convexity_probe, young_conjugate, young_conjugate_many)
from .planar import (MonotonicityModulusTable, ModulusResult, PlanarNorm,
                     ValidationReport, boundary_sampled, build_modulus_table,
                     check_lattice_axioms, is_strictly_increasing_on_ray, l1, linf, lq,
                     modulus_diagnostics, modulus_of_monotonicity, planar_from_descriptor,
                     strictly_monotone_probe, verify_sandwich)
from .spaces import (MeasureSpace, OrderOps, SimpleFunction, dominated_pair_sample,
                     function_from_descriptor, measure_space, modular, modular_on_grid,
                     order_ops, simple_function, space_from_descriptor, unit_weights)
from .verify import (SUITE_IDS, LinfEmbeddingWitness, TheoremReport, build_linf_witness,
                     lower_local_um_estimate, replay_violation, run_suites,
                     suitable_delta2_regime, suite_attainment, suite_decomposition_estimate,
                     suite_lower_local_um, suite_modular_norm_equivalence,
                     suite_norm_axioms, suite_order_continuity, suite_sandwich_ordering,
                     suite_strict_convexity, suite_strict_monotonicity,
                     suite_uniform_monotonicity, suite_unit_ball_bounds)

__version__ = "0.1.0"
