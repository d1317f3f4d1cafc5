"""Divide-and-color representability of threshold Gaussian and symmetric
stable vectors: exact representation formulas, LP feasibility, matrix
condition classifiers, small- and large-threshold asymptotics, stable
spectral-measure limits, and exact path-embedding samplers."""

from .asymptotics import (AltExampleConstants, SmallHLimits3, StableLimitReport,
                          alt_example_constants, gamma_factor, phase_transition_alpha,
                          small_h_limits_3, small_h_positive_families,
                          stable_limit_report, stable_order1_limit,
                          stable_order2_limit_101_markov,
                          stable_order2_limit_101_symmetric)
from .conditions import (ABRegion, ConditionReport, LargeHVerdict, SavageStatus,
                         ab_region_classify, classify_degenerate, classify_large_h_3,
                         is_dgff, is_inverse_stieltjes, savage_report, savage_vector)
from .embeddings import (ColorPropertyReport, EmbeddingBatch, ou_partition_batch,
                         ou_star_partition_batch, stable_chain_partition_batch,
                         stable_star_partition_batch, verify_color_property)
from .gaussian import (CovarianceSpec, ab_cov, bivariate_threshold_exact,
                       correlations3, fully_symmetric_cov, markov_chain_cov,
                       pair_cluster_weight, sheppard_pair, square_on_sphere_cov,
                       square_threshold_law_exact, symmetric_plus_mean_cov,
                       tail_asymptote, threshold_law_mc, zero_threshold_law_3)
from .partitions import (BinaryLaw, Partition, PartitionDistribution, bell_number,
                         color_map, enumerate_partitions, marginalize_partition,
                         push_forward, simulate_color_process)
from .reports import ClassificationReport, Regime, Verdict
from .solver import (FeasibilityResult, SignedRep3, SymmetricRepFamily3, lp_feasibility,
                     signed_rep_3, symmetric_plus_mean_gap, symmetric_rep_family_3)
from .stable import (Corr2DVerdict, SpectralMeasure, StableLinearModel,
                     common_shock_model, corr2d_criterion, corr2d_inequality_mc,
                     corr2d_model, sample_pos_stable, sample_sym_stable,
                     spectral_from_matrix, stable_markov_model,
                     stable_threshold_law_mc, stablegood_integral,
                     subordinator_scale, two_weight_symmetric_model)

__version__ = "0.1.0"
