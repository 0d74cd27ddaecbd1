"""Weighted-averaging consensus over time-varying rooted digraphs.

Simulation plus mechanical verification of the quadratic comparison
function machinery: exact per-step decrease identities, adjoint
(absolute probability) sequences, geometric contraction certificates, and
the projection-constrained variant with set-regularity constants.
"""

from .adjoint import (AbsoluteProbabilitySequence, AdjointResidualTooLarge,
                      NotDoublyStochastic, NotErgodicWithinWindow, assemble_adjoint,
                      backward_product_adjoint, permutation_counterexample,
                      stationary_adjoint, uniform_adjoint, window_averaged_product)
from .certificates import CertificateRecord, Certificates, CheckBlock, summarize
from .engine import ConfigError, NotCompliant, RunConfig, RunResult, Trajectory, YNotInX, run
from .graphs import (DiGraph, GraphSequence, NotRooted, SpanningTree, bfs_spanning_tree,
                     random_rooted_graph, regular_tree_graph, roots)
from .lyapunov import (NegativeWeight, VacuousBound, doubly_stochastic_rate_factor,
                       rate_quotient, v_function, vector_contraction_certificate,
                       weighted_variance)
from .sets import (Ball, Box, ConvexSet, DykstraNotConverged, Halfspace, Hyperplane,
                   InteriorBallNotContained, Intersection, RegularityEstimate, distance,
                   dykstra_project, regularity_interior, regularity_sampling,
                   set_from_json_dict)
from .weights import (AsymmetricGraph, ComplianceReport, GammaTooSmall, MatrixSequence,
                      NotThreeRegular, equal_neighbor_weights, laplacian_weights,
                      lazy_metropolis_weights, regular_quarter_weights, verify_compliance)

__version__ = "0.1.0"
