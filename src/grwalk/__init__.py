"""Exact analysis and float simulation of Grover walks on finite graphs
with semi-infinite tails and constant (alternating) inflow.

The package computes the exact rational stationary state of the walk,
its scattering matrix and comfortability (stored energy), reconstructs
the state through Laplacian / signless-Laplacian potentials, counts the
spanning-tree and odd-unicyclic factors behind the closed-form energy,
and reproduces the small-graph catalogs; a double-precision simulator
witnesses convergence of the dynamics to the exact state.
"""
from .graphs import (Bipartition, Graph, GraphError, InstanceParseError,
                     WalkInstance, bipartition, canonical_form,
                     complete_graph, cycle_graph, enumerate_connected,
                     odd_cycle_witness, parse_instance, path_graph,
                     standard_instance, star_graph)
from .ratlin import RatMatrix, SingularMatrixError, format_rational, \
    parse_rational, rat
from .stationary import (ArcField, ScatteringReport, comfortability_direct,
                         internal_operator, outflow, predicted_scattering,
                         scattering, source_vector, stationary_state,
                         unit_stationary_states, with_inflow)
from .potential import (AuditReport, CurrentDecomposition, VertexField,
                        bipartite_route, incidence_nonoriented,
                        incidence_oriented, kirchhoff_audit, laplacian,
                        nonbipartite_route, signless_laplacian)
from .factors import (FactorCounts, FactorMismatchError, closed_form_comfort,
                      cycle_incidence_check, factor_counts,
                      odd_unicyclic_sums, spanning_tree_count,
                      two_forest_count)
from .simulate import SimulationTrace, TruncatedState, contraction_rate, \
    simulate, step, write_trace_csv
from .catalog import (AnalysisReport, CatalogRow, RankReport, analyze,
                      gamma_graphs, rank, selftest, standard_sweep)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
