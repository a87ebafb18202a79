"""Density and VC-dimension toolkit for subgraphs of Cartesian products."""

from .graph import (FactorGraph, GraphError, complete_graph, cycle_graph,
                    from_edgelist, path_graph, star_graph, to_edgelist)
from .density import (DensityReport, ForestDecomposition, arboricity,
                      bounded_outdegree_orientation, dens, densest_subgraph,
                      forest_decomposition, mad)
from .products import (ProductSpace, ProductSubgraph, Subproduct, instance_from_json,
                       instance_to_json, octahedron, project_factor, trace)
from .vc import (Found, MinorPartition, compute_vc_report, shatters_minor,
                 shatters_subproduct, vcd_induced, vcd_minor, vcdens_induced,
                 vcdens_minor)
from .reductions import ReductionStep, reduce_edge, reduce_opposite_pair
from .classes import (ChordalCertificate, DismantlingCertificate,
                      chordal_certificate, clique_number, min_dismantling_order,
                      suboctahedron_structure)
from .labeling import LabelScheme, decode, encode
from .harness import generate, run_suite

__version__ = "0.1.0"
