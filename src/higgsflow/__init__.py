"""Desk-scale numerical laboratory for Higgs bundles on flat complex tori.

Discretizes matrix-valued form calculus on periodic grids, runs the metric
and pair gradient flows, and checks the curvature/energy identities,
extension constructions and filtration certificates at desk scale.
"""

from .grid import (TorusBase, MatrixFormField, dbar_flat, d_flat, wedge,
                   pointwise_inner, pointwise_norm2, sup_norm,
                   integrate, integrate_top_form, tr_field)
from .geometry import (HermitianMetric, HiggsStructure, HiggsBundleState,
                       ValidityReport, validate_structure, adjoint_field,
                       Curvature)
from .flows import (FlowTrace, FlowResult, einstein_deviation,
                    complex_gauge_apply, gauge_from_metric,
                    run_donaldson_flow, run_ymh_flow, flow_equivalence_check,
                    EquivalenceReport)
from .diagnostics import (ChernWeilReport, chern_weil_report,
                          TopologicalIntegrals, topological_integrals,
                          FlatnessCertificate, flatness_certificate)
from .extensions import (HiggsSubbundle, SubbundleReport, subbundle_report,
                         ExtensionData, split_extension, GaussCodazziReport,
                         gauss_codazzi_blocks, RhoSweepRow, rho_sweep,
                         InvariantSectionReport, invariant_section_check,
                         FiltrationReport, verify_filtration,
                         assemble_filtration_metric)
from .scenarios import (Scenario, scenario_catalog, get_scenario,
                        build_scenario, scenario_subbundles,
                        random_valid_state, random_state_with_subbundle)
from .snapshots import save_state, load_state

__version__ = "0.1.0"
