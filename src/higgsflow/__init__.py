"""Desk-scale numerical laboratory for Higgs bundles on flat complex tori.

Discretizes matrix-valued form calculus on periodic grids, runs the metric
and pair gradient flows, and checks the curvature/energy identities,
extension constructions and filtration certificates at desk scale.
"""

from .grid import (TorusBase, MatrixFormField, dbar_flat, d_flat, wedge,
                   pointwise_norm2, sup_norm,
                   integrate, integrate_top_form, tr_field)
from .geometry import (HermitianMetric, HiggsStructure, HiggsBundleState,
                       validate_structure, adjoint_field, Curvature)
from .flows import (FlowTrace, FlowResult, einstein_deviation,
                    complex_gauge_apply, run_donaldson_flow, run_ymh_flow,
                    flow_equivalence_check)
from .diagnostics import (chern_weil_report, topological_integrals,
                          flatness_certificate)
from .extensions import (HiggsSubbundle, subbundle_report, ExtensionData,
                         split_extension, gauss_codazzi_blocks, rho_sweep,
                         invariant_section_check, verify_filtration,
                         assemble_filtration_metric)
from .scenarios import (scenario_catalog, get_scenario, build_scenario,
                        scenario_subbundles, random_valid_state,
                        random_state_with_subbundle)
from .snapshots import save_state, load_state

__version__ = "0.1.0"
