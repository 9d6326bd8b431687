"""Group-subgroup pair graphs: construction, structure, spectra, Ramanujan search."""

from .actions import (
    SearchConfig,
    SearchResult,
    apply_automorphism,
    automorphism_group,
    generating_set_orbit,
    random_candidate,
    right_translate_set,
    search_ramanujan,
)
from .errors import (
    EigensolverError,
    IdentityInGeneratingSet,
    IndexNotTwo,
    NotASubgroup,
    NotAnAutomorphism,
    NotConnected,
    NotRegular,
    PairGraphError,
    SizeCapExceeded,
    SymmetryViolation,
    ValidationError,
)
from .graphs import (
    PairGraph,
    adjacency_rows_via_group_matrix,
    build_pair_graph,
    degree_profile,
    graph_to_dot,
    graph_to_json,
    is_cayley_reduction,
    isolated_vertices,
    regularity_check,
)
from .groups import (
    FiniteGroup,
    GeneratingSet,
    Subgroup,
    field_norm_preimage,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_field_additive,
    make_gl2,
    make_sl2,
    make_symmetric,
    perm_from_cycles,
    perm_index,
    subgroup_from_elements,
    subgroup_generated,
    validate_generating_set,
)
from .spectral import (
    RamanujanReport,
    Spectrum,
    TrivialEigenvalues,
    compare_complementary_spectra,
    compute_spectrum,
    is_ramanujan,
    largest_eigenvalue_multiplicity,
    ramanujan_size_bound,
    trivial_eigenvalues,
    zero_multiplicity_lower_bound,
)
from .structure import (
    ComponentDecomposition,
    component_count_by_formula,
    connected_components,
    identity_component_by_closure,
    is_bipartite,
    is_connected,
    sign_homomorphism_exists,
)

__version__ = "0.1.0"
