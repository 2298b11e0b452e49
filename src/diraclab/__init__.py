"""diraclab: exact and numerically certified Poisson/Dirac geometry on charts."""

from .fields import (
    Chart,
    PolyKForm,
    PolyKVector,
    PolyMap,
    PolyScalar,
    cotangent_chart,
    differential,
    exterior_derivative,
    lie_derivative,
)
from .poisson import (
    LeafData,
    LieAlgebroidData,
    PoissonBivector,
    algebroid_to_linear_poisson,
    bracket,
    is_poisson,
    jacobiator,
    leaf_data_at_point,
    lie_poisson,
    linear_poisson_to_algebroid,
    standard_symplectic_poisson,
)
from .dirac import (
    GaugeTransform,
    GeneralizedSection,
    LagrangianFrame,
    check_poisson_map,
    courant_bracket,
    gauge_poisson,
    graph_of_poisson,
    integrability_tensor,
    pairing,
    pullback_dirac_at_point,
)
from .realization import (
    RealizationConfig,
    SprayField,
    default_spray,
    invariant_vector_fields,
    realization_form,
    source_target,
    verify_dual_pair,
)
from .maningroup import (
    GroupChart,
    ManinTriple,
    MetrizedLieAlgebra,
    builtin_triples,
    check_manin_triple,
    check_metrized,
    dressing_action,
    drinfeld_bivector,
    homogeneous_space_check,
    verify_multiplicativity,
)

__version__ = "0.1.0"
