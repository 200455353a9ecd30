"""Laplace kernels for an infinite ground plane with a circular hole,
with a collocation BEM and benchmark experiments."""

from .errors import (
    DomainError,
    GroundBemError,
    MeshFormatError,
    QuadratureError,
    SolveError,
)
from .harmonics import (
    SpectralConstants,
    build_spectral_constants,
    elliptic_ke,
    solid_harmonics_batch,
)
from .ground_kernel import (
    KernelConfig,
    RadialTable,
    kernel_integral,
    kernel_neumann,
    kernel_series,
    kernel_value,
    radial_table,
    source_signature_batch,
)
from .surface_mesh import (
    EXTENSION,
    GROUND,
    SURFACE,
    DomainSpec,
    PanelMesh,
    load_mesh,
    make_bump_dip_mesh,
    make_flat_disc_mesh,
    make_sphere_mesh,
    mirror_surface_mesh,
    save_mesh,
)
from .bem import (
    BemConfig,
    BemSystem,
    FieldGrid,
    assemble,
    evaluate_field,
    set_boundary_potential,
    set_point_source_rhs,
    solve,
    triangle_single_layer,
    truncated_system,
)
from .experiments import (
    ALPHA_STAR,
    CostModel,
    accuracy_map,
    analytic_bump_potential,
    choose_truncation,
    cost_optimizer,
    measure_cost_curve,
    relative_l2_error,
    run_bump_experiment,
    run_dip_experiment,
)

__version__ = "0.1.0"
