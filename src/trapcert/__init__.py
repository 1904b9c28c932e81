"""Layered-cube scatterer construction with numerical certificates.

The package builds arrays of axis-aligned cubes with slotted boundaries whose
exterior Helmholtz problem exhibits arbitrarily large cut-off resolvent norms
along a prescribed wavenumber sequence, and it emits machine-checkable
certificates for every inequality used along the way: quasimode norm
identities, inf-sup upper bounds, resolvent lower bounds, packing
separation, and the modal Dirichlet-to-Neumann sign conditions on spheres.
"""

from trapcert.specfun import (
    BesselDomainError,
    BesselRangeError,
    CylEval,
    SphEval,
    cyl_bessel,
    spherical_hankel,
    wronskian_residual,
)
from trapcert.sequences import (
    APower,
    ATable,
    DShiftedPower,
    DTable,
    DerivedParams,
    KLogGrowth,
    KTable,
    Schedule,
    ScheduleError,
    demo_schedule,
    derived_params,
    gap_fraction,
    growth_floor_check,
    partial_volume,
    wavenumber,
)
from trapcert.geometry import (
    Boxes,
    ConnectivityReport,
    DisjointnessReport,
    GeometryError,
    GeometrySummary,
    LayerPlan,
    build_layered,
    build_stacked,
    connectivity_certificate,
    disjointness_certificate,
    flood_fill_oracle,
    iter_layer_plans,
    layer_plan,
    suggested_resolution,
)
from trapcert.certify import (
    Certificates,
    CertifyError,
    QuasimodeNorms,
    TraceTest,
    certify_geometry,
    infsup_upper,
    quasimode_norms,
    resolvent_lower,
    trace_inequality_residual,
)
from trapcert.dtnverify import (
    ModeCheckRecord,
    SweepSummary,
    a_nu,
    b_m,
    default_alphas,
    default_rho_grid,
    dtn_eigenvalue,
    verify_sweep,
)

__version__ = "0.1.0"

# The command-line names load lazily (PEP 562), so that `python -m
# trapcert.cli` does not find `trapcert.cli` imported by the package first.
_CLI_NAMES = ("RunConfig", "load_config", "run")


def __getattr__(name):
    if name in _CLI_NAMES:
        from trapcert import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
