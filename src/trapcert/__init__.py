"""Layered-cube scatterer construction with numerical certificates.

The package builds arrays of axis-aligned cubes with slotted boundaries whose
exterior Helmholtz problem exhibits arbitrarily large cut-off resolvent norms
along a prescribed wavenumber sequence, and it emits machine-checkable
certificates for every inequality used along the way: quasimode norm
identities, inf-sup upper bounds, resolvent lower bounds, packing
separation, and the modal Dirichlet-to-Neumann sign conditions on spheres.
"""

from trapcert.certify import certify_geometry
from trapcert.geometry import build_layered
from trapcert.sequences import demo_schedule

__all__ = ["build_layered", "certify_geometry", "demo_schedule", "__version__"]

__version__ = "0.1.0"
