"""kleincert — certified numerics for triangulated surfaces in the Klein model.

The package certifies, with exact rational arithmetic at the trust boundary,
that a candidate triangulated genus-2 surface embedded in the Beltrami-Klein
model of hyperbolic 3-space is flat (zero cone defect at every vertex), that
it is robustly embedded (no self-intersections, with quantitative margins),
and that the cone-defect map is expanding near the candidate — which together
pin down an exactly-flat surface near the numerical one.

Layered structure (each layer trusts only the ones below):

``precision``      decimals, rationals, Bounds, certified enclosures
``klein``          Klein-model metric, angles, distances
``mesh``           triangulation combinatorics and embedded surfaces
``certify_flat``   Lipschitz flatness certificate at a reference link
``certify_embed``  separating-hyperplane robust-embeddedness certificate
``jacobian``       cone-defect Jacobian, expansion certificate, existence
``search``         hill climb and Newton refinement toward flatness
``cli_io``         file formats, slicing, SVG/OFF export, command line
"""

__version__ = "0.1.0"

from .precision import (
    Bound,
    CertificationError,
    arccos_hp,
    exp_bounds,
    hyp_bounds,
    ln_bounds,
    sqrt_bounds,
)

__all__ = [
    "__version__",
    "Bound",
    "CertificationError",
    "arccos_hp",
    "exp_bounds",
    "hyp_bounds",
    "ln_bounds",
    "sqrt_bounds",
]
