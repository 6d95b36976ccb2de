"""Numerical laboratory for Neumann spectra of weighted (drift) Laplacians.

The package computes low Neumann eigenvalues of the operator
``Delta u - <grad(phi), grad(u)>`` on bounded domains of flat space and of
hyperbolic space, and checks a family of spectral isoperimetric inequalities
that compare a domain against the centred geodesic ball of equal weighted
volume.  All public entry points are pure functions over immutable inputs;
parallel callers never share mutable state.
"""

import contextlib
import os
import sys


@contextlib.contextmanager
def _one_openblas_thread():
    """Run the body with ``OPENBLAS_NUM_THREADS=1``: an OpenBLAS it loads starts no worker thread."""
    old = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
        if old is not None:
            os.environ["OPENBLAS_NUM_THREADS"] = old


if "numpy" not in sys.modules:
    with _one_openblas_thread():
        import numpy  # noqa: F401

from .spaceform import (
    EUCLIDEAN,
    HYPERBOLIC,
    BallSpec,
    QuadratureError,
    SpaceForm,
    s_kappa,
    unit_sphere_area,
    weighted_annulus_volume,
)
from .weights import WeightFunction, make_weight

__version__ = "0.1.0"

__all__ = [
    "EUCLIDEAN",
    "HYPERBOLIC",
    "BallSpec",
    "QuadratureError",
    "SpaceForm",
    "WeightFunction",
    "make_weight",
    "s_kappa",
    "unit_sphere_area",
    "weighted_annulus_volume",
]
