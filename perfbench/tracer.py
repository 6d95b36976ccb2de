"""Spans around the public functions of each wittenlab module, from outside.

``Tracer.install()`` replaces every public module-level function of
``spaceform``, ``weights``, ``radial``, ``mesh``, ``fem``, ``checker`` and
``cli`` with a wrapper, in its own module and in every module that imported
it by name, so calls between layers and inside a layer are both seen.  Two
kinds of function are left alone:

* pointwise helpers evaluated per ODE step or quadrature node (``s_kappa``
  and friends, see ``POINTWISE``); their time stays in the caller's self time;
* everything private, except ``cli._execute_case``, which marks where one
  case starts and ends (span ``cli.case``).

A span is ``[name, start, end, parent, attrs, bookkeeping]``: ``parent`` is
the index of the enclosing span in the same process (-1 at top level),
``attrs`` holds counts taken from arguments and results, and
``bookkeeping`` is the time the tracer spent computing them, which the
analysis removes from the parent's self time.  Spans stay in memory and are
written to ``<dir>/spans-<pid>.json`` when the traced process ends; a
forked pool worker writes its spans after each case it runs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import time

MODULES = ("spaceform", "weights", "radial", "mesh", "fem", "checker", "cli")
POINTWISE = {
    "s_kappa",
    "c_kappa",
    "unit_sphere_area",
    "spherical_harmonic_multiplicity",
    "geodesic_distance_poincare",
    "poincare_radius",
}
PRIVATE_SPANS = {("cli", "_execute_case"): "cli.case"}


def _mesh_digest(mesh) -> str:
    h = hashlib.blake2b(mesh.nodes.tobytes(), digest_size=12)
    h.update(mesh.triangles.tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.main_pid = self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.base_triangles = None  # triangles of the last generated mesh

    # -- attributes ---------------------------------------------------------

    def _level(self, triangles: int):
        if not self.base_triangles:
            return None
        return round(math.log(triangles / self.base_triangles, 4))

    def _attrs(self, name: str, args, kwargs, result):
        if name == "mesh.generate":
            self.base_triangles = len(result.triangles)
            return {"triangles": self.base_triangles}
        if name == "mesh.refine":
            tri = len(result.triangles)
            return {"triangles_out": tri, "key": _mesh_digest(args[0]),
                    "level": self._level(tri)}
        if name == "fem.assemble":
            return {"dofs": result.dimension, "level": self._level(len(args[0].triangles))}
        if name == "fem.solve_lowest":
            forms = args[0]
            return {"dofs": forms.dimension,
                    "level": self._level(len(forms.mesh.triangles))}
        if name == "checker.weighted_disk_intersection":
            tri = len(args[0].triangles)
            return {"triangles": tri, "level": self._level(tri)}
        if name == "radial.shoot_first_mode":
            ball, phi = args[0], args[1]
            options = args[2] if len(args) > 2 else kwargs.get("options")
            return {"key": repr((ball, phi.family, phi.params, phi.domain_cap, options))}
        if name == "cli.case":
            return {"id": args[0]["id"]}
        return None

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:  # first call in a forked worker
                self.pid = os.getpid()
                self.spans, self.stack = [], []
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1,
                    None, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            span[4] = self._attrs(name, args, kwargs, result)
            span[5] = time.perf_counter() - span[2]
            if not self.stack and self.pid != self.main_pid:
                self.dump()
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"wittenlab.{m}") for m in MODULES]
        wrapped = {}
        for short, module in zip(MODULES, modules):
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if (short, attr) in PRIVATE_SPANS:
                    wrapped[obj] = self._wrap(PRIVATE_SPANS[short, attr], obj)
                elif not attr.startswith("_") and attr not in POINTWISE:
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in [importlib.import_module("wittenlab"), *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "main": self.pid == self.main_pid,
                       "spans": self.spans}, fh)
