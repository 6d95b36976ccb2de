"""Command-line front end: config validation, batch execution, report files.

Two subcommands.  ``run`` executes a list of verification cases and writes
JSON-lines records, a summary CSV, and per-case profile data.  ``sweep``
executes a 1- or 2-parameter family derived from a base case and writes a
long-format CSV plus the family member with the smallest margin.

Everything is driven by a JSON config with a versioned ``"schema"`` field.
Validation is strict and runs to completion before any case is executed:
unknown keys, malformed values, domain fields the shape does not take, and
weights that fail the admissibility condition are rejected with a dotted
pointer to the offending entry (``cases[2].weight.params``, or
``cases[0].domain.center`` on a ``disk``).  Validation builds each case's
space, domain, weight and solver options, and the batch runs exactly those
objects: a meshed domain is meshed (or a ``mesh-file`` read) once, here, so
a ring mesh that folds is refused before any case runs.  A sweep writes
each grid value into its base case as given, so integer fields sweep over
integers.
Exit codes: 0 all verdicts pass, 2 at least one fail, 1 on any execution
or configuration error.

Outputs are deterministic: records are sorted by case id, JSON is dumped
with sorted keys, and CSV floats are printed with ``%.17g``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import ctypes
import importlib
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checker import build_report, find_trial_center, solve_case
from .mesh import SHAPE_FIELDS, DomainSpec, MeshInvariantError, generate, load as load_mesh
from .radial import ShellSpec, ShootingOptions, check_lemma_monotone
from .spaceform import SpaceForm
from .weights import FAMILIES, make_weight

SCHEMA_VERSION = 1
CHECK_NAMES = ("main", "sharper", "conjecture", "lemma23", "center")
SPACE_NAMES = ("euclidean", "hyperbolic")
PROFILE_SAMPLES = 400

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


class ConfigError(ValueError):
    """Configuration rejected; the message starts with a dotted pointer."""


def _fmt(value) -> str:
    if value is None:
        return ""
    return "%.17g" % float(value)


# ---------------------------------------------------------------------------
# validation


def _require_keys(obj: dict, where: str, allowed: dict, required: tuple):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}.{key}: missing required key")
    for key, kinds in allowed.items():
        # JSON true/false are Python ints; no key takes a boolean
        if key in obj and (isinstance(obj[key], bool) or not isinstance(obj[key], kinds)):
            raise ConfigError(f"{where}.{key}: wrong type")


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{where}: must be finite")
    return out


_DOMAIN_KEYS = {
    "shape": (str,),
    "radius": (int, float),
    "center": (list,),
    "aspect": (int, float),
    "semi_axis_x": (int, float),
    "semi_axis_y": (int, float),
    "inner_radius": (int, float),
    "outer_radius": (int, float),
    "vertices": (list,),
    "perturbation": (list,),
    "path": (str,),
}

# the fields each domain shape takes besides ``shape``
_SHAPE_FIELDS = {
    **SHAPE_FIELDS,
    "shell": ("inner_radius", "outer_radius"),
    "mesh-file": ("path",),
}


def _point(value, where: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where}: expected [x, y]")
    return _as_float(value[0], where), _as_float(value[1], where)


def _build_domain(domain: dict, mesh_size: float, where: str):
    """Construct the solver-side domain object, raising pointered errors."""
    _require_keys(domain, where, _DOMAIN_KEYS, ("shape",))
    shape = domain["shape"]
    if shape not in _SHAPE_FIELDS:
        raise ConfigError(f"{where}.shape: {shape!r} is not one of {tuple(_SHAPE_FIELDS)}")
    for key in domain:
        if key != "shape" and key not in _SHAPE_FIELDS[shape]:
            raise ConfigError(f"{where}.{key}: not a {shape} field")
    if shape == "mesh-file":
        if "path" not in domain:
            raise ConfigError(f"{where}.path: missing required key")
        try:
            return load_mesh(domain["path"])
        except Exception as exc:
            raise ConfigError(f"{where}.path: {exc}") from None
    kwargs = {"shape": shape, "target_edge_length": mesh_size}
    for key, kinds in _DOMAIN_KEYS.items():
        if kinds == (int, float) and key in domain:
            kwargs[key] = _as_float(domain[key], f"{where}.{key}")
    if shape == "shell":
        if "outer_radius" not in domain:
            raise ConfigError(f"{where}.outer_radius: missing required key")
        try:
            return ShellSpec(kwargs.get("inner_radius", 0.0), kwargs["outer_radius"])
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if "center" in domain:
        kwargs["center"] = _point(domain["center"], f"{where}.center")
    if "vertices" in domain:
        kwargs["vertices"] = tuple(
            _point(v, f"{where}.vertices[{i}]") for i, v in enumerate(domain["vertices"])
        )
    if "perturbation" in domain:
        modes = []
        for i, pair in enumerate(domain["perturbation"]):
            at = f"{where}.perturbation[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"{at}: expected [mode, amplitude]")
            # an integral float is a mode too: 3.0 is mode 3
            mode = pair[0]
            if not (type(mode) is int or isinstance(mode, float) and mode.is_integer()):
                raise ConfigError(f"{at}: mode must be an integer, got {mode!r}")
            modes.append((int(mode), _as_float(pair[1], at)))
        kwargs["perturbation"] = tuple(modes)
    try:
        return DomainSpec(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _build_weight(weight: dict, where: str):
    _require_keys(
        weight,
        where,
        {"family": (str,), "params": (list,), "domain_cap": (int, float)},
        ("family", "params"),
    )
    family = weight["family"]
    if family not in FAMILIES:
        raise ConfigError(f"{where}.family: {family!r} is not one of {FAMILIES}")
    params = tuple(
        _as_float(p, f"{where}.params[{i}]") for i, p in enumerate(weight["params"])
    )
    cap = _as_float(weight.get("domain_cap", 50.0), f"{where}.domain_cap")
    try:
        return make_weight(family, params, domain_cap=cap)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


_CASE_KEYS = {
    "id": (str,),
    "space": (str,),
    "dimension": (int,),
    "domain": (dict,),
    "weight": (dict,),
    "checks": (list,),
    "mesh_size": (int, float),
    "refinement_levels": (int,),
    "tolerances": (dict,),
}

# characters a case id may not hold: a path separator would move its
# profile file, a comma or quote would shift its summary.csv row
_ID_FORBIDDEN = r'[/\\,"\x00-\x1f\x7f-\x9f]'

# schema-1 tolerance keys and the radial solver option each sets:
# ``rtol`` and ``atol`` bound the trailing Chebyshev coefficients relative
# and absolute, ``residual_tol`` the Neumann endpoint residual
_TOLERANCES = {
    "shooting_rtol": "rtol",
    "shooting_atol": "atol",
    "residual_tol": "residual_tol",
}


def _load_fem() -> None:
    """Import the FEM solver, and with it scipy's sparse linear algebra.

    Validation calls this for every meshed case, so forked pool workers
    inherit the module.  With ``OPENBLAS_NUM_THREADS=1`` for the import,
    scipy's OpenBLAS starts no worker thread to spin-wait ~0.1 s of CPU into
    the batch, which runs BLAS single-threaded anyway.
    """
    old = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module(".fem", __package__)
    finally:
        if old is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = old


def validate_case(case: dict, where: str, fallback_id: str) -> dict:
    """Full semantic validation; returns the case as the batch runs it.

    The result holds ``id``, ``checks``, ``dimension``, ``refinements`` and
    the built ``space`` (:class:`SpaceForm`), ``domain`` (the generated or
    loaded :class:`Mesh`, or a :class:`ShellSpec`), ``weight``
    (:class:`WeightFunction`) and ``options`` (:class:`ShootingOptions`), so
    every constructor-level complaint, a generated mesh that fails its
    invariants included, surfaces now, before any case runs, and nothing is
    built twice.  A meshed domain loads the FEM solver here
    (:func:`_load_fem`); a radially symmetric one needs numpy alone.
    """
    _require_keys(case, where, _CASE_KEYS, ("space", "domain", "weight"))
    norm = {
        "id": case.get("id", fallback_id),
        "refinements": case.get("refinement_levels", 2),
    }
    mesh_size = _as_float(case.get("mesh_size", 0.1), f"{where}.mesh_size")
    if not norm["id"]:
        raise ConfigError(f"{where}.id: must be a non-empty string")
    if re.search(_ID_FORBIDDEN, norm["id"]):
        raise ConfigError(
            f"{where}.id: {norm['id']!r} holds a '/', '\\', ',', '\"' or control "
            "character; the id names the case's profile file and summary.csv row"
        )
    if case["space"] not in SPACE_NAMES:
        raise ConfigError(f"{where}.space: expected one of {SPACE_NAMES}")
    norm["space"] = SpaceForm(curvature=0 if case["space"] == "euclidean" else -1)
    if mesh_size <= 0:
        raise ConfigError(f"{where}.mesh_size: must be positive")
    if norm["refinements"] < 1:
        raise ConfigError(f"{where}.refinement_levels: must be >= 1")
    tolerances = case.get("tolerances", {})
    _require_keys(
        tolerances, f"{where}.tolerances", dict.fromkeys(_TOLERANCES, (int, float)), ()
    )
    for key, value in tolerances.items():
        if _as_float(value, f"{where}.tolerances.{key}") <= 0:
            raise ConfigError(f"{where}.tolerances.{key}: must be positive")
    norm["options"] = ShootingOptions(
        **{_TOLERANCES[key]: float(value) for key, value in tolerances.items()}
    )

    checks = case.get("checks", ["main"])
    seen = []
    for i, name in enumerate(checks):
        if name not in CHECK_NAMES:
            raise ConfigError(
                f"{where}.checks[{i}]: {name!r} is not one of {CHECK_NAMES}"
            )
        if name not in seen:
            seen.append(name)
    if not seen:
        raise ConfigError(f"{where}.checks: at least one check is required")
    norm["checks"] = sorted(seen, key=CHECK_NAMES.index)

    norm["domain"] = domain = _build_domain(case["domain"], mesh_size, f"{where}.domain")
    norm["weight"] = _build_weight(case["weight"], f"{where}.weight")

    is_shell = isinstance(domain, ShellSpec)
    dimension = case.get("dimension")
    if is_shell:
        if dimension is None:
            raise ConfigError(
                f"{where}.dimension: required for radially symmetric domains"
            )
        if dimension < 2:
            raise ConfigError(f"{where}.dimension: must be >= 2")
    elif dimension not in (None, 2):
        raise ConfigError(f"{where}.dimension: meshed domains are two-dimensional")
    else:
        _load_fem()
        if isinstance(domain, DomainSpec):
            try:
                norm["domain"] = generate(domain)
            except MeshInvariantError as exc:
                raise ConfigError(f"{where}.domain: {exc}") from None
    norm["dimension"] = dimension if dimension is not None else 2

    if "sharper" in norm["checks"] and case["space"] != "euclidean":
        raise ConfigError(
            f"{where}.checks: the sharper comparison is only formulated in "
            "euclidean space"
        )
    if "center" in norm["checks"]:
        if is_shell:
            raise ConfigError(
                f"{where}.checks: the center search needs a plane meshed domain"
            )
        if case["space"] != "euclidean":
            raise ConfigError(
                f"{where}.checks: the center search is euclidean-only"
            )
    return norm


def validate_run_config(cfg: dict) -> list[dict]:
    _require_keys(cfg, "config", {"schema": (int,), "cases": (list,)}, ("schema", "cases"))
    if cfg["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"config.schema: expected {SCHEMA_VERSION}")
    if not cfg["cases"]:
        raise ConfigError("config.cases: must not be empty")
    cases = [
        validate_case(case, f"cases[{i}]", f"case-{i:03d}")
        for i, case in enumerate(cfg["cases"])
    ]
    ids = [c["id"] for c in cases]
    for i, cid in enumerate(ids):
        if ids.index(cid) != i:
            raise ConfigError(f"cases[{i}].id: duplicate id {cid!r}")
    return cases


# ---------------------------------------------------------------------------
# execution


def _run_case(case: dict) -> dict:
    """Solve and check one case as :func:`validate_case` built it."""
    space, phi, checks = case["space"], case["weight"], case["checks"]
    solution = solve_case(
        case["domain"], space, phi, case["dimension"],
        conjecture="conjecture" in checks,
        refinements=case["refinements"],
        options=case["options"],
    )
    report = build_report(solution, sharper="sharper" in checks).as_dict()
    mode = solution.ball_mode
    radius = solution.matched_radius

    record = {
        "id": case["id"],
        "status": "pass",
        "checks": list(checks),
        "report": report,
    }
    if "lemma23" in checks:
        record["lemma23"] = asdict(check_lemma_monotone(mode))
    if "center" in checks:
        record["center"] = asdict(find_trial_center(solution.base_mesh, phi, mode))
    # every check's block carries ``passed``: the main one is the report, the
    # sharper and conjecture ones sit in it, lemma23 and center in the record
    blocks = {**report, **record, "main": report}
    failed = [name for name in checks if not blocks[name]["passed"]]

    ts = np.linspace(0.0, radius, PROFILE_SAMPLES)
    values, derivs = mode.profile(ts)
    metric = space.s(ts)
    # at the centre f/S takes its limit T'(0)/C(0) = T'(0)
    ratio = np.divide(values, metric, out=derivs.copy(), where=metric > 0.0)
    record["profile_data"] = [
        (float(t), float(v), float(d), float(r))
        for t, v, d, r in zip(ts, values, derivs, ratio)
    ]

    if failed:
        record["status"] = "fail"
        record["failed_checks"] = failed
    return record


def _execute_case(case: dict) -> dict:
    try:
        return _run_case(case)
    except Exception as exc:  # solver failure: mark and continue with the batch
        return {
            "id": case["id"],
            "status": "error",
            "checks": list(case["checks"]),
            "error": f"{type(exc).__name__}: {exc}",
        }


# thread-count getters of the OpenBLAS builds that numpy (64-bit ints) and
# scipy ship, and of a plain OpenBLAS; each setter is named with "_set_"
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the body with every loaded OpenBLAS set to one thread.

    The solves call BLAS on blocks far too small to gain from threads, and
    an idle OpenBLAS thread spin-waits between calls, so with more than one
    solving process the spinning threads take the pool's CPUs.  Forked pool
    workers inherit the setting; each old thread count comes back on exit.
    Without OpenBLAS (or without ``/proc``) this does nothing.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        paths = []
    restore = []
    try:
        for path in paths:
            lib = ctypes.CDLL(path)
            name = next((n for n in _OPENBLAS_GETTERS if hasattr(lib, n)), None)
            if name is not None:
                setter = getattr(lib, name.replace("_get_", "_set_"))
                restore.append((setter, getattr(lib, name)()))
                setter(1)
        yield
    finally:
        for setter, threads in reversed(restore):
            setter(threads)


def _execute_batch(cases: list[dict], jobs: int) -> list[dict]:
    with _single_threaded_blas():
        if jobs <= 1 or len(cases) == 1:
            records = [_execute_case(case) for case in cases]
        else:
            # a fork pool starts every worker at once, so start no idle ones
            with ProcessPoolExecutor(max_workers=min(jobs, len(cases))) as pool:
                records = list(pool.map(_execute_case, cases))
    return sorted(records, key=lambda r: r["id"])


def _exit_code(records: list[dict]) -> int:
    if any(r["status"] == "error" for r in records):
        return EXIT_ERROR
    if any(r["status"] == "fail" for r in records):
        return EXIT_FAIL
    return EXIT_PASS


def _write_reports(records: list[dict], out: Path) -> None:
    with open(out / "reports.jsonl", "w") as fh:
        for record in records:
            slim = {k: v for k, v in record.items() if k != "profile_data"}
            fh.write(json.dumps(slim, sort_keys=True) + "\n")


def _weight_tag(weight: dict) -> str:
    params = ",".join("%g" % p for p in weight["params"])
    return f"{weight['family']}({params})"


def _write_summary(records: list[dict], out: Path) -> None:
    lines = ["case_id,n,kappa,weight,R,lhs,rhs,gap,sharper_gap,verdict"]
    for record in records:
        if record["status"] == "error":
            lines.append(f"{record['id']},,,,,,,,,error")
            continue
        rep = record["report"]
        sharper_gap = rep["sharper"]["gap"] if rep.get("sharper") else None
        lines.append(
            ",".join(
                [
                    record["id"],
                    str(rep["dimension"]),
                    str(rep["curvature"]),
                    '"%s"' % _weight_tag(rep["weight"]),
                    _fmt(rep["matched_radius"]),
                    _fmt(rep["lhs"]),
                    _fmt(rep["rhs"]),
                    _fmt(rep["gap"]),
                    _fmt(sharper_gap),
                    record["status"],
                ]
            )
        )
    (out / "summary.csv").write_text("\n".join(lines) + "\n")


def _write_profiles(records: list[dict], out: Path) -> None:
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    for record in records:
        rows = record.get("profile_data")
        if not rows:
            continue
        lines = ["t,T,Tprime,f_over_S"]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        (plots / f"{record['id']}_profile.csv").write_text("\n".join(lines) + "\n")


def _execute(cases: list[dict], out: Path, jobs: int) -> list[dict]:
    """Run validated cases into ``out``: create it, run the batch, write
    ``reports.jsonl``; returns the records sorted by id."""
    out.mkdir(parents=True, exist_ok=True)
    records = _execute_batch(cases, jobs)
    _write_reports(records, out)
    return records


def run(config_path: str, out_dir: str, jobs: int = 1, verbose: bool = False) -> int:
    cases = validate_run_config(_load_json(config_path))
    out = Path(out_dir)
    records = _execute(cases, out, jobs)
    _write_summary(records, out)
    _write_profiles(records, out)
    if verbose:
        for record in records:
            if record["status"] == "error":
                print(f"{record['id']}: error ({record['error']})")
            else:
                gap = record["report"]["gap"]
                print(f"{record['id']}: {record['status']} (gap={gap:.3e})")
    counts = {s: sum(r["status"] == s for r in records) for s in ("pass", "fail", "error")}
    print(
        f"{len(records)} case(s): {counts['pass']} pass, "
        f"{counts['fail']} fail, {counts['error']} error -> {out}"
    )
    return _exit_code(records)


# ---------------------------------------------------------------------------
# sweeps


def _resolve_path(case: dict, path: str, where: str):
    """Walk a dotted path; integer segments index lists.  Returns the holder
    and final segment so the caller can assign."""
    segments = path.split(".")
    node = case
    for depth, seg in enumerate(segments[:-1]):
        if isinstance(node, list):
            try:
                node = node[int(seg)]
            except (ValueError, IndexError):
                raise ConfigError(
                    f"{where}: segment {seg!r} does not index the list"
                ) from None
        elif isinstance(node, dict) and seg in node:
            node = node[seg]
        else:
            raise ConfigError(
                f"{where}: {'.'.join(segments[: depth + 1])!r} does not exist "
                "in base_case"
            )
    last = segments[-1]
    if isinstance(node, list):
        try:
            index = int(last)
        except ValueError:
            raise ConfigError(f"{where}: {last!r} cannot index a list") from None
        if not -len(node) <= index < len(node):
            raise ConfigError(f"{where}: index {index} out of range")
        return node, index
    if isinstance(node, dict) and last in node:
        return node, last
    raise ConfigError(f"{where}: {path!r} does not address an existing field")


def validate_sweep_config(cfg: dict):
    _require_keys(
        cfg,
        "config",
        {"schema": (int,), "base_case": (dict,), "sweep": (dict,)},
        ("schema", "base_case", "sweep"),
    )
    if cfg["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"config.schema: expected {SCHEMA_VERSION}")
    _require_keys(cfg["sweep"], "sweep", {"parameters": (list,)}, ("parameters",))
    params = cfg["sweep"]["parameters"]
    if not 1 <= len(params) <= 2:
        raise ConfigError("sweep.parameters: expected one or two parameters")
    axes = []
    for i, param in enumerate(params):
        where = f"sweep.parameters[{i}]"
        _require_keys(param, where, {"path": (str,), "values": (list,)}, ("path", "values"))
        if not param["values"]:
            raise ConfigError(f"{where}.values: must not be empty")
        for j, value in enumerate(param["values"]):
            _as_float(value, f"{where}.values[{j}]")
        _resolve_path(cfg["base_case"], param["path"], f"{where}.path")
        # written as given, so an integer field sweeps over integers
        axes.append((param["path"], param["values"]))
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise ConfigError("sweep.parameters: the two parameters share a path")
    base_id = cfg["base_case"].get("id", "sweep")

    grid = []
    combos = (
        [(a,) for a in axes[0][1]]
        if len(axes) == 1
        else [(a, b) for a in axes[0][1] for b in axes[1][1]]
    )
    for combo in combos:
        raw = copy.deepcopy(cfg["base_case"])
        suffix = []
        for (path, _values), value in zip(axes, combo):
            holder, key = _resolve_path(raw, path, "sweep")
            holder[key] = value
            suffix.append(f"{path.replace('.', '_')}={value:.6g}")
        raw["id"] = base_id + "--" + "--".join(suffix)
        grid.append(
            (
                validate_case(raw, "base_case", raw["id"]),
                {path: value for (path, _values), value in zip(axes, combo)},
            )
        )
    ids = [case["id"] for case, _params in grid]
    if len(set(ids)) != len(ids):
        raise ConfigError(
            "sweep.parameters: grid values collide after formatting; ids not unique"
        )
    return [path for path, _values in axes], grid


def _margin(record: dict):
    """Sweep ordering key: conjecture margin when present, else the plain gap."""
    if record["status"] == "error":
        return None
    rep = record["report"]
    if rep.get("conjecture"):
        return rep["conjecture"]["gap"]
    return rep["gap"]


def sweep(config_path: str, out_dir: str, jobs: int = 1, verbose: bool = False) -> int:
    paths, grid = validate_sweep_config(_load_json(config_path))
    out = Path(out_dir)
    params_by_id = {case["id"]: params for case, params in grid}
    records = _execute([case for case, _params in grid], out, jobs)

    lines = ["case_id," + ",".join(paths) + ",gap,sharper_gap,conjecture_margin,verdict"]
    best = None
    for record in records:
        params = params_by_id[record["id"]]
        if record["status"] == "error":
            row = [record["id"], *(_fmt(params[p]) for p in paths), "", "", "", "error"]
            lines.append(",".join(row))
            continue
        rep = record["report"]
        sharper_gap = rep["sharper"]["gap"] if rep.get("sharper") else None
        margin = _margin(record)
        conj = rep["conjecture"]["gap"] if rep.get("conjecture") else None
        lines.append(
            ",".join(
                [
                    record["id"],
                    *(_fmt(params[p]) for p in paths),
                    _fmt(rep["gap"]),
                    _fmt(sharper_gap),
                    _fmt(conj),
                    record["status"],
                ]
            )
        )
        if margin is not None and (best is None or margin < best[0]):
            best = (margin, record["id"], params)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")

    summary = {
        "cases": len(records),
        "errors": sum(r["status"] == "error" for r in records),
        "fails": sum(r["status"] == "fail" for r in records),
        "margin_kind": "conjecture" if any(
            r["status"] != "error" and r["report"].get("conjecture") for r in records
        ) else "main-gap",
        "minimal_margin": None
        if best is None
        else {"margin": best[0], "case_id": best[1], "parameters": best[2]},
    }
    (out / "sweep_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    if verbose:
        for record in records:
            print(f"{record['id']}: {record['status']}")
    if best is not None:
        print(
            f"{len(records)} case(s); minimal margin {best[0]:.6g} at {best[1]} -> {out}"
        )
    else:
        print(f"{len(records)} case(s); no margins computed -> {out}")
    return _exit_code(records)


# ---------------------------------------------------------------------------
# entry point


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittenlab",
        description="Weighted Neumann eigenvalue comparisons against matched balls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("run", "execute the cases of a config file"),
        ("sweep", "execute a parameter family derived from a base case"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("config", help="path to the JSON config")
        cmd.add_argument("--out", default="wittenlab-out", help="output directory")
        cmd.add_argument("--jobs", type=int, default=1, help="parallel worker count")
        cmd.add_argument("--verbose", action="store_true", help="per-case lines")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run(args.config, args.out, jobs=args.jobs, verbose=args.verbose)
        return sweep(args.config, args.out, jobs=args.jobs, verbose=args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
