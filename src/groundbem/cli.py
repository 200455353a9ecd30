"""Command-line interface.

Subcommands
-----------
kernel      evaluate the Dirichlet or Neumann ground kernel at one pair
mesh        generate benchmark meshes (bump, dip, sphere, disc)
solve       assemble + solve a mesh under a monopole source, export results
experiment  run a named validation study (bump, dip, accuracy-map, cost-curve)

Exit codes: 0 success, 1 usage error, 2 numeric/domain failure.
Identical invocations with identical seeds write byte-identical CSV
output (wall-clock columns of the cost-curve study excepted).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

import numpy as np

from . import experiments as xp
from .bem import (
    BemConfig,
    assemble,
    evaluate_field,
    set_point_source_rhs,
    solve as bem_solve,
)
from .errors import GroundBemError
from .ground_kernel import KernelConfig, kernel_neumann, kernel_value
from .harmonics import check_points
from .surface_mesh import (
    EXTENSION,
    DomainSpec,
    load_mesh,
    make_bump_dip_mesh,
    make_flat_disc_mesh,
    make_sphere_mesh,
    save_mesh,
)

USAGE_ERROR = 1
NUMERIC_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; we reserve 2 for numeric
    # failures, so route usage problems through our own exception.
    def error(self, message):
        raise _UsageError(message)


def _parse_point(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"expected three comma-separated coordinates, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"bad coordinate in {text!r}: {exc}") from exc


def _number_list(kind):
    """argparse ``type=`` for a comma-separated list of ``kind`` values."""
    def parse(text):
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's error names it
    return parse


def _default_outdir():
    return os.environ.get("GROUNDBEM_OUTDIR", ".")


_STUDIES = {
    "bump": xp.run_bump_experiment,
    "dip": xp.run_dip_experiment,
    "accuracy-map": xp.accuracy_map,
    "cost-curve": xp.measure_cost_curve,
}
# experiment flag (argparse dest) -> study keyword
_STUDY_FLAGS = {
    "h": "h", "eps": "eps", "edge": "target_edge", "delta": "delta",
    "ratios": "ratios", "p_values": "p_values", "seed": "seed",
}
# mesh kind -> the mesh flags (argparse dests) it does not take
_MESH_UNUSED = {"bump": ("radius",), "dip": ("r0", "radius"),
                "sphere": ("r0", "re"), "disc": ("r0", "re")}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="groundbem", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="evaluate the ground kernel at one pair")
    k.add_argument("--y", required=True, help="evaluation point as x,y,z")
    k.add_argument("--x", required=True, help="source point as x,y,z")
    k.add_argument("--r", type=float, default=1.0, help="hole radius R")
    k.add_argument("--p", type=int, default=12, help="series truncation")
    k.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
    k.add_argument("--neumann", action="store_true",
                   help="evaluate the Neumann kernel instead of the Dirichlet one")
    k.add_argument("--out", default=None, help="also write the value to this file")

    m = sub.add_parser("mesh", help="generate a benchmark mesh")
    m.add_argument("--kind", choices=("bump", "dip", "sphere", "disc"), required=True)
    m.add_argument("--r0", type=float, default=None,
                   help="bump detail radius (default 2; a dip's is fixed at 1)")
    m.add_argument("--re", type=float, default=None, help="bump/dip extended radius")
    m.add_argument("--edge", type=float, default=0.1, help="target edge length")
    m.add_argument("--radius", type=float, default=None,
                   help="sphere/disc radius (default 1)")
    m.add_argument("--out", required=True, help="output mesh file")

    s = sub.add_parser("solve", help="solve a mesh under a monopole source")
    s.add_argument("--mesh", required=True, help="mesh file (see mesh subcommand)")
    s.add_argument("--source", required=True, help="monopole location as x,y,z")
    s.add_argument("--eps", type=float, default=1e-4,
                   help="prescribed kernel accuracy (sets the truncation)")
    s.add_argument("--no-kernel", action="store_true",
                   help="plain truncated BEM: solve without the ground-kernel "
                        "term (no truncation; p is null in the output)")
    s.add_argument("--field", type=_number_list(int),
                   help="also evaluate the field on an nr,nth interior grid")
    s.add_argument("--out-prefix", default=None,
                   help="output prefix (default: mesh name in the output dir)")

    e = sub.add_parser("experiment", help="run a named validation study; "
                       "unset flags take the study's own defaults")
    e.add_argument("name", choices=tuple(_STUDIES))
    e.add_argument("--h", type=float, help="source height")
    e.add_argument("--eps", type=float, help="prescribed accuracy")
    e.add_argument("--edge", type=float, help="target edge length")
    e.add_argument("--delta", type=float, help="extension size for the bump study")
    e.add_argument("--ratios", type=_number_list(float),
                   help="comma-separated extension ratios (dip sweep / maps)")
    e.add_argument("--p-values", type=_number_list(int),
                   help="comma-separated truncation numbers (accuracy map)")
    e.add_argument("--seed", type=int)
    e.add_argument("--out", default=None, help="output directory")
    return ap


def _cmd_kernel(args) -> int:
    cfg = KernelConfig(scale_radius=args.r, p=args.p, integral_tolerance=args.tol)
    fn = kernel_neumann if args.neumann else kernel_value
    val = fn(_parse_point(args.y), _parse_point(args.x), cfg)
    print(repr(float(val)))
    if args.out:
        xp.write_json(args.out, float(val))
    return 0


def _cmd_mesh(args) -> int:
    for flag in _MESH_UNUSED[args.kind]:
        if getattr(args, flag) is not None:
            raise _UsageError(f"mesh --kind {args.kind} takes no --{flag}")
    radius = 1.0 if args.radius is None else args.radius
    if args.kind == "bump":
        r0 = 2.0 if args.r0 is None else args.r0
        re = r0 * 1.0935 if args.re is None else args.re
        mesh = make_bump_dip_mesh(1, r0=r0, re=re, target_edge=args.edge)
    elif args.kind == "dip":
        re = 1.124 if args.re is None else args.re
        mesh = make_bump_dip_mesh(-1, r0=1.0, re=re, target_edge=args.edge)
    elif args.kind == "sphere":
        mesh = make_sphere_mesh(args.edge, radius=radius)
    else:
        mesh = make_flat_disc_mesh(radius, args.edge)
    save_mesh(mesh, args.out)
    print(f"wrote {args.out}: {len(mesh)} panels, tags {mesh.tag_counts()}")
    return 0


def _infer_domain(mesh):
    """Radii from the tags: r0 reaches the farthest vertex of the faces off
    the extension ring, re the ring's outer rim (r0 when it has none)."""
    rho = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    inner = mesh.faces[mesh.tags != EXTENSION]
    ext = mesh.faces[mesh.tags == EXTENSION]
    r0 = float(np.linalg.norm(mesh.vertices[inner], axis=-1).max() if inner.size else rho.max())
    return DomainSpec(r0=r0, re=float(rho[ext].max()) if ext.size else r0)


def _cmd_solve(args) -> int:
    if args.field and (len(args.field) != 2 or min(args.field) < 1):
        raise _UsageError(f"--field expects nr,nth of at least 1 each, got {args.field}")
    source = _parse_point(args.source)
    check_points(source, one=True)  # a bad source costs no mesh read and no assembly
    mesh = load_mesh(args.mesh)
    domain = _infer_domain(mesh)
    use_kernel = not args.no_kernel and domain.re > domain.r0
    if not use_kernel and not args.no_kernel:
        print("note: mesh has no extension ring; solving without the ground kernel",
              file=sys.stderr)
    kernel = {}
    if use_kernel:
        kernel["p"] = xp.choose_truncation(domain.r0, domain.re, args.eps)
    cfg = BemConfig(prescribed_eps=args.eps, **kernel)
    system = assemble(mesh, domain if use_kernel else None, cfg)
    set_point_source_rhs(system, source)
    sigma = bem_solve(system)

    prefix = args.out_prefix
    if prefix is None:
        stem = os.path.splitext(os.path.basename(args.mesh))[0]
        prefix = os.path.join(_default_outdir(), stem)
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)

    written = [
        xp.write_csv(prefix + "_sigma.csv", ("x", "y", "z", "area", "tag", "sigma"),
                     (*mesh.centroids.T, mesh.areas, mesh.tags, sigma)),
        xp.write_json(prefix + "_solution.json", {
            "mesh": args.mesh,
            "panels": len(mesh),
            "r0": domain.r0,
            "re": domain.re,
            "p": kernel.get("p"),
            "degree": system.degree,
            "eps": args.eps,
            "use_ground_kernel": use_kernel,
            "source": list(source),
        }),
    ]

    if args.field:
        grid = evaluate_field(system, xp.field_grid(mesh, domain.r0, *args.field),
                              source=source)
        written += [
            xp.write_csv(prefix + "_field.csv",
                         ("x", "y", "z", "value", "induced", "below_ground"),
                         (*grid.points.T, grid.values, grid.induced, grid.flags)),
            xp.write_json(prefix + "_field.json", {
                "metadata": grid.metadata,
                "points": grid.points.tolist(),
                "values": grid.values.tolist(),
                "induced": grid.induced.tolist(),
                "below_ground": grid.flags.astype(int).tolist(),
            }),
        ]
    for w in written:
        print(f"wrote {w}")
    return 0


def _cmd_experiment(args) -> int:
    study = _STUDIES[args.name]
    takes = inspect.signature(study).parameters
    kwargs = {}
    for flag, keyword in _STUDY_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if keyword not in takes:
            raise _UsageError(
                f"experiment {args.name} takes no --{flag.replace('_', '-')}"
            )
        kwargs[keyword] = value
    rep = study(**kwargs)
    if args.name == "accuracy-map":
        print(f"accuracy map over {rep.ratios.size} ratios x {rep.p_values.size} truncations")
    elif args.name == "cost-curve":
        best = int(np.argmin(rep.seconds))
        print(f"measured minimum at ratio {rep.ratios[best]} (p = {rep.p_values[best]})")
    else:
        print(json.dumps(rep.summary(), indent=1, sort_keys=True))
    for path in xp.write_report(rep, args.out or _default_outdir()):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    commands = {"kernel": _cmd_kernel, "mesh": _cmd_mesh, "solve": _cmd_solve,
                "experiment": _cmd_experiment}
    try:
        args = parser.parse_args(argv)
        return commands[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except GroundBemError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
