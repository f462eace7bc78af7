"""Command line front end: build complexes, run verification suites, compute
homology.  All I/O is JSON; exit code 0 on success, 1 on a property or regime
failure, 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from . import __version__
from .errors import ConfigError, RegimeMismatch, ToolkitError
from .graphs import cliques, graph_from_json
from .models import model_from_json
from .complexes import (
    DEFAULT_CUBE_CAP, DEFAULT_VERTEX_CAP, build_ball, cayley_abels_degree, export_ball,
)
from .homology import homology_of_cells, valley_homology_report
from . import verification


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _emit(report: dict, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(loader, path):
    """loader(path), with a file that is not UTF-8 JSON named in the error."""
    try:
        return loader(path)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _require(args, *options):
    """Raise a ConfigError naming the required options left unset."""
    missing = [f"--{name}" for name in options if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"{args.command} needs {' and '.join(missing)}")


def _require_non_negative(args):
    for name in ("radius", "n", "window", "cap_vertices", "cap_cubes"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 0, got {value}")


def cmd_build(args) -> int:
    _require(args, "graph", "model")
    graph = _load(graph_from_json, args.graph)
    model = _load(model_from_json, args.model)
    ball = build_ball(
        model, graph, args.radius, vertex_cap=args.cap_vertices, cube_cap=args.cap_cubes
    )
    if args.out:
        export_ball(ball, args.out)
    counts = {}
    for c in ball.cubes:
        counts[c.dim] = counts.get(c.dim, 0) + 1
    summary = {
        "command": "build",
        "config_hash": _config_hash(
            {"graph": graph.to_json(), "model": model.to_json(), "radius": args.radius}
        ),
        "vertices": ball.n_vertices,
        "cube_counts": {str(d): n for d, n in sorted(counts.items())},
        "degree": cayley_abels_degree(model, graph),
        "dimension": cliques(graph).max_size(),
        "out": args.out,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    graph = _load(graph_from_json, args.graph) if args.graph else None
    model = _load(model_from_json, args.model) if args.model else None
    rng = random.Random(args.seed)
    report = verification.run_suite(
        args.suite,
        model=model,
        graph=graph,
        radius=args.radius,
        n=args.n,
        rng=rng,
        latitude=args.latitude,
        window=args.window,
        vertex_cap=args.cap_vertices,
        cube_cap=args.cap_cubes,
    )
    report["command"] = "verify"
    report["seed"] = args.seed
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def cmd_homology(args) -> int:
    if args.valley is not None:
        _require(args, "graph")
        graph = _load(graph_from_json, args.graph)
        if args.model:   # a valley window needs no model, but a bad one is an error
            _load(model_from_json, args.model)
        report = valley_homology_report(
            graph, args.valley, args.window,
            vertex_cap=args.cap_vertices, cube_cap=args.cap_cubes,
        )
        report["command"] = "homology"
        _emit(report, args.out)
        return 0
    _require(args, "graph", "model")
    graph = _load(graph_from_json, args.graph)
    model = _load(model_from_json, args.model)
    ball = build_ball(
        model, graph, args.radius, vertex_cap=args.cap_vertices, cube_cap=args.cap_cubes
    )
    res = homology_of_cells(ball)
    report = {
        "command": "homology",
        "config_hash": _config_hash(
            {"graph": graph.to_json(), "model": model.to_json(), "radius": args.radius}
        ),
        "homology": res.to_json(),
    }
    _emit(report, args.out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="topraag",
        description="exact toolkit for Artin groups over base-group monomorphisms",
    )
    p.add_argument("--version", action="version", version=f"topraag {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--graph", help="graph JSON file")
        sp.add_argument("--model", help="model JSON file")
        sp.add_argument("--radius", type=int, default=2)
        sp.add_argument("--out", help="write the report/export here")
        sp.add_argument("--cap-vertices", type=int, default=DEFAULT_VERTEX_CAP)
        sp.add_argument("--cap-cubes", type=int, default=DEFAULT_CUBE_CAP)

    b = sub.add_parser("build", help="build a ball of the coset cube complex")
    common(b)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run a verification suite")
    common(v)
    v.add_argument("--suite", required=True, choices=verification.SUITES)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--n", type=int, default=3, help="degree parameter for the sb suite")
    v.add_argument("--latitude", type=int, default=0)
    v.add_argument("--window", type=int, default=4)
    v.set_defaults(func=cmd_verify)

    h = sub.add_parser("homology", help="homology of a ball or a valley window")
    common(h)
    h.add_argument("--valley", type=int, help="latitude of a valley of the apartment")
    h.add_argument("--window", type=int, default=4, help="valley window word radius")
    h.set_defaults(func=cmd_homology)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _require_non_negative(args)
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RegimeMismatch, ToolkitError) as exc:
        hint = ""
        if isinstance(exc, RegimeMismatch) and "connected" in str(exc):
            hint = " (hint: the group splits over the connected components; build each separately)"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
