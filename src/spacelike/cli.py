"""Command-line surface.

Commands: analyze | lagrangian | solve-maximal | solve-ma | scan | check.
A job is one JSON config file plus flag overrides (--config, --out,
--format, --oracle, --seed).  ``load_config`` checks it before any work
starts against two tables: ``SCHEMA`` (each key's path, type, default and
constraint) and ``REQUIRES`` (what each command needs).

Exit codes: 0 success (warnings allowed), 1 config error, a flag
argparse cannot read included (reported as ``config error: <path>: ...``),
2 numerical failure, 3 invariant violation (check only).

Tables go from the library's columns (name -> values) to text a column at
a time: nodes in lexicographic order, floats by shortest round-trip repr
(``nan`` where not finite), so identical configs give byte-identical files.

``check`` runs the invariant battery, the table ``checks.SUITES``, on one
generator seeded by ``seed``.  Its file holds each suite's name, result and
detail; stdout adds each suite's wall time, which would break the file's
byte-identity.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, checks
from .bernstein import DecayScanRow, ScanConfig, decay_scan
from .exprparse import DomainError, ParseError, parse
from .graphgeom import BasePointError, GraphMap, NotSpacelikeError
from .grassmann import graph_node_table
from .jets import MAX_DIM
from .lagrangian import NotConvexError, Potential, node_table
from .lattice import Lattice, LatticeError, active_mask, node_points
from .solver import SolverError, save_field, solve_ma, solve_maximal

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# What a job may hold

class Rule(NamedTuple):
    text: str          # what must hold, as error messages and README print it
    holds: Callable


REQUIRED = "required"  # the default of a key that its object must give
# The most nodes one lattice may have: each node holds jets and Jacobian
# rows, so a larger job exhausts memory before it finishes.  Scan lattices
# are two-dimensional, so theirs is a cap per axis.
MAX_NODES = 2**22
_SCAN_AXIS = math.isqrt(MAX_NODES)
_POSITIVE = Rule("> 0", lambda v: v > 0)
_AT_LEAST_1 = Rule(">= 1", lambda v: v >= 1)
_AT_LEAST_2 = Rule(">= 2", lambda v: all(k >= 2 for k in np.ravel(v)))

# (path, type, default, constraint), each object before its keys.  A key
# that is absent or null takes its default; a list's constraint is on the
# whole list.
SCHEMA = (
    ("m", "integer", 2, _AT_LEAST_1),
    ("n", "integer", 1, _AT_LEAST_1),
    ("components", "[string]", (), None),
    ("potential", "string", None, None),
    ("lattice", "object", None, None),
    ("lattice.lo", "[number]", REQUIRED, None),
    ("lattice.hi", "[number]", REQUIRED, None),
    ("lattice.nodes", "integer or [integer]", None, _AT_LEAST_2),
    ("lattice.spacing", "number", None, _POSITIVE),
    ("lattice.mask", "object", None, None),
    ("lattice.mask.kind", ("disc", "annulus"), REQUIRED, None),
    ("lattice.mask.r_min", "number", None, _POSITIVE),
    ("lattice.mask.r_max", "number", REQUIRED, _POSITIVE),
    ("solver", "object", None, None),
    ("solver.tol", "number", ScanConfig.tol, _POSITIVE),
    ("solver.max_iter", "integer", ScanConfig.max_iter, _AT_LEAST_1),
    ("solver.c", "number", 1.0, _POSITIVE),
    ("solver.delta_safe", "number", 1e-6, Rule("in (0, 1)", lambda v: 0 < v < 1)),
    ("radii", "[number]", (), Rule("0 < a1 < a2 < ...",
                                   lambda v: all(b > a for a, b in zip([0.0] + v, v)))),
    ("scan", "object", None, None),
    ("scan.nodes", "integer", ScanConfig.nodes,
     Rule(f"in [2, {_SCAN_AXIS}]", lambda v: 2 <= v <= _SCAN_AXIS)),
    ("scan.policy", ("fixed-nodes", "fixed-spacing"), ScanConfig.policy, None),
    ("scan.spacing", "number", ScanConfig.spacing, _POSITIVE),
    ("scan.domain", ("disc", "box"), ScanConfig.domain, None),
    ("scan.center_fraction", "number", ScanConfig.center_fraction,
     Rule("in (0, 1]", lambda v: 0 < v <= 1)),
    ("out", "string", None, Rule("a file path", lambda v: v != "")),
    ("format", ("csv", "json"), "csv", None),
    ("oracle", "boolean", False, None),
    ("seed", "integer", 0, Rule(">= 0", lambda v: v >= 0)),
)

_ONE_COMPONENT = ("components", Rule("one expression", lambda c: len(c["components"]) == 1))
_POTENTIAL = ("potential", Rule("a potential", lambda c: c["potential"] is not None))
_LATTICE = ("lattice", Rule("a lattice of dimension {m}",
                            lambda c: c["lattice"] is not None and c["lattice"].m == c["m"]))
_JETS = ("m", Rule(f"m <= {MAX_DIM}", lambda c: c["m"] <= MAX_DIM))  # the jets' dimension cap

# command -> what it needs beyond the defaults, as (path, rule on the job)
REQUIRES = {
    "analyze": (_JETS, ("components", Rule("{n} expressions",
                                           lambda c: len(c["components"]) == c["n"])), _LATTICE),
    "lagrangian": (_JETS, _POTENTIAL, _LATTICE),
    "solve-maximal": (_ONE_COMPONENT, _LATTICE),
    "solve-ma": (_POTENTIAL, _LATTICE),
    "scan": (_ONE_COMPONENT, ("radii", Rule("at least one radius", lambda c: len(c["radii"]) > 0)),
             ("m", Rule("m = 2", lambda c: c["m"] == 2)),
             ("scan.spacing", Rule(f"at most {_SCAN_AXIS} nodes per axis", lambda c: (
                 c["scan.policy"] == "fixed-nodes"
                 or _axis_nodes(2 * c["radii"][-1], c["scan.spacing"]) <= _SCAN_AXIS)))),
    "check": (),
}


def _finite(v) -> bool:
    """A JSON number that is a finite float (a bool is not a number)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# type -> (what a value must be, test, conversion)
_TYPES = {
    "number": ("a finite number", _finite, float),
    "integer": ("an integer", lambda v: _finite(v) and v == int(v), int),
    "string": ("a string", lambda v: isinstance(v, str), str),
    "boolean": ("true or false", lambda v: isinstance(v, bool), bool),
    "object": ("an object", lambda v: isinstance(v, dict), dict),
}


def _convert(kind, value, path: str):
    """``value`` as the schema type ``kind``, or a ConfigError naming ``path``."""
    if kind == "integer or [integer]":
        kind = "[integer]" if isinstance(value, list) else "integer"
    if isinstance(kind, tuple):  # one of the listed strings
        if isinstance(value, str) and value in kind:
            return value
        what = "one of " + ", ".join(kind)
    elif kind.startswith("["):
        if isinstance(value, list):
            return [_convert(kind[1:-1], v, f"{path}[{i}]") for i, v in enumerate(value)]
        what = "an array"
    else:
        what, test, cast = _TYPES[kind]
        if test(value):
            return cast(value)
    raise ConfigError(f"{path}: must be {what}, got {value!r}")


def _validate(raw: dict) -> dict:
    """Every schema path's checked value (an object's is its dict, or None)."""
    cfg = {}
    for path, kind, default, rule in SCHEMA:
        parent, _, key = path.rpartition(".")
        owner = cfg[parent] if parent else raw
        value = None if owner is None else owner.get(key)
        if value is None and default is REQUIRED and owner is not None:
            raise ConfigError(f"{path}: required")
        if value is None:
            cfg[path] = None if default is REQUIRED else default
            continue
        cfg[path] = value = _convert(kind, value, path)
        if rule is not None and not rule.holds(value):
            raise ConfigError(f"{path}: must be {rule.text}, got {value!r}")
    return cfg


def _axis_nodes(width: float, spacing: float) -> int:
    """The nodes a lattice axis of this width gets at this spacing: the
    nearest whole number of steps, saturating above MAX_NODES, plus one."""
    return round(min(abs(width) / spacing, MAX_NODES)) + 1


def _lattice(cfg: dict) -> Lattice | None:
    """The lattice that the checked ``lattice.*`` values describe."""
    if cfg["lattice"] is None:
        return None
    lo, hi = tuple(cfg["lattice.lo"]), tuple(cfg["lattice.hi"])
    nodes, spacing = cfg["lattice.nodes"], cfg["lattice.spacing"]
    kind, r_min, r_max = (cfg[f"lattice.mask.{key}"] for key in ("kind", "r_min", "r_max"))
    if kind == "annulus" and not (r_min is not None and r_min < r_max):
        raise ConfigError("lattice.mask.r_min: an annulus needs 0 < r_min < r_max")
    if nodes is None and spacing is None:
        raise ConfigError("lattice: needs spacing or nodes")
    per_axis = ([_axis_nodes(h - l, spacing) for l, h in zip(lo, hi)] if spacing is not None
                else nodes if isinstance(nodes, list) else [nodes] * len(lo))
    if math.prod(per_axis) > MAX_NODES:
        raise ConfigError(f"lattice.{'nodes' if spacing is None else 'spacing'}: "
                          f"a lattice may have at most {MAX_NODES} nodes")
    mask = None if kind is None else (kind, r_max) if kind == "disc" else (kind, r_min, r_max)
    try:
        return Lattice(lo, hi, tuple(per_axis), mask)
    except LatticeError as err:
        raise ConfigError(f"lattice: {err}") from err


def load_config(args) -> dict:
    """The checked job: each schema path's value, the built Lattice under
    "lattice", and "command" and "raw" (the config file's own JSON)."""
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError, RecursionError) as err:
            raise ConfigError(f"config: cannot read {args.config}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config: must be an object")
    flags = {"out": args.out, "format": args.format, "oracle": args.oracle, "seed": args.seed}
    cfg = _validate({**raw, **{key: v for key, v in flags.items() if v is not None}})
    cfg.update(command=args.command, raw=raw, lattice=_lattice(cfg))
    for path, rule in REQUIRES[args.command]:
        if not rule.holds(cfg):
            raise ConfigError(f"{path}: {args.command} needs {rule.text.format_map(cfg)}")
    return cfg


def _expressions(cfg: dict, path: str) -> list:
    """The expressions at ``path`` ("components" or "potential"), parsed in m variables."""
    texts = cfg[path] if path == "components" else [cfg[path]]
    try:
        return [parse(text, cfg["m"]) for text in texts]
    except ParseError as err:
        raise ConfigError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# Deterministic writers

def _json_column(values) -> list:
    """A column as JSON values: Python ints and floats, the string "nan"
    for a float that is not finite, and strings as they are."""
    col = np.asarray(values)
    if col.dtype.kind != "f":
        return col.tolist()
    return np.where(np.isfinite(col), col.astype(object), "nan").tolist()


def _csv_column(values) -> list:
    """A column as CSV cells: the repr of a number, or the string, quoted
    only if it holds a comma, a quote or a newline."""
    col = np.asarray(values)
    cells = list(map(str, _json_column(col)))  # str of a Python number is its repr
    if col.dtype.kind not in "OU":  # numbers need no quotes
        return cells
    return ['"' + c.replace('"', '""') + '"' if any(ch in c for ch in ',"\n') else c
            for c in cells]


def _number(v) -> str:
    """One number as the tables spell it."""
    return _csv_column([v])[0]


def write_records(path, table: dict, meta: dict, fmt: str) -> None:
    """Write ``table`` (column name -> values, all of one length) as CSV, or
    as JSON records under ``meta``; to stdout when ``path`` is None."""
    if fmt == "csv":
        rows = zip(*map(_csv_column, table.values()))
        text = "\n".join([",".join(table), *map(",".join, rows)]) + "\n"
    else:
        rows = zip(*map(_json_column, table.values()))
        payload = {"meta": meta, "records": [dict(zip(table, row)) for row in rows]}
        text = json.dumps(payload, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _meta(cfg: dict) -> dict:
    return {"version": __version__, "command": cfg["command"], "config": cfg["raw"]}


def _write_node_table(cfg: dict, pts: np.ndarray, status: np.ndarray, cols: dict) -> None:
    """The node table: each node's index, coordinates, status and columns."""
    table = {"index": np.arange(len(pts)), **{f"x{d+1}": x for d, x in enumerate(pts.T)},
             "status": status, **cols}
    write_records(cfg["out"], table, _meta(cfg), cfg["format"])


# ---------------------------------------------------------------------------
# Commands

def cmd_analyze(cfg: dict) -> int:
    gm = GraphMap.from_strings(cfg["m"], _expressions(cfg, "components"))
    pts = node_points(cfg["lattice"])
    status, cols, notes = graph_node_table(gm, pts, active_mask(cfg["lattice"]).ravel())
    _write_node_table(cfg, pts, status, cols)
    for note in notes:
        print(f"analyze: {note}")
    warn = int(np.sum((status != "ok") & (status != "inactive")))
    print(f"analyze: {len(status)} nodes, {warn} warnings")
    return EXIT_OK


def cmd_lagrangian(cfg: dict) -> int:
    P = Potential(cfg["m"], *_expressions(cfg, "potential"), cfg["solver.c"])
    pts = node_points(cfg["lattice"])
    status, cols = node_table(P, pts, cfg["oracle"])
    _write_node_table(cfg, pts, status, cols)
    print(f"lagrangian: {len(status)} nodes, {int(np.sum(status != 'ok'))} flagged")
    return EXIT_OK


def cmd_solve(cfg: dict) -> int:
    tol, max_iter = cfg["solver.tol"], cfg["solver.max_iter"]
    if cfg["command"] == "solve-maximal":
        (boundary,) = _expressions(cfg, "components")
        fld, log = solve_maximal(cfg["lattice"], boundary, tol=tol, max_iter=max_iter,
                                 delta_safe=cfg["solver.delta_safe"])
    else:
        (F,) = _expressions(cfg, "potential")
        fld, log = solve_ma(cfg["lattice"], F, c=cfg["solver.c"], tol=tol, max_iter=max_iter)
    out = cfg["out"] or "field.json"
    save_field(fld, out, cfg["format"])
    for stage, it, res, damp, kind in log.steps:
        print(f"stage={_number(stage)} iter={it} residual={_number(res)} damping={_number(damp)} "
              f"step={kind}")
    for stage, kind, detail in log.events:
        print(f"event stage={_number(stage)} {kind}" + (f": {detail}" if detail else ""))
    print(f"final residual {_number(log.final_residual)} (tol {_number(tol)}) -> {out}")
    return EXIT_OK


def cmd_scan(cfg: dict) -> int:
    (boundary,) = _expressions(cfg, "components")
    keys = ("nodes", "policy", "spacing", "domain", "center_fraction")
    scan_cfg = ScanConfig(tol=cfg["solver.tol"], max_iter=cfg["solver.max_iter"],
                          **{key: cfg[f"scan.{key}"] for key in keys})
    scan = decay_scan(boundary, cfg["radii"], scan_cfg)
    slope = np.nan if scan.slope is None else scan.slope
    meta = {**_meta(cfg), "slope": _json_column([slope])[0], "slope_kind": scan.slope_kind}
    table = {f.name: [getattr(row, f.name) for row in scan.rows] for f in fields(DecayScanRow)}
    write_records(cfg["out"], table, meta, cfg["format"])
    slope_txt = "exact-zero" if scan.slope_kind == "exact-zero" else _number(slope)
    print(f"scan: fitted log-log slope {slope_txt}")
    failed = [row for row in scan.rows if row.status != "ok"]
    if not failed:
        return EXIT_OK
    print(f"numerical failure: {len(failed)} of {len(scan.rows)} radii failed, the first at "
          f"a = {_number(failed[0].a)}: {failed[0].status}", file=sys.stderr)
    return EXIT_NUMERICAL


def cmd_check(cfg: dict) -> int:
    rng = np.random.default_rng(cfg["seed"])
    suites, results, details = [], [], []
    for name, suite in checks.SUITES:
        start = time.perf_counter()
        try:
            ok, detail = suite(rng)
        except Exception as err:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {type(err).__name__}: {err}"
        ms = 1e3 * (time.perf_counter() - start)
        suites.append(name)
        results.append("pass" if ok else "FAIL")
        details.append(detail)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({ms:.1f} ms)")
    write_records(cfg["out"], {"suite": suites, "result": results, "detail": details},
                  _meta(cfg), cfg["format"])
    return EXIT_INVARIANT if "FAIL" in results else EXIT_OK


COMMANDS = {"analyze": cmd_analyze, "lagrangian": cmd_lagrangian, "solve-maximal": cmd_solve,
            "solve-ma": cmd_solve, "scan": cmd_scan, "check": cmd_check}


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A bad flag is a config error (exit 1), not argparse's exit 2."""
        raise ConfigError(message.removeprefix("argument "))


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="spacelike",
        description="space-like graph geometry: batch analysis, lattice solvers, "
                    "decay scans and invariant checks",
    )
    ap.add_argument("command", choices=list(COMMANDS))
    ap.add_argument("--config", help="path to the JSON job configuration")
    ap.add_argument("--out", help="output file (default: stdout or command default)")
    ap.add_argument("--format", choices=["csv", "json"], default=None)
    ap.add_argument("--oracle", action="store_true", default=None,
                    help="emit independent-oracle comparison columns")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for sample-point jitter in property suites")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](load_config(args))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # the output file cannot be written
        print(f"config error: out: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, NotSpacelikeError, NotConvexError, BasePointError,
            DomainError, LatticeError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
