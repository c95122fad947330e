"""Batch front-end: fixture loading, job configuration, subcommand dispatch.

Exit codes: 0 all checks pass, 1 verification failure or runtime error
in a module, 2 input error (bad flags, malformed fixture, infeasible
configuration).
"""

import argparse
import math
import sys
import time

from . import report as reporting
from .errors import (GkzflopError, InputError, NotATriangulation,
                     UnimplementedPairing)
from .fixtures import load_fixture
from .toric import (check_triangulation, compute_box, essential_cones,
                    essential_sectors, find_circuit, sector_label,
                    validate_toric_data)
from .rings import Chamber
from .series import TruncationPolicy, evaluate_gamma, evaluate_gamma_dual
from .dual import PairingStub, build_compact_module, dual_transform_status
from .wall import (ContourSpec, WallContext, ac_transform, c_battery,
                   fm_transform, invertibility, oracle_report,
                   select_endpoints, verify_fm_equals_ac)

SUBCOMMANDS = (
    ("inspect", "fixture combinatorics: points, triangulations, circuit"),
    ("box", "twisted sectors of both triangulations"),
    ("essential", "essential cones and sectors on both sides"),
    ("gamma-eval", "evaluate the solution series at the path endpoints"),
    ("dual-eval", "evaluate the interior-indexed series, reduced"),
    ("fm", "kernel-route transform matrix"),
    ("ac", "residue-route transform matrix"),
    ("oracle", "contour quadrature vs pole sums"),
    ("verify", "full crossing battery: matrices and end-to-end values"),
    ("dual-status", "implemented-ingredient checklist for the dual side"),
)

_TRUNC_DEFAULT = 20


def _add_common(sp):
    sp.add_argument("--fixture", default="a1",
                    help="bundled fixture name or path to a fixture file")
    sp.add_argument("--plus", default="plus", metavar="LABEL",
                    help="label of the triangulation used as the plus side")
    sp.add_argument("--minus", default="minus", metavar="LABEL",
                    help="label of the triangulation used as the minus side")
    sp.add_argument("--trunc", type=int, default=None,
                    help="series degree bound (default 20; verify uses 25)")
    sp.add_argument("--eps", type=float, action="append", default=None,
                    help="deformation sample, repeatable")
    sp.add_argument("--contour-t", dest="contour_t", type=float,
                    default=14.0, help="contour half-height T")
    sp.add_argument("--contour-re", dest="contour_re", type=float,
                    default=None,
                    help="real part of the integration line (default: "
                         "placed per orbit generator)")
    sp.add_argument("--amp", type=float, default=None,
                    help="endpoint separation amplitude A")
    sp.add_argument("--y-abs", dest="y_abs", type=float, default=0.1,
                    help="|y| at the convergent-side endpoint")
    sp.add_argument("--depth", type=int, default=2,
                    help="c-battery depth")
    sp.add_argument("--out", default=None,
                    help="write the report here instead of stdout")
    sp.add_argument("--format", choices=("json", "text"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gkzflop",
        description="wall-crossing solution series and transform checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in SUBCOMMANDS:
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def _validate(args):
    if args.trunc is not None and args.trunc < 1:
        raise InputError("--trunc must be >= 1")
    if not 0 < args.contour_t < math.inf:
        raise InputError("--contour-t must be positive and finite")
    if args.contour_re is not None and not math.isfinite(args.contour_re):
        raise InputError("--contour-re must be finite")
    if args.depth < 0:
        raise InputError("--depth must be >= 0")
    if not 0 < args.y_abs:
        raise InputError("--y-abs must be positive")
    if args.amp is not None and args.amp <= 0:
        raise InputError("--amp must be positive")
    if args.eps is not None:
        if len(set(args.eps)) != len(args.eps):
            raise InputError("--eps samples must be distinct")
        if any(e == 0 for e in args.eps):
            raise InputError("--eps samples must be nonzero")


def _config_dict(args):
    return {"fixture": args.fixture, "plus": args.plus, "minus": args.minus,
            "trunc": args.trunc, "eps": args.eps,
            "contour_t": args.contour_t, "contour_re": args.contour_re,
            "amp": args.amp, "y_abs": args.y_abs, "depth": args.depth,
            "format": args.format}


def _load(args):
    """The fixture's data and its plus and minus triangulations, validated."""
    data, ts = load_fixture(args.fixture)
    validate_toric_data(data)
    for label in (args.plus, args.minus):
        if label not in ts:
            raise InputError(
                f"no triangulation labeled {label!r}; fixture has "
                f"{sorted(ts)}")
        ok, messages = check_triangulation(data, ts[label])
        if not ok:
            raise NotATriangulation(f"{label}: {'; '.join(messages)}")
    return data, ts[args.plus], ts[args.minus]


def _policy(args, default=_TRUNC_DEFAULT):
    bound = args.trunc if args.trunc is not None else default
    return TruncationPolicy(degree_bound=bound)


def _contour_spec(args):
    return ContourSpec(s0=args.contour_re, height=args.contour_t)


def _cone_list(cones):
    return sorted(sorted(i + 1 for i in c) for c in cones)


def cmd_inspect(args):
    data, t_plus, t_minus = _load(args)
    circuit = find_circuit(data, t_plus, t_minus)
    dims = {}
    for t in (t_plus, t_minus):
        per = {sector_label(k): alg.dim
               for k, alg in Chamber(data, t).algebras.items()}
        dims[t.label] = {"sectors": per, "total": sum(per.values())}
    return {
        "points": [list(p) for p in data.points],
        "deg": list(data.deg),
        "rank": data.rank, "n": data.n,
        "triangulations": {t.label: _cone_list(t.maximal)
                           for t in (t_plus, t_minus)},
        "circuit": {"h": list(circuit.h),
                    "I_plus": sorted(j + 1 for j in circuit.I_plus),
                    "I_minus": sorted(j + 1 for j in circuit.I_minus)},
        "sector_dims": dims,
        "pass": True,
    }


def cmd_box(args):
    data, t_plus, t_minus = _load(args)
    body = {}
    for t in (t_plus, t_minus):
        body[t.label] = [{"coords": [str(v) for v in g.coords],
                          "point": list(g.point)}
                         for g in compute_box(data, t)]
    body["pass"] = True
    return body


def cmd_essential(args):
    data, t_plus, t_minus = _load(args)
    circuit = find_circuit(data, t_plus, t_minus)
    body = {}
    for t in (t_plus, t_minus):
        body[t.label] = {
            "essential_cones": _cone_list(essential_cones(data, t, circuit)),
            "essential_sectors": [
                sector_label(g.key()) for g in
                essential_sectors(data, t, circuit, compute_box(data, t))],
        }
    body["pass"] = True
    return body


def _element_out(el):
    return {"coords": [{"re": v.real, "im": v.imag} for v in el.coords]}


def cmd_gamma_eval(args):
    data, t_plus, t_minus = _load(args)
    circuit = find_circuit(data, t_plus, t_minus)
    path = select_endpoints(circuit, args.amp, args.y_abs)
    policy = _policy(args)
    battery = c_battery(data, args.depth)
    body = {"x_plus": [{"re": v.real, "im": v.imag} for v in path.x_plus],
            "x_minus": [{"re": v.real, "im": v.imag} for v in path.x_minus],
            "evaluations": []}
    for side, t, x in (("plus", t_plus, path.x_plus),
                       ("minus", t_minus, path.x_minus)):
        values = evaluate_gamma(Chamber(data, t), battery, x, policy)
        for c, val in zip(battery, values):
            body["evaluations"].append({
                "side": side, "c": list(c),
                "components": {sector_label(k): _element_out(v)
                               for k, v in val.value.components.items()},
                "term_counts": {sector_label(k): v
                                for k, v in val.term_counts.items()},
                "tail": val.tail,
            })
    body["pass"] = True
    return body


def _interior_battery(data, depth):
    base = tuple(sum(p[a] for p in data.points) for a in range(data.rank))
    battery = [base]
    if depth >= 2:
        for v in data.points:
            battery.append(tuple(b + w for b, w in zip(base, v)))
    seen, out = set(), []
    for c in battery:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def cmd_dual_eval(args):
    data, t_plus, t_minus = _load(args)
    policy = _policy(args)
    battery = _interior_battery(data, args.depth)
    x = [0.08 + 0.01j] * data.n
    body = {"x": [{"re": v.real, "im": v.imag} for v in x],
            "evaluations": []}
    for t in (t_plus, t_minus):
        chamber = Chamber(data, t)
        module = build_compact_module(chamber)
        values = evaluate_gamma_dual(chamber, battery, x, policy,
                                     module=module)
        for c, val in zip(battery, values):
            body["evaluations"].append({
                "side": t.label, "c": list(c),
                "generators": [[i + 1 for i in I]
                               for I in module.generators],
                "module_dim": module.dim,
                "components": {f"{sector_label(k)} {tuple(i + 1 for i in I)}":
                               _element_out(v)
                               for (k, I), v in val.components.items()},
                "reduced": {sector_label(k): [{"re": v.real, "im": v.imag}
                                     for v in vec]
                            for k, vec in val.reduced.items()},
                "term_counts": {sector_label(k): v
                                for k, v in val.term_counts.items()},
            })
    body["pass"] = True
    return body


def _matrix_out(m):
    return {"rows": [f"{sector_label(k)}[{i}]" for k, i in m.row_index],
            "cols": [f"{sector_label(k)}[{i}]" for k, i in m.col_index],
            "entries": [[{"re": v.real, "im": v.imag} for v in row]
                        for row in m.entries],
            "principal_ratio": m.principal_ratio}


def _transform_body(args, route):
    data, t_plus, t_minus = _load(args)
    circuit = find_circuit(data, t_plus, t_minus)
    eps_list = args.eps if args.eps else [1e-2]
    builder = fm_transform if route == "fm" else ac_transform
    plus, minus = Chamber(data, t_plus), Chamber(data, t_minus)
    wall = WallContext(circuit, plus, minus)
    samples = []
    ok = True
    for eps in eps_list:
        m = builder(wall, eps)
        sizes, invertible = invertibility(m.entries)
        ok = ok and invertible
        samples.append({"eps": eps, **sizes, **_matrix_out(m)})
    m0 = builder(wall, None)
    return {"route": route, "samples": samples,
            "undeformed_limit": _matrix_out(m0),
            "pass": ok and m0.principal_ratio < 1e-9}


def cmd_fm(args):
    return _transform_body(args, "fm")


def cmd_ac(args):
    return _transform_body(args, "ac")


def cmd_oracle(args):
    data, t_plus, t_minus = _load(args)
    circuit = find_circuit(data, t_plus, t_minus)
    eps_values = tuple(args.eps) if args.eps else (1e-2, 1e-3)
    return oracle_report(circuit, Chamber(data, t_plus),
                         Chamber(data, t_minus), eps_values=eps_values,
                         y_abs=args.y_abs, amplitude=args.amp,
                         spec=_contour_spec(args))


def cmd_verify(args):
    data, t_plus, t_minus = _load(args)
    circuit = find_circuit(data, t_plus, t_minus)
    eps_samples = tuple(args.eps) if args.eps else (1e-2, 5e-3, 2e-3)
    policy = _policy(args, default=25)
    return verify_fm_equals_ac(circuit, Chamber(data, t_plus),
                               Chamber(data, t_minus),
                               eps_samples=eps_samples, depth=args.depth,
                               y_abs=args.y_abs, amplitude=args.amp,
                               policy=policy, spec=_contour_spec(args))


def cmd_dual_status(args):
    data, t_plus, t_minus = _load(args)
    body = dual_transform_status()
    body["modules"] = {}
    for t in (t_plus, t_minus):
        module = build_compact_module(Chamber(data, t))
        body["modules"][t.label] = {
            "generators": [[i + 1 for i in I] for I in module.generators],
            "dim": module.dim,
        }
    stub = PairingStub()
    raises = {}
    for name, slot in (("euler_characteristic", stub.euler_characteristic),
                       ("solution_pairing", stub.solution_pairing)):
        try:
            slot(None, None)
        except UnimplementedPairing as exc:
            raises[name] = {"raises": "UnimplementedPairing",
                            "message": str(exc)}
        else:
            raises[name] = {"raises": None}
    body["stub"] = raises
    body["pass"] = all(v["raises"] == "UnimplementedPairing"
                       for v in raises.values())
    return body


DISPATCH = {
    "inspect": cmd_inspect,
    "box": cmd_box,
    "essential": cmd_essential,
    "gamma-eval": cmd_gamma_eval,
    "dual-eval": cmd_dual_eval,
    "fm": cmd_fm,
    "ac": cmd_ac,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
    "dual-status": cmd_dual_status,
}


def run(command, args):
    """Dispatch one subcommand; returns (exit_status, report dict)."""
    t0 = time.perf_counter()
    try:
        _validate(args)
        body = DISPATCH[command](args)
        status = 0 if body.get("pass", True) else 1
    except InputError as exc:
        body = {"error": type(exc).__name__, "message": str(exc),
                "pass": False}
        status = 2
    except GkzflopError as exc:
        body = {"error": type(exc).__name__, "message": str(exc),
                "pass": False}
        status = 1
    timings = {"total_s": time.perf_counter() - t0}
    rep = reporting.assemble(command, _config_dict(args), body, timings)
    return status, rep


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    status, rep = run(args.command, args)
    text = reporting.render(rep, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
