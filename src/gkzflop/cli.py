"""Batch front-end: fixture loading, job configuration, command dispatch.

Every command takes the same flags, so one parser reads them all: the
command is its first positional argument, and the flags may come before
or after it.  COMMANDS is the one table of commands, name -> (help line,
function of the parsed flags that returns the report body); the
parser's choices, its help epilog and run all read it.  A report's
config is the parsed flags, less the command and --out.  --trunc and
--contour-t take their defaults from TruncationPolicy and ContourSpec.

Exit codes: 0 all checks pass, 1 verification failure or runtime error
in a module, 2 input error (bad flags, malformed fixture, infeasible
configuration).
"""

import argparse
import math
import re
import sys
import time

from . import report as reporting
from .errors import GkzflopError, InputError, NotATriangulation
from .fixtures import load_fixture
from .toric import (check_triangulation, compute_box, cone_index,
                    essential_cones, essential_sectors, find_circuit,
                    sector_label, validate_toric_data)
from .rings import Chamber
from .series import TruncationPolicy, evaluate_gamma, evaluate_gamma_dual
from .dual import CompactKModule
from .wall import (ContourSpec, WallContext, ac_transform, c_battery,
                   fm_transform, invertibility, oracle_report,
                   select_endpoints, undeformed_transforms,
                   verify_fm_equals_ac)

# verify's --trunc default, above TruncationPolicy's
_VERIFY_TRUNC = 25

# Tokens that read as a negative number, so as a flag's value and not as
# a flag.  argparse's own rule (Python 3.11) takes only -5 and -0.5
# forms: it refuses "--eps -1e-3" while it takes "--eps=-1e-3".
_NEGATIVE_NUMBER = r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"


def _add_common(sp):
    sp.add_argument("--fixture", default="a1",
                    help="bundled fixture name or path to a fixture file")
    sp.add_argument("--plus", default="plus", metavar="LABEL",
                    help="label of the triangulation used as the plus side")
    sp.add_argument("--minus", default="minus", metavar="LABEL",
                    help="label of the triangulation used as the minus side")
    sp.add_argument("--trunc", type=int, default=None,
                    help="series degree bound (default "
                         f"{TruncationPolicy.degree_bound}; verify uses {_VERIFY_TRUNC})")
    sp.add_argument("--eps", type=float, action="append", default=None,
                    help="deformation sample, repeatable")
    sp.add_argument("--contour-t", dest="contour_t", type=float,
                    default=ContourSpec.height, help="contour half-height T")
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
        description="wall-crossing solution series and transform checks",
        epilog="commands:\n" + "\n".join(
            f"  {name:<12} {help_text}"
            for name, (help_text, _) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser._negative_number_matcher = re.compile(_NEGATIVE_NUMBER)
    parser.add_argument("command", metavar="COMMAND", choices=list(COMMANDS),
                        help="one of the commands listed below")
    _add_common(parser)
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
    if not 0 < args.y_abs < math.inf:
        raise InputError("--y-abs must be positive and finite")
    if args.amp is not None and not 0 < args.amp < math.inf:
        raise InputError("--amp must be positive and finite")
    if args.eps is not None:
        if not all(map(math.isfinite, args.eps)):
            raise InputError("--eps samples must be finite")
        if len(set(args.eps)) != len(args.eps):
            raise InputError("--eps samples must be distinct")
        if any(e == 0 for e in args.eps):
            raise InputError("--eps samples must be nonzero")


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


def _crossing(args):
    """The fixture's data, its circuit and the plus and minus Chambers."""
    data, t_plus, t_minus = _load(args)
    circuit = find_circuit(data, t_plus, t_minus)
    return data, circuit, Chamber(data, t_plus), Chamber(data, t_minus)


def _policy(args, default=TruncationPolicy.degree_bound):
    bound = args.trunc if args.trunc is not None else default
    return TruncationPolicy(degree_bound=bound)


def _contour_spec(args):
    return ContourSpec(s0=args.contour_re, height=args.contour_t)


def _cone_list(cones):
    return sorted(sorted(i + 1 for i in c) for c in cones)


def cmd_inspect(args):
    """Passes when each side's K-theory rank, the total sector-algebra
    dimension, equals its normalized volume sum |det| over the maximal
    cones."""
    data, circuit, plus, minus = _crossing(args)
    dims = {}
    for chamber in (plus, minus):
        per = {sector_label(k): alg.dim
               for k, alg in chamber.algebras.items()}
        dims[chamber.t.label] = {
            "sectors": per, "total": sum(per.values()),
            "volume": sum(cone_index(data, c) for c in chamber.t.maximal)}
    return {
        "points": data.points,
        "deg": data.deg,
        "rank": data.rank, "n": data.n,
        "triangulations": {c.t.label: _cone_list(c.t.maximal)
                           for c in (plus, minus)},
        "circuit": {"h": circuit.h,
                    "I_plus": sorted(j + 1 for j in circuit.I_plus),
                    "I_minus": sorted(j + 1 for j in circuit.I_minus)},
        "sector_dims": dims,
        "pass": all(d["total"] == d["volume"] for d in dims.values()),
    }


def cmd_box(args):
    data, t_plus, t_minus = _load(args)
    body = {}
    for t in (t_plus, t_minus):
        body[t.label] = [{"coords": g.coords, "point": g.point}
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


def cmd_gamma_eval(args):
    data, t_plus, t_minus = _load(args)
    circuit = find_circuit(data, t_plus, t_minus)
    path = select_endpoints(circuit, args.amp, args.y_abs)
    policy = _policy(args)
    battery = c_battery(data, args.depth)
    body = {"x_plus": path.x_plus, "x_minus": path.x_minus,
            "evaluations": []}
    for side, t, x in (("plus", t_plus, path.x_plus),
                       ("minus", t_minus, path.x_minus)):
        values = evaluate_gamma(Chamber(data, t), battery, x, policy)
        for c, val in zip(battery, values):
            body["evaluations"].append({
                "side": side, "c": c,
                "components": {sector_label(k): {"coords": v.coords}
                               for k, v in val.components.items()},
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
        battery += [tuple(b + w for b, w in zip(base, v))
                    for v in data.points]
    return list(dict.fromkeys(battery))


def cmd_dual_eval(args):
    data, t_plus, t_minus = _load(args)
    policy = _policy(args)
    battery = _interior_battery(data, args.depth)
    x = [0.08 + 0.01j] * data.n
    body = {"x": x, "evaluations": []}
    for t in (t_plus, t_minus):
        chamber = Chamber(data, t)
        module = CompactKModule(chamber)
        values = evaluate_gamma_dual(chamber, battery, x, policy,
                                     module=module)
        for c, val in zip(battery, values):
            body["evaluations"].append({
                "side": t.label, "c": c,
                "generators": [[i + 1 for i in I]
                               for I in module.generators],
                "module_dim": module.dim,
                "components": {f"{sector_label(k)} {tuple(i + 1 for i in I)}":
                               {"coords": v.coords}
                               for (k, I), v in val.components.items()},
                "reduced": {sector_label(k): vec
                            for k, vec in val.reduced.items()},
                "term_counts": {sector_label(k): v
                                for k, v in val.term_counts.items()},
            })
    body["pass"] = True
    return body


def _matrix_out(wall, m):
    return {"rows": [f"{sector_label(k)}[{i}]" for k, i in wall.rows],
            "cols": [f"{sector_label(k)}[{i}]" for k, i in wall.cols],
            "entries": m.entries,
            "principal_ratio": m.principal_ratio}


def _transform_body(args, route, builder):
    _, circuit, plus, minus = _crossing(args)
    wall = WallContext(circuit, plus, minus)
    samples, ok = [], True
    eps_samples = args.eps or [1e-2]
    [(sampled, m0)] = undeformed_transforms(wall, eps_samples, (builder,))
    for eps, m in zip(eps_samples, sampled):
        sizes, invertible = invertibility(m.entries)
        ok = ok and invertible
        samples.append({"eps": eps, **sizes, **_matrix_out(wall, m)})
    return {"route": route, "samples": samples,
            "undeformed_limit": {**_matrix_out(wall, m0), "rho": m0.rho,
                                 "samples": m0.samples,
                                 "nested_error": m0.nested_error},
            "pass": ok and m0.undeformed_pass}


def cmd_oracle(args):
    _, circuit, plus, minus = _crossing(args)
    return oracle_report(circuit, plus, minus,
                         eps_values=tuple(args.eps or (1e-2, 1e-3)),
                         y_abs=args.y_abs, amplitude=args.amp,
                         policy=_policy(args), spec=_contour_spec(args))


def cmd_verify(args):
    _, circuit, plus, minus = _crossing(args)
    return verify_fm_equals_ac(
        circuit, plus, minus,
        eps_samples=tuple(args.eps or (1e-2, 5e-3, 2e-3)),
        depth=args.depth, y_abs=args.y_abs, amplitude=args.amp,
        policy=_policy(args, default=_VERIFY_TRUNC), spec=_contour_spec(args))


COMMANDS = {
    "inspect": ("fixture combinatorics: points, triangulations, circuit",
                cmd_inspect),
    "box": ("twisted sectors of both triangulations", cmd_box),
    "essential": ("essential cones and sectors on both sides",
                  cmd_essential),
    "gamma-eval": ("evaluate the solution series at the path endpoints",
                   cmd_gamma_eval),
    "dual-eval": ("evaluate the interior-indexed series, reduced",
                  cmd_dual_eval),
    "fm": ("kernel-route transform matrix",
           lambda args: _transform_body(args, "fm", fm_transform)),
    "ac": ("residue-route transform matrix",
           lambda args: _transform_body(args, "ac", ac_transform)),
    "oracle": ("contour quadrature vs pole sums, at c = 0 only "
               "(ignores --depth)", cmd_oracle),
    "verify": ("full crossing battery: matrices and end-to-end values",
               cmd_verify),
}


def run(command, args):
    """Run one command; returns (exit_status, report dict)."""
    t0 = time.perf_counter()
    try:
        _validate(args)
        body = COMMANDS[command][1](args)
        status = 0 if body.get("pass", True) else 1
    except GkzflopError as exc:
        body = {"error": type(exc).__name__, "message": str(exc),
                "pass": False}
        status = 2 if isinstance(exc, InputError) else 1
    timings = {"total_s": time.perf_counter() - t0}
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "out")}
    rep = reporting.assemble(command, config, body, timings)
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
