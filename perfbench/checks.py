"""Output checks applied to every job's rendered report.

A job fails on exit status != 0, on `pass: false`, or on an output
mismatch.  The eps-independent outputs (the undeformed transform
matrices of `fm` and `ac`, and `verify`'s `laurent.entries`) must match
the reference values in reference.json, and the two routes' undeformed
matrices must agree with each other.
"""

import json

from workloads import FIXTURE_NAMES

# The program's own gate between the two residue routes.
ROUTE_RTOL = 1e-9


def matrix(report):
    """Undeformed matrix of an fm/ac/verify report, rows of complex."""
    body = report["body"]
    if report["kind"] == "verify":
        return [[complex(re, im) for re, im in row]
                for row in body["laurent"]["entries"]]
    return [[complex(v["re"], v["im"]) for v in row]
            for row in body["undeformed_limit"]["entries"]]


def relative_deviation(a, b):
    """max |a - b| over the largest |b|; inf when shapes differ."""
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return float("inf")
    scale = max(abs(v) for row in b for v in row)
    dev = max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    return dev / scale if scale else float("inf")


def is_identity(m, tol=1e-6):
    return all(abs(v - (1.0 if i == j else 0.0)) <= tol
               for i, row in enumerate(m) for j, v in enumerate(row))


class OutputChecker:
    """Checks one pass of jobs; `begin_pass` forgets the previous pass."""

    def __init__(self, reference):
        self.reference = reference
        self._routes = {}

    def begin_pass(self):
        self._routes = {}

    def check(self, command, fixture, status, text):
        """Failure messages for one job (empty when it passed)."""
        label = f"{command} {FIXTURE_NAMES.get(fixture, fixture)}"
        try:
            report = json.loads(text)
        except ValueError as exc:
            return [f"{label}: report is not JSON ({exc})"]
        body = report.get("body", {})
        errors = []
        if status != 0:
            errors.append(f"{label}: exit status {status}: "
                          f"{body.get('message', '')}")
        if body.get("pass") is not True:
            errors.append(f"{label}: pass is {body.get('pass')!r}")
        if command in ("fm", "ac", "verify") and not errors:
            errors += self._check_matrix(label, command, fixture,
                                         matrix(report))
        return errors

    def _check_matrix(self, label, command, fixture, m):
        errors = []
        ref = [[complex(re, im) for re, im in row]
               for row in self.reference["matrices"][FIXTURE_NAMES[fixture]]]
        dev = relative_deviation(m, ref)
        if not dev <= self.reference["rtol"]:
            errors.append(f"{label}: undeformed matrix deviates {dev:.3g} "
                          f"from the reference (rtol "
                          f"{self.reference['rtol']:g})")
        if command in ("fm", "ac"):
            other = self._routes.get((fixture, "ac" if command == "fm"
                                      else "fm"))
            if other is not None:
                dev = relative_deviation(m, other)
                if not dev <= ROUTE_RTOL:
                    errors.append(f"{label}: fm and ac undeformed matrices "
                                  f"differ by {dev:.3g}")
            self._routes[(fixture, command)] = m
        return errors


def p2_inspect_errors(text):
    """Local P2 must be the flop h = (1,1,1,-3) with 3 sectors a side."""
    errors = []
    body = json.loads(text)["body"]
    h = body.get("circuit", {}).get("h")
    if h != [1, 1, 1, -3]:
        errors.append(f"inspect p2: circuit h = {h}, want [1, 1, 1, -3]")
    dims = {label: d.get("total")
            for label, d in body.get("sector_dims", {}).items()}
    if dims != {"plus": 3, "minus": 3}:
        errors.append(f"inspect p2: sector dims {dims}, want 3 on both sides")
    return errors


def p2_fm_errors(text):
    """Local P2's undeformed transform must be nontrivial."""
    if is_identity(matrix(json.loads(text))):
        return ["fm p2: undeformed matrix is the identity"]
    return []
