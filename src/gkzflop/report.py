"""Deterministic report assembly and rendering.

Reports carry a fixed schema: config and body are fully deterministic
for a given job configuration; wall-clock timings live in a separate
section so machine comparison can strip them.

sanitize is the one rule that turns values into JSON: a complex number
becomes {"re": real, "im": imag}, tuples and arrays become lists and
Fractions strings.  Commands put their values into a report as they
are.
"""

from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

SCHEMA_VERSION = 1


def sanitize(obj):
    """Recursively convert to JSON-serializable deterministic values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((sanitize(v) for v in obj), key=repr)
    return str(obj)


def assemble(kind, config, body, timings):
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "config": sanitize(config),
        "body": sanitize(body),
        "timings": sanitize(timings),
    }


def strip_timings(report):
    """Copy without the timing section (the determinism comparand)."""
    return {k: v for k, v in report.items() if k != "timings"}


def _json_float(v):
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    if v != v:
        return "NaN"
    if v in (float("inf"), float("-inf")):
        return "Infinity" if v > 0 else "-Infinity"
    return float.__repr__(v)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def render_json(report):
    """The sanitized report as json.dumps(report, sort_keys=True,
    indent=2) writes it, plus a newline, in one walk that appends
    strings.  Values are dispatched on their exact type, which sanitize
    fixes: dict, list, str, int, float, bool or None."""
    out = []
    put = out.append

    def walk(obj, pad):
        kind = type(obj)
        if kind is float:
            put(_json_float(obj))
        elif kind is dict or kind is list:
            if not obj:
                put("{}" if kind is dict else "[]")
                return
            inner = pad + "  "
            sep = ("{" if kind is dict else "[") + "\n" + inner
            for item in sorted(obj) if kind is dict else obj:
                if kind is dict:
                    put(sep + encode_basestring_ascii(item) + ": ")
                    walk(obj[item], inner)
                else:
                    put(sep)
                    walk(item, inner)
                sep = ",\n" + inner
            put("\n" + pad + ("}" if kind is dict else "]"))
        elif kind is str:
            put(encode_basestring_ascii(obj))
        elif kind is int:
            put(int.__repr__(obj))
        else:
            put(_JSON_CONSTANTS[obj])

    walk(report, "")
    put("\n")
    return "".join(out)


def _text_lines(obj, indent, out):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                out.append(f"{pad}{k}:")
                _text_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            if isinstance(v, (dict, list)):
                out.append(f"{pad}- [{i}]")
                _text_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}- {v}")
    else:
        out.append(f"{pad}{obj}")


def render_text(report):
    out = [f"gkzflop report: {report['kind']} (schema {report['schema']})"]
    status = report["body"].get("pass") if isinstance(report["body"], dict) \
        else None
    if status is not None:
        out.append(f"status: {'pass' if status else 'FAIL'}")
    out.append("config:")
    _text_lines(report["config"], 1, out)
    out.append("body:")
    _text_lines(report["body"], 1, out)
    out.append("timings:")
    _text_lines(report["timings"], 1, out)
    return "\n".join(out) + "\n"


def render(report, fmt):
    if fmt == "text":
        return render_text(report)
    return render_json(report)
