"""Deterministic rendering of command results as JSON or text.

JSON output is byte-deterministic for fixed inputs: keys sorted, two-space
indent, group orders rendered as decimal strings.  Text output is a stable
human-readable projection of the same payload.
"""

import json

from .diagram import INFINITY


def to_json(payload):
    data = json.dumps(payload, sort_keys=True, indent=2,
                      separators=(",", ": "))
    return (data + "\n").encode("utf-8")


def _schlafli_text(schlafli):
    if schlafli is None:
        return "-"
    return "{%s}" % ", ".join(str(p) for p in schlafli)


def _checks_lines(checks, out):
    for c in checks:
        if c.get("pass"):
            out.append("  %s: pass" % c["name"])
        else:
            wit = json.dumps(c.get("witness"), sort_keys=True)
            out.append("  %s: FAIL %s" % (c["name"], wit))


def verify_text(payload):
    out = [
        "diagram: %s" % payload["diagram"],
        "modulus: %d" % payload["modulus"],
        "verdict: %s" % payload["verdict"],
        "order: %s" % payload["order"],
        "schlafli: %s" % _schlafli_text(payload["schlafli"]),
        "checks:",
    ]
    _checks_lines(payload["checks"], out)
    return "\n".join(out) + "\n"


def classify_payload(diagram_text, modulus, sections):
    return {
        "diagram": diagram_text,
        "modulus": modulus,
        "sections": [sc.to_dict() for sc in sections],
    }


def _section_line(sec):
    head = "nodes %d..%d %s %s" % (sec["window"][0], sec["window"][1],
                                   sec["kind"], sec["family"])
    bits = []
    if sec["measured_q"] is not None:
        bits.append("q=(%s)" % ",".join(str(x) for x in sec["measured_q"]))
    if sec["measured_order"] is not None:
        bits.append("order=%s" % sec["measured_order"])
    if sec["flipped"]:
        bits.append("flipped")
    if sec["constraints_row_id"]:
        bits.append("row=%s" % sec["constraints_row_id"])
    if sec["annotation"]:
        bits.append("(%s)" % sec["annotation"])
    return "  " + " ".join([head] + bits)


def classify_text(payload):
    out = [
        "diagram: %s" % payload["diagram"],
        "modulus: %d" % payload["modulus"],
        "sections:",
    ]
    for sec in payload["sections"]:
        out.append(_section_line(sec))
    if not payload["sections"]:
        out.append("  (none)")
    return "\n".join(out) + "\n"


def subgroup_payload(parent_order, sub_report, index):
    payload = sub_report.to_dict()
    payload["parent_order"] = str(parent_order)
    payload["index"] = index
    return payload


def subgroup_text(payload):
    out = [
        "diagram: %s" % payload["diagram"],
        "modulus: %d" % payload["modulus"],
        "words: %s" % " | ".join(
            " ".join(str(i) for i in w) for w in payload["words"]),
        "parent_order: %s" % payload["parent_order"],
        "order: %s" % payload["order"],
        "index: %s" % payload["index"],
        "verdict: %s" % payload["verdict"],
        "schlafli: %s" % _schlafli_text(payload["schlafli"]),
        "checks:",
    ]
    _checks_lines(payload["checks"], out)
    return "\n".join(out) + "\n"


def parse_payload(diagram):
    periods = ["oo" if p == INFINITY else p for p in diagram.branch_periods()]
    return {
        "diagram": diagram.render(),
        "rank": diagram.rank,
        "labels": list(diagram.labels),
        "branches": [b.value for b in diagram.branches],
        "schlafli": periods,
        "parities": [diagram.node_parity(i) for i in range(diagram.rank)],
    }


def parse_text(payload):
    out = [
        "diagram: %s" % payload["diagram"],
        "rank: %d" % payload["rank"],
        "labels: %s" % " ".join(str(x) for x in payload["labels"]),
        "schlafli: {%s}" % ", ".join(str(p) for p in payload["schlafli"]),
        "parities: %s" % " ".join(payload["parities"]),
    ]
    if "matrices" in payload:
        out.append("matrices mod %d:" % payload["modulus"])
        for i, rows in enumerate(payload["matrices"]):
            out.append("  r%d:" % i)
            for row in rows:
                out.append("    [%s]" % " ".join(str(x) for x in row))
    return "\n".join(out) + "\n"


def reproduce_payload(rows):
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for row in rows:
        if row["status"] == "PASS":
            counts["pass"] += 1
        elif row["status"] == "FAIL":
            counts["fail"] += 1
        else:
            counts["skipped"] += 1
    return {"cases": rows, "counts": counts}


def reproduce_text(payload):
    out = []
    width = max([len(r["id"]) for r in payload["cases"]] + [4])
    for row in payload["cases"]:
        line = "%-*s  %s" % (width, row["id"], row["status"])
        if row["status"] == "FAIL":
            for diff in row["diffs"]:
                line += "\n%-*s    %s" % (width, "", diff)
        out.append(line)
    c = payload["counts"]
    out.append("%d passed, %d failed, %d skipped"
               % (c["pass"], c["fail"], c["skipped"]))
    return "\n".join(out) + "\n"


RENDER_TEXT = {
    "verify": verify_text,
    "classify": classify_text,
    "subgroup": subgroup_text,
    "parse": parse_text,
    "reproduce": reproduce_text,
}


def render(command, payload, fmt):
    """Serialize a command payload to bytes in the requested format."""
    if fmt == "json":
        return to_json(payload)
    if "results" in payload:
        chunks = [RENDER_TEXT[command](p) for p in payload["results"]]
        return "\n".join(chunk.rstrip("\n") for chunk in chunks).encode() + b"\n"
    return RENDER_TEXT[command](payload).encode("utf-8")
