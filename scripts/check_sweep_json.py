#!/usr/bin/env python3
"""Validate a tacsim-sweep-v2 JSON report (the format tacsim-paper
writes via TACSIM_JSON_OUT).

Usage:
    scripts/check_sweep_json.py REPORT.json [--min-points N]
        [--require-ok] [--require-topology]

Checks, in order:
  * the file parses as JSON and carries schema "tacsim-sweep-v2";
  * the top level has the expected fields (jobs, points, tables, runs)
    with the expected types;
  * every run entry has the per-run metadata fields (key, point_key,
    benchmark, topology, instructions, warmup, seed, ok, wall_ms,
    cycles, ipc, error), keys are unique, and point_key is 32
    lowercase hex chars (or "" for custom jobs);
  * every table has figure/title/rows, figures are unique, and every
    row has series/label/measured/paper/unit;
  * --min-points N: at least N run entries (a combinatorial sweep that
    silently registered nothing still writes a well-formed report —
    this catches that);
  * --require-ok: every run succeeded (ok == true, error == null);
  * --require-topology: every run built from a config path carries a
    nonempty topology label (custom jobs are exempt only when their key
    starts with "custom/").

Exit status: 0 on pass, 1 on a failed content check, 3 when the report
is missing/unreadable, 4 when it exists but is malformed (bad JSON,
wrong schema, missing fields). The missing/malformed split lets CI
tell "the bench never wrote a report" from "the report is corrupt".
"""

import argparse
import json
import sys

EXIT_FAILED = 1
EXIT_MISSING = 3
EXIT_MALFORMED = 4

RUN_FIELDS = {
    "key": str,
    "point_key": str,
    "benchmark": str,
    "topology": str,
    "instructions": int,
    "warmup": int,
    "seed": int,
    "ok": bool,
    "wall_ms": (int, float),
    "cycles": int,
    "ipc": (int, float, type(None)),
    "error": (str, type(None)),
}

TABLE_FIELDS = {
    "figure": str,
    "title": str,
    "rows": list,
}

ROW_FIELDS = {
    "series": str,
    "label": str,
    "measured": (int, float, type(None)),
    "paper": (int, float, type(None)),
    "unit": str,
}


def fail(code, message):
    print(message, file=sys.stderr)
    sys.exit(code)


def malformed(path, what):
    fail(EXIT_MALFORMED, f"error: {path}: {what}")


def type_names(types):
    """'int' for one accepted type, 'int or float' for a tuple."""
    if isinstance(types, type):
        types = (types,)
    return " or ".join(t.__name__ for t in types)


def check_fields(path, kind, index, entry, spec):
    if not isinstance(entry, dict):
        malformed(path, f"{kind}[{index}] is not an object")
    for field, types in spec.items():
        if field not in entry:
            malformed(path, f"{kind}[{index}] is missing '{field}'")
        if not isinstance(entry[field], types):
            malformed(
                path,
                f"{kind}[{index}].{field} has type "
                f"{type(entry[field]).__name__}, expected "
                f"{type_names(types)}",
            )


def main():
    ap = argparse.ArgumentParser(
        description="Validate a tacsim-sweep-v2 JSON report.")
    ap.add_argument("report", help="JSON file written via TACSIM_JSON_OUT")
    ap.add_argument("--min-points", type=int, default=1,
                    help="minimum number of run entries (default: 1)")
    ap.add_argument("--require-ok", action="store_true",
                    help="fail if any run entry failed")
    ap.add_argument("--require-topology", action="store_true",
                    help="fail if any non-custom run lacks a topology "
                         "label")
    args = ap.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            body = f.read()
    except OSError as e:
        fail(EXIT_MISSING, f"error: cannot read report {args.report}: {e}")
    try:
        report = json.loads(body)
    except json.JSONDecodeError as e:
        malformed(args.report, f"not valid JSON: {e}")

    if not isinstance(report, dict):
        malformed(args.report, "top level is not an object")
    if report.get("schema") != "tacsim-sweep-v2":
        malformed(args.report,
                  f"expected schema tacsim-sweep-v2, "
                  f"got {report.get('schema')!r}")
    for field, types in (("jobs", int), ("points", int), ("tables", list),
                         ("runs", list)):
        if not isinstance(report.get(field), types):
            malformed(args.report, f"missing or mistyped '{field}'")

    runs = report["runs"]
    seen_keys = set()
    for i, run in enumerate(runs):
        check_fields(args.report, "runs", i, run, RUN_FIELDS)
        if run["key"] in seen_keys:
            malformed(args.report, f"duplicate run key {run['key']!r}")
        seen_keys.add(run["key"])
        # ok and error must agree: a failed run explains itself.
        if not run["ok"] and not run["error"]:
            malformed(args.report,
                      f"run {run['key']!r} failed without an error")
        # point_key is the canonical content hash: 32 lowercase hex
        # chars, or "" for custom jobs whose behavior the runner cannot
        # hash.
        pk = run["point_key"]
        if pk and (len(pk) != 32
                   or any(c not in "0123456789abcdef" for c in pk)):
            malformed(args.report,
                      f"run {run['key']!r} has a malformed point_key "
                      f"{pk!r} (want 32 lowercase hex chars or \"\")")

    figures = set()
    for t, table in enumerate(report["tables"]):
        check_fields(args.report, "tables", t, table, TABLE_FIELDS)
        if table["figure"] in figures:
            malformed(args.report,
                      f"duplicate table for figure {table['figure']!r}")
        figures.add(table["figure"])
        for i, row in enumerate(table["rows"]):
            check_fields(args.report, f"tables[{t}].rows", i, row,
                         ROW_FIELDS)

    if len(runs) < args.min_points:
        fail(EXIT_FAILED,
             f"error: {args.report}: only {len(runs)} run(s), "
             f"expected at least {args.min_points}")

    if args.require_ok:
        failed = [r["key"] for r in runs if not r["ok"]]
        if failed:
            for r in runs:
                if not r["ok"]:
                    print(f"  {r['key']}: {r['error']}", file=sys.stderr)
            fail(EXIT_FAILED,
                 f"error: {args.report}: {len(failed)} failed run(s): "
                 f"{failed}")

    if args.require_topology:
        missing = [r["key"] for r in runs
                   if not r["topology"]
                   and not r["key"].startswith("custom/")]
        if missing:
            fail(EXIT_FAILED,
                 f"error: {args.report}: runs without a topology label: "
                 f"{missing}")

    ok = sum(1 for r in runs if r["ok"])
    rows = sum(len(t["rows"]) for t in report["tables"])
    print(f"sweep check passed: {len(runs)} run(s) ({ok} ok), "
          f"{len(figures)} table(s) of {rows} row(s), schema tacsim-sweep-v2")


if __name__ == "__main__":
    main()
