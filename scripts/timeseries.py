#!/usr/bin/env python3
"""Summarize and compare tacsim-timeseries-v1 files, the JSONL that
obs::Sampler writes (src/obs/timeseries.hh): a header line carrying the
column names, then sample lines {"i":...,"c":...,"v":[...]} interleaved
with stats-reset markers {"event":"reset",...}.

Usage:
    scripts/timeseries.py summarize FILE [--filter PREFIX] [--all]
    scripts/timeseries.py diff FILE_A FILE_B

summarize prints the header metadata, then first/last/delta per metric
over the measured window: the samples after the last reset marker (all
of them when the file has none), so warm-up never shows as a negative
delta. Metrics that are zero at both ends are hidden unless --all;
--filter keeps only names starting with PREFIX.

diff compares the final samples of two files metric by metric. Values
stay the exact tokens the sampler printed (parse_int/parse_float=str),
never round-tripped doubles: equal runs write byte-equal files.

Exit status: 0 on success (diff: final samples identical), 1 when diff
finds a difference or a file is not a well-formed
tacsim-timeseries-v1 file, 2 on a usage error.
"""

import argparse
import json
import signal
import sys

SCHEMA = "tacsim-timeseries-v1"


def parse(line: str):
    """The JSON value of a line, numbers kept as tokens; None if not JSON."""
    try:
        return json.loads(line, parse_int=str, parse_float=str)
    except json.JSONDecodeError:
        return None


def fail(msg: str) -> "NoReturn":
    print(f"timeseries: {msg}", file=sys.stderr)
    sys.exit(1)


class TimeSeries:
    """One parsed file; every number is its verbatim token."""

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError as e:
            fail(f"{path}: cannot read: {e.strerror}")
        header = parse(lines[0]) if lines else None
        if not isinstance(header, dict) or header.get("schema") != SCHEMA:
            fail(f"{path}: not a {SCHEMA} file (bad header line)")
        for key in ("label", "interval", "columns"):
            if key not in header:
                fail(f"{path}: header missing {key!r}")
        self.label = header["label"]
        self.interval = header["interval"]
        self.columns = header["columns"]
        self.samples = []  # (i, c, values)
        self.resets = 0
        self.measured_from = 0  # index of the first sample after a reset
        for n, line in enumerate(lines[1:], 2):
            if not line:
                continue
            rec = parse(line)
            if not isinstance(rec, dict):
                fail(f"{path}: line {n}: not a JSON object")
            if rec.get("event") == "reset":
                self.resets += 1
                self.measured_from = len(self.samples)
                continue
            if not all(k in rec for k in ("i", "c", "v")):
                fail(f"{path}: line {n}: sample missing i, c or v")
            if len(rec["v"]) != len(self.columns):
                fail(
                    f"{path}: line {n}: sample has {len(rec['v'])} "
                    f"values for {len(self.columns)} columns"
                )
            self.samples.append((rec["i"], rec["c"], rec["v"]))


def summarize(ts: TimeSeries, prefix: str, show_all: bool) -> int:
    print(f"file       {ts.path}")
    print(f"label      {ts.label}")
    print(f"interval   {ts.interval}")
    print(f"columns    {len(ts.columns)}")
    print(f"samples    {len(ts.samples)}")
    print(f"resets     {ts.resets}")
    window = ts.samples[ts.measured_from:]
    if not window:
        print("(no samples after the last reset)" if ts.samples
              else "(no samples)")
        return 0
    (fi, fc, first), (li, lc, last) = window[0], window[-1]
    print(f"range      i={fi}..{li} c={fc}..{lc}")

    print("\n%-48s %16s %16s %16s" % ("metric", "first", "last", "delta"))
    shown = hidden = 0
    for name, f, l in zip(ts.columns, first, last):
        if not name.startswith(prefix):
            continue
        if not show_all and float(f) == 0 and float(l) == 0:
            hidden += 1
            continue
        print("%-48s %16s %16s %16.12g" % (name, f, l, float(l) - float(f)))
        shown += 1
    if hidden:
        print(f"({hidden} all-zero metric{'' if hidden == 1 else 's'} "
              "hidden; --all shows them)")
    if prefix and shown == 0 and hidden == 0:
        print(f"(no metrics match filter '{prefix}')")
    return 0


def diff(a: TimeSeries, b: TimeSeries) -> int:
    if a.columns != b.columns:
        print(f"timeseries: column sets differ ({len(a.columns)} vs "
              f"{len(b.columns)} columns)", file=sys.stderr)
        for x, y in ((a, b), (b, a)):
            for c in x.columns:
                if c not in y.columns:
                    print(f"  only in {x.path}: {c}", file=sys.stderr)
        return 1
    for ts in (a, b):
        if not ts.samples:
            print(f"timeseries: {ts.path} has no samples", file=sys.stderr)
            return 1

    (ai, ac, av), (bi, bc, bv) = a.samples[-1], b.samples[-1]
    diffs = 0
    if (ai, ac) != (bi, bc):
        print(f"endpoint: i={ai} c={ac} vs i={bi} c={bc}")
        diffs += 1
    for name, x, y in zip(a.columns, av, bv):
        if x != y:
            print(f"{name}: {x} vs {y}")
            diffs += 1
    if diffs:
        print(f"timeseries: {diffs} metric{'' if diffs == 1 else 's'} "
              f"differ between {a.path} and {b.path}", file=sys.stderr)
        return 1
    print(f"{a.path} and {b.path}: final samples identical "
          f"({len(a.columns)} metrics)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="timeseries.py",
        description="Summarize or compare tacsim-timeseries-v1 files.")
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("summarize",
                       help="first/last/delta per metric over the "
                            "measured window")
    s.add_argument("file")
    s.add_argument("--filter", default="", metavar="PREFIX",
                   help="only metrics whose name starts with PREFIX")
    s.add_argument("--all", action="store_true",
                   help="also show metrics that stayed zero")
    d = sub.add_parser("diff", help="compare the final samples; exit 1 "
                                    "when they differ")
    d.add_argument("file_a")
    d.add_argument("file_b")
    args = parser.parse_args()

    if args.command == "summarize":
        return summarize(TimeSeries(args.file), args.filter, args.all)
    return diff(TimeSeries(args.file_a), TimeSeries(args.file_b))


if __name__ == "__main__":
    # Die quietly when the reader goes away (`summarize ... | head`).
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
