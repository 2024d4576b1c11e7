#!/usr/bin/env python3
"""Validate a Chrome-trace JSON file produced by obs::ChromeTracer.

Checks, stdlib only (the obs.chrome_trace.* ctests run this on short
traced simulations):

  - the file is well-formed JSON with a ``traceEvents`` array;
  - every event carries the keys its phase requires (``ph``, ``pid``,
    ``tid``, ``ts``; ``dur`` for complete events, ``args.value`` for
    counters, ``args.name`` for metadata);
  - timestamps are non-decreasing within each (pid, tid) track — the
    ordering obs::ChromeTracer::finish() sorts into and Perfetto's
    importer expects;
  - span durations are non-negative.

Exit 0 when valid (prints a one-line summary), 1 with a diagnostic on
the first problem found.
"""

import json
import sys


def fail(msg: str) -> "NoReturn":
    print(f"validate_chrome_trace: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: validate_chrome_trace.py TRACE.json")
    path = sys.argv[1]

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"{path}: cannot read: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path}: not well-formed JSON: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not an array")

    last_ts = {}  # (pid, tid) -> last timestamp seen on that track
    counts = {"M": 0, "X": 0, "C": 0, "i": 0}
    for n, e in enumerate(events):
        where = f"{path}: traceEvents[{n}]"
        if not isinstance(e, dict):
            fail(f"{where}: event is not an object")
        ph = e.get("ph")
        if ph not in counts:
            fail(f"{where}: unknown phase {ph!r}")
        counts[ph] += 1
        for key in ("pid", "tid", "name"):
            if key not in e:
                fail(f"{where}: missing {key!r}")
        if ph == "M":
            if not isinstance(e.get("args"), dict) or "name" not in e["args"]:
                fail(f"{where}: metadata event missing args.name")
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"{where}: missing numeric ts")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)):
                fail(f"{where}: complete event missing numeric dur")
            if dur < 0:
                fail(f"{where}: negative duration {dur}")
        if ph == "C":
            args = e.get("args")
            if not isinstance(args, dict) or not any(
                isinstance(v, (int, float)) for v in args.values()
            ):
                fail(f"{where}: counter event missing numeric args value")
        track = (e["pid"], e["tid"])
        if ts < last_ts.get(track, 0):
            fail(
                f"{where}: ts {ts} decreases on track pid={track[0]} "
                f"tid={track[1]} (previous {last_ts[track]})"
            )
        last_ts[track] = ts

    dropped = doc.get("tacsimDroppedEvents", 0)
    if dropped:
        fail(f"{path}: {dropped} events dropped past the buffer cap")

    print(
        f"{path}: OK ({len(events)} events on {len(last_ts)} tracks: "
        f"{counts['X']} spans, {counts['C']} counters, "
        f"{counts['i']} instants, {counts['M']} metadata)"
    )


if __name__ == "__main__":
    main()
