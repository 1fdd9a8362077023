#!/usr/bin/env python3
"""Validate a Chrome trace_event file produced by `rralloc --trace`.

Checks, in order:
  1. the file parses as a JSON array of event objects;
  2. every complete ("ph": "X") span nests properly within its
     per-thread (per-domain) track — spans on one tid either disjoint
     or strictly contained, never partially overlapping;
  3. the trace covers the allocator's documented stages. Two shapes:
     the sequential driver (`Allocator.allocate` / `Batch.allocate_all`,
     e.g. `bench/main.exe` run under RA_TRACE) has an `alloc` root with
     at least one `pass` and `build` / `simplify` / `color` spans under
     it; the task-DAG schedule (`Batch.allocate_matrix`, which every
     `rralloc` allocation runs) wraps every stage in a `task` span
     instead — `task` spans plus the same stage spans, and at least one
     `sched.tasks`-family counter sample. Under `--heuristic irc` the
     worklist engine's `coalesce` span subsumes `simplify`
     (simplification and coalescing interleave in one loop), so either
     name satisfies that slot (spill phases appear only when something
     spills, in either shape);
  4. when more than one domain participated, at least one `scan` or
     stolen `task` span is tagged with a non-main tid;
  5. every counter named by a --require-counter flag has at least one
     sample and a positive final total — the way a CI job asserts "this
     code path actually ran" rather than merely "the trace looked
     well-formed".

Exit status 0 on success; 1 with a message on the first violation.
Usage: check_trace.py [--require-counter NAME]... TRACE.json
"""

import json
import sys


def fail(msg):
    print(f"check_trace: {msg}", file=sys.stderr)
    sys.exit(1)


def main(path, require_counters=()):
    try:
        with open(path) as f:
            events = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path} is not valid JSON: {e}")

    if not isinstance(events, list) or not events:
        fail(f"{path}: expected a non-empty JSON array of events")

    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        fail("no complete ('ph':'X') span events in the trace")

    for e in spans:
        for key in ("name", "ts", "dur", "tid"):
            if key not in e:
                fail(f"span event missing {key!r}: {e}")

    # Per-tid nesting: sweep spans in start order; each span must either
    # start after the previous open span ends (sibling) or end within it
    # (child). Partial overlap means the span tree is corrupt. ts/dur are
    # serialized at microsecond %.3f precision, so boundaries can disagree
    # by a few nanoseconds of rounding; EPS absorbs that, nothing more.
    EPS = 5e-3
    by_tid = {}
    for e in spans:
        by_tid.setdefault(e["tid"], []).append(e)
    for tid, track in by_tid.items():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in track:
            end = e["ts"] + e["dur"]
            while stack and e["ts"] >= stack[-1] - EPS:
                stack.pop()
            if stack and end > stack[-1] + EPS:
                fail(
                    f"tid {tid}: span {e['name']!r} "
                    f"[{e['ts']:.3f}, {end:.3f}] overlaps its enclosing "
                    f"span's end {stack[-1]:.3f} without nesting"
                )
            stack.append(end)

    names = {e["name"] for e in spans}
    dag = "task" in names
    required = (
        ("task", "build", "simplify", "color")
        if dag
        else ("alloc", "pass", "build", "simplify", "color")
    )
    for name in required:
        # the IRC worklist interleaves simplification with coalescing in
        # one loop and spans the whole thing as 'coalesce'; an irc-only
        # trace legitimately has no 'simplify' span
        if name == "simplify" and "coalesce" in names:
            continue
        if name not in names:
            fail(f"no {name!r} span in the trace (have: {sorted(names)})")
    if dag:
        sched_counters = [
            e
            for e in events
            if e.get("ph") == "C" and str(e.get("name", "")).startswith("sched.")
        ]
        if not sched_counters:
            fail("DAG trace ('task' spans) has no 'sched.*' counter samples")

    tids = {e["tid"] for e in spans}
    if len(tids) > 1:
        root = "task" if dag else "alloc"
        main_tid = min(e["tid"] for e in spans if e["name"] == root)
        offloaded = [
            e
            for e in spans
            if e["name"] in ("scan", "task") and e["tid"] != main_tid
        ]
        if not offloaded:
            fail(
                f"{len(tids)} domains emitted spans but no 'scan' or "
                "stolen 'task' span carries a worker tid"
            )

    # Counter samples carry the running total in args under the counter's
    # own name; "positive total" is therefore the max across samples.
    totals = {}
    for e in events:
        if e.get("ph") == "C":
            for v in (e.get("args") or {}).values():
                if isinstance(v, (int, float)):
                    name = e.get("name", "")
                    totals[name] = max(totals.get(name, 0), v)
    for name in require_counters:
        if name not in totals:
            fail(
                f"required counter {name!r} has no samples "
                f"(counters present: {sorted(totals) or 'none'})"
            )
        if totals[name] <= 0:
            fail(f"required counter {name!r} total is {totals[name]}, not positive")

    n_counters = sum(1 for e in events if e.get("ph") == "C")
    if require_counters:
        print(
            "check_trace: required counters OK — "
            + ", ".join(f"{n}={totals[n]}" for n in require_counters)
        )
    print(
        f"check_trace: OK — {len(events)} events, {len(spans)} spans, "
        f"{n_counters} counter samples, {len(tids)} domain track(s), "
        f"phases: {', '.join(sorted(names))}"
    )


if __name__ == "__main__":
    args = sys.argv[1:]
    require = []
    paths = []
    i = 0
    while i < len(args):
        if args[i] == "--require-counter":
            if i + 1 >= len(args):
                fail("--require-counter needs a NAME argument")
            require.append(args[i + 1])
            i += 2
        elif args[i].startswith("--require-counter="):
            require.append(args[i].split("=", 1)[1])
            i += 1
        else:
            paths.append(args[i])
            i += 1
    if len(paths) != 1:
        fail("usage: check_trace.py [--require-counter NAME]... TRACE.json")
    main(paths[0], require)
