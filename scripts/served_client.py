#!/usr/bin/env python3
"""Replay a serving trace CSV through a mann_served daemon.

Reads an arrival trace (the v1/v2 CSV format of serve::load_trace_csv),
turns every row into a `submit <task> <tenant> 0 <arrival_cycle>` line,
and pipes the whole schedule — followed by `drain` and `quit` — into a
freshly spawned daemon. Run with --lockstep on the daemon side, the
daemon steps its fleet to each arrival before routing it, exactly as
the closed loop (Cluster::run) does, so the replay reproduces the
closed-loop timeline for any --cluster N and --router: CI diffs the
daemon's --report-json against the --closed-loop report of the same
trace, on one instance and on a 4-instance p2c fleet, and hard-fails
on any byte difference.

usage: served_client.py TRACE.csv -- mann_served [daemon flags...]

The daemon's stdout streams through unchanged (ready/ok/done/shed/bye,
each reply and stream line tagged with its instance), so the
transcript itself is also byte-stable at a fixed trace and identical
at any --fleet-threads.
"""
import subprocess
import sys


def parse_trace(path, tasks):
    """Yields (arrival_cycle, task, tenant) rows, mirroring the C++
    loader: versioned or plain header tolerated, blank/# lines skipped,
    2-column v1 rows default tenant 0; task ids wrap into the registry
    exactly like mann_served --closed-loop does."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cols = [c.strip() for c in line.split(",")]
            if not cols[0].isdigit():  # header row
                continue
            arrival = int(cols[0])
            task = int(cols[1]) % tasks if tasks else int(cols[1])
            tenant = int(cols[2]) if len(cols) > 2 else 0
            rows.append((arrival, task, tenant))
    return rows


def main(argv):
    if "--" not in argv or argv.index("--") < 2:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    trace_path = argv[1]
    daemon_cmd = argv[split + 1:]
    if not daemon_cmd:
        print("no daemon command after --", file=sys.stderr)
        return 2

    # The daemon's task registry size bounds the task ids we may submit;
    # recover it from --tiny/--tasks so the wrap matches --closed-loop.
    tasks = 0
    for flag in ("--tiny", "--tasks"):
        if flag in daemon_cmd:
            tasks = int(daemon_cmd[daemon_cmd.index(flag) + 1])
    rows = parse_trace(trace_path, tasks)
    if not rows:
        print(f"{trace_path}: no trace entries", file=sys.stderr)
        return 2

    proc = subprocess.Popen(daemon_cmd, stdin=subprocess.PIPE, text=True)
    try:
        for arrival, task, tenant in rows:
            proc.stdin.write(f"submit {task} {tenant} 0 {arrival}\n")
        proc.stdin.write("drain\n")
        proc.stdin.write("quit\n")
        proc.stdin.close()
    except BrokenPipeError:
        print("daemon exited before the replay finished", file=sys.stderr)
        proc.wait()
        return 1
    rc = proc.wait()
    print(f"replayed {len(rows)} arrivals, daemon exit {rc}",
          file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
