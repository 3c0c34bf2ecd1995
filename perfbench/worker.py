"""One measured process: set up, run one part of a workload once, report.

Reads a job from standard input and writes one JSON object to standard
output.  The job names the workload, its generated documents, whether to
trace, and the mode:

- "full": the whole chain, quivers then verdicts, with its checks;
- "setup": stop once toricell is imported and the documents are parsed;
- "quiver": produce the quivers of sections and stop.

Set-up ends once toricell is imported and the documents are parsed.  Its
end is reported on CLOCK_MONOTONIC, which the parent shares, so the
parent can time set-up from before the interpreter started.  run.py
starts this script; it is not meant to be run by hand.
"""

import json
import os
import resource
import sys
import time


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    job = json.load(sys.stdin)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from spans import Recorder

    from toricell.inputs import parse_document

    rec = Recorder(bool(job["trace"]))
    with rec.span("inputs.load"):
        docs = [parse_document(raw) for _label, raw, _settings in job["entries"]]
    setup_end = now()
    mode = job["mode"]
    if mode == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return

    from chains import Run

    run = Run(job["workload"], job["entries"], rec)
    t0 = time.perf_counter()
    if mode == "quiver":
        for doc in docs:
            run.quiver(doc)
        print(json.dumps({"setup_end": setup_end, "quiver_s": run.quiver_s}))
        return
    with rec.span("workload"):
        run.execute(docs)
    wall = time.perf_counter() - t0
    attempted, failed, mismatches = run.outcome()
    out = {
        "setup_end": setup_end,
        "wall_s": wall,
        "quiver_s": run.quiver_s,
        "verdict_s": wall - run.quiver_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
    }
    if rec.enabled:
        from spans import per_span_cost, totals_by_name

        total, longest = totals_by_name(rec.spans)
        extra = sum(end - start for _sid, name, _p, start, end in rec.spans
                    if name.startswith("bench."))
        out["spans"] = rec.as_json()
        out["counts"] = rec.counts
        out["self_s"] = total
        out["longest_s"] = longest
        out["traced_shared_wall_s"] = wall - extra
        out["overhead_s"] = len(rec.spans) * per_span_cost()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
