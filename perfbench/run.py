"""Pipeline benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload wide_t1 --seed 1 --seconds 10 --trace 0

Set-up generates the workload's inputs from the seed with impactlab.synth
(timed SETUP_REPEATS times, median reported as setup_s) and writes a
data + sector_map run config, so the program sees only generated CSVs.
Then ``impactlab run`` runs as a child process, once per pass, until
``--seconds`` have been measured (at least once); every run gets a fresh
``--out`` that is checked and deleted. ``--trace 1`` adds one traced pass
(perfbench/tracing.py) and reports the per-layer metrics instead of the
end-to-end ones. The last line of stdout is the result JSON.
"""

import argparse
import json
import os
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")


def _log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _report(run):
    for failure in run["failures"]:
        _log(f"FAILED: {failure}")


def bench(workload, seed, seconds, trace):
    import harness as h
    import tracing

    work_dir = os.path.join(WORK, f"{workload}-s{seed}-p{os.getpid()}")
    os.makedirs(work_dir)
    try:
        case_dir, setup_t, input_mb = h.setup(workload, seed, work_dir)
        _log(f"{workload} seed {seed}: set-up {setup_t['setup_s']:.2f} s (median of "
             f"{h.SETUP_REPEATS}), inputs {input_mb:.1f} MB")
        runs, measured = [], 0.0
        while not runs or measured < seconds:
            run = h.run_and_check(case_dir, os.path.join(work_dir, f"out{len(runs)}"),
                                  workload)
            _report(run)
            runs.append(run)
            measured += run["run_s"]
            _log(f"run {len(runs)}: {run['run_s']:.2f} s, peak RSS "
                 f"{run['peak_rss_mb']:.0f} MB, out digest {run.get('digest')}")
        if trace:
            spans_dir = os.path.join(work_dir, "spans")
            traced = h.run_and_check(case_dir, os.path.join(work_dir, "traced"), workload,
                                     (os.path.join(ROOT, "perfbench", "tracing.py"), spans_dir))
            _report(traced)
            if traced.get("digest") != runs[0].get("digest"):
                traced["failures"].append("traced --out tree differs from the untraced one")
            runs.append(traced)
        ok = [r for r in runs if not r["failures"]]
        if not ok or (trace and traced["failures"]):
            return {"correct": False, "attempted": len(runs), "failed": len(runs),
                    "metrics": {}}
        run_s = statistics.median(r["run_s"] for r in runs[:len(runs) - trace])
        if trace:
            metrics = tracing.layer_metrics(tracing.load_spans(spans_dir), ok[-1]["manifest"])
            metrics.update({
                "synth.gen_signs_s": ("s", setup_t["gen_signs_s"]),
                "synth.gen_prices_s": ("s", setup_t["gen_prices_s"]),
                "synth.emit_csv_s": ("s", setup_t["emit_csv_s"]),
                "synth.input_mb": ("MB", input_mb),
                "trace.overhead_frac": ("fraction", traced["run_s"] / run_s - 1.0),
            })
        else:
            ingest = next(s for s in ok[0]["manifest"]["stages"] if s["name"] == "ingest")
            sym_days = ingest["counts"]["symbol_days"]
            metrics = {
                "run_s": ("s", run_s),
                "setup_s": ("s", setup_t["setup_s"]),
                "peak_rss_mb": ("MB", statistics.median(r["peak_rss_mb"] for r in runs)),
                "symbol_days_per_s": ("1/s", sym_days / run_s),
                "out_mb": ("MB", statistics.median(r["out_mb"] for r in ok)),
                "success_rate": ("fraction", len(ok) / len(runs)),
            }
        for r in ok:
            print(f"out_digest {workload} seed {seed}: {r['digest']}")
        return {"correct": len(ok) == len(runs), "attempted": len(runs),
                "failed": len(runs) - len(ok),
                "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "impactlab", "cli.py")):
        _log(f"no impactlab sources under {os.path.join(ROOT, 'src')}")
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        _log(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}")
        return 2
    result = bench(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
