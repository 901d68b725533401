"""Traced pass: ``impactlab.cli.main`` with spans around every layer call.

Run as ``python3 perfbench/tracing.py SPANS_DIR run --config ... --out ...
--threads N``. It wraps the names ``impactlab.pipeline`` calls (the
pipeline binds them with ``from .x import y``, so the names on the defining
modules are never looked up again), then runs the CLI with the remaining
arguments, so the wrappers are the only difference from an untraced run.
Pool workers are forked after the wrappers are installed; each appends its
spans to ``SPANS_DIR/worker-<pid>.jsonl`` after every job, and the parent
writes ``SPANS_DIR/parent.json`` when the CLI returns.

``layer_metrics`` turns those files into the per-layer metrics.
"""

import functools
import json
import os
import resource
import sys
import time

MB = 1e6

# (attribute on impactlab.pipeline, span name)
_LEAVES = (
    ("parse_trades", "taq_ingest.parse_trades"),
    ("parse_quotes", "taq_ingest.parse_quotes"),
    ("resample_midpoints_arrays", "taq_ingest.resample"),
    ("bucket_trades_arrays", "taq_ingest.bucket"),
    ("sign_series_for", "signing.sign_series"),
    ("save_second_series", "store.series_io"),
    ("load_second_series", "store.series_io"),
    ("save_sign_series", "store.signs_io"),
    ("load_sign_series", "store.signs_io"),
    ("save_curve_store", "store.curve_store_save"),
    ("curve_mapping_from_store", "store.curve_mapping"),
    ("sha256_file", "store.sha256"),
    ("response_panel", "estimators.response_panel"),
    ("correlator_panel", "estimators.correlator_panel"),
    ("market_average", "aggregation.market_average"),
    ("passive_curve", "aggregation.active_passive"),
    ("active_curve", "aggregation.active_passive"),
    ("normalized_matrix", "aggregation.matrix"),
    ("fit_powerlaw", "fitting.fit"),
)
_JOBS = ("_parse_quote_file", "_parse_trade_file", "_signs_one", "_estimation_day")
_STAGES = ("stage_ingest", "stage_signs", "stage_estimate", "stage_aggregate",
           "stage_fit", "stage_figure")


def _lag_work(T, lags):
    return int(sum(T - int(tau) for tau in lags))


def _attrs(attr, args, result):
    """Counts recorded with a leaf span."""
    if attr in ("load_second_series", "load_sign_series"):
        return {"loads": 1}
    if attr == "sha256_file":
        return {"bytes": os.path.getsize(args[0])}
    if attr == "response_panel":
        mids, eps, lags = args[:3]
        return {"work": len(mids) * len(eps) * _lag_work(mids.shape[1], lags)}
    if attr == "correlator_panel":
        eps, lags = args[:2]
        return {"work": len(eps) ** 2 * _lag_work(eps.shape[1], lags)}
    if attr == "fit_powerlaw":
        return {"iterations": int(result.iterations), "converged": int(result.converged)}
    return {}


def _peak_rss_mb():
    """High-water RSS of this process and the workers it has reaped."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) * 1024 / MB


class Recorder:
    """Spans of one process; forked workers start empty and flush per job."""

    def __init__(self, spans_dir):
        self.spans_dir = spans_dir
        self.parent_pid = os.getpid()
        self.spans = []
        self.stage = None
        self.pool = None
        os.register_at_fork(after_in_child=self.spans.clear)

    def record(self, name, kind, t0, **attrs):
        self.spans.append({"name": name, "kind": kind, "wall": time.perf_counter() - t0,
                           "worker": os.getpid() != self.parent_pid,
                           "stage": self.stage, "pool": self.pool, **attrs})

    def flush_worker(self):
        if os.getpid() == self.parent_pid:
            return
        path = os.path.join(self.spans_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)
        self.spans.clear()

    def write_parent(self):
        with open(os.path.join(self.spans_dir, "parent.json"), "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    # -- wrappers ---------------------------------------------------------

    def leaf(self, fn, attr, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.record(name, "layer", t0, **_attrs(attr, args, result))
            return result
        return wrapper

    def job(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.record(fn.__name__, "job", t0)
            self.flush_worker()
            return result
        return wrapper

    def pool_map(self, fn):
        @functools.wraps(fn)
        def wrapper(job, items, threads):
            items = list(items)
            workers = min(threads, len(items)) if threads > 1 and len(items) > 1 else 1
            self.pool = {"workers": workers}
            try:
                return fn(job, items, threads)
            finally:
                self.pool = None
        return wrapper

    def stage_fn(self, fn):
        @functools.wraps(fn)
        def wrapper(cfg, ws, *args, **kwargs):
            if fn.__name__ == "stage_estimate":
                stage = "respond" if args[0] == "response" else "correlate"
            else:
                stage = fn.__name__[len("stage_"):]
            self.stage = stage
            t0 = time.perf_counter()
            try:
                return fn(cfg, ws, *args, **kwargs)
            finally:
                self.record(stage, "stage", t0, rss_mb=_peak_rss_mb())
                self.stage = None
        return wrapper


def install(spans_dir):
    """Wrap the layer, job, pool and stage names on impactlab.pipeline."""
    from impactlab import pipeline

    rec = Recorder(spans_dir)
    for attr, name in _LEAVES:
        setattr(pipeline, attr, rec.leaf(getattr(pipeline, attr), attr, name))
    for attr in _JOBS:
        setattr(pipeline, attr, rec.job(getattr(pipeline, attr)))
    pipeline._pool_map = rec.pool_map(pipeline._pool_map)
    for attr in _STAGES:
        setattr(pipeline, attr, rec.stage_fn(getattr(pipeline, attr)))
    return rec


# ---------------------------------------------------------------------------
# analysis (runs in the harness)

def load_spans(spans_dir):
    with open(os.path.join(spans_dir, "parent.json"), encoding="utf-8") as fh:
        spans = json.load(fh)
    for name in sorted(os.listdir(spans_dir)):
        if name.startswith("worker-"):
            with open(os.path.join(spans_dir, name), encoding="utf-8") as fh:
                spans += [json.loads(line) for line in fh]
    return spans


def layer_metrics(spans, manifest):
    """Per-layer metrics from the spans of one traced run and its manifest.

    Layer times are summed over the parent and every worker (busy time).
    A stage's self time is its wall minus the layer calls made inside it;
    a call made in a pool worker counts divided by that pool's worker count,
    its share of the wall when the workers run side by side. The RSS
    figures are the high-water mark of the run's processes when the ingest
    and correlate stages return.
    """
    total = {}
    stage_wall, stage_rss, children = {}, {}, {}
    busy, est_workers = 0.0, 1
    for s in spans:
        if s["kind"] == "stage":
            stage_wall[s["name"]] = stage_wall.get(s["name"], 0.0) + s["wall"]
            stage_rss[s["name"]] = s["rss_mb"]
        elif s["kind"] == "layer":
            key = s["name"]
            total[key] = total.get(key, 0.0) + s["wall"]
            for count in ("loads", "bytes", "work", "iterations", "converged"):
                if count in s:
                    total[f"{key}.{count}"] = total.get(f"{key}.{count}", 0) + s[count]
            total[f"{key}.calls"] = total.get(f"{key}.calls", 0) + 1
            share = s["wall"] / s["pool"]["workers"] if s["worker"] else s["wall"]
            children[s["stage"]] = children.get(s["stage"], 0.0) + share
        elif s["kind"] == "job" and s["stage"] in ("respond", "correlate"):
            busy += s["wall"]
            est_workers = s["pool"]["workers"]

    def t(name):
        return total.get(name, 0.0)

    def self_s(stage):
        return stage_wall.get(stage, 0.0) - children.get(stage, 0.0)

    counts = {s["name"]: s["counts"] for s in manifest["stages"]}
    ingest = counts["ingest"]
    rows = ingest["trade_rows"] + ingest["quote_rows"]
    parse_s = t("taq_ingest.parse_trades") + t("taq_ingest.parse_quotes")
    panel_s = t("estimators.response_panel") + t("estimators.correlator_panel")
    work = t("estimators.response_panel.work") + t("estimators.correlator_panel.work")
    estimate_wall = stage_wall.get("respond", 0.0) + stage_wall.get("correlate", 0.0)
    out = {f"pipeline.{stage}_s": ("s", stage_wall.get(stage, 0.0))
           for stage in ("ingest", "signs", "respond", "correlate", "aggregate", "fit",
                         "figure")}
    out.update({
        "pipeline.ingest_self_s": ("s", self_s("ingest")),
        "pipeline.estimate_self_s": ("s", self_s("respond") + self_s("correlate")),
        "pipeline.estimate_busy_frac": ("fraction", busy / (est_workers * estimate_wall)),
        "pipeline.rss_after_ingest_mb": ("MB", stage_rss["ingest"]),
        "pipeline.rss_after_estimate_mb": ("MB", stage_rss["correlate"]),
        "taq_ingest.parse_trades_s": ("s", t("taq_ingest.parse_trades")),
        "taq_ingest.parse_quotes_s": ("s", t("taq_ingest.parse_quotes")),
        "taq_ingest.rows": ("count", rows),
        "taq_ingest.rows_per_s": ("1/s", rows / parse_s),
        "taq_ingest.resample_s": ("s", t("taq_ingest.resample")),
        "taq_ingest.bucket_s": ("s", t("taq_ingest.bucket")),
        "taq_ingest.malformed": ("count", ingest["malformed"]),
        "taq_ingest.dropped_out_of_session": ("count", ingest["dropped_out_of_session"]),
        "signing.sign_series_s": ("s", t("signing.sign_series")),
        "signing.trades_signed": ("count", counts["signs"]["trades_signed"]),
        "store.series_io_s": ("s", t("store.series_io")),
        "store.signs_io_s": ("s", t("store.signs_io")),
        "store.container_loads": ("count", t("store.series_io.loads")
                                  + t("store.signs_io.loads")),
        "store.curve_store_save_s": ("s", t("store.curve_store_save")),
        "store.curve_mapping_s": ("s", t("store.curve_mapping")),
        "store.sha256_s": ("s", t("store.sha256")),
        "store.sha256_mb": ("MB", t("store.sha256.bytes") / MB),
        "estimators.response_panel_s": ("s", t("estimators.response_panel")),
        "estimators.correlator_panel_s": ("s", t("estimators.correlator_panel")),
        "estimators.panel_calls": ("count", t("estimators.response_panel.calls")
                                   + t("estimators.correlator_panel.calls")),
        "estimators.pair_lag_seconds": ("count", work),
        "estimators.pair_lag_seconds_per_s": ("1/s", work / panel_s),
        "aggregation.market_average_s": ("s", t("aggregation.market_average")),
        "aggregation.active_passive_s": ("s", t("aggregation.active_passive")),
        "aggregation.matrix_s": ("s", t("aggregation.matrix")),
        "fitting.fit_s": ("s", t("fitting.fit")),
        "fitting.fits": ("count", t("fitting.fit.calls")),
        "fitting.iterations": ("count", t("fitting.fit.iterations")),
        "fitting.converged": ("count", t("fitting.fit.converged")),
    })
    return out


def main(argv):
    spans_dir, cli_args = argv[0], argv[1:]
    from impactlab import cli  # the harness passes the BLAS pins in the environment

    os.makedirs(spans_dir, exist_ok=True)
    rec = install(spans_dir)
    rc = cli.main(cli_args)
    rec.write_parent()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
