"""Workloads, input set-up, one timed ``impactlab run`` and its output checks.

Importing this module pins BLAS to one thread; import it before anything
else imports numpy.
"""

import datetime as dt
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINS)  # before numpy is first imported

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from impactlab.estimators import average_days, correlator_fast, response_fast  # noqa: E402
from impactlab.store import (  # noqa: E402
    load_curve_store,
    load_second_series,
    load_sign_series,
    symbol_day_filename,
)
from impactlab.synth import SynthConfig, emit_csv_universe, gen_prices, gen_signs  # noqa: E402

SESSION = "09:40-15:50"
MODES = ("include_zero", "exclude_zero")
SETUP_REPEATS = 3
PAIR_RTOL = 1e-12

# Acceptance criterion 8's synth block; the seed is the benchmark's --seed.
_WIDE_SYNTH = {
    "n_symbols": 99, "n_days": 5,
    "metaorder_rate": 0.003, "metaorder_length_exponent": 1.5,
    "length_min": 3, "length_max": 300, "participation": 0.7,
    "impact": {"g0": 0.005, "tau0": 20.0, "beta": 0.0},
    "cross_coupling": 0.0, "noise_std": 0.0,
}
_WIDE_RUN = {"lags": "log:1:10000:60", "n_lags": 60, "matrix_tau": 30}

WORKLOADS = {
    # Estimation is ~80% of a sequential run: the baseline a day-kernel change must speed up.
    "wide_t1": {"synth": _WIDE_SYNTH, **_WIDE_RUN, "threads": 1},
    # Same problem on 2 workers: pool balancing and panel IPC show here, not in wide_t1.
    "wide_t2": {"synth": _WIDE_SYNTH, **_WIDE_RUN, "threads": 2},
    # Dense order flow, many days: ingest is ~95% of the run and a kernel change must not move it.
    "dense_t2": {
        "synth": {
            "n_symbols": 10, "n_days": 20,
            "metaorder_rate": 0.02, "metaorder_length_exponent": 1.5,
            "length_min": 3, "length_max": 300, "participation": 0.9,
            "impact": {"g0": 0.005, "tau0": 20.0, "beta": 0.0},
            "cross_coupling": 0.1, "noise_std": 0.0,
        },
        # the run adds matrix_tau 10 to the 20 configured lags
        "lags": "log:1:300:20", "n_lags": 21, "matrix_tau": 10, "threads": 2,
    },
}

MB = 1e6


def child_env():
    """Environment for the CLI child: same pins, the checkout's sources."""
    env = dict(os.environ)
    env.update(PINS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tree_bytes(root):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def tree_digest(root):
    """sha256 over every (relative path, file sha256) under root, sorted."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            fh_hash = hashlib.sha256()
            with open(full, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    fh_hash.update(chunk)
            h.update(f"{os.path.relpath(full, root)}\0{fh_hash.hexdigest()}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up

def _setup_once(workload, seed, case_dir):
    """Generate inputs and write the run config; returns per-step seconds."""
    spec = WORKLOADS[workload]
    inputs = os.path.join(case_dir, "inputs")
    t0 = time.perf_counter()
    cfg = SynthConfig.from_dict(dict(spec["synth"], seed=seed))
    cfg.validate()
    truth = gen_signs(cfg)
    t1 = time.perf_counter()
    gen_prices(truth)
    t2 = time.perf_counter()
    emit_csv_universe(truth, inputs)
    t3 = time.perf_counter()
    run_cfg = {
        "session": SESSION,
        "lags": spec["lags"],
        "modes": list(MODES),
        "data": {"trades": "inputs/trades_*.csv", "quotes": "inputs/quotes_*.csv"},
        "sector_map": "inputs/sectors.csv",
        "report": {"matrix_tau": spec["matrix_tau"], "include_scale": 6.0,
                   "active_passive_symbols": list(cfg.symbols[:3])},
    }
    with open(os.path.join(case_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(run_cfg, fh, sort_keys=True, indent=2)
    t4 = time.perf_counter()
    return {"setup_s": t4 - t0, "gen_signs_s": t1 - t0, "gen_prices_s": t2 - t1,
            "emit_csv_s": t3 - t2}


def setup(workload, seed, work_dir):
    """Set up SETUP_REPEATS times into fresh directories and keep the last.

    Returns (case_dir, median of each step's seconds, input MB). Every
    repeat must produce byte-identical inputs.
    """
    timings, digests, case_dir = [], set(), None
    for k in range(SETUP_REPEATS):
        if case_dir is not None:
            shutil.rmtree(case_dir)
        case_dir = os.path.join(work_dir, f"case{k}")
        os.makedirs(case_dir)
        timings.append(_setup_once(workload, seed, case_dir))
        digests.add(tree_digest(case_dir))
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic for one seed")
    medians = {key: statistics.median(t[key] for t in timings) for key in timings[0]}
    return case_dir, medians, tree_bytes(os.path.join(case_dir, "inputs")) / MB


# ---------------------------------------------------------------------------
# one CLI run

def run_cli(case_dir, out_dir, threads, entry=("-m", "impactlab")):
    """Run ``impactlab run`` (or another entry taking the same arguments) as
    a child process. Returns (exit code, wall seconds, peak RSS MB, stderr
    tail). Peak RSS comes from wait4 on the child, whose rusage covers the
    pool workers it reaped."""
    cmd = [sys.executable, *entry, "run", "--config", os.path.join(case_dir, "run.json"),
           "--out", out_dir, "--threads", str(threads)]
    log_path = out_dir + ".log"
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "rb") as fh:
        tail = fh.read()[-2000:].decode("utf-8", "replace")
    os.remove(log_path)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / MB, tail


# ---------------------------------------------------------------------------
# output checks

def sample_pairs(n):
    """A fixed handful of self and cross pairs (indices into the universe)."""
    pairs = [(0, 0), (n - 1, n - 1), (0, 1), (1, 0), (n - 1, 0), (n // 2, 1)]
    return sorted({p for p in pairs if max(p) < n})


def curve_error(got, want):
    """Normwise relative error max|got - want| / max|want| of one pair curve,
    inf when the NaN patterns differ. Pointwise relative error is not used:
    uncorrelated cross pairs have lags whose values sit ~1e-5 below the
    curve's scale, where float64 rounding alone differs between the panel
    and the per-pair path by a few 1e-12 relative (1e-14 normwise)."""
    missing = np.isnan(want)
    if not np.array_equal(np.isnan(got), missing):
        return float("inf")
    if missing.all():
        return 0.0
    diff = float(np.max(np.abs(got[~missing] - want[~missing])))
    scale = float(np.max(np.abs(want[~missing])))
    return diff / scale if scale > 0 else (0.0 if diff == 0 else float("inf"))


def check_pairs(out_dir):
    """Recompute sampled pairs from the run's own containers with the
    per-pair fast paths and compare with the packed curve stores: values and
    dispersions to PAIR_RTOL normwise, day counts exactly. Returns a list
    of failure messages."""
    failures = []
    cache = {}

    def _load(sym, date, ext):
        if (sym, date, ext) not in cache:
            path = os.path.join(out_dir, ext, symbol_day_filename(sym, date, ext))
            cache[sym, date, ext] = (load_second_series(path) if ext == "series"
                                     else load_sign_series(path)[0])
        return cache[sym, date, ext]

    for kind in ("response", "correlator"):
        for mode in MODES:
            meta, symbols, lags, value, disp, n_samples = load_curve_store(
                os.path.join(out_dir, "curves", f"{kind}_{mode}"))
            dates = [dt.date.fromisoformat(d) for d in meta["dates"]]
            for a, b in sample_pairs(len(symbols)):
                i, j = symbols[a], symbols[b]
                if kind == "response":
                    days = [response_fast(_load(i, d, "series"), _load(j, d, "signs"),
                                          lags, mode) for d in dates]
                else:
                    days = [correlator_fast(_load(i, d, "signs"), _load(j, d, "signs"),
                                            lags, mode) for d in dates]
                want = average_days(days)
                where = f"{kind}/{mode} pair ({i}, {j})"
                for name, got, ref in (("value", value[a, b], want.value),
                                       ("dispersion", disp[a, b], want.dispersion)):
                    err = curve_error(got, ref)
                    if not err <= PAIR_RTOL:
                        failures.append(f"{where} {name}: normwise relative error {err:.3g}")
                if not np.array_equal(n_samples[a, b], want.n_samples):
                    failures.append(f"{where} n_samples differ")
    return failures


def check_outputs(out_dir, workload):
    """Every output check of one run; returns a list of failure messages."""
    spec = WORKLOADS[workload]
    n_sym, n_days = spec["synth"]["n_symbols"], spec["synth"]["n_days"]
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    counts = {s["name"]: s["counts"] for s in manifest["stages"]}
    want = {
        ("ingest", "symbol_days"): n_sym * n_days,
        ("ingest", "malformed"): 0,
        ("respond", "pairs"): n_sym ** 2,
        ("respond", "lags"): spec["n_lags"],
        ("respond", "modes"): len(MODES),
        ("correlate", "pairs"): n_sym ** 2,
        ("correlate", "lags"): spec["n_lags"],
        ("correlate", "modes"): len(MODES),
    }
    failures = [f"manifest {stage}.{key} = {counts.get(stage, {}).get(key)}, want {value}"
                for (stage, key), value in want.items()
                if counts.get(stage, {}).get(key) != value]
    for mode in MODES:
        with open(os.path.join(out_dir, "fits", f"fit_sign_self_{mode}.json"),
                  encoding="utf-8") as fh:
            if not json.load(fh)["converged"]:
                failures.append(f"sign_self fit did not converge ({mode})")
    failures += check_pairs(out_dir)
    return failures


def run_and_check(case_dir, out_dir, workload, entry=("-m", "impactlab")):
    """Run, check and measure one pass; the --out tree is deleted after."""
    rc, wall, rss, tail = run_cli(case_dir, out_dir, WORKLOADS[workload]["threads"], entry)
    run = {"run_s": wall, "peak_rss_mb": rss, "failures": []}
    if rc != 0:
        run["failures"].append(f"exit code {rc}: {tail}")
    else:
        run["failures"] += check_outputs(out_dir, workload)
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            run["manifest"] = json.load(fh)
        run["out_mb"] = tree_bytes(out_dir) / MB
        run["digest"] = tree_digest(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return run

