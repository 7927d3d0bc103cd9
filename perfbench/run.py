#!/usr/bin/env python3
"""End-to-end benchmark of the `hpcpower` CLI pipeline.

    python3 perfbench/run.py --workload emmy-60d-serial --seed 7 --seconds 30 --trace 0

Builds the release `hpcpower` binary and the `perfbench-layers` helper
from the checkout, generates the workload's ingest input from `--seed`,
then runs `simulate` -> `analyze` -> `ingest` as child processes, one at a
time, until `--seconds` have passed. Each command's wall time comes from
the clock around it, its user+sys time and peak RSS from `wait4`. Every
pass's outputs are checked (see `check_pass`). The last line of stdout is
one JSON object: the end-to-end metrics with `--trace 0`, the per-layer
metrics of the traced in-process run with `--trace 1`. See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 7

# Why each workload exists is in README.md.
WORKLOADS = {
    "emmy-60d-serial": {"threads": 1, "faults": 0.0},
    "emmy-60d-2t": {"threads": 2, "faults": 0.0},
    "emmy-60d-dirty": {"threads": 1, "faults": 0.05},
}

# `sim` sizes the timed `simulate`; `gen` sizes the generated ingest
# input (a `days`-long simulation tiled to exactly `jobs` jobs and
# `system-rows` rows, ~8x the 60-day trace). `tiny` is for the self-tests
# and runs in seconds.
SIZES = {
    "full": {
        "sim": {"days": 60},
        "gen": {"days": 10, "jobs": 400_000, "system-rows": 360_000, "torn": 200},
    },
    "tiny": {
        "sim": {"nodes": 32, "days": 3, "users": 16},
        "gen": {"nodes": 32, "days": 2, "users": 16, "jobs": 3000, "system-rows": 6000, "torn": 20},
    },
}

SETUP_REPEATS = 3
# The paper's ten random splits; at the CLI's default of five, `analyze`
# at two threads would be a sub-1.5 s stage.
ANALYZE_SPLITS = 10
REPORT_ROW = re.compile(r"^\s+(BDT|KNN)\s+MAPE.*<10% err:\s+([0-9.]+)%", re.M)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def flags(params):
    out = []
    for key, value in params.items():
        out += [f"--{key}", str(value)]
    return out


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# --- child processes ---------------------------------------------------------


def run_child(argv, stdout_path=None, stderr_path=None):
    """Runs one child to completion; returns wall/cpu seconds, peak RSS
    (MB) and its exit code. The child is always reaped."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for f in (out, err):
            if f is not subprocess.DEVNULL:
                f.close()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "rc": proc.returncode,
    }


def build():
    """Builds both binaries; returns their paths, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "hpcpower-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        rc = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if rc != 0:
            log(f"build failed ({rc}): {' '.join(argv)}")
            return None
    return {"cli": target / "release" / "hpcpower", "helper": target / "release" / "perfbench-layers"}


def host_probe():
    """Seconds for a fixed integer loop: tracks host speed, gates nothing."""
    start = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


# --- the workload ------------------------------------------------------------


class Workload:
    def __init__(self, name, size, seed, bins, work):
        spec = WORKLOADS[name]
        self.seed, self.bins, self.work = seed, bins, work
        self.threads = spec["threads"]
        self.dirty = spec["faults"] > 0
        self.sim = dict(SIZES[size]["sim"])
        self.gen = dict(SIZES[size]["gen"])
        if self.dirty:
            self.sim["faults"] = self.gen["faults"] = spec["faults"]
        else:
            self.gen["torn"] = 0
        pins = json.loads((HERE / "digests.json").read_text())
        key = f"{size}/{'dirty' if self.dirty else 'clean'}"
        self.pinned = pins.get(key) if seed == DEFAULT_SEED else None

    def setup(self, index):
        """Picks the simulation seed and generates the ingest input;
        returns (seconds, input directory)."""
        gen_dir = self.work / f"setup-{index}"
        seed_file = self.work / f"setup-{index}.seed"
        helper = [str(self.bins["helper"])]
        start = time.perf_counter()
        for argv, out in (
            (helper + ["pick-seed", "--seed", str(self.seed)] + flags(self.sim), seed_file),
            (helper + ["gen-trace", "--seed", str(self.seed)] + flags(self.gen)
             + ["--out", str(gen_dir)], None),
        ):
            res = run_child(argv, out, self.work / f"setup-{index}.err")
            if res["rc"] != 0:
                raise RuntimeError(f"{' '.join(argv[:2])} exited {res['rc']}")
        seconds = time.perf_counter() - start
        self.sim_seed = seed_file.read_text().strip()
        return seconds, gen_dir

    def cli(self, command, threads, *args):
        return [str(self.bins["cli"]), command, *args, "--threads", str(threads), "--quiet"]

    def analyze_argv(self, pass_dir, threads):
        repair = ["--repair-policy", "linear"] if self.dirty else []
        return self.cli("analyze", threads, "--data", str(pass_dir / "sim" / "dataset.json"),
                        "--splits", str(ANALYZE_SPLITS), *repair)

    def run_pass(self, pass_dir, gen_dir):
        pass_dir.mkdir(parents=True)
        t = self.threads
        commands = {
            "simulate": self.cli("simulate", t, "--system", "emmy", "--seed", self.sim_seed,
                                 *flags(self.sim), "--out", str(pass_dir / "sim")),
            "analyze": self.analyze_argv(pass_dir, t),
            "ingest": self.cli("ingest", t, "--jobs", str(gen_dir / "jobs.csv"),
                               "--system", str(gen_dir / "system.csv"), "--lenient",
                               "--repair-policy", "linear", "--out", str(pass_dir / "ingested")),
        }
        times = {}
        for cmd, argv in commands.items():
            out = pass_dir / ("report.txt" if cmd == "analyze" else f"{cmd}.out")
            times[cmd] = run_child(argv, out, pass_dir / f"{cmd}.err")
        return times, collect_outputs(pass_dir)

    def reference_report(self, pass_dir):
        """Untimed serial `analyze` of a pass's dataset: the 2-thread
        report must equal it byte for byte."""
        ref_dir = self.work / "reference"
        ref_dir.mkdir()
        argv = self.analyze_argv(pass_dir, 1)
        res = run_child(argv, ref_dir / "report.txt", ref_dir / "analyze.err")
        return res, (sha256(ref_dir / "report.txt") if res["rc"] == 0 else None)


def collect_outputs(pass_dir):
    """Digests of what a pass produced (None where a file is missing)."""
    files = {
        "dataset": pass_dir / "sim" / "dataset.json",
        "report": pass_dir / "report.txt",
        "quality": pass_dir / "ingested" / "quality.json",
    }
    out = {k: (sha256(p) if p.is_file() else None) for k, p in files.items()}
    text = files["report"].read_text() if files["report"].is_file() else ""
    out["within10_pct"] = {m: float(v) for m, v in REPORT_ROW.findall(text)}
    return out


def check_pass(outputs, first, pinned):
    """Problems with one pass's outputs: a missing artifact, a report or
    quality digest that differs from the pinned one (default seed) or
    from the first pass, or a report without both prediction rows."""
    problems = []
    for key in ("dataset", "report", "quality"):
        if outputs[key] is None:
            problems.append(f"{key} missing")
        elif first is not None and outputs[key] != first[key]:
            problems.append(f"{key} differs from the first pass")
    for key in ("report", "quality"):
        if pinned and outputs[key] is not None and outputs[key] != pinned[key]:
            problems.append(f"{key} digest {outputs[key][:12]} != pinned {pinned[key][:12]}")
    if sorted(outputs["within10_pct"]) != ["BDT", "KNN"]:
        problems.append("report lacks the BDT/KNN prediction rows")
    return problems


# --- runs --------------------------------------------------------------------


def timed_run(wl, seconds):
    setups = [wl.setup(i) for i in range(SETUP_REPEATS)]
    for _, stale in setups[:-1]:
        shutil.rmtree(stale)
    gen_dir = setups[-1][1]

    passes, problems, first = [], [], None
    attempted = failed = 0
    start = time.perf_counter()
    # Whole passes only: stop when another would overrun `seconds`.
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        pass_dir = wl.work / f"pass-{len(passes)}"
        times, outputs = wl.run_pass(pass_dir, gen_dir)
        attempted += len(times)
        failed += sum(t["rc"] != 0 for t in times.values())
        problems += [f"pass {len(passes)}: {p}" for p in check_pass(outputs, first, wl.pinned)]
        first = first or outputs
        passes.append(times)
        if len(passes) > 1:
            shutil.rmtree(pass_dir)
    if wl.threads > 1:
        res, digest = wl.reference_report(wl.work / "pass-0")
        attempted += 1
        if res["rc"] != 0 or digest != first["report"]:
            failed += 1
            problems.append(f"{wl.threads}-thread report differs from the serial one")

    def stat(f):
        return statistics.median([f(p) for p in passes])

    metrics = {
        "setup_s": (statistics.median([s for s, _ in setups]), "s"),
        "simulate_s": (stat(lambda p: p["simulate"]["wall_s"]), "s"),
        "analyze_s": (stat(lambda p: p["analyze"]["wall_s"]), "s"),
        "ingest_s": (stat(lambda p: p["ingest"]["wall_s"]), "s"),
        "cpu_s": (stat(lambda p: sum(c["cpu_s"] for c in p.values())), "s"),
        "peak_rss_mb": (max(c["rss_mb"] for p in passes for c in p.values()), "MB"),
        "bdt_within10_pct": (first["within10_pct"].get("BDT", 0.0), "%"),
        "knn_within10_pct": (first["within10_pct"].get("KNN", 0.0), "%"),
    }
    diag = {"sim_seed": wl.sim_seed, "passes": len(passes),
            "digests": {k: first[k] for k in ("report", "quality")},
            "per_pass": passes}
    return metrics, attempted, failed, problems, diag


def traced_run(wl):
    _, gen_dir = wl.setup(0)
    pass_dir = wl.work / "pass-0"
    times, outputs = wl.run_pass(pass_dir, gen_dir)
    attempted, failed = len(times) + 1, sum(t["rc"] != 0 for t in times.values())
    problems = check_pass(outputs, None, wl.pinned)

    layer_dir = wl.work / "layers"
    res = run_child(
        [str(wl.bins["helper"]), "trace", "--seed", wl.sim_seed, "--threads", str(wl.threads),
         "--splits", str(ANALYZE_SPLITS)]
        + flags(wl.sim)
        + ["--ingest-dir", str(gen_dir), "--work", str(layer_dir)],
        wl.work / "layers.out", wl.work / "layers.err",
    )
    if res["rc"] != 0:
        failed += 1
        problems.append(f"traced run exited {res['rc']}")
        return {}, attempted, failed, problems, {}
    doc = json.loads((wl.work / "layers.out").read_text().strip().splitlines()[-1])
    # The traced run must compute exactly what the CLI did.
    for what, a, b in (
        ("dataset", layer_dir / "sim" / "dataset.json", pass_dir / "sim" / "dataset.json"),
        ("report", layer_dir / "report.txt", pass_dir / "report.txt"),
        ("quality", layer_dir / "ingested" / "quality.json", pass_dir / "ingested" / "quality.json"),
    ):
        if not (a.is_file() and b.is_file() and sha256(a) == sha256(b)):
            problems.append(f"traced run's {what} differs from the CLI's")
    for model in ("BDT", "KNN"):
        traced = doc["within10_pct"][model.lower()]
        if abs(traced - outputs["within10_pct"].get(model, -1.0)) > 0.051:
            problems.append(f"traced {model} <10% share {traced:.3f} disagrees with the report")
    if problems:
        failed += 1

    metrics = dict(doc["metrics"])
    for cmd in ("simulate", "analyze", "ingest"):
        metrics[f"cli.{cmd}.unattributed_s"] = times[cmd]["wall_s"] - doc["layer_sum_s"][cmd]
    return metrics, attempted, failed, problems, {"cli": times}


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        log(f"no hpcpower sources at {ROOT}; run from a checkout of the repository")
        return 2
    bins = build()
    if bins is None:
        return 1

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        probe_before = host_probe()
        wl = Workload(args.workload, args.size, args.seed, bins, work)
        run = traced_run(wl) if args.trace else timed_run(wl, args.seconds)
        values, attempted, failed, problems, diag = run
        probe_after = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values["host.probe_s"] = (probe_before + probe_after) / 2
        units = per_layer_units()
        problems += [f"per-layer metric {k} not measured" for k in units if k not in values]
        metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for p in problems:
        log(f"check failed: {p}")
    diag["host.probe_s"] = [probe_before, probe_after]
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
