"""Benchmark of the ``heisenberg-star`` command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload driven-aniso --seed 7 --seconds 50 --trace 0

Each unit is one user's result: one to three CLI commands, each in a
fresh child process with ``--threads 1`` and one BLAS thread, so nothing
is cached between units. Units run back to back (a closed loop with one
client) for ``--seconds``: a unit starts only while a unit of the median
duration so far would still end in time. Every unit's outputs are checked.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full record
(machine, versions, argv, per-unit timings and spans) goes to
``.perfbench/results/``. ``--workload all`` runs every workload in turn.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checker
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_UNITS = 3          # units of the default seed kept as reference outputs
RUN_LIMIT_S = 170.0          # every run must end within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Runner:
    """Runs units of one checkout in fresh child processes."""

    def __init__(self, root: str):
        self.root = root
        self.started = time.monotonic()
        self.work = os.path.join(root, ".perfbench", "work", str(os.getpid()))
        self.env = {k: v for k, v in os.environ.items() if k != "STAR_THREADS"}
        self.env.update(BLAS_ENV, PYTHONPATH=os.path.join(root, "src"))

    def spawn(self, args: list[str], cwd: str, stdout) -> tuple[int, float, float, float]:
        """Run ``unit.py ARGS``; returns (exit code, peak RSS in MB, CPU s, spawn time)."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "unit.py"), *args],
                                cwd=cwd, env=self.env, stdout=stdout,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(remaining, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime, spawned)

    def probe(self) -> dict:
        """Import the package once, untimed; returns its location and versions."""
        os.makedirs(self.work, exist_ok=True)
        out = os.path.join(self.work, "probe.json")
        with open(out, "wb") as fh:
            code = self.spawn(["--probe"], self.work, fh)[0]
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        if code != 0:
            raise RuntimeError(f"cannot import heisenberg_star from src/:\n{text}")
        info = json.loads(text.splitlines()[-1])
        if not info["package"].startswith(os.path.join(self.root, "src") + os.sep):
            raise RuntimeError(f"heisenberg_star imported from {info['package']}")
        return info

    def run_unit(self, unit: workloads.Unit, trace: bool, ref_dir) -> dict:
        """Run one unit's commands, check the outputs, and time them."""
        unit_dir = os.path.join(self.work, f"u{unit.index}-{int(trace)}")
        os.makedirs(unit_dir)
        result = {"index": unit.index, "traced": trace, "wall_s": 0.0, "setup_s": 0.0,
                  "peak_rss_mb": 0.0, "commands": [], "errors": []}
        processes = []
        for k, cmd in enumerate(unit.commands):
            report_path = os.path.join(unit_dir, f"report{k}.json")
            log_path = os.path.join(unit_dir, f"log{k}.txt")
            with open(log_path, "wb") as log:
                code, rss, cpu, spawned = self.spawn(
                    [report_path, str(int(trace)), *cmd.argv], unit_dir, log)
            result["peak_rss_mb"] = max(result["peak_rss_mb"], rss)
            entry = {"argv": cmd.argv, "exit": code, "peak_rss_mb": rss, "cpu_s": cpu}
            result["commands"].append(entry)
            if code != 0 or not os.path.exists(report_path):
                with open(log_path, encoding="utf-8", errors="replace") as fh:
                    tail = fh.read()[-2000:]
                result["errors"].append(f"{cmd.name} exited with {code}: {tail}")
                break
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            entry.update(wall_s=report["wall_s"], setup_s=report["ready"] - spawned)
            result["wall_s"] += report["wall_s"]
            result["setup_s"] += entry["setup_s"]
            processes.append((report["spans"], report["wall_s"]))
        if not result["errors"]:
            result["errors"] = checker.check_unit(unit, unit_dir, ref_dir)
        if trace and not result["errors"]:
            spans, wall = tracing.merge(processes)
            result["spans"] = spans
            result["layers"] = tracing.layer_metrics(spans, wall)
        shutil.rmtree(unit_dir)
        return result

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def reference_dir(workload: str, seed: int, index: int):
    if seed != workloads.DEFAULT_SEED or index >= REFERENCE_UNITS:
        return None
    return os.path.join(REFERENCE_DIR, workload, str(index))


def environment(root: str, probe: dict) -> dict:
    """What a result needs to be compared with another machine's or commit's."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as lv, \
                    open(os.path.join(index, "type")) as ty, \
                    open(os.path.join(index, "size")) as sz:
                caches[f"L{lv.read().strip()} {ty.read().strip()}"] = sz.read().strip()
        except OSError:
            pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "heisenberg_star", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
            "python": probe["python"], "numpy": probe["numpy"], "scipy": probe["scipy"],
            "blas_env": BLAS_ENV, "threads": workloads.THREADS,
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def median_metrics(units: list[dict], trace: bool) -> tuple[dict, dict]:
    """(metrics, sample counts) of a run whose units all passed their checks."""
    plain = [u for u in units if not u["traced"]]
    if not trace:
        return ({"wall_s": statistics.median(u["wall_s"] for u in plain),
                 "setup_s": statistics.median(u["setup_s"] for u in plain),
                 "peak_rss_mb": max(u["peak_rss_mb"] for u in plain)},
                {"wall_s": len(plain), "setup_s": len(plain),
                 "peak_rss_mb": sum(len(u["commands"]) for u in plain)})
    traced = [u for u in units if u["traced"]]
    walls = {u["index"]: u["wall_s"] for u in plain}
    metrics, counts = {}, {}
    for name in tracing.METRIC_UNITS:
        if name == "trace.overhead_frac":
            values = [u["wall_s"] / walls[u["index"]] - 1.0 for u in traced]
        else:
            values = [u["layers"][name] for u in traced]
        agg = max if name in tracing.WORST_OF_RUN else statistics.median
        metrics[name] = agg(values)
        counts[name] = len(values)
    return metrics, counts


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(root)
    try:
        probe = runner.probe()
        start = time.monotonic()
        units, durations = [], []
        index = 0
        while not durations or \
                time.monotonic() - start + statistics.median(durations) <= seconds:
            began = time.monotonic()
            unit = workloads.unit(name, seed, index)
            ref = reference_dir(name, seed, index)
            units.append(runner.run_unit(unit, False, ref))
            if trace:
                units.append(runner.run_unit(unit, True, ref))
            durations.append(time.monotonic() - began)
            index += 1
    finally:
        runner.close()
    failed = [u for u in units if u["errors"]]
    # a run with a failed unit reports no timings: they would time wrong answers
    metrics, counts = ({}, {}) if failed else median_metrics(units, trace)
    metric_units = {m: tracing.METRIC_UNITS.get(m) or END_TO_END[m] for m in metrics}
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": environment(root, probe), "attempted": len(units),
            "failed": len(failed), "metrics": metrics, "counts": counts,
            "metric_units": metric_units, "results": units}


def print_summary(rec: dict) -> None:
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}"
          f"  units {rec['attempted']}")
    for name, value in rec["metrics"].items():
        agg = "max" if name == "peak_rss_mb" or name in tracing.WORST_OF_RUN else "median"
        print(f"  {name:34s} {value:14.6g} {rec['metric_units'][name]:6s}"
              f" {agg} of {rec['counts'][name]}")
    print(f"  {'failed_frac':34s} {rec['failed'] / rec['attempted']:14.6g} {'ratio':6s}"
          f" {rec['failed']} of {rec['attempted']} units")
    for unit in rec["results"]:
        for err in unit["errors"]:
            print(f"  FAIL unit {unit['index']}: {err}")


def save_record(root: str, rec: dict) -> str:
    out_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(out_dir, f"{rec['workload']}-seed{rec['seed']}"
                                 f"-trace{int(rec['trace'])}-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)
    return path


def write_reference(root: str) -> int:
    """Store the default seed's first units as reference outputs."""
    runner = Runner(root)
    try:
        runner.probe()
        for name in workloads.WORKLOADS:
            for index in range(REFERENCE_UNITS):
                unit = workloads.unit(name, workloads.DEFAULT_SEED, index)
                unit_dir = os.path.join(runner.work, "ref")
                os.makedirs(unit_dir)
                for k, cmd in enumerate(unit.commands):
                    with open(os.path.join(unit_dir, f"log{k}.txt"), "wb") as log:
                        runner.spawn([os.path.join(unit_dir, f"r{k}.json"), "0", *cmd.argv],
                                     unit_dir, log)
                errors = checker.check_unit(unit, unit_dir)
                if errors:
                    print("\n".join(errors), file=sys.stderr)
                    return 1
                dest = reference_dir(name, workloads.DEFAULT_SEED, index)
                shutil.rmtree(dest, ignore_errors=True)
                os.makedirs(dest)
                for path in glob.glob(os.path.join(unit_dir, "*.csv")) + \
                        glob.glob(os.path.join(unit_dir, "*.meta")):
                    shutil.copy(path, dest)
                shutil.rmtree(unit_dir)
                print(f"wrote {dest}")
    finally:
        runner.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference/ from the default seed and exit")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "heisenberg_star", "cli.py")):
        print("perfbench: run from the root of a heisenberg-star checkout"
              " (no src/heisenberg_star/cli.py here)", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(root)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            rec = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print_summary(rec)
        print(f"  record: {save_record(root, rec)}")
        prefix = f"{name}." if len(names) > 1 else ""
        total["correct"] = total["correct"] and rec["failed"] == 0
        total["attempted"] += rec["attempted"]
        total["failed"] += rec["failed"]
        for metric, value in rec["metrics"].items():
            total["metrics"][prefix + metric] = {"value": value, "unit": rec["metric_units"][metric]}
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
