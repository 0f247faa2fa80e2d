"""lfpsoc benchmark: times the public entry points of the lfpsoc modules from
outside, on one workload per run, and checks every op's outputs.

    python3 perfbench/run.py --workload reference|sweep|trace --seed 42 \
        --seconds 40 --trace 0|1

Run it from the repository root. Each run prints a summary with every
end-to-end metric by name and unit, a machine record, and, as the last line,
one JSON object: `--trace 0` gives the end-to-end metrics, `--trace 1` the
per-layer metrics of a separate traced run. The exit code is not 0 when an
op fails or the lfpsoc sources are missing. Run records and spans go to
`.perfbench/`. See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("reference", "sweep", "trace")
DEFAULT_STEPS = 7200
SETUP_PROBES = 6     # extra processes that only set up; setup_s is a median
BUDGET_S = 170.0     # a run must end within 180 s
REF_LOOPS_PER_S = 1000  # a reference second is 1000 host-probe loop times

# end-to-end metrics: name -> unit; the JSON line carries those that apply
# to every workload, the summary adds the bank-only accuracy figures
END_TO_END = {
    "samples_per_ref_s": "samples/ref-s",
    "setup_s": "s",  # in reference seconds
    "peak_rss_mb": "MB",
    "soc_rmse_ekf": "fraction",
}
SUMMARY_ONLY = {
    "samples_per_s": "samples/s",
    "setup_wall_s": "s",
    "op_error_rate": "ratio",
    "soc_rmse_ammkf": "fraction",
    "curve_mae_mv": "mV",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                   help="samples of the reference run; the sweep runs half "
                        "as many per scenario, the trace twice as many")
    return p.parse_args(argv)


def worker(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(0 if setup_only else args.trace),
           "--steps", str(args.steps)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def machine_record(args, numpy_version: str, counts: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "steps": args.steps,
            "samples_behind": counts}


def ref_s(wall_s: float, probe_s: float) -> float:
    """A wall time in reference seconds: REF_LOOPS_PER_S host-probe loop
    times measured during the same work."""
    return wall_s / (probe_s * REF_LOOPS_PER_S)


def end_to_end(run: dict, setups: list, attempted: int, failed: int) -> dict:
    ok = [r for r in run["ops"] if r["ok"] and not r["traced"]]
    values = {
        "samples_per_s": median([r["samples"] / r["wall_s"] for r in ok]),
        "samples_per_ref_s": median([r["samples"] / ref_s(r["wall_s"],
                                                          r["probe_s"])
                                     for r in ok]),
        "setup_s": median([ref_s(s["setup_s"], s["setup_probe_s"])
                           for s in setups]),
        "setup_wall_s": median([s["setup_s"] for s in setups]),
        "peak_rss_mb": run["peak_rss_mb"],
        "op_error_rate": failed / attempted,
    }
    for name in ("soc_rmse_ekf", "soc_rmse_ammkf", "curve_mae_mv"):
        values[name] = median([r["accuracy"].get(name) for r in ok])
    return values


def per_layer(run: dict) -> dict:
    import spans
    values = {name: median([op[name] for op in run["layers"]])
              for name in spans.PER_OP_METRICS}
    intervals = run["interval_ms"]
    for q in (50, 90):
        values[f"multimodel.interval_ms_p{q}"] = (
            None if intervals is None else spans.percentile(intervals, q))
    walls = {traced: median([r["wall_s"] for r in run["ops"]
                             if r["traced"] == traced])
             for traced in (False, True)}
    values["trace.overhead_s"] = walls[True] - walls[False]
    return values


def layer_units() -> dict:
    import spans
    units = {name: unit for name, (unit, *_) in spans.PER_OP_METRICS.items()}
    units.update({"multimodel.interval_ms_p50": "ms",
                  "multimodel.interval_ms_p90": "ms",
                  "trace.overhead_s": "s"})
    return units


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lfpsoc" / "__init__.py").is_file():
        print(f"error: no lfpsoc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        setups = [worker(args, deadline, True) for _ in range(SETUP_PROBES)]
        run = worker(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(run)
    ops = run["ops"]
    attempted, failed = len(ops), sum(not r["ok"] for r in ops)
    e2e = end_to_end(run, setups, attempted, failed)
    counts = {"setups": len(setups),
              "timed_ops": sum(r["ok"] and not r["traced"] for r in ops),
              "host_probes": sum(r.get("probes", 0) for r in ops),
              "samples_per_op": ops[0]["samples"]}
    record = {"machine": machine_record(args, run["numpy"], counts),
              "end_to_end": e2e, "ops": ops}

    print(f"lfpsoc benchmark: workload={args.workload} seed={args.seed} "
          f"ops={attempted} failed={failed}")
    for name, unit in {**END_TO_END, **SUMMARY_ONLY}.items():
        print(f"  {name:<16} {fmt(e2e[name]):>12} {unit}")
    if args.trace:
        units = layer_units()
        layers = per_layer(run)
        counts["traced_ops"] = len(run["layers"])
        counts["interval_spans"] = len(run["interval_ms"] or [])
        shares = {layer: median([s.get(layer, 0.0) for s in run["shares"]])
                  for layer in run["shares"][0]}
        record.update(per_layer=layers, shares=shares, absent=run["absent"])
        for name, value in layers.items():
            print(f"  {name:<30} {fmt(value):>12} {units[name]}")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  share of op: {layer:<20} {share:7.1%}")
        for target in run["absent"]:
            print(f"  absent: {target}")
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print("machine: " + json.dumps(record["machine"]))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-steps{args.steps}-seed{args.seed}"
     f"-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
