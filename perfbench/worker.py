"""Runs one workload in a process of its own: imports lfpsoc, builds the
inputs, then runs ops until the time is up, checking each op's outputs.
The last line of its output is one JSON record for perfbench/run.py.

    python3 perfbench/worker.py --workload reference --seed 42 --seconds 40 \
        --trace 0 --steps 7200 [--setup-only]

Set-up time counts from the start of this process's own code: the import
of numpy and lfpsoc, and building the workload's inputs.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


@dataclasses.dataclass(frozen=True)
class _Cell:
    a: float
    b: float


class HostProbe:
    """Times a fixed loop of small-object churn every `period_s` of wall
    time, from a SIGALRM handler, so on the same core and during the work it
    brackets. The host this runs on changes speed by up to 2x within seconds;
    a time counted in probe-loop times cancels most of that. The loop uses
    no lfpsoc code, so a faster lfpsoc does not speed it up."""

    LOOPS = 800  # 1 to 2 ms on a 2-core Intel Xeon VM

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.times: list[float] = []

    @property
    def total_s(self) -> float:
        return sum(self.times)

    @property
    def mean_s(self) -> float:
        return self.total_s / len(self.times)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.times:
            self._probe()

    def _probe(self, signum=None, frame=None):
        t = time.perf_counter()
        cell = _Cell(0.0, 1.0)
        for _ in range(self.LOOPS):
            cell = dataclasses.replace(cell, a=cell.a * 0.5 + cell.b)
        self.times.append(time.perf_counter() - t)


def fingerprint_errors(name: str, seed: int, steps: int,
                       accuracy: dict) -> list[str]:
    """Compare an op's accuracy with the values recorded for the default
    seed and size in workloads.json."""
    record = json.loads((HERE / "workloads.json").read_text())
    fp = record["workloads"][name]["fingerprint"]
    if seed != fp["seed"] or steps != fp["steps"]:
        return []
    errors = []
    for metric, want in fp["metrics"].items():
        got = accuracy.get(metric)
        tol = want["rel_tol"] * abs(want["value"])
        if got is None or abs(got - want["value"]) > tol:
            errors.append(f"fingerprint {metric}: {got} is not "
                          f"{want['value']} within {want['rel_tol']:.1%}")
    return errors


def run_op(workload, index: int, op_dir: str, tracer, args) -> dict:
    record = {"op": index, "traced": tracer is not None, "samples":
              workload.samples, "ok": False}
    probe = HostProbe(period_s=0.1)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            with probe:
                result = workload.op(op_dir)
        else:
            tracer.op = index
            tracer.install()
            try:
                result = tracer.call("op", "op", workload.op, op_dir)
            finally:
                tracer.uninstall()
                tracer.op = None
        record["wall_s"] = time.perf_counter() - t0 - probe.total_s
        record["cpu_s"] = time.process_time() - c0 - probe.total_s
        record["probes"] = len(probe.times)
        record["probe_s"] = probe.mean_s if probe.times else None
        errors, accuracy = workload.check(result, op_dir)
        errors += fingerprint_errors(workload.name, args.seed, args.steps,
                                     accuracy)
    except Exception:  # an op that raises is a failed op, not a failed run
        record.setdefault("wall_s", time.perf_counter() - t0)
        record.setdefault("cpu_s", time.process_time() - c0)
        traceback.print_exc(file=sys.stderr)
        errors, accuracy = [traceback.format_exc(limit=1).strip()], {}
    for e in errors:
        print(f"op {index} failed: {e}", file=sys.stderr)
    record.update(ok=not errors, errors=errors, accuracy=accuracy)
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_probe = HostProbe(period_s=0.02)  # set-up takes 0.2 to 1 s
    with setup_probe:
        import lfpsoc
        import numpy
        import spans
        from workloads import WORKLOADS
    if not Path(lfpsoc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: lfpsoc imported from {lfpsoc.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp")
    try:
        return run(args, workdir, WORKLOADS[args.workload], spans,
                   numpy.__version__, setup_probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir, workload_cls, spans, numpy_version, setup_probe) -> int:
    tracer = spans.Tracer() if args.trace else None
    workload = workload_cls(args.seed, args.steps, workdir)
    with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints a line
        with setup_probe:
            if tracer is not None:
                tracer.install()
            try:
                workload.setup()
            finally:
                if tracer is not None:
                    tracer.uninstall()
        setup_s = time.perf_counter() - T0 - setup_probe.total_s
        ops = [] if args.setup_only else run_ops(workload, workdir, tracer,
                                                 args)
    out = {"setup_s": setup_s, "setup_probe_s": setup_probe.mean_s,
           "ops": ops, "numpy": numpy_version,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0}
    if tracer is not None:
        traced = [(r, spans.op_layers(tracer.spans, r["op"]))
                  for r in ops if r["traced"]]
        out["layers"] = [spans.op_metrics(layers, tracer)
                         for _, layers in traced]
        out["shares"] = [{layer: v["total_s"] / r["wall_s"]
                          for layer, v in layers.items()}
                         for r, layers in traced]
        out["interval_ms"] = (spans.interval_ms(tracer.spans)
                              if tracer.present("multimodel.interval")
                              else None)
        out["absent"] = tracer.absent
        tracer.write(OUT / f"spans-{args.workload}-steps{args.steps}"
                     f"-seed{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


def run_ops(workload, workdir, tracer, args) -> list[dict]:
    """Ops until `args.seconds` is used up: another op starts only if the
    last one would still fit. A traced run alternates untraced and traced
    ops, so that tracing overhead is measured in the same run."""
    ops = []
    start = time.perf_counter()
    least = 2 if tracer is not None else 1
    while True:
        index = len(ops)
        op_dir = os.path.join(workdir, f"op-{index}")
        os.makedirs(op_dir)
        traced = tracer if index % 2 == 1 else None
        ops.append(run_op(workload, index, op_dir, traced, args))
        shutil.rmtree(op_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(ops) >= least and elapsed + ops[-1]["wall_s"] > args.seconds:
            return ops


if __name__ == "__main__":
    sys.exit(main())
