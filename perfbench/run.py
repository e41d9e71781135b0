"""rfcn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script generates the workload's inputs
from the seed (outside any timed region), times set-up in several fresh
worker processes, then runs the workload in one more worker for at least S
seconds (see worker.py). It prints the environment, every metric by name with
its unit, the output checks, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

Exit status: 0 when every output check passed, 1 when one failed or the
worker did not finish, 2 when the checkout holds no rfcn sources.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import zlib

import measure
from workloads import INIT_SEED, WINDOW, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 4     # set-up-only processes; with the main worker, 5 samples
DEADLINE_S = 170     # the whole run, generation and set-up probes included


def make_inputs(name, seed, workdir):
    import numpy as np

    import inputs
    spec = WORKLOADS[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    inputs.write_dataset(os.path.join(workdir, "data"), rng, spec["data"], WINDOW)
    if spec["job"] == "segment":
        sys.path.insert(0, SRC)
        from rfcn import model, tensor
        m = model.init_model(model.preset(spec["preset"], window=WINDOW),
                             tensor.Rng(INIT_SEED))
        model.save_checkpoint(m, os.path.join(workdir, "model.ckpt"))


class Worker:
    """A worker process; ready_s is the time from spawn to its "ready" line."""

    def __init__(self, args, deadline):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            stdout=subprocess.PIPE, text=True)
        self._start = time.perf_counter()
        self._timer = threading.Timer(max(deadline - time.monotonic(), 0), self.proc.kill)
        self._timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - self._start if line.strip() == "ready" else None

    def finish(self):
        """Wait for exit; returns the exit code (negative if killed)."""
        self.proc.stdout.read()
        code = self.proc.wait()
        self._timer.cancel()
        return code

    def kill(self):
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def spawn(args, deadline, workers):
    w = Worker(args, deadline)
    workers.append(w)
    return w


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # Pin BLAS to one thread before numpy is first imported, here by
    # make_inputs and in every worker; the pin is part of the environment record.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # On SIGTERM, unwind through the finally below so workers are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not os.path.isfile(os.path.join(SRC, "rfcn", "__init__.py")):
        print(f"no rfcn sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    workers = []
    try:
        make_inputs(args.workload, args.seed, workdir)
        common = ["--workload", args.workload, "--workdir", workdir]
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                w = spawn(common + ["--setup-only"], deadline, workers)
                setup.append(w.ready_s)
                w.finish()
        result_path = os.path.join(workdir, "result.json")
        main_worker = spawn(common + ["--seconds", str(args.seconds), "--trace",
                                      str(args.trace), "--result", result_path],
                            deadline, workers)
        setup.append(main_worker.ready_s)
        code = main_worker.finish()
        if code != 0 or not os.path.exists(result_path) or None in setup:
            print(f"worker failed (exit {code})", file=sys.stderr)
            return 1
        with open(result_path) as f:
            res = json.load(f)
    finally:
        for w in workers:
            w.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    found = dict(res["metrics"])
    if not args.trace:
        found["setup_s"] = measure.p50(setup)
        res["info"]["setup_s_samples"] = setup
    metrics = {}
    for m in wanted:
        value = found.get(m["name"])
        if value is None:
            res["correct"] = False
            res["checks"].append(f"FAIL metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for key, value in sorted(res["info"].items()):
        print(f"  {key}: {value}")
    print(f"  failed_frac: {res['failed'] / max(res['attempted'], 1):.6g}")
    for message in res["checks"]:
        print("  " + message)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
