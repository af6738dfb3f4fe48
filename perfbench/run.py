"""Run one benchmark workload; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload linear-cell --seed 1 --seconds 30 --trace 0

Run it from any directory; it uses the checkout it sits in. The inputs are
generated from --seed into .perfbench/ in the checkout (by synth.py, in a
child process, so generating them does not count towards this process's
memory), read back through clozebase's own parsers, and deleted at the end.
With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer metrics, and the spans go to
.perfbench/traces/<workload>-s<seed>.jsonl.
"""
from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SYNTH_TIMEOUT_S = 300


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _environment() -> dict[str, object]:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS}


def _record(path: Path, workload: str, seed: int, outputs: dict) -> None:
    """Store this run's outputs as the reference for (workload, seed)."""
    table = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    table.setdefault(workload, {})[str(seed)] = outputs
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the outputs as this seed's reference")
    args = parser.parse_args(argv)

    if not (SRC / "clozebase" / "__init__.py").is_file():
        print(f"run.py: no clozebase sources under {SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    inputs = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        subprocess.run([sys.executable, str(HERE / "synth.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--out", str(inputs)],
                       check=True, timeout=SYNTH_TIMEOUT_S)
        run = workloads.Run(args.workload, args.seed, args.seconds, inputs)
        if args.trace:
            listed = spec["per_layer"]
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            values = workloads.run_traced(
                run, [m["name"] for m in listed],
                traces / f"{args.workload}-s{args.seed}.jsonl")
        else:
            listed = spec["end_to_end"]
            values = workloads.run_untraced(run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    checks = run.checks
    lines = [f"env {json.dumps(_environment())}",
             f"workload {args.workload} seed {args.seed} "
             f"trace {args.trace}"]
    lines += [f"  {name} = {value}" for name, value in run.report.items()]
    lines.append(f"  failed_frac = {checks.failed / checks.attempted} "
                 f"({checks.failed} of {checks.attempted} operations)")
    lines += [f"  CHECK FAILED: {message}" for message in checks.messages]
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print("\n".join(lines))
    if args.record:
        _record(workloads.REFERENCE_PATH, args.workload, args.seed,
                run.outputs)
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
