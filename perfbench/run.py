#!/usr/bin/env python3
"""Build and run the whole-stack benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
repository's src/ libraries) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. The last line of
standard output is the result JSON. With --trace 0, setup_s is the
median over several cold set-ups, each in a fresh process, because
the sim calibration memo lives for the life of a process. With
--trace 1 the spans are written to <build>/traces/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sim_fig14", "host_dispatch", "sim_openloop")
SETUP_SAMPLES = 4  # extra cold set-ups besides the measured run's own
RUN_TIMEOUT_S = 170


def build(source: Path, build_dir: Path) -> Path:
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "ttbench",
         "-j", "4"],
        check=True, stdout=log)
    return build_dir / "ttbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (root / target / "perfbench").resolve()
    try:
        binary = build(root / "perfbench", build_dir)
    except subprocess.CalledProcessError as err:
        print(f"perfbench: build failed ({err})", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S, cwd=root)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        print(f"perfbench: ttbench exited {run.returncode}",
              file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])

    if args.trace == "0":
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES):
            cold = subprocess.run(
                [str(binary), "--workload", args.workload, "--setup-only"],
                stdout=subprocess.PIPE, text=True, check=True,
                timeout=RUN_TIMEOUT_S, cwd=root)
            setups.append(json.loads(cold.stdout.split("\n")[-2])["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.insert(-1, f"setup_s samples ({len(setups)} cold processes): "
                     + " ".join(f"{s:.4f}" for s in setups))

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
