"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed (untimed), then runs
repetitions back to back, each in a fresh interpreter (bench/rep.py),
until the measuring time is used up. Every repetition's outputs are
checked and then deleted. The last stdout line is one JSON object:
with --trace 0 the end-to-end metrics of BENCHMARK.json as medians over
the repetitions; with --trace 1 the per-layer metrics, from traced
repetitions alternating with untraced ones so the tracing overhead is
measured in the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
MIN_REPS = 4          # per mode (untraced, traced)
REP_TIMEOUT_S = 150
RUN_LIMIT_S = 150     # stop starting repetitions after this long


def _program_present() -> bool:
    return (ROOT / "src" / "crowdpose_kit" / "cli.py").is_file()


def _rep(spec_path: Path, work: Path, index: int, traced: bool) -> dict:
    """Run one repetition in a fresh interpreter; delete its outputs."""
    out = work / f"rep{index}"
    spool = work / f"spool{index}"
    cmd = [sys.executable, str(ROOT / "bench" / "rep.py"), str(spec_path), str(out),
           str(spool) if traced else "-"]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
    except BaseException:  # interrupted: stop the repetition and its workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(spool, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"repetition {index} failed (exit {proc.returncode}):\n{stderr}\n")
        return {"crashed": True, "traced": traced}
    if stderr.strip():
        sys.stderr.write(stderr)
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - started
    result["traced"] = traced
    return result


def collect(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", min_reps: int = MIN_REPS) -> dict:
    """Prepare inputs, run repetitions for `seconds`, return them with the spec."""
    from bench import workloads

    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = workloads.prepare(workload, work / "inputs", seed, size)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        reps = []
        start = time.monotonic()
        while True:
            traced = trace and len(reps) % 2 == 1
            reps.append(_rep(spec_path, work, len(reps), traced))
            elapsed = time.monotonic() - start
            per_mode = len(reps) // 2 if trace else len(reps)
            if (elapsed >= seconds and per_mode >= min_reps) or elapsed >= RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    return {"spec": spec, "reps": reps}


def judge(run: dict) -> dict:
    """Step outcomes across repetitions: attempted, failed, first digests.

    A step fails on a nonzero exit, a failed output check, or outputs whose
    digest differs from the first repetition's."""
    labels = [s["label"] for s in run["spec"]["steps"]]
    attempted = failed = 0
    digests: dict = {}
    problems = []
    for i, rep in enumerate(run["reps"]):
        attempted += len(labels)
        if rep.get("crashed"):
            failed += len(labels)
            problems.append(f"repetition {i} crashed")
            continue
        for step in rep["steps"]:
            first = digests.setdefault(step["label"], step["digest"])
            bad = list(step["fails"])
            if step["exit"] != 0:
                bad.append(f"exit code {step['exit']}")
            if step["digest"] is None or step["digest"] != first:
                bad.append(f"digest {step['digest']} != first {first}")
            if bad:
                failed += 1
                problems += [f"repetition {i} {step['label']}: {b}" for b in bad[:5]]
    return {"attempted": attempted, "failed": failed, "digests": digests,
            "problems": problems}


def end_to_end(run: dict) -> dict:
    """Per-repetition samples, from the untraced repetitions, of every
    end-to-end metric that applies to the workload."""
    from bench import metrics

    spec = run["spec"]
    reps = [r for r in run["reps"] if not r.get("crashed") and not r["traced"]]
    samples = {name: [r[name] for r in reps] for name in metrics.GATED}
    for name, label in metrics.THROUGHPUT.items():
        if label in spec["items"]:
            samples[name] = [spec["items"][label] / s["wall_s"]
                             for r in reps for s in r["steps"] if s["label"] == label]
    if "encode" in spec["items"]:
        samples["heatmap_bytes_per_person"] = [
            s["bytes"] / spec["items"]["encode"]
            for r in reps for s in r["steps"] if s["label"] == "encode"]
    return samples


def per_layer(run: dict) -> dict:
    """Median per-layer metrics over the traced repetitions, plus the
    tracing overhead against the untraced ones."""
    from bench import metrics

    traced = [r for r in run["reps"] if not r.get("crashed") and r["traced"]]
    plain = [r for r in run["reps"] if not r.get("crashed") and not r["traced"]]
    out = {}
    for name in metrics.PER_LAYER:
        values = [r["layers"].get(name, 0) for r in traced]
        out[name] = (None if not values or any(v is None for v in values)
                     else metrics.median(values))
    if traced and plain:
        out["trace.overhead_s"] = (metrics.median([r["wall_s"] for r in traced])
                                   - metrics.median([r["wall_s"] for r in plain]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "train_prep", "eval_crowded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _program_present():
        sys.stderr.write(f"error: no toolkit sources under {ROOT / 'src'}; "
                         f"run from a checkout of the repository\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import metrics

    # SIGTERM still stops the running repetition and removes the inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    verdict = judge(run)
    for problem in verdict["problems"][:20]:
        print(f"FAIL {problem}")
    for label, digest in verdict["digests"].items():
        print(f"digest {label} {digest}")
    medians = {name: metrics.median(values) for name, values in end_to_end(run).items()
               if values}  # empty only when every repetition crashed
    for name, value in medians.items():
        print(f"{name} median {value:.6g} {metrics.END_TO_END[name][0]}")
    if args.trace:
        values = per_layer(run)
        units = metrics.PER_LAYER
    else:
        values = medians
        units = {name: metrics.END_TO_END[name][0] for name in metrics.GATED}
    result = {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": values.get(name), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
