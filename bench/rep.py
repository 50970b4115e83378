"""One benchmark repetition, run in a fresh interpreter.

    python3 bench/rep.py SPEC_JSON OUT_DIR SPOOL_DIR|-

Set-up ends the moment `crowdpose_kit.cli` is imported; the caller takes
the interpreter's start time just before it launches this script. The
workload's steps then run back to back and are timed as one interval;
output checks, digests and span merging follow, untimed. The last stdout
line is one JSON object. SPOOL_DIR turns tracing on ("-" leaves it off).
"""

import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))
import crowdpose_kit.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, str(_ROOT))
from bench import tracing, workloads  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run_step(step: dict, out: Path, tracer) -> int:
    if step["argv"] is not None:
        return crowdpose_kit.cli.dispatch(workloads.argv_for(step, out))
    with tracer.root(tracing.READBACK) if tracer else contextlib.nullcontext():
        workloads.readback(out)
    return 0


def main(argv) -> int:
    spec_path, out, spool = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    missing = []
    if spool != "-":
        tracer = tracing.Tracer(Path(spool))
        missing = tracer.install()

    steps = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for step in spec["steps"]:
        if tracer:
            tracer.label = step["label"]
        s0 = time.perf_counter()
        try:
            code = _run_step(step, out, tracer)
        except Exception:  # a crash fails the step; the rest still report
            traceback.print_exc()
            code = -1
        steps.append({"label": step["label"], "exit": code,
                      "wall_s": time.perf_counter() - s0})
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    if tracer:
        tracer.active = False
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    try:
        fails = workloads.check(spec, out)
    except Exception as exc:  # missing or malformed outputs fail every step
        fails = {s["label"]: [f"check crashed: {exc!r}"] for s in spec["steps"]}
    for spec_step, step in zip(spec["steps"], steps):
        target = out / spec_step["out"]
        step["fails"] = fails.get(step["label"], [])
        step["digest"] = workloads.digest(target) if target.exists() else None
        step["bytes"] = workloads.output_bytes(target) if target.exists() else 0

    result = {"ready": READY, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": (own + kids) / 1024.0, "steps": steps}
    if tracer:
        merged = tracer.merge()
        layers = tracing.layer_metrics(merged, workloads.JOBS)
        readback = out / "readback.json"  # the one file not written by the CLI
        layers["cli.bytes_written"] = workloads.all_bytes(out) - (
            readback.stat().st_size if readback.exists() else 0)
        result["layers"] = layers
        result["missing"] = missing
        result["self_by_step"] = [[label, name, secs] for (label, name), secs
                                  in sorted(tracing.self_by_command(merged).items())]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
