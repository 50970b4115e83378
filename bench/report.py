"""Full benchmark report: every metric of every workload at one seed.

    python3 bench/report.py --seed 1 [--seconds 120] [--workload corpus ...]

Per workload, one run alternates untraced and traced repetitions for the
given time (at least eleven of each). It prints:
  * each end-to-end metric by name and unit, from the untraced repetitions,
    as the median and the highest percentile that has at least ten samples
    above it, with the sample count;
  * the output checks (failed_frac) and the output digests;
  * every per-layer metric as a median over the traced repetitions, the
    tracing overhead (traced minus untraced wall_s), and the layers with the
    largest self-time share, against the workload's stated rationale.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _fmt(value) -> str:
    if value is None:
        return "unmeasured"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value)}"


def self_shares(run: dict) -> list[tuple[str, float]]:
    """(layer, share of all self time) over the traced repetitions, largest
    first. cli.dispatch and the read-back are split per step."""
    from bench import metrics, tracing

    per_rep = []
    for rep in run["reps"]:
        if rep.get("crashed") or not rep["traced"]:
            continue
        secs: dict = {}
        for label, name, value in rep["self_by_step"]:
            key = f"{name}[{label}]" if name in ("cli.dispatch", tracing.READBACK) else name
            secs[key] = secs.get(key, 0.0) + value
        for module, func in tracing.LEAF_COUNTED:
            name = f"{module}.{func}"
            secs[name] = rep["layers"][f"{name}.self_s"] or 0.0
        per_rep.append(secs)
    keys = sorted({k for secs in per_rep for k in secs})
    medians = {k: metrics.median([secs.get(k, 0.0) for secs in per_rep]) for k in keys}
    total = sum(medians.values()) or 1.0
    return sorted(((k, v / total) for k, v in medians.items()), key=lambda kv: -kv[1])


def report(workload: str, seed: int, seconds: float) -> bool:
    from bench import metrics, run as bench_run

    print(f"== {workload} (seed {seed}, {seconds:g} s, jobs 2) ==")
    run = bench_run.collect(workload, seed, seconds, trace=True, min_reps=11)
    verdict = bench_run.judge(run)
    samples = bench_run.end_to_end(run)
    samples["failed_frac"] = [verdict["failed"] / verdict["attempted"]]

    print(f"{'end-to-end metric':28} {'unit':10} {'median':>12} {'high pct':>20} {'n':>4}")
    for name, (unit, where, _meaning) in metrics.END_TO_END.items():
        if workload not in where:
            continue
        values = samples[name]
        high = metrics.highest_percentile(values)
        high_text = "n<11" if high is None else f"p{high[0]} {high[1]:.6g}"
        print(f"{name:28} {unit:10} {metrics.median(values):12.6g} {high_text:>20} "
              f"{len(values):4d}")
    print(f"steps attempted {verdict['attempted']}, failed {verdict['failed']}")
    for problem in verdict["problems"][:20]:
        print(f"  FAIL {problem}")
    for label, digest in verdict["digests"].items():
        print(f"  digest {label} {digest}")

    layers = bench_run.per_layer(run)
    print(f"{'per-layer metric (traced)':44} {'unit':6} {'median':>14}")
    for name, unit in metrics.PER_LAYER.items():
        print(f"{name:44} {unit:6} {_fmt(layers.get(name)):>14}")

    shares = self_shares(run)
    print("largest self-time shares:")
    for name, share in shares[:6]:
        print(f"  {share:6.1%}  {name}")
    expected = metrics.RATIONALE[workload]
    grouped = {}
    for name, share in shares:
        group = next((e for e in expected if name == e or name.startswith(e + "[")), name)
        grouped[group] = grouped.get(group, 0.0) + share
    top = max(grouped, key=grouped.get)
    combined = sum(grouped.get(e, 0.0) for e in expected)
    others = max((v for k, v in grouped.items() if k not in expected), default=0.0)
    verdict_text = "confirmed" if combined > others else "refuted"
    print(f"rationale: {' + '.join(expected)} hold {combined:.1%} of self time; "
          f"largest other layer {others:.1%} (top single layer {top}) -> {verdict_text}")
    print()
    return verdict["failed"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=120.0)
    parser.add_argument("--workload", action="append",
                        choices=("corpus", "train_prep", "eval_crowded"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crowdpose_kit" / "cli.py").is_file():
        sys.stderr.write(f"error: no toolkit sources under {ROOT / 'src'}\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    ok = True
    for workload in args.workload or ["corpus", "train_prep", "eval_crowded"]:
        ok = report(workload, args.seed, args.seconds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
