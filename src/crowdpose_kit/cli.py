"""crowdpose-kit command line: reproducible pipelines over the toolkit.

`dispatch` is the one command runner. It times each subcommand and, for
every run given `--out`, writes a manifest (argv, seed, content digest of
the inputs the subcommand names, version, duration). It is also the one
place that maps failures to exit codes: 0 success, 1 domain error
(`CrowdKitError` or a missing input file), 2 usage error (argparse, which
also rejects `heatmap encode` without `--out` and `heatmap decode` without
`--bbox`). Diagnostics go to stderr; data goes to files or stdout only.
The --jobs flag of `gen` and `augment` controls data-parallel width
without changing any output byte; `eval` runs in one process and accepts
--jobs only for compatibility.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from . import annotations as anno
from . import augment as aug
from . import crowd_metrics
from . import evaluator
from . import heatmaps
from . import masks
from . import occloss
from . import synthgen
from .errors import ConfigError, CrowdKitError, InventoryError
from .seeding import map_jobs, substream


def _digest_paths(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(str(p) for p in paths if p):
        p = Path(path)
        h.update(path.encode("utf-8"))
        if p.is_file():
            h.update(p.read_bytes())
        elif p.is_dir():
            for child in sorted(p.rglob("*")):
                if child.is_file():
                    h.update(str(child.relative_to(p)).encode("utf-8"))
                    h.update(child.read_bytes())
    return h.hexdigest()


def _write_manifest(out: Path, argv, inputs, seed, duration_s: float) -> None:
    manifest = {
        "command": ["crowdpose-kit", *argv],
        "seed": seed,
        "config_digest": _digest_paths(inputs),
        "tool_version": __version__,
        "duration_s": round(duration_s, 3),
    }
    if out.suffix:  # file output: manifest next to it
        path = out.with_suffix(out.suffix + ".manifest.json")
    else:
        out.mkdir(parents=True, exist_ok=True)
        path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _format_name(flag: str) -> str:
    return flag + "_like" if flag in ("coco", "jta") else "native"


def _read_dataset(path: str, fmt: str) -> anno.Dataset:
    return anno.parse_dataset(Path(path).read_bytes(), fmt)


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid UTF-8 or invalid JSON
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


# Readers of decoded JSON values: each returns the value in the type the
# program uses, or None when the JSON value has the wrong type.

def _json_int(value):
    """A JSON integer (booleans are not integers)."""
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def _json_float(value):
    """A JSON number as a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return value if math.isfinite(value) else None


def _json_list(value, read):
    """A JSON list with every item read by `read`."""
    if not isinstance(value, list):
        return None
    items = [read(v) for v in value]
    return None if None in items else items


def _json_pair(read):
    def read_pair(value):
        items = _json_list(value, read)
        return tuple(items) if items is not None and len(items) == 2 else None
    return read_pair


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# --- subcommands -----------------------------------------------------------
# Each returns the inputs its manifest digests.

def _cmd_convert(args):
    dataset = _read_dataset(args.infile, _format_name(args.src_format))
    if args.to == "crowdpose":
        if dataset.schema.count != anno.JTA_SCHEMA.count:
            raise ConfigError("conversion to crowdpose expects a 22-keypoint input")
        mapping = None
        if args.mapping:
            mapping = _json_list(_read_json(args.mapping), _json_int)
            if mapping is None:
                raise ConfigError(f"{args.mapping}: expected a JSON list of "
                                  f"source keypoint indices")
        dataset = anno.convert_dataset_jta_to_crowdpose(dataset, mapping)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(anno.serialize_dataset(dataset))
    return [args.infile, args.mapping]


def _cmd_validate(args):
    report = anno.validate(_read_dataset(args.infile, _format_name(args.format)))
    _emit(report.to_json(), args.out)
    return [args.infile]


def _cmd_analyze(args):
    dataset = _read_dataset(args.infile, "native")
    stats = crowd_metrics.dataset_histogram(dataset, args.bins, args.count_mode)
    _emit(stats.to_json(), args.out)
    return [args.infile]


@functools.lru_cache(maxsize=4)
def _inventory_cached(directory: str) -> aug.CutoutInventory:
    return aug.load_inventory(Path(directory))


def _augment_one(images_dir: str, inventory_dir: str, seed: int,
                 config: aug.AugmentConfig, record: anno.ImageRecord):
    raster = masks.read_pam((Path(images_dir) / f"{record.id}.pam").read_bytes())
    inventory = _inventory_cached(inventory_dir)
    if not record.persons:
        return record.id, masks.write_pam(raster), record, {"placements": [],
                                                            "flag_changes": []}
    rng = substream(seed, "augment", record.id)
    target = int(rng.integers(len(record.persons)))
    result = aug.apply_augmentation(rng, raster, record, target, config, inventory)
    log = {
        "target_person": target,
        "placements": [p.to_json() for p in result.placements],
        "flag_changes": [c.to_json() for c in result.flag_changes],
    }
    return record.id, masks.write_pam(result.image), result.record, log


def _cmd_augment(args):
    if not Path(args.inventory).is_dir():
        raise InventoryError(f"inventory directory not found: {args.inventory}")
    dataset = _read_dataset(args.infile, "native")
    config = aug.AugmentConfig(method=args.method, seed=args.seed)
    images_dir = args.images or str(Path(args.infile).parent)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    worker = functools.partial(_augment_one, images_dir, args.inventory,
                               args.seed, config)
    results = map_jobs(worker, dataset.images, args.jobs)
    log = {}
    new_images = []
    for image_id, pam, record, entry in results:
        (out / f"{image_id}.pam").write_bytes(pam)
        new_images.append(record)
        log[image_id] = entry
    augmented = anno.Dataset(schema=dataset.schema, images=tuple(new_images),
                             meta=dict(dataset.meta))
    (out / "dataset.json").write_bytes(anno.serialize_dataset(augmented))
    (out / "augment_log.json").write_text(
        json.dumps(log, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return [args.infile, images_dir, args.inventory]


def _render_scene(scene: synthgen.GeneratedScene):
    raster, depth = synthgen.render_layout(scene.layout)
    return scene.record.id, masks.write_pam(raster), masks.write_depth_pam(depth)


DEFAULT_BINS = 10


def _target_histogram(target: str, bins: int | None) -> tuple[float, ...]:
    """Bin weights summing to 1. A weights file sets the bin count itself;
    an explicit --bins must then agree with it."""
    if target in ("uniform", "easy"):
        bins = DEFAULT_BINS if bins is None else bins
        if bins < 1:
            raise ConfigError(f"--bins must be at least 1, got {bins}")
        if target == "uniform":
            return (1.0 / bins,) * bins
        return (1.0,) + (0.0,) * (bins - 1)
    weights = _json_list(_read_json(target), _json_float)
    total = sum(weights) if weights is not None else 0.0
    if not (weights and min(weights) >= 0 and 0 < total < math.inf):
        raise ConfigError(f"{target}: expected a JSON list of non-negative bin "
                          f"weights with a positive, finite sum")
    if bins is not None and bins != len(weights):
        raise ConfigError(f"--bins {bins} differs from the {len(weights)} bin "
                          f"weights in {target}")
    return tuple(w / total for w in weights)


# The SceneConfig fields `gen --config` may set, each with a description of
# its JSON value and the reader for it. `seed` is absent: --seed always wins.
_SCENE_FIELDS = {
    "image_w": ("an integer", _json_int),
    "image_h": ("an integer", _json_int),
    "person_count_range": ("a pair of integers", _json_pair(_json_int)),
    "scale_range": ("a pair of numbers", _json_pair(_json_float)),
    "depth_model": ("a string", lambda v: v if isinstance(v, str) else None),
    "limb_radius_frac": ("a number", _json_float),
    "target_crowd_index": ("a number", _json_float),
    "attach_prob": ("a number", _json_float),
    "attach_sigma": ("a number", _json_float),
}


def _scene_overrides(path: str) -> dict:
    overrides = _read_json(path)
    fields = _SCENE_FIELDS.keys() | {"seed"}
    if not (isinstance(overrides, dict) and overrides.keys() <= fields):
        raise ConfigError(f"{path}: expected a JSON object with keys "
                          f"from {sorted(fields)}")
    overrides.pop("seed", None)
    out = {}
    for key, value in overrides.items():
        expected, read = _SCENE_FIELDS[key]
        out[key] = read(value)
        if out[key] is None:
            raise ConfigError(f"{path}: {key} must be {expected}, got {value!r}")
    return out


def _cmd_gen(args):
    overrides = _scene_overrides(args.config) if args.config else {}
    scene_cfg = synthgen.SceneConfig(seed=args.seed, **overrides)
    corpus_cfg = synthgen.CorpusConfig(
        scenes=args.scenes, scene_cfg=scene_cfg,
        target_histogram=_target_histogram(args.target, args.bins))
    scenes = synthgen.plan_corpus(corpus_cfg)
    dataset = synthgen.corpus_dataset(corpus_cfg, scenes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "dataset.json").write_bytes(anno.serialize_dataset(dataset))
    if not args.no_rasters:
        for image_id, pam, depth_pam in map_jobs(_render_scene, scenes, args.jobs):
            (out / f"{image_id}.pam").write_bytes(pam)
            (out / f"{image_id}_depth.pam").write_bytes(depth_pam)
    return [args.config]


def _cmd_heatmap(args):
    if args.action == "encode":
        if not args.out:
            args.usage_error("encode requires --out")
        dataset = _read_dataset(args.infile, "native")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        index = {}
        for img in dataset.images:
            for pi, person in enumerate(img.persons):
                transform = heatmaps.bbox_to_crop(person.bbox)
                pair, in_bounds = heatmaps.encode(person.pose, transform, args.sigma)
                name = f"{img.id}_p{pi}.hm"
                (out / name).write_bytes(heatmaps.write_heatmap_pair(pair))
                index[name] = {
                    "image_id": img.id, "person_index": pi,
                    "bbox": [person.bbox.x, person.bbox.y, person.bbox.w,
                             person.bbox.h],
                    "encoded": [bool(b) for b in in_bounds],
                }
        (out / "heatmaps.json").write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return [args.infile]
    # decode
    if not args.bbox:
        args.usage_error("decode requires --bbox X Y W H")
    pair = heatmaps.read_heatmap_pair(Path(args.infile).read_bytes())
    bx, by, bw, bh = args.bbox
    transform = heatmaps.bbox_to_crop(anno.BBox(bx, by, bw, bh))
    result = heatmaps.decode(pair, transform, args.threshold)
    payload = {
        "keypoints": [[kp.x, kp.y, kp.vis.value] for kp in result.pose.keypoints],
        "confidences": [float(c) for c in result.confidences],
        "low_confidence": [bool(b) for b in result.low_confidence],
    }
    _emit(payload, args.out)
    return [args.infile]


def _cmd_losscheck(args):
    cfg = occloss.LossConfig(alpha=args.alpha)
    err = occloss.grad_check(cfg, trials=args.trials, fd_step=args.fd_step,
                             seed=args.seed)
    ok = err < 1e-5
    sys.stdout.write(f"max_relative_error={err:.3e} {'PASS' if ok else 'FAIL'}\n")
    if not ok:
        raise CrowdKitError(f"gradient check failed: max relative error {err:.3e} "
                            f">= 1e-5")
    return []


def _cmd_eval(args):
    gt = _read_dataset(args.gt, "native")
    pred = _read_dataset(args.pred, "native")
    count = gt.schema.count
    if args.sigmas:
        sigmas = _json_list(_read_json(args.sigmas), _json_float)
        if not (sigmas and len(sigmas) == count and min(sigmas) > 0):
            raise ConfigError(f"{args.sigmas}: expected a JSON list of {count} "
                              f"positive OKS sigmas, one per keypoint")
    else:
        sigmas = evaluator.default_sigmas(count)
    cfg = evaluator.OksConfig(sigmas=tuple(sigmas))
    report = evaluator.eval_by_crowding(pred, gt, cfg)
    _emit(report.to_json(), args.out)
    if args.csv:
        _write_report_csv(Path(args.csv), report)
    return [args.gt, args.pred, args.sigmas]


def _write_report_csv(path: Path, report: evaluator.EvalReport) -> None:
    def cell(v):
        return "" if v is None else f"{v:.3f}"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "AP,AP_Easy,AP_Med,AP_Hard\n"
        f"{cell(report.ap)},{cell(report.ap_easy)},{cell(report.ap_medium)},"
        f"{cell(report.ap_hard)}\n", encoding="utf-8")


# --- parser ----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdpose-kit",
        description="Crowded-scene pose data toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, seed_required=False):
        p = sub.add_parser(name, help=help)
        # --seed is accepted everywhere and recorded in the manifest even
        # for commands whose output is a pure function of their inputs
        p.add_argument("--seed", type=int, required=seed_required, default=0)
        p.set_defaults(func=func, usage_error=p.error)
        return p

    p = command("convert", _cmd_convert, "convert between annotation schemas")
    p.add_argument("--from", dest="src_format", required=True,
                   choices=("jta", "coco", "native"))
    p.add_argument("--to", required=True, choices=("crowdpose", "native"))
    p.add_argument("--mapping", help="JSON list of source keypoint indices")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = command("validate", _cmd_validate, "report annotation invariant violations")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", default="native", choices=("coco", "jta", "native"))
    p.add_argument("--out")

    p = command("analyze", _cmd_analyze, "CrowdIndex statistics for a dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--count-mode", default=crowd_metrics.COUNT_LABELED,
                   choices=(crowd_metrics.COUNT_LABELED,
                            crowd_metrics.COUNT_VISIBLE_ONLY))
    p.add_argument("--out")

    p = command("augment", _cmd_augment, "paste occlusion cutouts over a dataset",
                seed_required=True)
    p.add_argument("--method", required=True, choices=aug.METHODS)
    p.add_argument("--inventory", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--images",
                   help="directory of <id>.pam rasters (default: beside --in)")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = command("gen", _cmd_gen, "generate a synthetic annotated crowd corpus",
                seed_required=True)
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--target", default="uniform",
                   help="'uniform', 'easy', or a JSON file of bin weights")
    p.add_argument("--bins", type=int,
                   help=f"CrowdIndex histogram bins (default {DEFAULT_BINS}); a "
                        f"--target file sets the count, and --bins must then "
                        f"match it")
    p.add_argument("--config", help="JSON with SceneConfig overrides")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-rasters", action="store_true",
                   help="skip PAM raster and depth outputs")

    p = command("heatmap", _cmd_heatmap, "encode or decode dual-branch heatmaps")
    p.add_argument("action", choices=("encode", "decode"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--sigma", type=float, default=heatmaps.DEFAULT_SIGMA)
    p.add_argument("--bbox", type=float, nargs=4, metavar=("X", "Y", "W", "H"),
                   help="person box in image coordinates (decode)")
    p.add_argument("--threshold", type=float, default=heatmaps.DEFAULT_CONF_THRESHOLD)

    p = command("losscheck", _cmd_losscheck,
                "finite-difference check of the loss gradient")
    p.add_argument("--alpha", type=float, default=occloss.DEFAULT_ALPHA)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--fd-step", type=float, default=1e-4)

    p = command("eval", _cmd_eval, "OKS/AP evaluation by crowding level")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--sigmas", help="JSON list of per-keypoint sigmas")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored: eval runs in "
                        "one process")
    return parser


def dispatch(argv) -> int:
    """Run one subcommand, write its manifest when it was given --out, and
    return the process exit code."""
    argv = list(argv)
    try:
        args = _build_parser().parse_args(argv)
        started = time.time()
        inputs = args.func(args)
    except SystemExit as exc:  # usage error (2), or --help (0)
        return int(exc.code or 0)
    except CrowdKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: missing input: {exc.filename}\n")
        return 1
    if getattr(args, "out", None):
        _write_manifest(Path(args.out), argv, inputs, args.seed, time.time() - started)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
