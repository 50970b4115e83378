"""crowdpose-kit command line: reproducible pipelines over the toolkit.

A command loads only what it runs. Importing this module loads numpy,
`annotations` and `errors`, and no other package module. `COMMANDS` maps
each command's words to the function that runs it, its help line, the
function that declares its flags and whether its `--out` is a directory.
The one parser, built once per process, registers every command's name and
help line; argparse declares a command's flags only when it selects that
command. The flag declarations and the runner of a command import the
package modules that command calls, so `eval` loads `evaluator` and
`crowd_metrics` but never `synthgen`, and only the commands that draw load
`numpy.random`. A CLI process runs BLAS on one thread, because this module
sets `OPENBLAS_NUM_THREADS=1` before numpy loads unless the environment
already sets it (a user exports another value to get more): the package's
only BLAS calls are 2x2 matmuls, and OpenBLAS's idle worker thread spun on
a second CPU after `import numpy`, so a fresh `eval` of 70 crowded images
uses 0.10 s of CPU where it used 0.19 s.

`dispatch` is the one command runner. Before the subcommand runs, it makes
every output location: the parent of `--out` and `--csv`, and the `--out`
directory of `gen`, `augment` and `heatmap encode`; a location at any
depth under a file fails first, naming that file. It times each
subcommand and, for every run given `--out`, writes a manifest (argv, seed,
content digest of the inputs the subcommand names, version, the Python and
numpy versions, duration), inside a directory `--out` and beside a file
`--out`. Each command takes only the flags it reads, so `--seed` belongs
to `gen`, `augment` and `losscheck`; other manifests record a null seed.
`dispatch` is also the one place that maps failures to exit codes: 0
success, 1 domain error (`CrowdKitError`, an `OSError` such as a missing
input file or an output path that collides with a file, or a `MemoryError`
from an input too large for this machine's memory), 2 usage error
(argparse: an unknown, missing or invalid flag). Diagnostics go to stderr,
data to files or stdout only; `analyze` and `eval` add one `note:` line with
the persons that the CrowdIndex counted as ratio 0.
`dispatch` owns the rollback: if the subcommand or its manifest write fails,
it removes what is new under the output roots (`--out`, `--csv`, the
manifest); a path that existed before stays, with whatever bytes were
written into it.
`gen --jobs` plans and renders runs of at most `RUN_SLOTS` (5) scenes, and
builds each scene's dataset.json entry, in worker processes, two runs in
flight per worker; the main process writes every file, without changing
any output byte. When `gen` stops, on success or on a failure, its workers
stop too: `map_jobs` signals them, and planning checks the signal at every
candidate. `gen` is the only command that fans out. `augment` and `eval`
run in one process and accept --jobs only for compatibility, because a
process pool made each of them slower (README gives the measurements).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import hashlib
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

# Set before numpy loads OpenBLAS. Its worker thread would spin on another
# CPU for about 0.1 s after import, and the package's only BLAS calls are
# 2x2 matmuls, which no thread pool speeds up. A value set by the user wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from . import annotations as anno  # noqa: E402
from .errors import ConfigError, CrowdKitError, InventoryError  # noqa: E402

if TYPE_CHECKING:  # each command imports the modules it runs
    from . import evaluator, synthgen


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


def _manifest_path(out: Path, out_dir: bool) -> Path:
    """Inside a directory --out; beside a file --out."""
    return out / "manifest.json" if out_dir else out.parent / (out.name + ".manifest.json")


def _write_manifest(path: Path, argv, inputs, seed, duration_s: float) -> None:
    manifest = {
        "command": ["crowdpose-kit", *argv],
        "seed": seed,
        "config_digest": _digest_paths(inputs),
        "tool_version": __version__,
        # the RNG streams, and so the outputs, depend on both
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
        "duration_s": round(duration_s, 3),
    }
    _emit(manifest, path)


@contextlib.contextmanager
def _rolled_back(roots):
    """On a failure in the block, remove each new root and new entry of a
    directory root with all it holds, then each new parent directory that
    is empty: one that holds another run's output stays."""
    roots = [Path(r) for r in roots if r]
    new = [r for r in roots if not os.path.lexists(r)]
    parents = {p for r in roots for p in r.parents if not os.path.lexists(p)}
    entries = {r: set(os.listdir(r)) for r in roots if r.is_dir()}
    try:
        yield
    except BaseException:
        new += [d / name for d, names in entries.items() if d.is_dir()
                for name in set(os.listdir(d)) - names]
        for path in new:
            with contextlib.suppress(OSError):  # gone already, or never made
                if path.is_dir() and not path.is_symlink():
                    shutil.rmtree(path)
                else:
                    path.unlink()
        for d in sorted(parents, reverse=True):  # a child sorts after its parent
            with contextlib.suppress(OSError):  # not empty, gone, or never made
                d.rmdir()
        raise


def _refuse_under_file(path: Path) -> None:
    """Raise the error that names the nearest existing ancestor of the
    output location `path` if that ancestor is not a directory; `mkdir`
    would name the first level it fails to make instead."""
    for ancestor in path.parents:
        if ancestor.exists():
            if not ancestor.is_dir():
                raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(ancestor))
            return


def _read_dataset(path: str, fmt: str) -> anno.Dataset:
    return anno.parse_dataset(Path(path).read_bytes(), fmt)


def _read_named_images(path: str) -> anno.Dataset:
    """The native dataset at `path`, poses of its schema's length, and each
    image id, the stem of its output files, one plain file name (not empty,
    `.` or `..`, no `/` or NUL); `Dataset` keeps the ids distinct."""
    dataset = anno.require_schema_lengths(_read_dataset(path, "native"))
    for img in dataset.images:
        if img.id in ("", ".", "..") or "/" in img.id or "\0" in img.id:
            raise CrowdKitError(f"image id {img.id!r} is not a plain file name")
    return dataset


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deeply
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


def _emit(payload: dict, out: str | Path | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _note_ratio_zero(persons: int) -> None:
    """One stderr line for the persons with no own keypoints in their box."""
    if persons:
        noun = "person" if persons == 1 else "persons"
        sys.stderr.write(f"note: {persons} {noun} with no own keypoints in "
                         f"their box counted as ratio 0\n")


# --- subcommands -----------------------------------------------------------
# Each returns the inputs its manifest digests, and imports the package
# modules it calls, so that no command loads another command's modules.

def _cmd_convert(args):
    dataset = _read_dataset(args.infile, args.src_format)
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
    Path(args.out).write_bytes(anno.serialize_dataset(dataset))
    return [args.infile, args.mapping]


def _cmd_validate(args):
    report = anno.validate(_read_dataset(args.infile, args.format))
    _emit(report.to_json(), args.out)
    return [args.infile]


def _cmd_analyze(args):
    from . import crowd_metrics

    dataset = anno.require_schema_lengths(_read_dataset(args.infile, "native"))
    stats = crowd_metrics.dataset_histogram(dataset, args.bins, args.count_mode)
    _emit(stats.to_json(), args.out)
    _note_ratio_zero(stats.no_own_keypoints)
    return [args.infile]


def _cmd_augment(args):
    from . import augment as aug
    from . import masks
    from .seeding import substream

    if not Path(args.inventory).is_dir():
        raise InventoryError(f"inventory directory not found: {args.inventory}")
    dataset = _read_named_images(args.infile)
    inventory = aug.load_inventory(Path(args.inventory))
    config = aug.AugmentConfig(method=args.method)
    images_dir = args.images or str(Path(args.infile).parent)
    out = Path(args.out)
    log = {}
    new_images = []
    for image in dataset.images:
        raster = masks.read_pam((Path(images_dir) / f"{image.id}.pam").read_bytes())
        record, entry = image, {"placements": [], "flag_changes": []}
        if image.persons:
            rng = substream(args.seed, "augment", image.id)
            target = int(rng.integers(len(image.persons)))
            result = aug.apply_augmentation(rng, raster, image, target, config, inventory)
            raster, record = result.image, result.record
            entry = {
                "target_person": target,
                "placements": [p.to_json() for p in result.placements],
                "flag_changes": [c.to_json() for c in result.flag_changes],
            }
        (out / f"{image.id}.pam").write_bytes(masks.write_pam(raster))
        new_images.append(record)
        log[image.id] = entry
    augmented = anno.Dataset(schema=dataset.schema, images=tuple(new_images),
                             meta=dict(dataset.meta))
    (out / "dataset.json").write_bytes(anno.serialize_dataset(augmented))
    _emit(log, out / "augment_log.json")
    return [args.infile, images_dir, args.inventory]


def _gen_run(cfg: synthgen.CorpusConfig, rasters: bool, run):
    """Plan a run of slots and render each accepted scene; yields
    (scene without layout or persons, candidates spent, dataset.json entry,
    PAM bytes, depth PAM bytes) per slot, with None for what the slot did
    not make. The entry carries the persons, so gen's main process holds
    only each scene's id, CrowdIndex, slot and attempt."""
    from . import masks, synthgen

    for scene, spent in synthgen.plan_slots(cfg, run):
        entry = pam = depth_pam = None
        if scene is not None:
            entry = anno.image_json(scene.record)
            if rasters:
                raster, depth = synthgen.render_layout(scene.layout)
                pam, depth_pam = masks.write_pam(raster), masks.write_depth_pam(depth)
            scene = dataclasses.replace(scene, layout=None,
                                        record=dataclasses.replace(scene.record, persons=()))
        yield scene, spent, entry, pam, depth_pam


# The most slots in one run of gen --jobs N > 1. A run's PAMs are held at
# once in its worker, in transit and in this process, so this bounds the
# memory that the fan-out holds, whatever --scenes is.
RUN_SLOTS = 5


def _gen_outputs(cfg: synthgen.CorpusConfig, jobs: int, rasters: bool):
    """_gen_run's outputs for every slot, in slot order. With jobs > 1 the
    slots are cut into contiguous runs, four per job (or one per slot if
    there are fewer) so that one slow run does not leave the other workers
    idle, or more so that no run holds over RUN_SLOTS slots, and map_jobs
    fans the runs out; otherwise one run is planned in this process."""
    from . import synthgen
    from .seeding import map_jobs

    slots = synthgen.corpus_slots(cfg)
    parts = (max(min(4 * jobs, len(slots)), math.ceil(len(slots) / RUN_SLOTS))
             if jobs > 1 else 1)
    runs = [slots[len(slots) * i // parts:len(slots) * (i + 1) // parts]
            for i in range(parts)]
    return map_jobs(functools.partial(_gen_run, cfg, rasters), runs, jobs)


DEFAULT_BINS = 10
# --target values that name a histogram; any other value is a weights file
NAMED_TARGETS = ("uniform", "easy")


def _target_histogram(target: str, bins: int | None) -> tuple[float, ...]:
    """Bin weights summing to 1. A weights file sets the bin count itself;
    an explicit --bins must then agree with it."""
    from .crowd_metrics import MAX_BINS

    if target in NAMED_TARGETS:
        bins = DEFAULT_BINS if bins is None else bins
        if not 1 <= bins <= MAX_BINS:
            raise ConfigError(f"--bins must be in [1, {MAX_BINS}], got {bins}")
        if target == "uniform":
            return (1.0 / bins,) * bins
        return (1.0,) + (0.0,) * (bins - 1)
    weights = _json_list(_read_json(target), _json_float)
    total = sum(weights) if weights is not None else 0.0
    if not 0 < total < math.inf:
        raise ConfigError(f"{target}: expected a JSON list of bin weights with a "
                          f"positive, finite sum")
    if bins is not None and bins != len(weights):
        raise ConfigError(f"--bins {bins} differs from the {len(weights)} bin "
                          f"weights in {target}")
    return tuple(w / total for w in weights)


# The SceneConfig fields `gen --config` may set, each with a description of
# its JSON value and the reader for it. `seed` is absent: --seed sets it.
_SCENE_FIELDS = {
    "image_w": ("an integer", _json_int),
    "image_h": ("an integer", _json_int),
    "person_count_range": ("a pair of integers", _json_pair(_json_int)),
    "scale_range": ("a pair of numbers", _json_pair(_json_float)),
    "depth_model": ("a string", lambda v: v if isinstance(v, str) else None),
    "limb_radius_frac": ("a number", _json_float),
}


def _scene_overrides(path: str) -> dict:
    overrides = _read_json(path)
    if not (isinstance(overrides, dict) and overrides.keys() <= _SCENE_FIELDS.keys()):
        raise ConfigError(f"{path}: expected a JSON object with keys "
                          f"from {sorted(_SCENE_FIELDS)}")
    out = {}
    for key, value in overrides.items():
        expected, read = _SCENE_FIELDS[key]
        out[key] = read(value)
        if out[key] is None:
            raise ConfigError(f"{path}: {key} must be {expected}, got {value!r}")
    return out


def _cmd_gen(args):
    from . import synthgen

    overrides = _scene_overrides(args.config) if args.config else {}
    scene_cfg = synthgen.SceneConfig(seed=args.seed, **overrides)
    corpus_cfg = synthgen.CorpusConfig(
        scenes=args.scenes, scene_cfg=scene_cfg,
        target_histogram=_target_histogram(args.target, args.bins))
    out = Path(args.out)
    planned = _gen_outputs(corpus_cfg, args.jobs, not args.no_rasters)
    scenes = []

    def entries():
        for scene, _, entry, pam, depth_pam in synthgen.within_budget(corpus_cfg, planned):
            scenes.append(scene)
            if pam is not None:
                (out / f"{scene.record.id}.pam").write_bytes(pam)
                (out / f"{scene.record.id}_depth.pam").write_bytes(depth_pam)
            yield entry

    try:
        with open(out / "dataset.json", "wb") as f:
            anno.native_document(f, anno.CROWDPOSE_SCHEMA, entries(),
                                 lambda: synthgen.corpus_dataset(corpus_cfg, scenes).meta)
    finally:
        planned.close()
    return [args.config, args.target if args.target not in NAMED_TARGETS else None]


def _cmd_heatmap_encode(args):
    from . import heatmaps

    dataset = _read_named_images(args.infile)
    out = Path(args.out)
    index = {}
    for img in dataset.images:
        for pi, person in enumerate(img.persons):
            transform = heatmaps.bbox_to_crop(person.bbox)
            pair, in_bounds = heatmaps.encode(person.pose, transform, args.sigma)
            name = f"{img.id}_p{pi}.hm"
            with open(out / name, "wb") as f:
                heatmaps.dump_heatmap_pair(pair, f)
            index[name] = {
                "image_id": img.id, "person_index": pi,
                "bbox": [person.bbox.x, person.bbox.y, person.bbox.w,
                         person.bbox.h],
                "encoded": [bool(b) for b in in_bounds],
            }
    _emit(index, out / "heatmaps.json")
    return [args.infile]


def _cmd_heatmap_decode(args):
    from . import heatmaps

    pair = heatmaps.read_heatmap_pair(Path(args.infile).read_bytes())
    bx, by, bw, bh = args.bbox
    transform = heatmaps.bbox_to_crop(anno.BBox(bx, by, bw, bh))
    result = heatmaps.decode(pair, transform, args.threshold)
    payload = {
        "keypoints": result.pose.to_json(),
        "confidences": [float(c) for c in result.confidences],
        "low_confidence": [bool(b) for b in result.low_confidence],
    }
    _emit(payload, args.out)
    return [args.infile]


def _cmd_losscheck(args):
    from . import occloss

    cfg = occloss.LossConfig(alpha=args.alpha)
    err = occloss.grad_check(cfg, trials=args.trials, fd_step=args.fd_step,
                             seed=args.seed)
    ok = err < 1e-5
    sys.stdout.write(f"max_relative_error={err:.3e} {'PASS' if ok else 'FAIL'}\n")
    if not ok:
        raise CrowdKitError(f"gradient check failed: max relative error {err:.3e} "
                            f"is not below 1e-5")
    return []


def _cmd_eval(args):
    from . import evaluator

    gt = _read_dataset(args.gt, "native")
    pred = _read_dataset(args.pred, "native")
    if args.sigmas:
        sigmas = _json_list(_read_json(args.sigmas), _json_float)
        if sigmas is None:
            raise ConfigError(f"{args.sigmas}: expected a JSON list of OKS sigmas, "
                              f"one per keypoint")
    else:
        sigmas = evaluator.default_sigmas(gt.schema.count)
    cfg = evaluator.OksConfig(sigmas=tuple(sigmas))
    report = evaluator.eval_by_crowding(pred, gt, cfg)
    _emit(report.to_json(), args.out)
    if args.csv:
        _write_report_csv(Path(args.csv), report)
    _note_ratio_zero(report.no_own_keypoints)
    return [args.gt, args.pred, args.sigmas]


def _write_report_csv(path: Path, report: evaluator.EvalReport) -> None:
    def cell(v):
        return "" if v is None else f"{v:.3f}"
    path.write_text(
        "AP,AP_Easy,AP_Med,AP_Hard\n"
        f"{cell(report.ap)},{cell(report.ap_easy)},{cell(report.ap_medium)},"
        f"{cell(report.ap_hard)}\n", encoding="utf-8")


# --- parser ----------------------------------------------------------------
# Each command's flags, declared on its parser only when argparse selects
# the command; a declaration imports a module only for a command that runs
# that module.

def _worker_count(value: str) -> int:
    """A --jobs value: an integer of at least 1."""
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _convert_flags(p):
    p.add_argument("--from", dest="src_format", required=True,
                   choices=("jta", "coco", "native"))
    p.add_argument("--to", required=True, choices=("crowdpose", "native"))
    p.add_argument("--mapping", help="JSON list of source keypoint indices")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)


def _validate_flags(p):
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", default="native", choices=("coco", "jta", "native"))
    p.add_argument("--out")


def _analyze_flags(p):
    from .crowd_metrics import COUNT_LABELED, COUNT_VISIBLE_ONLY

    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--count-mode", default=COUNT_LABELED,
                   choices=(COUNT_LABELED, COUNT_VISIBLE_ONLY))
    p.add_argument("--out")


def _augment_flags(p):
    from .augment import METHODS

    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--inventory", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--images",
                   help="directory of <id>.pam rasters (default: beside --in)")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_worker_count, default=1,
                   help="accepted for compatibility and ignored: augment runs "
                        "in one process")


def _gen_flags(p):
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--target", default="uniform",
                   help="'uniform', 'easy', or a JSON file of bin weights")
    p.add_argument("--bins", type=int,
                   help=f"CrowdIndex histogram bins (default {DEFAULT_BINS}); a "
                        f"--target file sets the count, and --bins must then "
                        f"match it")
    p.add_argument("--config", help="JSON with SceneConfig overrides")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_worker_count, default=1,
                   help="worker processes that plan and render scenes (at most "
                        "one per CPU); the main process writes every file")
    p.add_argument("--no-rasters", action="store_true",
                   help="skip PAM raster and depth outputs")


def _heatmap_encode_flags(p):
    from .heatmaps import DEFAULT_SIGMA

    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)


def _heatmap_decode_flags(p):
    from .heatmaps import DEFAULT_CONF_THRESHOLD

    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bbox", type=float, nargs=4, metavar=("X", "Y", "W", "H"),
                   required=True, help="person box in image coordinates")
    p.add_argument("--threshold", type=float, default=DEFAULT_CONF_THRESHOLD)
    p.add_argument("--out")


def _losscheck_flags(p):
    from .occloss import DEFAULT_ALPHA

    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--fd-step", type=float, default=1e-4)


def _eval_flags(p):
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--sigmas", help="JSON list of per-keypoint sigmas")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.add_argument("--jobs", type=_worker_count, default=1,
                   help="accepted for compatibility and ignored: eval runs in "
                        "one process")


class Command(NamedTuple):
    run: Callable       # takes the parsed args
    help: str
    flags: Callable     # declares the flags on the command's parser
    out_dir: bool = False  # --out is a directory


# Every command that runs, by its words, in help order. A two-word command
# is an action of the group its first word names, with the help in GROUPS.
COMMANDS = {
    "convert": Command(_cmd_convert, "convert between annotation schemas", _convert_flags),
    "validate": Command(_cmd_validate, "report annotation invariant violations",
                        _validate_flags),
    "analyze": Command(_cmd_analyze, "CrowdIndex statistics for a dataset", _analyze_flags),
    "augment": Command(_cmd_augment, "paste occlusion cutouts over a dataset",
                       _augment_flags, out_dir=True),
    "gen": Command(_cmd_gen, "generate a synthetic annotated crowd corpus", _gen_flags,
                   out_dir=True),
    "heatmap encode": Command(_cmd_heatmap_encode, "heatmap pairs of every person",
                              _heatmap_encode_flags, out_dir=True),
    "heatmap decode": Command(_cmd_heatmap_decode, "the pose in one heatmap pair",
                              _heatmap_decode_flags),
    "losscheck": Command(_cmd_losscheck, "finite-difference check of the loss gradient",
                         _losscheck_flags),
    "eval": Command(_cmd_eval, "OKS/AP evaluation by crowding level", _eval_flags),
}
GROUPS = {"heatmap": "encode or decode dual-branch heatmaps"}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which declares the command's flags the first
    time argparse selects it; a group's parser declares none."""
    flags = None

    def parse_known_args(self, args=None, namespace=None):
        if self.flags is not None:
            self.flags(self)
            self.flags = None
        return super().parse_known_args(args, namespace)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser: every command's name and help line, and for each
    command its COMMANDS key as the default of args.command, which for a
    `heatmap` action replaces the group name that the top level stores."""
    parser = argparse.ArgumentParser(
        prog="crowdpose-kit",
        description="Crowded-scene pose data toolkit")
    top = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    actions = {}
    for key, command in COMMANDS.items():
        sub, name = top, key
        if " " in key:
            group, name = key.split()
            if group not in actions:
                group_parser = top.add_parser(group, help=GROUPS[group])
                actions[group] = group_parser.add_subparsers(required=True)
            sub = actions[group]
        p = sub.add_parser(name, help=command.help)
        p.flags = command.flags
        p.set_defaults(command=key)
    return parser


def dispatch(argv) -> int:
    """Run one subcommand, write its manifest when it was given --out, and
    return the process exit code."""
    argv = list(argv)
    try:
        args = _parser().parse_args(argv)
        command = COMMANDS[args.command]
        out = Path(args.out) if getattr(args, "out", None) else None
        csv = Path(args.csv) if getattr(args, "csv", None) else None
        manifest = out and _manifest_path(out, command.out_dir)
        with _rolled_back([out, manifest, csv]):
            locations = [path for path in (out, csv) if path]
            for path in locations:
                _refuse_under_file(path)
            for path in locations:
                path.parent.mkdir(parents=True, exist_ok=True)
            if out and command.out_dir:
                out.mkdir(exist_ok=True)
            started = time.time()
            inputs = command.run(args)
            if out:
                _write_manifest(manifest, argv, inputs, getattr(args, "seed", None),
                                time.time() - started)
    except SystemExit as exc:  # usage error (2), or --help (0)
        return int(exc.code or 0)
    except CrowdKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: missing input: {exc.filename}\n")
        return 1
    except OSError as exc:  # e.g. an output path that collides with a file
        where = f": {exc.filename}" if exc.filename else ""
        sys.stderr.write(f"error: {exc.strerror or exc}{where}\n")
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
