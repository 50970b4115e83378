"""Every top-level name of the package is used by the package itself, and
every package name that the benchmark calls exists.

A function, class or public constant that only tests call is weight: it is
parsed, documented and tested, but no command reaches it. Names that an
outside caller needs are listed in KEPT with that caller. The benchmark's
own tests are not part of this suite, so the second test reads the
benchmark's sources for the package names they use.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import crowdpose_kit

SRC = Path(crowdpose_kit.__file__).parent
ROOT = SRC.parent.parent

# name -> the caller outside src/ that keeps it
KEPT = {
    "save_inventory": "bench/inputs.py",
    "extract_cutout": "bench/inputs.py",
    "decode_polygon": "bench/inputs.py",
    "plan_corpus": "bench/inputs.py",
    "match_greedy": "tests/test_acceptance.py::test_criterion_7_evaluator_sanity",
    "fit_direct": "tests/test_acceptance.py::test_criterion_3_direct_fit_convergence",
    "stable_lr": "tests/test_acceptance.py::test_criterion_3_direct_fit_convergence",
}

_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets
                      if isinstance(t, ast.Name) and _CONSTANT.fullmatch(t.id)]
    return names


def _uses(tree: ast.Module) -> Counter:
    """Names read, attributes read and names imported."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
    return uses


def test_every_top_level_name_is_used_in_the_package():
    defined = {}
    uses = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _definitions(tree):
            defined[name] = path.name
        uses += _uses(tree)
    unused = sorted(f"{defined[name]}:{name}" for name in defined
                    if not uses[name] and name not in KEPT)
    assert not unused, f"defined but never used in src/: {unused}"
    for name, caller in KEPT.items():
        assert name in defined and not uses[name], f"{name} needs no KEPT entry"
        assert name in (ROOT / caller.partition("::")[0]).read_text(encoding="utf-8")


# the benchmark files that call the package (bench/tracing.py names its
# functions in strings, which this check does not read)
BENCH_CALLERS = ("bench/inputs.py", "bench/workloads.py", "bench/rep.py")


def _package_reads(tree: ast.Module) -> set[str]:
    """The dotted path of every package module and attribute that a file
    imports, or reads through a name its imports bind."""
    bound, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "crowdpose_kit":
                    bound[alias.asname or "crowdpose_kit"] = \
                        alias.name if alias.asname else "crowdpose_kit"
                    reads.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.partition(".")[0] == "crowdpose_kit":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                reads.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            reads.add(".".join([bound[node.id], *chain]))
    return reads


def _exists(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:  # a submodule not imported yet
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, part)
    return True


def test_every_package_name_the_benchmark_reads_exists():
    reads = set()
    for caller in BENCH_CALLERS:
        reads |= _package_reads(ast.parse((ROOT / caller).read_text(encoding="utf-8")))
    assert "crowdpose_kit.cli.dispatch" in reads and "crowdpose_kit.annotations.Pose" in reads
    missing = sorted(name for name in reads if not _exists(name))
    assert not missing, f"the benchmark reads package names that do not exist: {missing}"
