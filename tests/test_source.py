"""Source checks on the package: no unused import, no dead private name,
and a README that states the code's tables as the code holds them."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from proscore import formats, pipeline

SRC = Path(__file__).resolve().parent.parent / "src" / "proscore"
MODULES = sorted(SRC.glob("*.py"))
README = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in MODULES}


def _loaded_names(tree) -> list:
    """Every name that `tree` reads: each Name node, and each attribute."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


@pytest.mark.parametrize("name", [p.name for p in MODULES
                                  if p.name != "__init__.py"])
def test_every_import_is_used(name):
    tree = TREES[name]
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = set(_loaded_names(tree))
    assert {n: line for n, line in imported.items() if n not in used} == {}


def _private_definitions(tree) -> dict:
    """name -> defining node of each module-level name with one leading
    underscore."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        for target in targets:
            if target.startswith("_") and not target.startswith("__"):
                defined[target] = node
    return defined


def test_every_private_module_name_is_referenced():
    """Each is read somewhere in the package outside its own definition."""
    used = Counter()
    for tree in TREES.values():
        used.update(_loaded_names(tree))
    dead = [f"{name}:{node.lineno}: {target}" for name, tree in TREES.items()
            for target, node in _private_definitions(tree).items()
            if used[target] == _loaded_names(node).count(target)]
    assert dead == []


def test_only_the_corpus_module_reads_corpus_files():
    """No module but corpus.py imports or names a reader of corpus files,
    so a corpus is read and checked on one path: load_corpus."""
    readers = {"read_feature_file", "read_posteriorgram_file",
               "read_alignment_file", "read_labels_file", "read_splits_file",
               "read_manifest"}
    named = {}
    for name, tree in TREES.items():
        names = set(_loaded_names(tree)) | {
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}
        if name != "corpus.py" and names & readers:
            named[name] = sorted(names & readers)
    assert named == {}


def test_only_the_cli_reads_a_model_file():
    """No module but cli.py calls pipeline.load_model or a model format's
    reader, so `run` reads no model file: its stages hand on tables."""
    readers = {"load_model", "load_gmm", "load_ivector_model", "load_flow",
               "load_dnf", "load_svr"}
    called = {}
    for name, tree in TREES.items():
        names = {node.func.attr if isinstance(node.func, ast.Attribute)
                 else getattr(node.func, "id", None)
                 for node in ast.walk(tree) if isinstance(node, ast.Call)}
        if name != "cli.py" and names & readers:
            called[name] = sorted(names & readers)
    assert called == {}


def test_readme_format_table_is_the_version_table():
    rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| (\d+) \|$", README, re.M)
    assert {magic: int(version) for magic, version in rows} == formats.VERSIONS


def test_readme_seed_offsets_are_the_pipelines():
    subcommand = {"train-gmm": "gmm", "train-flow": "nf", "train-dnf": "dnf",
                  "train-ivector": "ivector"}
    offsets = re.findall(r"`\+(\d+)` for\s+`(train-[a-z]+)`", README)
    assert {subcommand[name]: int(offset) for offset, name in offsets} == \
        pipeline.SEED_OFFSETS


def test_readme_lists_the_inference_files():
    listed = re.search(r"it writes what the report uses, (.*?),\s+under"
                       r"\s+`models/`", README, re.S)
    assert sorted(re.findall(r"`([\w.]+)`", listed[1])) == sorted(
        file for files in pipeline.INFERENCE_FILES.values()
        for file in files if file)


def test_cli_import_loads_no_pool_modules():
    """Importing the CLI imports neither multiprocessing nor
    concurrent.futures: only a run that trains in a pool does, so no other
    subcommand's process pays for them."""
    code = ("import sys, proscore.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
