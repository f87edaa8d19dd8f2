"""Build the checkout in place, the way its setup.py declares.

The build runs `setup.py build_ext --inplace` on a copy of the sources
under .bench_build/, so tracked files (such as a C file a code generator
would rewrite) stay as they are.  The extension modules it produces are
then copied next to the checkout's sources.  A stamp keyed by a hash of
the build inputs skips the build when nothing changed since the last one.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_DIR = ".bench_build"
EXTENSION_SUFFIXES = (".so", ".pyd")
BUILD_TIMEOUT_S = 840


class BuildError(RuntimeError):
    pass


def _sources(root: Path) -> list[Path]:
    files = [root / "setup.py", root / "pyproject.toml"]
    files += sorted(
        p for p in (root / "src").rglob("*")
        if p.is_file() and "__pycache__" not in p.parts and p.suffix not in EXTENSION_SUFFIXES
    )
    return [p for p in files if p.is_file()]


def _digest(root: Path, files: list[Path]) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def build_in_place(root: Path) -> dict:
    """Build and return a record of what the build produced."""
    if not (root / "setup.py").is_file() or not (root / "src").is_dir():
        raise BuildError(f"{root} has no setup.py and src/ to build")
    files = _sources(root)
    digest = _digest(root, files)
    work = root / BUILD_DIR
    stamp_path = work / "stamp.json"
    old = json.loads(stamp_path.read_text()) if stamp_path.is_file() else {}
    if old.get("digest") == digest and all((root / rel).is_file() for rel in old["produced"]):
        return {**old, "cached": True}
    for rel in old.get("produced", []):
        (root / rel).unlink(missing_ok=True)

    tree = work / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    for path in files:
        target = tree / path.relative_to(root)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(path, target)
    command = [sys.executable, "setup.py", "build_ext", "--inplace"]
    try:
        proc = subprocess.run(
            command, cwd=tree, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BuildError(f"build timed out after {BUILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-20:])
        raise BuildError(f"build failed with exit code {proc.returncode}:\n{tail}")

    produced = []
    for built in sorted((tree / "src").rglob("*")):
        if built.suffix in EXTENSION_SUFFIXES and built.is_file():
            rel = built.relative_to(tree)
            shutil.copy2(built, root / rel)
            produced.append(str(rel))
    record = {"command": " ".join(command[1:]), "digest": digest, "produced": produced}
    stamp_path.write_text(json.dumps(record))
    return {**record, "cached": False}
