"""``pyproject.toml`` installs the package and the ``repro-decompose`` command."""

import ast
import importlib
import re
import subprocess
import sys
import tomllib
from pathlib import Path

from setuptools import find_packages

import repro

ROOT = Path(__file__).resolve().parent.parent


def _pyproject():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def _resolve(target, separator):
    module, _, attribute = target.rpartition(separator)
    return getattr(importlib.import_module(module), attribute)


def test_script_runs_the_cli_main():
    project = _pyproject()["project"]
    assert project["name"] == "repro"
    assert project["scripts"] == {"repro-decompose": "repro.cli:main"}
    from repro.cli import main

    assert _resolve(project["scripts"]["repro-decompose"], ":") is main


def test_version_is_read_from_the_package():
    config = _pyproject()
    assert config["project"]["dynamic"] == ["version"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "repro.__version__"
    assert _resolve(attr, ".") == repro.__version__


def test_package_data_files_exist():
    """The kernel source the compiled core builds from and the schema
    manifest the linter reads must ship inside the package."""
    config = _pyproject()["tool"]["setuptools"]
    assert config["packages"]["find"]["where"] == ["src"]
    for package, names in config["package-data"].items():
        directory = ROOT / "src" / Path(*package.split("."))
        for name in names:
            assert (directory / name).is_file(), (package, name)


def test_setup_py_reads_the_metadata_from_pyproject():
    """The ``setup.py`` shim reports the project, not setuptools'
    ``UNKNOWN`` / ``0.0.0`` placeholders."""
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.split() == ["repro", repro.__version__]


def test_every_source_package_is_found():
    """A directory of modules without ``__init__.py`` would be left out of
    the install without a word."""
    where = _pyproject()["tool"]["setuptools"]["packages"]["find"]["where"]
    found = set()
    for root in where:
        found.update(find_packages(str(ROOT / root)))
    source = ROOT / "src"
    with_modules = {
        ".".join(path.parent.relative_to(source).parts)
        for path in (source / "repro").rglob("*.py")
    }
    assert with_modules <= found
    assert {"repro", "repro.core.kernels", "repro.analysis"} <= found


def test_dependencies_are_the_third_party_imports():
    """Every third-party module the package imports is declared, and every
    declared dependency is imported somewhere (names compared without their
    version specifiers)."""
    imported = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            imported.update(name.split(".")[0] for name in names)
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group()
        for requirement in _pyproject()["project"]["dependencies"]
    }
    assert declared == third_party
