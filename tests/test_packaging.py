"""Packaging metadata agrees with the installed package."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

from setuptools.config.setupcfg import read_configuration

import repro

SETUP_CFG = Path(__file__).resolve().parents[1] / "setup.cfg"


def test_setup_cfg_version_resolves_to_package_version():
    # setup.cfg reads ``repro.__version__``, so the two cannot drift apart.
    assert read_configuration(SETUP_CFG)["metadata"]["version"] == repro.__version__


def test_runtime_dependencies_are_numpy_and_scipy():
    requirements = read_configuration(SETUP_CFG)["options"]["install_requires"]
    names = sorted(re.match(r"[\w.-]+", requirement).group() for requirement in requirements)
    assert names == ["numpy", "scipy"]


def test_entry_points_import_no_networkx():
    """A fresh interpreter that imports the CLI, the pipeline and the
    simulation kernel has not loaded networkx: the package runs without it."""
    script = "\n".join(
        [
            "import sys",
            "import repro.accelerator.backends.vectorized",
            "import repro.core.pipeline",
            "import repro.serve.cli",
            "assert 'networkx' not in sys.modules, 'networkx was imported'",
        ]
    )
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=60
    )
    assert completed.returncode == 0, completed.stderr.decode()
