"""Packaging metadata agrees with the installed package."""

from __future__ import annotations

from pathlib import Path

from setuptools.config.setupcfg import read_configuration

import repro

SETUP_CFG = Path(__file__).resolve().parents[1] / "setup.cfg"


def test_setup_cfg_version_resolves_to_package_version():
    # setup.cfg reads ``repro.__version__``, so the two cannot drift apart.
    assert read_configuration(SETUP_CFG)["metadata"]["version"] == repro.__version__
