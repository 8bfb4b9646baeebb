"""The numbers must not move: every golden config prints the bytes whose
sha256 digests ``tests/golden/manifest.json`` records.

A change that moves a byte on purpose regenerates the manifest with
``PYTHONPATH=src python tests/golden/make_manifest.py`` and says so.
"""

import json

import pytest

from golden.make_manifest import CONFIGS, MANIFEST, build_manifest

COMMITTED = json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    return build_manifest()


def test_manifest_lists_every_config():
    assert sorted(COMMITTED) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_config_prints_the_recorded_bytes(current, name):
    assert current[name] == COMMITTED[name]
