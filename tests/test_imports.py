"""Every module can be the first one imported, in a fresh interpreter.

The package ``__init__`` would otherwise fix one import order for all of
them, so each check installs a bare ``cosetprog`` package first: a cycle
between modules then fails whichever module it starts from.
"""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cosetprog

PACKAGE_DIR = str(Path(cosetprog.__file__).resolve().parent)
MODULES = sorted(m.name for m in pkgutil.iter_modules([PACKAGE_DIR]))
IMPORT_FIRST = (
    "import importlib, sys, types\n"
    "pkg = types.ModuleType('cosetprog')\n"
    "pkg.__path__ = [{path!r}]\n"
    "sys.modules['cosetprog'] = pkg\n"
    "importlib.import_module('cosetprog.{module}')\n"
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    code = IMPORT_FIRST.format(path=PACKAGE_DIR, module=module)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
