"""geocard runs on the Python standard library alone."""

import subprocess
import sys

IMPORT_AND_LIST = (
    "import sys; before = set(sys.modules); "
    "import geocard, geocard.server, geocard.cli; "
    "print('\\n'.join(sorted(set(sys.modules) - before)))")


def test_imports_add_only_stdlib_and_geocard_modules():
    added = subprocess.run(
        [sys.executable, "-c", IMPORT_AND_LIST], check=True, timeout=60,
        capture_output=True, text=True).stdout.split()
    assert "geocard.server" in added
    outside = [name for name in added
               if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "geocard"]
    assert outside == []
