"""The truncation tables of scripts/reproduce_tables.py against their
recorded checksums in bench/reference.json.

These tables use no linear solve, so they do not depend on the BLAS
thread count; the global tables print LU roundoff and are checked by the
benchmark, which pins one BLAS thread.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "reproduce_tables", ROOT / "scripts" / "reproduce_tables.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_truncation_tables_match_reference(tmp_path):
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    expected = {name: digest for name, digest in reference["tables"].items()
                if "_truncation_" in name}
    assert len(expected) == 12
    with contextlib.redirect_stdout(io.StringIO()):
        load_script().write_truncation_tables(tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(expected)
    for name, digest in expected.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name
