"""The docs gate's dangling-reference check (``tools/docs_check.py``):
a doc that names a deleted make target, script or snapshot must fail
``make docs-check``, and the repo's own docs must pass it."""

from __future__ import annotations

from conftest import load_tool_module

docs_check = load_tool_module("docs_check")


def test_dangling_references_are_reported(tmp_path):
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "replay.py").write_text("")
    (tmp_path / "BENCHMARK.json").write_text("{}")
    readme = """
Run `make test`, then `make bench-gone` (`tools/gone_tool.py`) against
`GONE_snapshot.json`; `tools/replay.py` and BENCHMARK.json exist, and
`tests/data/golden_guards.json` is not a root path.  Prose may make sure
of things.

```bash
make bench-gone-too   # gone
make docs-check N=1
    run: make trace-dump
```
"""
    dangling = docs_check.dangling_references(
        readme, targets={"test", "docs-check"}, root=tmp_path
    )
    assert dangling == [
        "GONE_snapshot.json",
        "make bench-gone",
        "make bench-gone-too",
        "make trace-dump",
        "tools/gone_tool.py",
    ]


def test_repo_docs_name_only_what_exists():
    n_files, dangling = docs_check.check_references()
    assert n_files == 4
    assert dangling == []
