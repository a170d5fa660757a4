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


def test_undeclared_constructor_options_are_reported():
    declared = docs_check.declared_parameters()
    assert "vectorized" in declared["connect"] and "workers" in declared["SieveServer"]
    gone = "codegen"  # spelled apart so a grep for the deleted option finds no use of it
    text = f"""
The oracle is `connect(vectorized=False)`; `connect({gone}=False)` is gone,
as is `SieveCluster(store, specs, no_such_knob=False,
retry_policy=RetryPolicy(max_attempts=2))`.  Prose such as connect(nothing=1)
and `cluster.execute(sql, deadline_s=1)` or `SieveCluster.replicated(db, n_shards=3)`
is not a constructor call.

```python
server = SieveServer(Sieve(db, store, backend=b), workers=4, never_an_option=0)
```
"""
    assert docs_check.undeclared_options(text, declared) == [
        "SieveCluster(no_such_knob=)",
        "SieveServer(never_an_option=)",
        f"connect({gone}=)",
    ]


def test_repo_docs_name_only_declared_constructor_options():
    n_constructors, undeclared = docs_check.check_options()
    assert n_constructors == 5
    assert undeclared == []


def test_unknown_test_ids_are_reported(tmp_path):
    (tmp_path / "test_world.py").write_text(
        "class TestShape:\n    def test_round(self): pass\n\ndef test_flat(): pass\n"
    )
    text = """
Held by `tests/test_world.py::test_flat`, ``test_world.py::TestShape::test_round``
and `tests/test_world.py::test_flat[mall-3]`; `tests/test_world.py::test_made_up`,
`test_world.py::TestGone::test_round` and `tests/test_nowhere.py::test_flat` hold
nothing, and `expr/analysis.py::facts(expr)` is not a test id.
"""
    assert docs_check.unknown_test_ids(text, tests_dir=tmp_path) == [
        "test_nowhere.py::test_flat",
        "test_world.py::TestGone::test_round",
        "test_world.py::test_made_up",
    ]


def test_repo_docs_name_only_tests_that_exist():
    n_refs, unknown = docs_check.check_test_ids()
    assert n_refs >= 11
    assert unknown == []


def test_an_import_of_the_oracle_is_reported():
    assert docs_check.imports_oracle("from repro.engine.executor import QueryResult, Executor\n")
    assert docs_check.imports_oracle("def f():\n    from repro.engine import Executor as E\n")
    assert docs_check.imports_oracle("from repro.engine.executor import *\n")
    assert docs_check.imports_oracle("import os, repro.engine.executor\n")
    assert not docs_check.imports_oracle(
        "from repro.engine.executor import QueryResult\n"
        "from repro.engine import VectorizedExecutor\n"
        "Executor = None  # a name, not an import\n"
    )


def test_only_the_allowed_modules_import_the_oracle():
    n_allowed, outside = docs_check.check_oracle_boundary()
    assert n_allowed == 3
    assert outside == []
    for module in docs_check.ORACLE_IMPORTERS:  # the allowance is not stale
        assert docs_check.imports_oracle((docs_check.SRC / module).read_text()), module
