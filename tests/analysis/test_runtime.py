"""The analysis-runtime guard: the full gate must stay fast.

``make check`` runs every pass on every invocation; if the combined
``--deep --shard --scale`` gate creeps past a few seconds, developers
stop running it.  The CLI parses each file once and every pass reads
the same trees through one walk (the per-module ``AstIndex``).  These
tests pin that property three ways: by wall clock, by the number of
parses, and by the number of AST node visits — the last two do not
depend on the host, so a regression names its cause.
"""

import ast
import os
import time

import pytest

import repro
from repro.analysis.cli import main as simlint_main

REPRO_PKG = os.path.dirname(os.path.abspath(repro.__file__))
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

#: Generous ceiling: the combined pass runs in about 2s on a 2-core
#: host; before parse-once it took 6.8-8.3s there (and 5.5s before the
#: project model was shared at all).
BUDGET_SECONDS = 5.0

#: ``ast.iter_child_nodes`` calls per AST node for the full gate over
#: the fixture packages: 1.27 with the shared index, about 23 when
#: every pass walked the trees itself.  One extra whole-tree walk in
#: any pass adds 1.0 and crosses this ceiling.
VISITS_PER_NODE = 2.0


def _py_files(root):
    return sorted(os.path.join(directory, name)
                  for directory, _dirs, names in os.walk(root)
                  for name in names if name.endswith(".py"))


def test_full_gate_over_src_repro_stays_under_budget(capsys):
    started = time.monotonic()
    status = simlint_main(["--deep", "--shard", "--scale", REPRO_PKG])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert status == 0 and "simlint: 0 findings" in out
    assert elapsed < BUDGET_SECONDS, \
        "--deep --shard --scale took %.2fs (budget %.1fs)" \
        % (elapsed, BUDGET_SECONDS)


@pytest.mark.parametrize("passes", [["--deep"], ["--shard"], ["--scale"],
                                    ["--deep", "--shard", "--scale"]],
                         ids=["deep", "shard", "scale", "all"])
def test_shared_project_model_is_reused(monkeypatch, capsys, passes):
    # Every pass, the per-file rules included, reads one parse of
    # each file.
    from repro.analysis.dataflow import symbols

    fixture = os.path.join(FIXTURES, "scalepkg")
    builds = []
    parsed = []
    real_build = symbols.build_project
    real_parse = ast.parse

    def counting_build(paths):
        builds.append(list(paths))
        return real_build(paths)

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(symbols, "build_project", counting_build)
    monkeypatch.setattr(ast, "parse", counting_parse)
    simlint_main(passes + ["--disable", "R8,R9", fixture])
    capsys.readouterr()
    assert len(builds) == 1
    assert sorted(parsed) == _py_files(fixture)


def test_unparsable_file_is_reported_once(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "bad.py").write_text("def f(:\n")
    (package / "good.py").write_text("def g():\n    return 1\n")
    status = simlint_main(["--deep", "--shard", "--scale", str(package)])
    out = capsys.readouterr().out
    errors = [line for line in out.splitlines() if " E0[" in line]
    assert status == 1
    # One E0, at the column the parser reports, whichever passes ran.
    assert errors == ["%s:1:8: E0[parse-error] file does not parse: "
                      "invalid syntax" % (package / "bad.py")]
    assert "simlint: 1 finding" in out


def test_full_gate_node_visits_per_node_stay_bounded(monkeypatch, capsys):
    nodes = 0
    for path in _py_files(FIXTURES):
        with open(path, encoding="utf-8") as handle:
            nodes += sum(1 for _node in ast.walk(ast.parse(handle.read())))
    visits = [0]
    real = ast.iter_child_nodes

    def counting(node):
        visits[0] += 1
        return real(node)

    monkeypatch.setattr(ast, "iter_child_nodes", counting)
    simlint_main(["--deep", "--shard", "--scale", FIXTURES])
    capsys.readouterr()
    assert visits[0] <= VISITS_PER_NODE * nodes, \
        "%d node visits for %d nodes (%.2f per node, ceiling %.1f)" \
        % (visits[0], nodes, visits[0] / nodes, VISITS_PER_NODE)
