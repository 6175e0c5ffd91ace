"""README's examples, run as written.

Every `ifslab ...` line of the CLI section runs through `cli.main` in a
scratch directory that holds the README's example definition file as
`tri.json`, and the "Library quick tour" block is executed statement by
statement, so that the results its comments state can be checked.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from ifslab.addresses import ChainKind, Verdict
from ifslab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang, section):
    """Fenced code blocks of one language inside the README section `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, flags=re.S)


CLI_LINES = [line for block in _blocks("sh", "CLI") for line in block.splitlines()
             if line.startswith("ifslab ")]


def test_the_cli_section_has_examples():
    assert len(CLI_LINES) == 11
    assert all("--ifs" not in line or "--ifs tri.json" in line for line in CLI_LINES)


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    (tmp_path / "tri.json").write_text(_blocks("json", "CLI")[0], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_library_quick_tour():
    """Run the tour; keep the value of each expression statement by its line number."""
    (source,) = _blocks("python", "Library quick tour")
    scope, values = {}, {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values[node.lineno] = eval(compile(ast.Expression(node.value), "README", "eval"), scope)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), scope)
    lines = source.splitlines()

    def stated(comment):
        (lineno,) = [i + 1 for i, text in enumerate(lines) if comment in text]
        return values[max(k for k in values if k <= lineno)]

    assert stated("# -> multiple-certified").verdict is Verdict.MULTIPLE_CERTIFIED
    unique = stated("# -> unique-certified, period 3")
    assert unique.verdict is Verdict.UNIQUE_CERTIFIED and unique.certificate.period == 3
    chain = stated("# -> unique-by-cycle, period 3")
    assert (chain.kind, chain.period) == (ChainKind.UNIQUE_BY_CYCLE, 3)
    forcing = stated("# ForcedChain(kind=UNIQUE_BY_CYCLE, period=3, digits=(2, 1, 0))")
    assert (forcing.kind, forcing.period, forcing.digits) == (ChainKind.UNIQUE_BY_CYCLE, 3, (2, 1, 0))
