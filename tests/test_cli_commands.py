"""The command lines the CLI serves, and the ones it refuses.

Every ``python -m repro.cli`` line the repository documents or launches —
README's CLI block, the CI workflow's smoke jobs, and the argv lists the
benchmarks boot servers with — must parse; every command must refuse a flag
it does not read instead of silently dropping it.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import itertools
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.graphs import load_dataset
from repro.storage import load_crawl, save_snapshot

ROOT = Path(__file__).resolve().parent.parent
CLI_PREFIX = re.compile(r"python3? (?:-u )?-m repro\.cli\b(.*)")
#: Shell metacharacters that end a command on a workflow line.
SHELL_STOPS = set("|&;><")


def _argv(command_text: str) -> list:
    """Split one shell command line into argv, stopping at pipes/redirects."""
    lexer = shlex.shlex(command_text, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    argv = []
    for token in lexer:
        if set(token) <= SHELL_STOPS:
            break
        argv.append(token)
    return argv


def _readme_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```", 2)[1]
    return [
        _argv(match.group(1).split("#", 1)[0])
        for match in map(CLI_PREFIX.match, block.splitlines())
        if match
    ]


def _workflow_lines():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    text = text.replace("\\\n", " ")  # join continued lines
    # "$1", "$i", ... become a placeholder that parses as a path, a name or
    # (inside "871$i") a port number.
    text = re.sub(r"\$\{?\w+\}?", "0", text)
    return [_argv(match.group(1)) for match in CLI_PREFIX.finditer(text)]


def _launched_argvs(path: Path):
    """The argv lists a Python file launches ``repro.cli`` with.

    Literal lists passed to ``ServerProcess`` or spelled after ``"-m",
    "repro.cli"``; a non-literal element becomes a placeholder, and
    ``*name`` expands to every value a literal ``for`` loop binds to name.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple):
            try:
                rows = ast.literal_eval(node.iter)
            except ValueError:
                continue
            for index, name in enumerate(node.target.elts):
                bound.setdefault(name.id, []).extend(row[index] for row in rows)
    lists = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ServerProcess"
                and node.args and isinstance(node.args[0], ast.List)):
            lists.append(node.args[0].elts)
        elif isinstance(node, ast.List):
            values = [getattr(elt, "value", None) for elt in node.elts]
            if "repro.cli" in values:
                lists.append(node.elts[values.index("repro.cli") + 1:])
    argvs = []
    for elts in lists:
        choices = []
        for elt in elts:
            if isinstance(elt, ast.Constant):
                choices.append([[elt.value]])
            elif isinstance(elt, ast.Starred):
                choices.append(bound[elt.value.id])
            else:
                choices.append([["0"]])
        for parts in itertools.product(*choices):
            argvs.append([token for part in parts for token in part])
    return argvs


def _parses(argv) -> bool:
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


class TestServedCommandLines:
    def test_readme_cli_block_parses(self):
        lines = _readme_lines()
        assert len(lines) >= 20
        assert [argv for argv in lines if not _parses(argv)] == []

    def test_ci_workflow_lines_parse(self):
        lines = _workflow_lines()
        assert len(lines) >= 20
        assert [argv for argv in lines if not _parses(argv)] == []

    @pytest.mark.parametrize("path, expected", [
        ("perfbench/workloads.py", 2),
        ("perfbench/ledger.py", 3),
        ("benchmarks/bench_cluster.py", 1),
    ])
    def test_benchmark_launches_parse(self, path, expected):
        argvs = _launched_argvs(ROOT / path)
        assert len(argvs) == expected, argvs
        assert [argv for argv in argvs if not _parses(argv)] == []

    def test_readme_flag_table_matches_the_parser(self):
        """README lists each command's flags; the table must not drift."""
        def commands(parser, prefix=""):
            action = next((a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction)), None)
            if action is None:
                yield prefix.strip(), parser
                return
            for name, sub in action.choices.items():
                yield from commands(sub, f"{prefix} {name}")

        flags = {
            name: sorted(option for action in sub._actions
                         if action.help != argparse.SUPPRESS
                         for option in action.option_strings if option != "-h"
                         and option != "--help")
            for name, sub in commands(build_parser())
        }
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        text = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        table = {}
        for row in re.findall(r"^\| (`.*?) \| (.*?) \|$", text, flags=re.M):
            for name in re.findall(r"`([^`]+)`", row[0]):
                table[name] = sorted(re.findall(r"--[\w-]+", row[1]))
        assert table == flags

    def test_perfbench_still_launches_serve_async(self):
        argvs = _launched_argvs(ROOT / "perfbench" / "workloads.py")
        assert any(argv[:2] == ["serve", "--async"] for argv in argvs)
        assert build_parser().parse_args(["serve", "--async"]).async_server


class TestRefusals:
    # Each line runs quickly (or fails on a missing file) wherever the
    # unread flag is silently dropped; here it must be refused by name.
    @pytest.mark.parametrize("argv", [
        ["figure11", "--scale", "0.3", "--trials", "1"],
        ["sweep", "--walker", "mhrw", "--scale", "0.1", "--sweep-walkers", "srw",
         "--budgets", "20", "--trials", "1"],
        ["serve", "--backend", "csr", "--scale", "0.1", "--tenants", "{tmp}/none.json"],
        ["walk", "--jobs", "2", "--scale", "0.1", "--budget", "20"],
        ["partition", "--budget", "5", "--source", "{snapshot}", "--out", "{tmp}/cluster"],
        ["list", "--record"],
    ])
    def test_unread_flag_is_refused(self, argv, tmp_path, capsys):
        snapshot = save_snapshot(load_dataset("facebook_like", seed=1, scale=0.1),
                                 tmp_path / "snap")
        argv = [arg.format(tmp=tmp_path, snapshot=snapshot) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {argv[1]}" in err
        assert not (tmp_path / "cluster").exists()

    @pytest.mark.parametrize("argv, missing", [
        (["snapshot"], "--out"),
        (["replay", "--record"], "--dump"),
        (["partition", "--source", "snap"], "--out"),
        (["repartition"], "--source"),
        (["serve-cluster", "--port", "0"], "--source"),
        (["warehouse", "stats"], "--store"),
        (["warehouse", "export", "--store", "wh.sqlite"], "--out"),
        (["warehouse", "ingest", "--store", "wh.sqlite"], "sources"),
        (["trace"], "path"),
    ])
    def test_missing_required_flag_returns_2(self, argv, missing, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"requires {missing}" in err

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_experiment_flags_follow_the_signature(self, name):
        params = inspect.signature(EXPERIMENTS[name]).parameters
        for flag, value in (("--scale", "0.2"), ("--trials", "2")):
            assert _parses([name, flag, value]) == (flag[2:] in params)

    def test_async_is_hidden_everywhere_and_serve_only(self, capsys):
        assert main(["list"]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert "repartition" in names and "warehouse" in names
        helps = [[], *([name] for name in names),
                 *(["warehouse", action] for action in ("ingest", "stats", "export"))]
        for argv in helps:
            assert main([*argv, "--help"]) == 0
            assert "--async" not in capsys.readouterr().out
        required = {
            "snapshot": ["--out", "snap"], "replay": ["--dump", "c.jsonl"],
            "partition": ["--source", "snap", "--out", "cluster"],
            "repartition": ["--source", "cluster"], "serve-cluster": ["--source", "cluster"],
            "warehouse": ["stats", "--store", "wh.sqlite"], "trace": ["trace.jsonl"],
        }
        for name in names:
            argv = [name, *required.get(name, [])]
            assert _parses(argv)
            assert _parses([*argv, "--async"]) == (name == "serve"), name


class TestReplayRecord:
    def test_record_starts_at_an_explicit_start(self, tmp_path, capsys):
        dump = tmp_path / "crawl.jsonl"
        assert main(["replay", "--record", "--dump", str(dump), "--scale", "0.1",
                     "--budget", "20", "--start", "3", "--seed", "1"]) == 0
        capsys.readouterr()
        assert load_crawl(dump).recorded_start == 3
