"""The README's examples run as written, and its flag table is cli's."""

import re
import shlex
from pathlib import Path

from pathauction import cli

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of `language` after the `heading` line."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_quick_start_computes_its_commented_values():
    code = _block("## Library quick start", "python")
    for comment in ("# total 16", "# total 35", "# 10;", "# b2 pays 3"):
        assert comment in code
    names = {}
    exec(code, names)
    assert names["shared"].total == 16
    assert names["marginal"].total == 35
    assert sum(names["pools"].values()) == 10
    F = names["F"]
    assert names["auction"].run({"b1": F(3), "b2": F(7)}).payments["b2"] == 3


def test_command_line_block_exits_as_documented(tmp_path, monkeypatch, capsys):
    """Every line exits 0 but those commented "exits 1", run in order in one
    directory, so each file a line reads was written by a line before it."""
    monkeypatch.chdir(tmp_path)
    lines = _block("## Command line", "sh").splitlines()
    assert len(lines) == 10
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "pathauction"
        assert cli.main(argv[1:]) == (1 if comment.strip() == "exits 1" else 0), line
    assert "error" not in capsys.readouterr().err


def _readme_flag_table() -> dict[str, dict[str, dict[str, str]]]:
    """kind -> name -> flag -> default, from the rows of the README's table."""
    table = README.split("| reader | flags it reads (default) |\n| --- | --- |\n", 1)[1]
    kinds = {"mechanism": "mechanisms", "rule": "rules", "property": "properties"}
    readers: dict[str, dict[str, dict[str, str]]] = {kind: {} for kind in kinds.values()}
    for row in table.split("\n\n", 1)[0].splitlines():
        _, who, reads, _ = row.split("|")
        kind = next(plural for single, plural in kinds.items()
                    if who.strip().startswith((single, plural)))
        flags = dict(re.findall(r"`--([a-z]+)` \(`([^`]+)`\)", reads))
        assert flags or reads.strip() == "none", row
        for name in re.findall(r"`([^`]+)`", who):
            readers[kind][name] = flags
    return readers


def test_readme_flag_table_is_the_cli_tables():
    def text(table):
        return {name: {flag: str(default) for flag, default in flags.items()}
                for name, flags in table.items()}

    assert _readme_flag_table() == {
        "mechanisms": text(cli.MECHANISMS),
        "rules": text(cli.RULES),
        "properties": text({name: flags for name, (flags, _) in cli.PROPERTIES.items()}),
    }
