"""The README's examples run as written.

Each `qtransient` line of the sh block under "Command line" (continuations
joined) runs through cli.main with its CSV sent into a temporary directory,
the "Library" Python block is executed, and the INI block prints the same
CSV with and without a leading byte-order mark.
"""

import re
import shlex
from pathlib import Path

from qtransient import cli
from qtransient.config import parse_csv

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _block(section, lang):
    """The first fenced `lang` block after the heading `## section`."""
    tail = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", tail, re.S)[1]


def _commands():
    text = _block("Command line", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("qtransient ")]


def test_readme_commands_run(tmp_path, capsys):
    commands = _commands()
    assert len(commands) == 8
    for i, argv in enumerate(commands):
        out = tmp_path / f"{i}.csv"
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(out)
        else:
            argv = ["--out", str(out)] + argv
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
        _, columns, rows = parse_csv(out.read_text(encoding="utf-8"))
        assert columns and rows


def test_readme_library_example_runs(capsys):
    exec(_block("Library", "python"), {})
    assert capsys.readouterr().out


def test_readme_config_reads_the_same_with_a_byte_order_mark(tmp_path,
                                                             capsys):
    # some editors save UTF-8 with a leading byte-order mark; the file must
    # not then fail on its first line
    ini = _block("Command line", "ini")
    printed = []
    for text in (ini, "\ufeff" + ini):
        path = tmp_path / "run.ini"
        path.write_text(text, encoding="utf-8")
        code = cli.main(["--config", str(path), "tmax"])
        printed.append((code, *capsys.readouterr()))
    assert printed[0][0] == 0 and printed[0][2] == ""
    assert printed[1] == printed[0]
