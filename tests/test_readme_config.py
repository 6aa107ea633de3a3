"""The README names every config key the loader reads and every flag of the CLI, and only those.

``config.load_config`` reads each key through ``_get(cp, section, key, ...)``;
the (section, key) pairs are found with ``ast``. Each must appear in the
README's ``ini`` block under its section, as a key line or named in a
comment there, and every key line of the block must be a key the loader
reads. The block must also load as written. The loader rejects every key
it does not read, so a key outside this block cannot load.

Likewise ``cli.main`` declares each flag through ``parser.add_argument``.
The README's ``Flags`` line must name exactly those flags, and its
``rbsde-lab`` example command may use only them, so a removed flag cannot
stay in the docs.
"""

import ast
import re
from pathlib import Path

from rbsde_lab.config import load_config

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "src" / "rbsde_lab" / "config.py"
CLI = ROOT / "src" / "rbsde_lab" / "cli.py"
README = ROOT / "README.md"


def loader_keys(source: str) -> set:
    """The (section, key) pairs of every ``_get`` call in ``source``."""
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_get":
            section, key = node.args[1:3]
            assert isinstance(section, ast.Constant) and isinstance(key, ast.Constant), (
                f"_get with a computed section or key at line {node.lineno}"
            )
            keys.add((section.value, key.value))
    return keys


def readme_block(text: str) -> str:
    """The first ``ini`` code block of a Markdown text."""
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


def block_keys(block: str) -> tuple:
    """(key lines, names in comments) of an INI block, as (section, name) pairs."""
    lines, named = set(), set()
    section = None
    for line in block.splitlines():
        body, _, comment = line.partition(";")
        body = body.strip()
        if body.startswith("["):
            section = body.strip("[]")
        elif "=" in body:
            lines.add((section, body.split("=", 1)[0].strip()))
        named |= {(section, word) for word in re.findall(r"[a-z_][a-z0-9_]*", comment)}
    return lines, named


def parser_flags(source: str) -> set:
    """The option strings of every ``add_argument`` call in ``source``."""
    flags = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            flags |= {arg.value for arg in node.args if isinstance(arg, ast.Constant)}
    return flags


def named_flags(text: str) -> set:
    """Every ``--flag`` word of ``text``."""
    return set(re.findall(r"--[a-z][a-z0-9-]*", text))


def readme_flags(text: str) -> tuple:
    """(flags of the ``Flags`` line, flags of the ``rbsde-lab`` example commands) of a README."""
    line = text.split("Flags `", 1)[1].split("`", 1)[0]
    commands = "\n".join(cmd for cmd in text.splitlines() if cmd.startswith("rbsde-lab "))
    return named_flags(line), named_flags(commands)


def test_every_key_the_loader_reads_is_in_the_readme_block():
    lines, named = block_keys(readme_block(README.read_text()))
    missing = sorted(loader_keys(CONFIG.read_text()) - lines - named)
    assert not missing, f"read by load_config, not in the README config block: {missing}"


def test_every_key_line_of_the_readme_block_is_read_by_the_loader():
    lines, _ = block_keys(readme_block(README.read_text()))
    unread = sorted(lines - loader_keys(CONFIG.read_text()))
    assert not unread, f"in the README config block, not read by load_config: {unread}"


def test_the_readme_block_loads_as_written(tmp_path):
    path = tmp_path / "put.cfg"
    path.write_text(readme_block(README.read_text()))
    cfg = load_config(path)
    assert cfg.command == "crosscheck" and cfg.pde_penalty_n is None


def test_the_guard_reads_keys_lines_and_comments():
    source = (
        "def load(cp):\n"
        "    a = _get(cp, 'run', 'command', str)\n"
        "    b = _get(cp, 'pde', 'penalty_n', float, None)\n"
        "    return other(cp, 'run', 'seed')\n"
    )
    assert loader_keys(source) == {("run", "command"), ("pde", "penalty_n")}
    block = "[run]\ncommand = solve   ; or: verify\n\n[pde]\n; penalty_n = 10\nx_min = 0\n"
    lines, named = block_keys(block)
    assert lines == {("run", "command"), ("pde", "x_min")}
    assert {("run", "verify"), ("pde", "penalty_n")} <= named
    assert ("run", "penalty_n") not in named


def test_the_readme_flags_line_names_the_flags_of_main():
    listed, used = readme_flags(README.read_text())
    declared = parser_flags(CLI.read_text())
    assert listed == declared, f"README Flags line {sorted(listed)}, main {sorted(declared)}"
    assert used and used <= declared, f"README example uses {sorted(used - declared)}"


def test_the_flag_guard_reads_add_argument_calls_and_the_flags_line():
    source = (
        "def main(argv):\n"
        "    parser.add_argument('--config', required=True)\n"
        "    parser.add_argument('-q', '--quiet', action='store_true')\n"
        "    other('--seed')\n"
    )
    assert parser_flags(source) == {"--config", "-q", "--quiet"}
    text = (
        "```bash\nrbsde-lab --config a.cfg --out-dir b\n```\n"
        "Flags `--config PATH, --quiet` and `--tol` elsewhere.\n"
    )
    assert readme_flags(text) == ({"--config", "--quiet"}, {"--config", "--out-dir"})
