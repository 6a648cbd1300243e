"""Every configuration error the CLI raises is asserted by a test: the
longest literal run of each ``raise ConfigError(...)`` message in ``cli.py``
appears in a string of ``tests/test_cli.py``, so a new error site cannot land
untested."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
CLI = TESTS.parent / "src" / "dtr_adhere" / "cli.py"


def error_sites(source: str) -> list:
    """``(line, literal)`` for each ``raise ConfigError(...)`` in ``source``
    whose message has literal text: the message's longest literal run,
    stripped of spaces, colons, commas and quotes.  A message that is
    another error's text, ``str(err)`` or ``f"{path}: {err}"``, has none."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "ConfigError"):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.JoinedStr):
            runs = [part.value for part in message.values if isinstance(part, ast.Constant)]
        elif isinstance(message, ast.Constant):
            runs = [message.value]
        else:
            continue
        literal = max(runs, key=len, default="").strip(" :,'")
        if literal:
            sites.append((node.lineno, literal))
    return sites


def strings(source: str) -> list:
    """Every string constant of ``source``, f-string parts included."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def untested(cli_source: str, test_source: str) -> list:
    texts = strings(test_source)
    return [(line, literal) for line, literal in error_sites(cli_source)
            if not any(literal in text for text in texts)]


def test_the_check_finds_an_untested_site():
    cli_source = (
        "def load(path, key, err):\n"
        "    raise ConfigError(f'config is missing {key!r}')\n"
        "    raise ConfigError(f'{path}: grid has no rows')\n"
        "    raise ConfigError('stages must be >= 1')\n"
        "    raise ConfigError(str(err))\n"
        "    raise ValueError('not a config error')\n")
    test_source = "CASES = {'a': \"config is missing 'mode'\", 'b': f'{p}: grid has no'}\n"
    assert error_sites(cli_source) == [(2, "config is missing"), (3, "grid has no rows"),
                                       (4, "stages must be >= 1")]
    assert untested(cli_source, test_source) == [(3, "grid has no rows"),
                                                 (4, "stages must be >= 1")]


def test_every_config_error_site_is_tested():
    cli_source = CLI.read_text(encoding="utf-8")
    assert "config file not found" in {literal for _, literal in error_sites(cli_source)}
    assert untested(cli_source, (TESTS / "test_cli.py").read_text(encoding="utf-8")) == []
