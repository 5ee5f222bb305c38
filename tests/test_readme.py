"""The README's examples, run as written, so its printed output cannot drift."""

import os
import re
import subprocess
import sys
from pathlib import Path

import freeprod

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(kind: str) -> list[str]:
    return re.findall(rf"^```{kind}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_session_is_the_cli_output(tmp_path):
    # the first problem file is the session's example.fp; the session's
    # lines after the prompt are the command's stdout, byte for byte
    (tmp_path / "example.fp").write_text(_blocks("ini")[0])
    (session,) = [b for b in _blocks("text") if b.startswith("$ freeprod ")]
    prompt, _, expected = session.partition("\n")
    argv = prompt.removeprefix("$ freeprod ").split()
    src = str(Path(freeprod.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "freeprod.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


def test_readme_library_block_runs_as_commented():
    # every line commented ``# True`` must evaluate to True
    (code,) = _blocks("python")
    lines = []
    for line in code.splitlines():
        stmt, _, comment = line.partition("#")
        if comment.strip() == "True":
            line = f"assert ({stmt.strip()}) is True, {stmt.strip()!r}"
        lines.append(line)
    checked = "\n".join(lines)
    assert "assert (" in checked
    exec(compile(checked, str(README), "exec"), {})
