"""Command-line front end: subcommands, formats, exit codes."""

import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from netfreq.cli import TABLE_HEADER, escape_bytes, format_table, main
from netfreq import NetFrequencyIndex

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = str(PYPROJECT.parent / "src")


def child_env():
    """Environment for a child interpreter that imports this checkout's
    netfreq whether or not the package is installed."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}


def run_main(argv, stdin_bytes=b""):
    out, err = io.StringIO(), io.StringIO()
    real = sys.stdin, sys.stdout, sys.stderr
    fake_in = io.TextIOWrapper(io.BytesIO(stdin_bytes), encoding="utf-8")
    try:
        sys.stdin, sys.stdout, sys.stderr = fake_in, out, err
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = real
    return code, out.getvalue(), err.getvalue()


def test_escape_bytes_printable_hex_and_backslash():
    assert escape_bytes(tuple(b"abc")) == "abc"
    assert escape_bytes((0,)) == "\\x00"
    assert escape_bytes(tuple(b"a\\b")) == "a\\\\b"
    assert escape_bytes((0x7F,)) == "\\x7f"
    assert escape_bytes(tuple(b" ~")) == " ~"


def test_format_table_shape():
    ix = NetFrequencyIndex()
    ix.extend_text(b"aabaabababaa")
    ix.seal()
    text = ix.all_nf()
    rendered = format_table(tuple(b"aabaabababaa"), text)
    lines = rendered.splitlines()
    assert lines[0] == TABLE_HEADER == "start\tend\tnf\tstring"
    assert lines[1:] == ["1\t4\t2\taaba", "2\t5\t2\tabaa", "5\t9\t2\tababa"]
    assert rendered.endswith("\n")


def test_offline_single_query(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"rstkstcastarstast")
    code, out, err = run_main(["offline", "--input", str(p), "--query", "st"])
    assert (code, out, err) == (0, "1\n", "")


def test_offline_full_table(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"aabaabababaa")
    code, out, err = run_main(["offline", "--input", str(p)])
    assert code == 0 and err == ""
    assert out == ("start\tend\tnf\tstring\n"
                   "1\t4\t2\taaba\n"
                   "2\t5\t2\tabaa\n"
                   "5\t9\t2\tababa\n")


def test_offline_empty_file_prints_header_only(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    code, out, err = run_main(["offline", "--input", str(p)])
    assert (code, out) == (0, "start\tend\tnf\tstring\n")


def test_offline_missing_file_is_an_error(tmp_path):
    code, out, err = run_main(["offline", "--input", str(tmp_path / "nope.bin")])
    assert code == 1 and out == "" and "nope.bin" in err


def test_offline_empty_query_is_a_usage_error(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"abab")
    code, out, err = run_main(["offline", "--input", str(p), "--query", ""])
    assert code == 2 and "empty" in err


def test_offline_escapes_raw_bytes(tmp_path):
    p = tmp_path / "raw.bin"
    p.write_bytes(b"\\a\\a")
    code, out, err = run_main(["offline", "--input", str(p)])
    assert code == 0
    assert out.splitlines()[1] == "1\t2\t2\t\\\\a"


def test_stream_query_and_status():
    feed = b"+ab\n? a\n#\n"
    code, out, err = run_main(["stream"], feed)
    assert code == 0 and err == ""
    assert out == "0\nn=2 active_depth=0 nodes=3\n"


def test_stream_worked_text_status_and_table():
    feed = b"+aabaabababaa\n#\n!\n"
    code, out, err = run_main(["stream"], feed)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=12 active_depth=4 nodes=15"
    assert lines[1] == TABLE_HEADER
    assert lines[2:] == ["1\t4\t2\taaba", "2\t5\t2\tabaa", "5\t9\t2\tababa"]


def test_stream_incremental_appends_concatenate():
    feed = b"+aabaa\n+bababaa\n? abaa\n"
    code, out, err = run_main(["stream"], feed)
    assert code == 0 and out == "2\n"


def test_stream_malformed_lines_diagnose_and_continue():
    feed = b"+ab\nbogus\n? a\n?\n"
    code, out, err = run_main(["stream"], feed)
    assert code == 1
    assert out == "0\n"
    assert err.count("malformed") == 2


def test_stream_empty_input_is_fine():
    code, out, err = run_main(["stream"], b"")
    assert (code, out, err) == (0, "", "")


def test_bench_emits_one_csv_row():
    code, out, err = run_main(["bench", "--n", "4096", "--alphabet", "4", "--seed", "7"])
    assert code == 0 and err == ""
    fields = out.strip().split(",")
    assert len(fields) == 6
    assert fields[:3] == ["4096", "4", "7"]
    assert all(int(f) >= 0 for f in fields)


def test_bench_short_text_still_times_queries():
    code, out, err = run_main(["bench", "--n", "8", "--alphabet", "2", "--seed", "0"])
    assert code == 0
    assert out.startswith("8,2,0,")


def test_bench_rejects_bad_sizes():
    assert run_main(["bench", "--n", "0"])[0] == 2
    assert run_main(["bench", "--n", "64", "--alphabet", "1"])[0] == 2
    assert run_main(["bench", "--n", "64", "--alphabet", "300"])[0] == 2


def test_bench_is_deterministic_in_text():
    a = run_main(["bench", "--n", "512", "--seed", "3"])[1].split(",")
    b = run_main(["bench", "--n", "512", "--seed", "3"])[1].split(",")
    assert a[:3] == b[:3]


def _scripts_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"].get("scripts", {})


# What the wrapper that pip installs for a console script does: import the
# declared module, fetch the declared attribute, call it, exit with its result.
WRAPPER = """\
import importlib, sys
module, attr = sys.argv[1:3]
entry = getattr(importlib.import_module(module), attr)
sys.argv[:3] = ["netfreq"]
sys.exit(entry())
"""


def test_console_script_entry_point(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"aabaabababaa")
    args = ["offline", "--input", str(p), "--query", "abaa"]
    proc = subprocess.run(
        [sys.executable, "-m", "netfreq.cli", *args],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n", proc.stderr
    scripts = _scripts_declared()
    assert "netfreq" in scripts
    module, sep, attr = scripts["netfreq"].partition(":")
    assert sep and module and attr, scripts["netfreq"]
    proc2 = subprocess.run(
        [sys.executable, "-c", WRAPPER, module.strip(), attr.strip(), *args],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc2.returncode == 0, proc2.stderr
    assert proc2.stdout == "2\n", proc2.stderr


@pytest.mark.skipif(shutil.which("netfreq") is None,
                    reason="netfreq console script not on PATH; install with pip install -e .")
def test_installed_console_script(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"aabaabababaa")
    proc = subprocess.run(
        ["netfreq", "offline", "--input", str(p), "--query", "abaa"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n", proc.stderr


def test_stream_subprocess_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "netfreq.cli", "stream"],
        input=b"+aabaabababaa\n? abaa\n#\n",
        capture_output=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"2\nn=12 active_depth=4 nodes=15\n", proc.stderr
