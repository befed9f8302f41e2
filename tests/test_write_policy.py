"""One way to write a file: `model.write_artifact` is the only code in
`dtst` that opens a file to write, append or create it, so every artifact
goes to `<name>.tmp` and then takes its name as a new file."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dtst"
WRITER = ("model", "write_artifact")
_OPENERS = {"open", "fdopen"}
_WRITE_METHODS = {"write_text", "write_bytes"}


def _mode(call):
    if len(call.args) > 1:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))


def _writes(call):
    """Whether a call may write a file: `Path.write_text`/`write_bytes`, or an
    `open(...)` whose mode is not a literal string free of w, a, x and +."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in _WRITE_METHODS:
        return True
    if name not in _OPENERS:
        return False
    mode = _mode(call)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _writing_calls(source):
    """(top-level definition, line) of every call in `source` that may write."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        found += [(owner, call.lineno) for call in ast.walk(node)
                  if isinstance(call, ast.Call) and _writes(call)]
    return found


def test_only_the_one_writer_opens_a_file_to_write():
    offenders, writer_opens = [], 0
    for path in sorted(SRC.glob("*.py")):
        for owner, line in _writing_calls(path.read_text()):
            if (path.stem, owner) == WRITER:
                writer_opens += 1
            else:
                offenders.append(f"{path.name}:{line} ({owner})")
    assert not offenders, f"files written outside model.write_artifact: {offenders}"
    assert writer_opens == 1


def test_the_guard_sees_every_way_to_open_for_writing():
    writes = ['open(p, "w")', 'open(p, mode="a")', 'open(p, "xb")', 'open(p, "r+")',
              'io.open(p, "wb")', "open(p, mode)", 'os.fdopen(fd, "w")', "p.write_text(s)",
              "p.write_bytes(b)"]
    reads = ["open(p)", 'open(p, "rb")', 'open(p, mode="r", encoding="ascii")', "print(p)"]
    for snippet in writes:
        assert _writing_calls(f"def f(p, s, b, fd, mode):\n    {snippet}\n") == [("f", 2)], \
            snippet
    for snippet in reads:
        assert _writing_calls(f"def f(p):\n    {snippet}\n") == [], snippet
