"""README's library tour runs as written against this checkout's sources,
and the names its prose shows in code exist with the arguments shown."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.S | re.M)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def _boxgap_names() -> dict:
    """Every function and class a boxgap module defines, by name; the
    package's own exports first."""
    import boxgap

    names = {}
    modules = [boxgap] + [importlib.import_module(f"boxgap.{info.name}")
                          for info in pkgutil.iter_modules(boxgap.__path__)]
    for module in modules:
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", "").startswith("boxgap"):
                names.setdefault(name, obj)
    return names


def _arguments(text: str, start: int) -> list:
    """The top-level, comma-separated arguments of the call whose opening
    parenthesis is at text[start]."""
    args, depth, arg = [], 0, ""
    for ch in text[start + 1:]:
        if ch in ")]}" and depth == 0:
            break
        depth += (ch in "([{") - (ch in ")]}")
        if ch == "," and depth == 0:
            args.append(arg.strip())
            arg = ""
        else:
            arg += ch
    return [a for a in args + [arg.strip()] if a]


def _readme_spans() -> list:
    """README's inline code spans, fenced blocks left out."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(),
                  flags=re.S | re.M)
    return re.findall(r"`([^`\n]+)`", text)


def test_readme_names_resolve():
    """Each backticked call in README names a boxgap function or class, a
    Graph method, or an attribute of a boxgap class, and takes the
    arguments shown; each backticked Class.attr of a boxgap class exists.
    Dotted names outside boxgap, such as scipy.linalg.eigh, are skipped."""
    from boxgap import Graph

    names = _boxgap_names()
    keyword = re.compile(r"(\w+)\s*=[^=]")

    def resolve(dotted):
        """The boxgap object a name shows, None for one outside boxgap."""
        head, *rest = dotted.split(".")
        if head not in names:
            if rest:
                return None
            assert hasattr(Graph, head), \
                f"`{head}` is not a boxgap function or Graph method"
            return getattr(Graph, head)
        obj = names[head]
        for part in rest:
            fields = getattr(obj, "__dataclass_fields__", {})
            assert part in fields or hasattr(obj, part), f"`{dotted}` does not exist"
            obj = getattr(obj, part, None)
        return obj

    calls = 0
    for span in _readme_spans():
        for m in re.finditer(r"\b([A-Z]\w*)\.(\w+)\b", span):
            if m.group(1) in names:
                resolve(m.group(0))
        for m in re.finditer(r"(?<![\w.])([A-Za-z_][\w.]*)\(", span):
            obj = resolve(m.group(1))
            if obj is None:
                continue
            args = _arguments(span, m.end() - 1)
            keywords = {keyword.match(a)[1]: None for a in args if keyword.match(a)}
            positional = [] if "..." in args else [
                None for a in args if not keyword.match(a)]
            try:
                inspect.signature(obj).bind_partial(*positional, **keywords)
            except TypeError as exc:
                raise AssertionError(f"`{span}`: {exc}") from None
            calls += 1
    assert calls >= 15
