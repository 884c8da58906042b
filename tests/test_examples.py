"""Smoke tests: every shipped example must run and print sane output."""

import importlib.util
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "Cong Rosca" in out
        assert "width 86" in out
        assert "JoinFor" in out

    def test_sql_translation_demo(self, capsys):
        load_example("sql_translation_demo").main()
        out = capsys.readouterr().out
        assert "WITH c0_init_idx" in out
        assert "Decoded result" in out
        assert "Cong Rosca" in out

    def test_document_reconstruction(self, capsys):
        module = load_example("document_reconstruction")
        # Patch the scale list indirectly: just run it — scales are small.
        module.main()
        out = capsys.readouterr().out
        assert "result trees" in out
        assert "<description>" in out

    def test_two_documents(self, capsys):
        load_example("two_documents").main()
        out = capsys.readouterr().out
        assert out.count("Ada Lovelace") >= 3  # all three backends agree

    def test_dynamic_intervals_tour(self, capsys):
        load_example("dynamic_intervals_tour").main()
        out = capsys.readouterr().out
        # The paper's Figure 7 coordinates, byte for byte.
        assert "174" in out and "2088" in out


def test_all_examples_have_docstrings_and_main():
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        source = path.read_text()
        assert source.startswith('"""'), f"{path.name} lacks a docstring"
        assert "def main()" in source, f"{path.name} lacks main()"
        assert '__name__ == "__main__"' in source, path.name
