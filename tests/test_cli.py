"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "design.txt"
    code = main([
        "generate", "clidesign", "-o", str(path),
        "--cells", "1:80", "2:8", "--density", "0.5", "--seed", "3",
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_creates_loadable_design(self, design_file):
        from repro.io import load_design

        design = load_design(design_file)
        assert design.num_cells == 88
        assert design.name == "clidesign"

    def test_rails_flag(self, tmp_path):
        path = tmp_path / "d.txt"
        main([
            "generate", "railed", "-o", str(path),
            "--cells", "1:40", "--rails", "--io-pins", "3",
        ])
        from repro.io import load_design

        design = load_design(path)
        assert design.rails.rails
        assert len(design.rails.io_pins) == 3


class TestInputErrors:
    """Bad input ends in one line on stderr and a non-zero exit."""

    def test_generate_rejects_impossible_density(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        code = main([
            "generate", "d", "-o", str(path),
            "--cells", "1:200", "2:20", "--density", "1.3",
        ])
        assert code == 2
        assert not path.exists()
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "density" in err and "1.3" in err

    def test_legalize_missing_design(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        out = tmp_path / "out.pl"
        code = main(["legalize", str(missing), "-o", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(missing) in err
        assert "Traceback" not in err

    def test_check_missing_placement_is_not_a_failed_check(
        self, design_file, tmp_path, capsys
    ):
        """Exit 1 means an illegal placement; a missing file is exit 2."""
        missing = tmp_path / "missing.pl"
        code = main(["check", str(design_file), str(missing)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(missing) in err

    def test_over_full_design_exits_3(self, tmp_path, capsys):
        """An unplaceable cell is one line and exit 3, not a traceback."""
        design = tmp_path / "d.txt"
        out = tmp_path / "out.pl"
        assert main([
            "generate", "d", "-o", str(design), "--cells", "1:120", "2:12",
            "--density", "1.0", "--fences", "2", "--seed", "3",
        ]) == 0
        capsys.readouterr()
        code = main(["legalize", str(design), "-o", str(out)])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "cannot be placed" in err and "over-full" in err
        assert "Traceback" not in err

    def test_missing_file_without_a_path(self, monkeypatch, capsys):
        def no_path(args):
            raise FileNotFoundError("no bundle found")

        monkeypatch.setattr("repro.cli.cmd_svg", no_path)
        code = main(["svg", "d.txt", "p.txt", "-o", "out.svg"])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.endswith("no bundle found")
        assert "None" not in err


class TestLegalizeAndCheck:
    def test_round_trip(self, design_file, tmp_path, capsys):
        placement_file = tmp_path / "placement.txt"
        code = main([
            "legalize", str(design_file), "-o", str(placement_file),
            "--no-routability",
        ])
        assert code == 0
        assert placement_file.exists()

        code = main(["check", str(design_file), str(placement_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "legality: legal" in out
        assert "score S" in out

    def test_check_detects_illegal(self, design_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        from repro.io import load_design

        design = load_design(design_file)
        lines = ["place %d 0 0" % c for c in range(design.num_cells)]
        bad.write_text("\n".join(lines) + "\n")
        code = main(["check", str(design_file), str(bad)])
        assert code == 1
        assert "overlap" in capsys.readouterr().out

    def test_window_flag(self, design_file, tmp_path):
        placement_file = tmp_path / "p.txt"
        code = main([
            "legalize", str(design_file), "-o", str(placement_file),
            "--no-routability", "--window", "16", "6",
        ])
        assert code == 0


class TestSvg:
    def test_renders(self, design_file, tmp_path):
        placement_file = tmp_path / "p.txt"
        main(["legalize", str(design_file), "-o", str(placement_file),
              "--no-routability"])
        svg_file = tmp_path / "out.svg"
        code = main([
            "svg", str(design_file), str(placement_file),
            "-o", str(svg_file), "--displacement",
        ])
        assert code == 0
        assert svg_file.read_text().startswith("<svg")


class TestCompare:
    def test_runs_all(self, design_file, capsys):
        code = main(["compare", str(design_file)])
        assert code == 0
        out = capsys.readouterr().out
        for tag in ("tetris", "mll", "abacus", "lcp", "ours"):
            assert tag in out
