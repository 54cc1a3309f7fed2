"""Tests for workgroup mixes and markdown report generation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import WorkloadError
from repro.experiments.report import render_markdown, write_report
from repro.experiments.runner import ExperimentResult
from repro.workloads.mixes import (
    DESIGN_MIX,
    LAB_MIX,
    OFFICE_MIX,
    WorkgroupMix,
)


class TestWorkgroupMix:
    def test_predefined_mixes_valid(self):
        for mix in (OFFICE_MIX, DESIGN_MIX, LAB_MIX):
            assert mix.total_users > 0
            assert mix.mean_cpu_demand() > 0

    def test_unknown_app_rejected(self):
        with pytest.raises(WorkloadError):
            WorkgroupMix("x", (("Solitaire", 3),))

    def test_negative_count_rejected(self):
        with pytest.raises(WorkloadError):
            WorkgroupMix("x", (("PIM", -1),))

    def test_empty_mix_rejected(self):
        with pytest.raises(WorkloadError):
            WorkgroupMix("x", ())
        with pytest.raises(WorkloadError):
            WorkgroupMix("x", (("PIM", 0),))

    def test_scaled(self):
        doubled = OFFICE_MIX.scaled(2.0)
        assert doubled.total_users == pytest.approx(2 * OFFICE_MIX.total_users, abs=2)
        with pytest.raises(WorkloadError):
            OFFICE_MIX.scaled(0)

    def test_mean_cpu_demand(self):
        mix = WorkgroupMix("x", (("PIM", 10),))
        assert mix.mean_cpu_demand() == pytest.approx(0.30)

    def test_estimated_cpus(self):
        mix = WorkgroupMix("x", (("Photoshop", 20),))  # 2.8 ref CPUs
        assert mix.estimated_cpus_needed(headroom=0.5) == 2
        assert mix.estimated_cpus_needed(headroom=0.0) == 3
        with pytest.raises(WorkloadError):
            mix.estimated_cpus_needed(headroom=-1)

    def test_build_profiles(self):
        mix = WorkgroupMix("x", (("PIM", 2), ("Netscape", 1)))
        profiles = mix.build_profiles(duration=60.0, seed=5)
        assert len(profiles) == 3
        apps = {p.application for p in profiles}
        assert apps == {"PIM", "Netscape"}

    def test_design_mix_heavier_than_lab_per_user(self):
        design = DESIGN_MIX.mean_cpu_demand() / DESIGN_MIX.total_users
        lab = LAB_MIX.mean_cpu_demand() / LAB_MIX.total_users
        assert design > lab


class TestMarkdownReport:
    def make(self):
        return ExperimentResult(
            experiment_id="figX",
            title="Some figure",
            rows=[{"a": 1, "b": "x|y"}],
            notes=["careful"],
        )

    def test_render_markdown_structure(self):
        text = render_markdown(self.make())
        assert text.startswith("## figX — Some figure")
        assert "| a | b |" in text
        assert "* careful" in text

    def test_write_report(self, tmp_path):
        path = write_report([self.make()], tmp_path / "report.md")
        assert path.read_text(encoding="utf-8").startswith("# Reproduction report")

    def test_cli_markdown_flag(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "r.md"
        assert main(["table4", "--markdown", str(out)]) == 0
        assert out.exists()
        assert "table4" in out.read_text(encoding="utf-8")

    def test_results_md_has_one_section_per_experiment_in_registry_order(self):
        """RESULTS.md's paper half is the report: one heading per registered
        experiment, in the CLI's order, before ``## Simulator speed``."""
        root = Path(__file__).resolve().parent.parent
        # A fresh interpreter registers in the CLI's order; this one
        # registered in the order the test files import the modules.
        code = (
            "import json, repro.experiments.__main__ as cli; print(json.dumps("
            "[[s.experiment_id, s.title] for s in cli.EXPERIMENTS.values()]))"
        )
        listing = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, check=True,
        )  # fmt: skip
        text = (root / "RESULTS.md").read_text(encoding="utf-8")
        paper_half, speed, _rest = text.partition("\n## Simulator speed")
        assert speed, "RESULTS.md has no '## Simulator speed' section"
        headings = [line for line in paper_half.splitlines() if line.startswith("## ")]
        assert headings == [f"## {i} — {t}" for i, t in json.loads(listing.stdout)]
