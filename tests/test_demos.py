"""Smoke test of the narrative scripts in demos/, run in process on a small grid."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# the files each demo writes
WRITES = {
    "curl_dichotomy": {"v2_wall.vtk", "v2_laminar.vtk", "curl_wall.vtk",
                       "curl_laminar.vtk"},
    "free_boundary": {"areas.csv", "partition.csv"},
    "limit_sweep": {"sweep.csv"},
    "model_comparison": {"overlap.csv"},
    "stationary_jumps": {"jumps_64.csv", "jumps_128.csv", "p.vtk", "v1.vtk",
                         "v2.vtk"},
}


def test_every_demo_is_listed():
    assert {p.stem for p in DEMOS.glob("*.py")} == set(WRITES)


@pytest.mark.parametrize("name", sorted(WRITES))
def test_demo_runs_and_writes_its_files(tmp_path, name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}",
                                                  DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    # stationary_jumps has fixed resolutions; the others take a grid size
    demo.main(tmp_path, *(() if name == "stationary_jumps" else (16,)))
    assert {p.name for p in tmp_path.iterdir()} == WRITES[name]
