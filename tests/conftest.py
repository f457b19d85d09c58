import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from curvepath import cli
from curvepath.planner import GainMatrix
from curvepath.simulate import (
    SyntheticDriverSpec,
    build_scenario_road,
    generate_synthetic_driver_log,
    load_drive_log,
    s_curve_scenario,
    winding_scenario,
)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

P_TRUE = np.array([[22.0, 3.0, -1.0], [4.0, 25.0, 2.0], [-2.0, 5.0, 30.0]])


@pytest.fixture(scope="session")
def s_curve_road():
    return build_scenario_road(s_curve_scenario())


@pytest.fixture(scope="session")
def clean_driver_log(s_curve_road):
    """Noise-free synthetic drive over the S-curve with known gains."""
    driver = SyntheticDriverSpec(gains_true=GainMatrix(P_TRUE), offset_noise_sigma=0.0, seed=7)
    return generate_synthetic_driver_log(s_curve_road, driver)


@pytest.fixture(scope="session")
def winding_log():
    """Noisy synthetic drive over the winding road: 2601 rows, six 400-row windows."""
    road = build_scenario_road(winding_scenario())
    gains = GainMatrix(np.diag([30.0, 40.0, 50.0]) + 2.0)
    return generate_synthetic_driver_log(road, SyntheticDriverSpec(gains_true=gains, seed=4))


@pytest.fixture(scope="session")
def noise_free_winding_csv(tmp_path_factory):
    """The winding log of `curvepath synth --drivers 1 --scenario winding
    --sigma 0`: 2601 rows at 1.25 m per cycle, with the stock node distances."""
    out = tmp_path_factory.mktemp("winding")
    argv = ["synth", "--drivers", "1", "--scenario", "winding", "--sigma", "0", "--out-dir", str(out)]
    assert cli.main(argv) == 0
    return out / "driver_01.csv"


@pytest.fixture(scope="session")
def synth_log(tmp_path_factory):
    """The S-curve log of `curvepath synth --drivers 1 --seed 4`: 745 rows."""
    out = tmp_path_factory.mktemp("synth")
    assert cli.main(["synth", "--drivers", "1", "--scenario", "s-curve", "--seed", "4", "--out-dir", str(out)]) == 0
    return load_drive_log(out / "driver_01.csv")
