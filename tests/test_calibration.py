import numpy as np
import pytest

from curvepath.calibration import (
    RankDeficiencyError,
    RegressionDataset,
    assemble_dataset,
    fit_gain_matrix,
    node_count_tradeoff,
    optimize_node_distances,
)
from curvepath.planner import GainMatrix, NodePointParams
from curvepath.road import AllSkippedError
from curvepath.simulate import (
    RoadSegmentSpec,
    ScenarioSpec,
    SyntheticDriverSpec,
    build_scenario_road,
    generate_synthetic_driver_log,
    winding_scenario,
)

from conftest import P_TRUE
from helpers import build_chained_node_log


@pytest.fixture(scope="module")
def straight_log():
    road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(900.0),)))
    driver = SyntheticDriverSpec(gains_true=GainMatrix.zeros(), seed=2)
    return generate_synthetic_driver_log(road, driver)


class TestAssembleDataset:
    def test_noise_free_log_matches_gain_product(self, clean_driver_log):
        data = assemble_dataset(clean_driver_log)
        assert np.max(np.abs(data.offsets - P_TRUE @ data.inputs)) < 1e-12

    def test_straight_log_gives_zero_inputs(self, straight_log):
        data = assemble_dataset(straight_log)
        assert np.max(np.abs(data.inputs)) < 1e-12

    def test_column_count_arithmetic(self, clean_driver_log):
        # replans run every 30 cycles; columns require the far node to be
        # reachable 110 rows ahead, later replans are skipped and counted
        data = assemble_dataset(clean_driver_log, retrigger=30)
        n = len(clean_driver_log)
        candidates = (n + 29) // 30
        valid = sum(1 for k in range(0, n, 30) if k + 110 < n)
        assert data.n_cycles == valid
        assert data.n_cycles + data.skipped == candidates

    def test_all_skipped_raises(self, clean_driver_log):
        from curvepath.simulate import DriveLog

        tail = DriveLog(
            cycle=clean_driver_log.cycle[:60] - clean_driver_log.cycle[0],
            **{
                name: getattr(clean_driver_log, name)[-60:]
                for name in DriveLog._FLOAT_COLUMNS
            },
        )
        with pytest.raises(AllSkippedError, match=r"^all 2 replanning cycles were skipped: \{'preview': 2\}$"):
            assemble_dataset(tail)


class TestFitGainMatrix:
    def test_identity_inputs_recover_exactly(self):
        data = RegressionDataset(offsets=P_TRUE.copy(), inputs=np.eye(3))
        result = fit_gain_matrix(data)
        assert np.array_equal(result.gains.p, P_TRUE)
        assert result.residual_rms == pytest.approx(0.0, abs=1e-15)
        assert result.rank == 3

    def test_noise_free_round_trip(self, clean_driver_log):
        result = fit_gain_matrix(assemble_dataset(clean_driver_log))
        assert np.linalg.norm(result.gains.p - P_TRUE) < 1e-9

    def test_straight_dataset_rank_deficient(self, straight_log):
        with pytest.raises(RankDeficiencyError, match="kappa"):
            fit_gain_matrix(assemble_dataset(straight_log))

    def test_needs_three_cycles(self):
        data = RegressionDataset(offsets=np.zeros((3, 2)), inputs=np.eye(3)[:, :2])
        with pytest.raises(ValueError, match="3"):
            fit_gain_matrix(data)

    def test_cycle_count_is_the_column_count(self):
        data = RegressionDataset(offsets=np.zeros((3, 5)), inputs=np.ones((3, 5)))
        assert data.n_cycles == 5

    @pytest.mark.parametrize(
        "offsets, inputs, message",
        [
            (np.zeros((3, 4)), np.zeros((3, 5)), "3xN"),
            (np.zeros((2, 4)), np.zeros((2, 4)), "3xN"),
            (np.zeros(3), np.zeros(3), "3xN"),
            (np.zeros((3, 0)), np.zeros((3, 0)), "at least one cycle"),
        ],
        ids=["unequal-columns", "two-rows", "vector", "no-cycle"],
    )
    def test_dataset_needs_two_3xn_matrices(self, offsets, inputs, message):
        with pytest.raises(ValueError, match=message):
            RegressionDataset(offsets=offsets, inputs=inputs)

    def test_normal_equation_residual(self, clean_driver_log):
        data = assemble_dataset(clean_driver_log)
        noisy = RegressionDataset(
            offsets=data.offsets + 0.01 * np.random.default_rng(3).standard_normal(data.offsets.shape),
            inputs=data.inputs,
        )
        result = fit_gain_matrix(noisy)
        residual = noisy.offsets - result.gains.p @ noisy.inputs
        lhs = residual @ noisy.inputs.T
        scale = np.linalg.norm(noisy.offsets) * np.linalg.norm(noisy.inputs)
        assert np.max(np.abs(lhs)) / scale < 1e-8

    def test_per_driver_fit_beats_pooled(self):
        rng = np.random.default_rng(8)
        inputs = rng.uniform(-0.01, 0.01, (3, 120))
        p_a = P_TRUE
        p_b = P_TRUE + 12.0
        d_a = p_a @ inputs
        d_b = p_b @ inputs
        res_a = fit_gain_matrix(RegressionDataset(offsets=d_a, inputs=inputs))
        res_b = fit_gain_matrix(RegressionDataset(offsets=d_b, inputs=inputs))
        pooled = fit_gain_matrix(
            RegressionDataset(
                offsets=np.hstack([d_a, d_b]),
                inputs=np.hstack([inputs, inputs]),
            )
        )
        assert pooled.residual_rms > max(res_a.residual_rms, res_b.residual_rms)
        assert pooled.residual_rms > 1e-4

    def test_noise_error_shrinks_with_sample_count(self):
        # averaged over replicate noise draws so the ratio estimate is tight
        rng = np.random.default_rng(42)
        inputs = rng.uniform(-0.008, 0.008, (3, 2000))

        def err(n):
            errors = []
            for _ in range(8):
                noise = 0.05 * rng.standard_normal((3, n))
                sub = RegressionDataset(
                    offsets=P_TRUE @ inputs[:, :n] + noise,
                    inputs=inputs[:, :n],
                )
                errors.append(np.linalg.norm(fit_gain_matrix(sub).gains.p - P_TRUE))
            return np.mean(errors)

        ratio = err(500) / err(2000)
        assert 1.4 <= ratio <= 2.6


class TestOptimizeNodeDistances:
    def test_recovers_generating_distances(self):
        road = build_scenario_road(winding_scenario(10))
        params = NodePointParams()
        log = build_chained_node_log(road, params, n_blocks=6)
        result = optimize_node_distances(
            log, NodePointParams(20.0, 60.0, 180.0), window=400, stride=109
        )
        assert not result.flat_cost
        recovered = np.array(result.params.distances)
        assert np.all(np.abs(recovered - np.array([10.0, 39.0, 137.0])) <= 2.0)

    def test_straight_road_is_flat(self, straight_log):
        initial = NodePointParams(20.0, 60.0, 180.0)
        result = optimize_node_distances(straight_log, initial)
        assert result.flat_cost
        assert result.params == initial

    def test_log_shorter_than_window_rejected(self, straight_log):
        from curvepath.road import SkipError
        from curvepath.simulate import DriveLog

        short = DriveLog(
            cycle=straight_log.cycle[:100],
            **{name: getattr(straight_log, name)[:100] for name in DriveLog._FLOAT_COLUMNS},
        )
        # a size check on the caller's arguments, not a skipped unit
        with pytest.raises(ValueError, match="^log has 100 samples, shorter than one 400-sample window$") as raised:
            optimize_node_distances(short, NodePointParams())
        assert not isinstance(raised.value, SkipError)


@pytest.fixture(scope="module")
def sweep(clean_driver_log):
    return node_count_tradeoff(clean_driver_log, counts=range(1, 11), repeats=2)


class TestNodeCountTradeoff:

    def test_both_series_normalised(self, sweep):
        assert max(row[1] for row in sweep) == 1.0
        assert max(row[2] for row in sweep) == 1.0

    def test_error_non_increasing(self, sweep):
        errors = [row[1] for row in sweep]
        for a, b in zip(errors, errors[1:]):
            assert b <= a * 1.05 + 1e-12

    def test_single_node_is_worst(self, sweep):
        errors = [row[1] for row in sweep]
        assert errors[0] == max(errors)

    def test_time_grows_with_node_count(self, sweep):
        times = [row[2] for row in sweep]
        for a, b in zip(times, times[1:]):
            assert b >= a * 0.95
