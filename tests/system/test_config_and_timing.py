"""Tests for repro.system.config and repro.system.timing."""

import pytest

from repro.errors import ConfigError
from repro.system import LatencyModel, OFLW3Config, TimeBreakdown, paper_config, quick_config
from repro.system.timing import merge_breakdowns
from repro.utils.units import ether_to_wei, gwei_to_wei


class TestConfig:
    def test_paper_defaults_match_section_4(self):
        config = paper_config()
        assert config.num_owners == 10
        assert config.layer_sizes == (784, 100, 10)
        assert config.batch_size == 64
        assert config.learning_rate == 0.001
        assert config.local_epochs == 10
        assert config.budget_wei == ether_to_wei("0.01")
        assert config.aggregator == "pfnm"
        assert config.incentive_method == "leave_one_out"

    def test_quick_config_is_smaller(self):
        quick = quick_config()
        paper = paper_config()
        assert quick.num_owners < paper.num_owners
        assert quick.num_samples < paper.num_samples
        assert quick.local_epochs < paper.local_epochs

    def test_overrides(self):
        config = quick_config(num_owners=7, gas_price_gwei=3.0)
        assert config.num_owners == 7
        assert config.gas_price_wei == gwei_to_wei(3)

    def test_with_overrides_returns_new_object(self):
        base = quick_config()
        changed = base.with_overrides(local_epochs=9)
        assert base.local_epochs != 9
        assert changed.local_epochs == 9

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            OFLW3Config(num_owners=0)
        with pytest.raises(ConfigError):
            OFLW3Config(local_epochs=0)
        with pytest.raises(ConfigError):
            OFLW3Config(test_fraction=1.5)
        with pytest.raises(ConfigError):
            OFLW3Config(layer_sizes=(784,))

    @pytest.mark.parametrize("field", ["partition_scheme", "classes_per_client",
                                       "samples_per_owner"])
    def test_the_deleted_fields_are_refused(self, field):
        # Older saved reports carry them; load_report reads those through its
        # raw-dict path (tests/system/test_artifacts.py).
        with pytest.raises(TypeError, match=field):
            OFLW3Config(**{field: 1})


class TestLatencyModel:
    def test_training_time_scales_with_work(self):
        latency = LatencyModel()
        assert latency.training_time(6000, 10) == pytest.approx(30.0)
        assert latency.training_time(6000, 20) == 2 * latency.training_time(6000, 10)

    def test_transfer_time_includes_overhead(self):
        latency = LatencyModel()
        assert latency.transfer_time(0) == pytest.approx(latency.ipfs_overhead_seconds)
        # The paper's 317 KB model transfers in well under a second on a LAN.
        assert latency.transfer_time(317 * 1024) < 1.0

    def test_aggregation_and_incentive_time(self):
        latency = LatencyModel()
        assert latency.aggregation_time(10) == 15.0
        assert latency.incentive_time(11) == pytest.approx(16.5)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel().training_time(-1, 1)
        with pytest.raises(ValueError):
            LatencyModel().transfer_time(-5)


class TestTimeBreakdown:
    def test_add_and_total(self):
        breakdown = TimeBreakdown(role="owner")
        breakdown.add("training", 30)
        breakdown.add("send_cid", 15)
        breakdown.add("send_cid", 5)
        assert breakdown.total == 50
        assert breakdown.phases["send_cid"] == 20

    def test_blockchain_fraction(self):
        breakdown = TimeBreakdown(role="owner")
        breakdown.add("send_cid", 24)
        breakdown.add("training", 6)
        assert breakdown.blockchain_fraction(("send_cid",)) == pytest.approx(0.8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown(role="x").add("phase", -1)

    def test_merge_averages_across_participants(self):
        a = TimeBreakdown(role="owner:0")
        a.add("training", 10)
        b = TimeBreakdown(role="owner:1")
        b.add("training", 30)
        b.add("send_cid", 10)
        merged = merge_breakdowns([a, b], role="owner")
        assert merged.phases["training"] == pytest.approx(20)
        assert merged.phases["send_cid"] == pytest.approx(5)

    def test_merge_empty_list(self):
        assert merge_breakdowns([], role="owner").total == 0
