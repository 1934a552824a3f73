"""Cost model calibration: the Table 4 baseline column is exact."""

from repro.kernel.costs import (
    DEFAULT_SERVICE_COST,
    READ_BYTE_COST,
    TRAP_COST,
    CostModel,
    mac_blocks,
)


class TestCalibration:
    """The 'Original cost' column of Table 4, cycle for cycle."""

    def test_getpid(self):
        assert CostModel().syscall_cost("getpid") == 1141

    def test_gettimeofday(self):
        assert CostModel().syscall_cost("gettimeofday") == 1395

    def test_read_4096(self):
        assert CostModel().syscall_cost("read", 4096) == 7324

    def test_write_4096(self):
        assert CostModel().syscall_cost("write", 4096) == 39479

    def test_brk(self):
        assert CostModel().syscall_cost("brk") == 1155


class TestStructure:
    def test_uncalibrated_call_uses_default(self):
        model = CostModel()
        assert model.syscall_cost("sigaction") == TRAP_COST + DEFAULT_SERVICE_COST

    def test_transfer_only_charged_for_io_calls(self):
        model = CostModel()
        assert model.syscall_cost("getpid", 4096) == model.syscall_cost("getpid")

    def test_read_scales_linearly(self):
        model = CostModel()
        small = model.syscall_cost("read", 1024)
        large = model.syscall_cost("read", 2048)
        assert large - small == int(1024 * READ_BYTE_COST)

    def test_auth_cost_grows_with_blocks(self):
        model = CostModel()
        assert model.auth_cost_blocks(4) - model.auth_cost_blocks(2) == 2 * model.mac_block_cost

    def test_auth_surcharge_magnitude(self):
        # Table 4: authenticated getpid ≈ 5,045 = 1,141 + ~3,900.
        model = CostModel()
        surcharge = model.auth_cost_blocks(2)
        assert 3500 <= surcharge <= 4500


class TestMacBlocks:
    def test_minimum_one_block(self):
        assert mac_blocks(0) == 1
        assert mac_blocks(1) == 1

    def test_exact_boundary(self):
        assert mac_blocks(16) == 1
        assert mac_blocks(17) == 2
        assert mac_blocks(48) == 3

    def test_ablation_variant_is_isolated(self):
        slow = CostModel(mac_block_cost=5000)
        assert slow.auth_cost_blocks(2) > CostModel().auth_cost_blocks(2)
        assert slow.syscall_cost("getpid") == CostModel().syscall_cost("getpid")
