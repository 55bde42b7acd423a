"""The grammar-based naive-kernel generator."""

import pytest

from repro.compiler import naive_launch
from repro.fuzz.grammar import SHAPES, generate_case, generate_cases
from repro.lang.parser import parse_kernel
from repro.lang.semantic import check_kernel
from repro.machine import GTX280


class TestDeterminism:
    def test_same_seed_same_case(self):
        for index in range(20):
            a = generate_case(3, index)
            b = generate_case(3, index)
            assert a.source == b.source
            assert a.sizes == b.sizes
            assert a.domain == b.domain

    def test_different_seeds_differ(self):
        a = [generate_case(0, i).source for i in range(10)]
        b = [generate_case(1, i).source for i in range(10)]
        assert a != b

    def test_generate_cases_matches_generate_case(self):
        batch = generate_cases(5, 8)
        singles = [generate_case(5, i) for i in range(8)]
        assert [c.source for c in batch] == [c.source for c in singles]


class TestValidity:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape_produces_valid_naive_kernels(self, shape):
        for index in range(5):
            case = generate_case(11, index, shape=shape)
            kernel = parse_kernel(case.source)
            check_kernel(kernel, mode="naive")
            assert case.name == f"fz_{shape}_11_{index}"
            assert shape in case.origin

    def test_domain_tiles_exactly(self):
        # The naive launch contract: the block must tile the domain.
        for index in range(30):
            case = generate_case(2, index)
            bx, by = naive_launch(case.domain, GTX280).block
            assert case.domain[0] % bx == 0, case.name
            assert case.domain[1] % by == 0, case.name

    def test_sizes_cover_array_extents(self):
        for index in range(30):
            case = generate_case(4, index)
            kernel = parse_kernel(case.source)
            for p in kernel.array_params():
                for dim in p.dims:
                    if isinstance(dim, str):
                        assert dim in case.sizes, (case.name, dim)
