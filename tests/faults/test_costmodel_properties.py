"""Property-based coverage of the CostModel transfer-config space.

The chunking plan is the contract the whole pipelined transfer engine
stands on: every byte of the payload appears in exactly one chunk, no
chunk exceeds the configured size, a zero payload schedules nothing, and
invalid (chunk, window) combinations are rejected at construction rather
than detected mid-migration.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.agents.mobility import (
    RETRY_BACKOFF_CAP_MS,
    RETRY_JITTER_FRAC,
    CostModel,
)


def make_model(chunk_bytes: int, window: int = 1) -> CostModel:
    return CostModel(transfer_chunk_bytes=chunk_bytes,
                     transfer_window=window)


class TestChunkPlanProperties:
    @given(payload=st.integers(min_value=1, max_value=50_000_000),
           chunk=st.integers(min_value=0, max_value=5_000_000))
    def test_chunks_sum_to_payload(self, payload, chunk):
        sizes = make_model(chunk).chunk_sizes(payload)
        assert sum(sizes) == payload

    @given(payload=st.integers(min_value=1, max_value=50_000_000),
           chunk=st.integers(min_value=1, max_value=5_000_000))
    def test_no_chunk_exceeds_configured_size(self, payload, chunk):
        sizes = make_model(chunk).chunk_sizes(payload)
        assert all(0 < size <= chunk for size in sizes)

    @given(payload=st.integers(min_value=1, max_value=50_000_000),
           chunk=st.integers(min_value=1, max_value=5_000_000))
    def test_chunk_count_is_ceiling_division(self, payload, chunk):
        sizes = make_model(chunk).chunk_sizes(payload)
        assert len(sizes) == -(-payload // chunk)

    @given(payload=st.integers(min_value=1, max_value=50_000_000),
           chunk=st.integers(min_value=1, max_value=5_000_000))
    def test_only_the_last_chunk_may_be_short(self, payload, chunk):
        sizes = make_model(chunk).chunk_sizes(payload)
        assert all(size == chunk for size in sizes[:-1])

    @given(payload=st.integers(min_value=1, max_value=50_000_000))
    def test_chunking_disabled_is_one_chunk(self, payload):
        assert make_model(0).chunk_sizes(payload) == [payload]

    @given(chunk=st.integers(min_value=0, max_value=5_000_000),
           payload=st.integers(min_value=-1_000_000, max_value=0))
    def test_zero_or_negative_payload_yields_empty_plan(self, chunk, payload):
        assert make_model(chunk).chunk_sizes(payload) == []


class TestConstructionValidation:
    @given(chunk=st.integers(min_value=1, max_value=5_000_000),
           window=st.integers(min_value=1, max_value=64))
    def test_valid_configs_construct(self, chunk, window):
        model = make_model(chunk, window)
        assert model.transfer_window == window

    @given(window=st.integers(min_value=2, max_value=64))
    def test_window_without_chunking_rejected(self, window):
        with pytest.raises(ValueError):
            make_model(0, window)

    @given(window=st.integers(max_value=0))
    def test_non_positive_window_rejected(self, window):
        with pytest.raises(ValueError):
            CostModel(transfer_chunk_bytes=64_000, transfer_window=window)

    @given(chunk=st.integers(max_value=-1))
    def test_negative_chunk_bytes_rejected(self, chunk):
        with pytest.raises(ValueError):
            CostModel(transfer_chunk_bytes=chunk)

    @given(retries=st.integers(max_value=-1))
    def test_negative_retry_budget_rejected(self, retries):
        with pytest.raises(ValueError):
            CostModel(max_transfer_retries=retries)


class TestBackoffProperties:
    @given(attempt=st.integers(min_value=0, max_value=20),
           key=st.text(max_size=20))
    def test_backoff_is_deterministic_per_key(self, attempt, key):
        model = CostModel()
        assert model.backoff_ms(attempt, key) == model.backoff_ms(attempt, key)

    @given(attempt=st.integers(min_value=0, max_value=20))
    def test_backoff_respects_cap_plus_jitter(self, attempt):
        model = CostModel()
        ceiling = RETRY_BACKOFF_CAP_MS * (1 + RETRY_JITTER_FRAC)
        assert 0 < model.backoff_ms(attempt) <= ceiling
