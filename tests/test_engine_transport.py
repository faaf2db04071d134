"""Differential transport suite: processes ≡ sequential, bit for bit.

The persistent worker runtime promises that moving chunks between processes
is unobservable: for any suite, chunk size, cardinality, and input, the
processes backend (candidates and results pickled over each worker's pipe)
and the sequential in-process reference produce identical labels, identical
feature blocks, identical error accounting, and the identical first-raised
exception.  This suite pins all four down, including the edges the
transport has to get right — empty candidate streams, all-abstain suites
(zero-size triple blocks), and hypothesis-fuzzed corpora with adversarial
text (NUL bytes, empty strings).
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import (
    stream_synthetic_candidates,
    stream_text_candidates,
    synthetic_vote_lfs,
    text_vote_lfs,
)
from repro.discriminative.featurizers import RelationFeaturizer
from repro.discriminative.sparse_features import CSRFeatureMatrix
from repro.exceptions import LabelingError
from repro.labeling import LabelingFunction, LFApplier
from repro.types import ABSTAIN, NEGATIVE, POSITIVE

NUM_LFS = 5


def make_candidates(num_points=150, seed=2):
    return list(
        stream_synthetic_candidates(
            num_points=num_points, num_lfs=NUM_LFS, propensity=0.4, seed=seed
        )
    )


def process_applier(lfs, chunk_size, fault_tolerant=False):
    return LFApplier(
        lfs,
        fault_tolerant=fault_tolerant,
        chunk_size=chunk_size,
        backend="processes",
        num_workers=2,
    )


# ------------------------------------------------------------------- labels
@pytest.mark.parametrize("chunk_size", [1, 7, 64, 1000])
def test_processes_labels_match_sequential(chunk_size):
    candidates = make_candidates()
    lfs = synthetic_vote_lfs(NUM_LFS)
    reference = LFApplier(lfs).apply(candidates)
    applier = process_applier(lfs, chunk_size)
    dense = applier.apply(candidates)
    sparse = applier.apply(candidates, sparse=True)
    assert np.array_equal(dense.values, reference.values)
    assert np.array_equal(sparse.to_dense().values, reference.values)
    report = applier.last_report
    assert report.backend == "processes"
    assert len(report.transport_seconds) == report.num_chunks
    assert report.transport.transport_seconds > 0


@pytest.mark.parametrize("cardinality", [2, 3])
def test_processes_agree_across_cardinalities(cardinality):
    candidates = list(
        stream_text_candidates(
            num_points=120, num_lfs=NUM_LFS, cardinality=cardinality, seed=4
        )
    )
    lfs = text_vote_lfs(NUM_LFS, cardinality=cardinality)
    reference = LFApplier(lfs).apply(candidates)
    matrix = process_applier(lfs, 17).apply(candidates, sparse=True)
    assert np.array_equal(matrix.to_dense().values, reference.values)
    assert matrix.cardinality == cardinality


def test_generator_input_matches_sequential():
    lfs = synthetic_vote_lfs(NUM_LFS)
    reference = LFApplier(lfs).apply(make_candidates(seed=9))
    matrix = process_applier(lfs, 16).apply(
        stream_synthetic_candidates(
            num_points=150, num_lfs=NUM_LFS, propensity=0.4, seed=9
        )
    )
    assert np.array_equal(matrix.values, reference.values)


# ------------------------------------------------------------------ features
def test_processes_feature_blocks_match_sequential():
    candidates = list(stream_text_candidates(num_points=110, num_lfs=NUM_LFS, seed=5))
    lfs = text_vote_lfs(NUM_LFS)
    featurizer = RelationFeaturizer(num_features=128).fit()
    ref_applier = LFApplier(lfs, chunk_size=23)
    ref_labels, ref_blocks = ref_applier.apply_with_features(
        iter(candidates), featurizer, sparse=True
    )
    applier = process_applier(lfs, 23)
    labels, blocks = applier.apply_with_features(iter(candidates), featurizer, sparse=True)
    assert np.array_equal(labels.to_dense().values, ref_labels.to_dense().values)
    assert len(blocks) == len(ref_blocks)
    stacked = CSRFeatureMatrix.vstack(blocks)
    ref_stacked = CSRFeatureMatrix.vstack(ref_blocks)
    assert np.array_equal(stacked.indptr, ref_stacked.indptr)
    assert np.array_equal(stacked.indices, ref_stacked.indices)
    assert np.array_equal(stacked.data, ref_stacked.data)


# -------------------------------------------------------------------- errors
class _FailEveryNBody:
    """Picklable LF body raising a distinct exception type per residue."""

    def __init__(self, index: int, divisor: int) -> None:
        self.index = index
        self.divisor = divisor

    def __call__(self, candidate) -> int:
        if candidate.uid % self.divisor == 0:
            if candidate.uid % (2 * self.divisor) == 0:
                raise KeyError(f"key {candidate.uid}")
            raise ValueError(f"value {candidate.uid}")
        return int(candidate.votes[self.index])


def failing_lfs(num_lfs=3):
    return [
        LabelingFunction(f"fail_{j}", _FailEveryNBody(j, divisor=3 + j))
        for j in range(num_lfs)
    ]


def test_processes_error_details_match_sequential():
    candidates = make_candidates(num_points=90)
    lfs = failing_lfs()
    sequential = LFApplier(lfs, fault_tolerant=True)
    expected = sequential.apply(candidates)
    applier = process_applier(lfs, 8, fault_tolerant=True)
    matrix = applier.apply(candidates, sparse=True)
    assert np.array_equal(matrix.to_dense().values, expected.values)
    assert applier.last_report.errors == sequential.last_report.errors
    for name, detail in sequential.last_report.error_details.items():
        pooled = applier.last_report.error_details[name]
        assert pooled.type_counts == detail.type_counts


def test_processes_first_raised_exception_matches_sequential():
    candidates = make_candidates(num_points=60)
    lfs = failing_lfs()
    with pytest.raises(LabelingError) as sequential_err:
        LFApplier(lfs).apply(candidates)
    with pytest.raises(LabelingError) as pooled_err:
        process_applier(lfs, 10).apply(candidates)
    assert type(pooled_err.value) is type(sequential_err.value)
    assert str(pooled_err.value) == str(sequential_err.value)


# --------------------------------------------------------------------- edges
def test_empty_candidate_stream():
    lfs = synthetic_vote_lfs(NUM_LFS)
    applier = process_applier(lfs, 64)
    matrix = applier.apply([])
    assert matrix.shape == (0, NUM_LFS)
    assert applier.last_report.num_chunks == 0
    assert applier.last_report.transport_seconds == []


class _AbstainBody:
    def __call__(self, candidate) -> int:
        return ABSTAIN


def test_all_abstain_suite_moves_empty_blocks():
    """Zero-size triple blocks still round-trip through the worker pipes."""
    candidates = make_candidates(num_points=80)
    lfs = [LabelingFunction(f"abstain_{j}", _AbstainBody()) for j in range(3)]
    matrix = process_applier(lfs, 16).apply(candidates, sparse=True)
    assert matrix.to_dense().values.shape == (80, 3)
    assert not matrix.to_dense().values.any()


# ---------------------------------------------------------------------- fuzz
@dataclass(frozen=True)
class _FuzzCandidate:
    """Picklable text candidate for adversarial-content fuzzing."""

    uid: int
    text: str


class _ByteSumVote:
    """Deterministic pure function of arbitrary unicode text."""

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus

    def __call__(self, candidate: _FuzzCandidate) -> int:
        if not candidate.text:
            return ABSTAIN
        total = sum(candidate.text.encode("utf-8", "surrogatepass"))
        if total % self.modulus == 0:
            return POSITIVE
        if total % self.modulus == 1:
            return NEGATIVE
        return ABSTAIN


_FUZZ_LFS = [LabelingFunction(f"bytesum_{m}", _ByteSumVote(m)) for m in (2, 3, 5)]

_texts = st.lists(
    st.text(
        alphabet=st.characters(
            codec="utf-8", categories=("L", "N", "P", "Zs", "Cc")
        ),
        max_size=40,
    ),
    max_size=60,
)


@settings(max_examples=15, deadline=None)
@given(texts=_texts, chunk_size=st.integers(min_value=1, max_value=32))
def test_fuzzed_corpora_processes_match_sequential(texts, chunk_size):
    candidates = [_FuzzCandidate(uid, text) for uid, text in enumerate(texts)]
    reference = LFApplier(_FUZZ_LFS).apply(candidates).values
    matrix = process_applier(_FUZZ_LFS, chunk_size).apply(candidates, sparse=True)
    assert np.array_equal(matrix.to_dense().values, reference)


def test_nul_bytes_survive_the_worker_pipes():
    candidates = [
        _FuzzCandidate(0, "\x00"),
        _FuzzCandidate(1, "a\x00b"),
        _FuzzCandidate(2, ""),
        _FuzzCandidate(3, "\x00" * 100),
    ]
    reference = LFApplier(_FUZZ_LFS).apply(candidates).values
    matrix = process_applier(_FUZZ_LFS, 2).apply(candidates)
    assert np.array_equal(matrix.values, reference)
