"""Unit tests for the context hierarchy, preprocessing, and candidate extraction."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro.context import (
    CandidateExtractor,
    Corpus,
    DictionaryEntityTagger,
    PairedEntityCandidateSpace,
    SimpleSentenceSplitter,
    SimpleTokenizer,
    TextPreprocessor,
)
from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.datasets import cdr
from repro.datasets.kb import build_noisy_kb
from repro.datasets.lf_library import (
    distant_supervision_lfs,
    keyword_pattern_lfs,
    regex_variant_lfs,
    structure_based_lfs,
)
from repro.datasets.synth_text import build_relation_task
from repro.db.storage import Database, _TableStore
from repro.exceptions import ContextError
from repro.labeling import LFApplier


def make_corpus():
    tagger = DictionaryEntityTagger(
        {
            "chemical": {"magnesium": "chem:1"},
            "disease": {"preeclampsia": "dis:1", "renal failure": "dis:2"},
        }
    )
    return Corpus("test", preprocessor=TextPreprocessor(entity_tagger=tagger))


def test_tokenizer_offsets_roundtrip():
    words, offsets = SimpleTokenizer().tokenize("Magnesium causes harm.")
    assert words[0] == "Magnesium"
    start, end = offsets[0]
    assert "Magnesium causes harm."[start:end] == "Magnesium"


def test_sentence_splitter():
    parts = SimpleSentenceSplitter().split("One sentence. Two sentence! Three?")
    assert len(parts) == 3


def test_dictionary_tagger_multiword_and_case():
    tagger = DictionaryEntityTagger({"disease": {"Renal Failure": "dis:2"}})
    tags = tagger.tag(["acute", "renal", "failure", "observed"])
    assert len(tags) == 1
    assert (tags[0].word_start, tags[0].word_end) == (1, 3)


def test_corpus_ingest_and_candidate_extraction():
    corpus = make_corpus()
    corpus.add_document("d1", "Magnesium causes preeclampsia in rare cases.", split="train")
    extractor = CandidateExtractor(
        PairedEntityCandidateSpace("causes", "chemical", "disease"),
        gold_labeler=lambda c: 1,
    )
    created = extractor.extract(corpus)
    assert created == 1
    candidates = corpus.candidates("train")
    assert len(candidates) == 1
    candidate = candidates[0]
    assert candidate.span1.entity_type == "chemical"
    assert candidate.span2.entity_type == "disease"
    assert candidate.gold_label == 1
    assert "causes" in candidate.words_between()


def test_same_type_pairs_unordered():
    space = PairedEntityCandidateSpace("spouse", "person", "person")
    corpus = Corpus(
        "p",
        preprocessor=TextPreprocessor(
            entity_tagger=DictionaryEntityTagger(
                {"person": {"ada": "p1", "bob": "p2", "cam": "p3"}}
            )
        ),
    )
    corpus.add_document("d", "Ada married Bob while Cam watched.", split="train")
    created = CandidateExtractor(space).extract(corpus)
    assert created == 3  # three unordered pairs of three persons


def test_candidate_window_and_distance_helpers():
    candidate = Candidate(
        uid=1,
        span1=SpanView("a", 1, 2),
        span2=SpanView("b", 5, 6),
        sentence=SentenceView(words=["w0", "a", "x", "y", "z", "b", "w6"], text=""),
    )
    assert candidate.token_distance() == 3
    assert candidate.words_between() == ["x", "y", "z"]
    assert candidate.window_left(1) == ["w0"]
    assert candidate.window_right(1) == ["w6"]
    assert candidate.span1_precedes_span2()


def test_candidate_validate_rejects_bad_spans():
    candidate = Candidate(
        uid=1,
        span1=SpanView("a", 0, 9),
        span2=SpanView("b", 1, 2),
        sentence=SentenceView(words=["a", "b"], text=""),
    )
    with pytest.raises(ContextError):
        candidate.validate()


def test_max_token_distance_filter():
    space = PairedEntityCandidateSpace("r", "chemical", "disease", max_token_distance=1)
    corpus = make_corpus()
    corpus.add_document(
        "d", "Magnesium was given long before preeclampsia developed.", split="train"
    )
    assert CandidateExtractor(space).extract(corpus) == 0


# ------------------------------------------------ hierarchy walks use the indexes
def test_hierarchy_walks_never_scan_child_tables():
    scanned = Counter()
    scan = Database.scan

    def counted_scan(database, table_name):
        scanned[table_name] += 1
        return scan(database, table_name)

    with mock.patch.object(Database, "scan", counted_scan):
        corpus = make_corpus()
        corpus.add_document("d1", "Magnesium causes preeclampsia. Magnesium treats renal failure.")
        corpus.add_document("d2", "Renal failure after magnesium was rare.", split="test")
        extractor = CandidateExtractor(
            PairedEntityCandidateSpace("causes", "chemical", "disease"),
            gold_labeler=lambda c: 1,
        )
        assert extractor.extract(corpus) == 3
        assert len(corpus.candidates("train")) + len(corpus.candidates("test")) == 3
        assert len(corpus.candidates()) == 3
    assert scanned, "the corpus should still scan its documents and candidates"
    assert not scanned.keys() & {"sentences", "spans", "entity_mentions"}, scanned


def _cdr_outputs(seed):
    data = build_relation_task(cdr.build_spec(scale=0.05), seed=seed)
    kb = build_noisy_kb(
        "ctd", data.true_pairs, data.all_pairs, positive_subset="causes",
        negative_subset="treats", coverage=0.5, precision=0.85, seed=seed + 1,
    )
    lfs = (
        keyword_pattern_lfs(cdr.POSITIVE_CUES, cdr.NEGATIVE_CUES)
        + regex_variant_lfs(cdr.CORRELATED_STEMS)
        + distant_supervision_lfs(kb, "causes", "treats")
        + structure_based_lfs()
    )
    outputs = {}
    for split, candidates in data.candidates.items():
        outputs[split] = [
            (c.uid, c.span1, c.span2, c.sentence.words, c.split, c.gold_label)
            for c in candidates
        ]
        outputs[f"L_{split}"] = np.asarray(
            LFApplier(lfs, pushdown="off").apply(candidates).values
        )
    return outputs


@pytest.mark.parametrize("seed", [0, 5])
def test_cdr_corpus_identical_with_index_probe_off(seed):
    probed = _cdr_outputs(seed)
    with mock.patch.object(_TableStore, "probe", return_value=None):
        scanned = _cdr_outputs(seed)
    assert len(probed["train"]) > 20
    for key, value in probed.items():
        if key.startswith("L_"):
            assert value.dtype == scanned[key].dtype
            np.testing.assert_array_equal(value, scanned[key])
        else:
            assert value == scanned[key]
