"""The benchmark's four workloads, each a closed loop of one client.

Every workload has the same life cycle, driven by ``perfbench/run.py``:

* ``generate()`` builds the inputs from the seed (the load generator, timed
  apart from everything else);
* ``setup()`` builds what a user builds once — LF suite, knowledge bases,
  featurizer — and warms the program up (worker pool, pushdown plans, lazy
  imports); ``teardown()`` undoes it so set-up can be timed again;
* ``reference()`` computes the correctness oracles once, untimed;
* ``prepare()`` readies one run untimed, ``run()`` is the timed unit of work,
  and ``check()`` compares its outputs with the oracles.

Sizes scale with ``scale`` so the smoke test can run every workload at toy
size; the benchmark always runs at ``scale=1``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.context.corpus import Corpus
from repro.context.extraction import CandidateExtractor, PairedEntityCandidateSpace
from repro.context.preprocessing import (
    DictionaryEntityTagger,
    SimpleSentenceSplitter,
    TextPreprocessor,
)
from repro.datasets import cdr
from repro.datasets.base import TaskDataset
from repro.datasets.kb import KnowledgeBase, build_noisy_kb
from repro.datasets.lf_library import (
    distant_supervision_lfs,
    keyword_pattern_lfs,
    regex_variant_lfs,
    structure_based_lfs,
)
from repro.datasets.synth_text import build_relation_task
from repro.datasets.synthetic import (
    stream_relation_candidates,
    stream_text_candidates,
    stream_text_gold,
    text_vote_lfs,
)
from repro.datasets.vocab import CHEMICALS, DISEASES
from repro.discriminative.featurizers import RelationFeaturizer
from repro.labeling.applier import LFApplier
from repro.labeling.engine import get_global_pool, shutdown_pools
from repro.labelmodel.generative import GenerativeModel
from repro.labelmodel.optimizer import ModelingStrategyOptimizer
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline
from repro.types import NEGATIVE, POSITIVE

#: Test F1 below this on any run means a stage has stopped learning; the
#: tasks score 0.85-0.95 when healthy.
MIN_F1 = 0.6


@dataclass
class Outcome:
    """What one timed run produced."""

    #: Train + test candidates the run processed.
    candidates: int
    #: The training label matrix Λ.
    label_matrix: object
    #: The trained end model, when the workload has one.
    end_model: object = None
    #: Workload-specific outputs the checks compare.
    outputs: dict = field(default_factory=dict)


def same(a, b) -> bool:
    """Bitwise equality of two arrays (shape, dtype and every value)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def dense(matrix) -> np.ndarray:
    """A label matrix's dense integer array, whatever its storage."""
    return np.asarray(matrix.values)


def end_epochs(model) -> int:
    """Epochs an end model trained for."""
    history = getattr(model, "loss_history", None)
    return len(history) if history is not None else int(model.epochs)


class Workload:
    """Base class; see the module docstring for the life cycle."""

    name = ""

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        #: First run's outputs; every later run must reproduce them bitwise.
        self._first: Optional[dict] = None

    def _size(self, full: int, floor: int) -> int:
        return max(floor, int(round(full * self.scale)))

    def sizes(self) -> dict:
        raise NotImplementedError

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` built (the default keeps nothing)."""

    def reference(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed per-run preparation (the default needs none)."""

    def run(self) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def reported(self) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end metrics, ``name -> (value, unit)``."""
        return {}

    def _repeatable(self, outputs: dict) -> list[str]:
        """Problems if ``outputs`` differ from the first run's."""
        if self._first is None:
            self._first = outputs
            return []
        return [
            f"{key} differs from the first run"
            for key, value in outputs.items()
            if not same(value, self._first[key])
        ]


def _f1_problems(result) -> list[str]:
    problems = []
    for label, value in (
        ("label_f1", result.generative_f1),
        ("end_f1", result.discriminative_f1),
    ):
        if not value >= MIN_F1:
            problems.append(f"{label} {value:.3f} below {MIN_F1}")
    return problems


class _StreamWorkload(Workload):
    """Shared parts of the two ``run_streams`` workloads over synthetic text."""

    cardinality = 2
    num_lfs = 20
    full_train = 0
    full_test = 0

    def sizes(self) -> dict:
        return {
            "train_candidates": self._size(self.full_train, 200),
            "test_candidates": self._size(self.full_test, 60),
            "num_lfs": self.num_lfs,
            "cardinality": self.cardinality,
        }

    def generate(self) -> None:
        sizes = self.sizes()
        common = dict(num_lfs=self.num_lfs, cardinality=self.cardinality)
        self.train = list(
            stream_text_candidates(sizes["train_candidates"], seed=2 * self.seed, **common)
        )
        self.test = list(
            stream_text_candidates(sizes["test_candidates"], seed=2 * self.seed + 1, **common)
        )
        self.test_gold = stream_text_gold(
            sizes["test_candidates"], cardinality=self.cardinality, seed=2 * self.seed + 1
        )

    def config(self) -> PipelineConfig:
        raise NotImplementedError

    def setup(self) -> None:
        config = self.config()
        self.lfs = text_vote_lfs(self.num_lfs, cardinality=self.cardinality)
        featurizer = RelationFeaturizer(num_features=config.num_features).fit()
        self.pipeline = SnorkelPipeline(lfs=self.lfs, config=config, featurizer=featurizer)
        warm = self.warmup_pipeline()
        warm.run_streams(iter(self.train[:256]), iter(self.test[:64]), self.test_gold[:64])

    def warmup_pipeline(self) -> SnorkelPipeline:
        return self.pipeline

    def run(self) -> Outcome:
        result = self.pipeline.run_streams(iter(self.train), iter(self.test), self.test_gold)
        return Outcome(
            candidates=len(self.train) + len(self.test),
            label_matrix=result.label_matrix,
            end_model=result.discriminative_model,
            outputs={"result": result},
        )

    def reported(self) -> dict[str, tuple[float, str]]:
        return {
            "end_f1": (self._last.discriminative_f1, "f1"),
            "label_f1": (self._last.generative_f1, "f1"),
        }


class TextStream(_StreamWorkload):
    """Binary synthetic text through ``run_streams`` on the sequential backend."""

    name = "text_stream"
    full_train = 2400
    full_test = 600

    def config(self) -> PipelineConfig:
        return PipelineConfig(streaming=True, use_optimizer=False, applier_backend="sequential")

    def reference(self) -> None:
        # Plain interpreted apply, independent of the fused apply+featurize path.
        self.ref_matrix = dense(LFApplier(self.lfs).apply(self.train))

    def check(self, outcome: Outcome) -> list[str]:
        result = outcome.outputs["result"]
        self._last = result
        problems = []
        if not same(dense(result.label_matrix), self.ref_matrix):
            problems.append("Λ differs from the interpreted apply")
        problems += self._repeatable(
            {
                "training_probs": result.training_probs,
                "end_weights": result.discriminative_model.weights,
            }
        )
        return problems + _f1_problems(result)


class DurableK3(_StreamWorkload):
    """3-class synthetic text on the processes backend with a durable store.

    Each run writes into an empty block store; ``check`` then resumes from the
    complete store several times and requires bitwise-identical outputs.
    """

    name = "durable_k3"
    cardinality = 3
    full_train = 2400
    full_test = 600
    resumes = 3

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        super().__init__(seed, workdir, scale)
        self.store_dir = os.path.join(workdir, "store")
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.resume_seconds: list[float] = []
        self.store_bytes: list[int] = []

    def sizes(self) -> dict:
        return {**super().sizes(), "workers": self.workers}

    def config(self, store_dir: Optional[str] = None) -> PipelineConfig:
        return PipelineConfig(
            streaming=True,
            use_optimizer=False,
            sparse_labels=True,
            online=True,
            applier_backend="processes",
            applier_workers=self.workers,
            checkpoint_dir=store_dir or self.store_dir,
            checkpoint_retention="latest_epoch",
        )

    def setup(self) -> None:
        # Every set-up pays for its own worker pool.
        shutdown_pools()
        self._clear(os.path.join(self.workdir, "warmup"))
        super().setup()
        self.pool = get_global_pool(self.workers)

    def warmup_pipeline(self) -> SnorkelPipeline:
        return SnorkelPipeline(
            lfs=self.lfs,
            config=self.config(os.path.join(self.workdir, "warmup")),
            featurizer=self.pipeline.featurizer,
        )

    def teardown(self) -> None:
        shutdown_pools()

    @staticmethod
    def _clear(path: str) -> None:
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)

    def reference(self) -> None:
        config = self.pipeline.config
        matrix = LFApplier(self.lfs, backend="sequential").apply(self.train, sparse=True)
        self.ref_matrix = dense(matrix)
        batch = GenerativeModel(
            epochs=config.generative_epochs,
            step_size=config.generative_step_size,
            cardinality=self.cardinality,
            gibbs_kernel=config.gibbs_kernel,
            seed=config.seed,
        ).fit(matrix)
        self.ref_weights = batch.weights
        self.ref_probs = batch.predict_proba(matrix)

    def prepare(self) -> None:
        self._clear(self.store_dir)
        self._spawned = self.pool.total_spawned

    def check(self, outcome: Outcome) -> list[str]:
        result = outcome.outputs["result"]
        self._last = result
        problems = []
        if self.pool.total_spawned != self._spawned:
            problems.append("worker pool respawned during the run")
        if not same(dense(result.label_matrix), self.ref_matrix):
            problems.append("Λ differs from the sequential apply")
        if not same(result.generative_model.weights, self.ref_weights):
            problems.append("drained online weights differ from the batch sparse fit")
        if not same(result.training_probs, self.ref_probs):
            problems.append("drained online posteriors differ from the batch sparse fit")
        problems += _f1_problems(result)
        self.store_bytes.append(
            sum(
                os.path.getsize(os.path.join(root, name))
                for root, _, names in os.walk(self.store_dir)
                for name in names
            )
        )
        for _ in range(self.resumes):
            start = time.perf_counter()
            resumed = self.pipeline.run_streams(
                iter(self.train), iter(self.test), self.test_gold
            )
            self.resume_seconds.append(time.perf_counter() - start)
            for key, ours, theirs in (
                ("Λ", dense(resumed.label_matrix), dense(result.label_matrix)),
                ("probs", resumed.training_probs, result.training_probs),
                ("label-model weights", resumed.generative_model.weights,
                 result.generative_model.weights),
                ("end-model weights", resumed.discriminative_model.weights,
                 result.discriminative_model.weights),
            ):
                if not same(ours, theirs):
                    problems.append(f"resumed {key} differs from the write run")
        return problems

    def reported(self) -> dict[str, tuple[float, str]]:
        return {
            **super().reported(),
            "resume_s": (statistics.median(self.resume_seconds), "s"),
            "store_mb": (statistics.median(self.store_bytes) / 1e6, "MB"),
        }


#: Entity pairs :func:`stream_relation_candidates` draws its arguments from;
#: the distant-supervision KB asserts the first of each kind.
RELATION_KB = {
    "known_causes": [("aspirin", "headache"), ("ibuprofen", "fever")],
    "known_treats": [("water", "headache"), ("caffeine", "insomnia")],
}


def relation_suite() -> list:
    """A compilable 20-LF ``lf_library`` suite over the relation candidates."""
    kb = KnowledgeBase(name="relation_kb", subsets=RELATION_KB)
    return (
        keyword_pattern_lfs(
            ["causes", "caused", "causing"],
            ["treats", "treated", "treating", "prevents", "given", "received"],
        )
        + regex_variant_lfs(
            [("caus", POSITIVE), ("treat", NEGATIVE), ("prevent", NEGATIVE), ("receiv", NEGATIVE)]
        )
        + distant_supervision_lfs(kb, "known_causes", "known_treats")
        + structure_based_lfs()
    )


class RelationLFDev(Workload):
    """The LF-development loop: compiled apply, strategy choice, label model."""

    name = "relation_lfdev"
    full_candidates = 10000

    def sizes(self) -> dict:
        return {"candidates": self._size(self.full_candidates, 500), "num_lfs": 20}

    def generate(self) -> None:
        self.candidates = list(
            stream_relation_candidates(self.sizes()["candidates"], seed=self.seed)
        )

    def setup(self) -> None:
        self.lfs = relation_suite()
        self._label(self.candidates[:512])

    def _label(self, candidates) -> tuple:
        applier = LFApplier(self.lfs, pushdown="auto")
        matrix = applier.apply(candidates, sparse=True)
        strategy = ModelingStrategyOptimizer().choose(matrix)
        model = GenerativeModel(epochs=20, step_size=0.05, seed=0)
        model.fit(matrix, correlations=strategy.correlations)
        return applier, matrix, strategy, model, model.predict_proba(matrix)

    def reference(self) -> None:
        self.ref_matrix = dense(LFApplier(self.lfs, pushdown="off").apply(self.candidates))

    def run(self) -> Outcome:
        applier, matrix, strategy, model, probs = self._label(self.candidates)
        return Outcome(
            candidates=len(self.candidates),
            label_matrix=matrix,
            outputs={"report": applier.last_report, "strategy": strategy, "probs": probs,
                     "weights": model.weights},
        )

    def check(self, outcome: Outcome) -> list[str]:
        problems = []
        if outcome.outputs["report"].num_errors:
            problems.append("LF errors were suppressed")
        if not same(dense(outcome.label_matrix), self.ref_matrix):
            problems.append("compiled Λ differs from interpreted pushdown='off'")
        strategy = outcome.outputs["strategy"]
        return problems + self._repeatable(
            {
                "probs": outcome.outputs["probs"],
                "weights": outcome.outputs["weights"],
                "correlations": np.asarray(strategy.correlations, dtype=np.int64).reshape(-1, 2),
            }
        )


class CdrCorpus(Workload):
    """Raw CDR documents through ingest, extraction, materialization and the pipeline.

    Every seed ingests the same volume: exactly ``documents`` documents
    holding ``sentences`` sentences (give or take ``PACE_SLACK``), every
    ``TEST_EVERY``-th of them in the test split and the rest in train.  They
    are drawn in order from the generated corpus, skipping any document that
    would pull the running sentence count off its even pace: the ingest and
    extraction cost grows with both counts, so letting either vary from seed
    to seed would move ``candidates_per_s`` with the seed.
    """

    name = "cdr_corpus"
    full_sentences = 330
    #: CDR documents hold 3-8 sentences, 5.5 on average.
    SENTENCES_PER_DOCUMENT = 5.5
    #: How far the running sentence count may stray from its even pace.
    PACE_SLACK = 2.5
    TEST_EVERY = 5

    def sizes(self) -> dict:
        sentences = self._size(self.full_sentences, 110)
        return {
            "sentences": sentences,
            "documents": int(round(sentences / self.SENTENCES_PER_DOCUMENT)),
            "num_lfs": 32,
        }

    def _select(self, corpus) -> Optional[list[tuple[str, str, str]]]:
        """The documents of the benchmark corpus, or ``None`` if ``corpus`` runs short."""
        sizes = self.sizes()
        count = sizes["documents"]
        pace = sizes["sentences"] / count
        splitter = SimpleSentenceSplitter()
        selected, total = [], 0
        for doc in corpus.documents():
            sentences = len(splitter.split(doc.text))
            slot = len(selected) + 1
            if abs(total + sentences - pace * slot) > self.PACE_SLACK:
                continue
            split = "test" if slot % self.TEST_EVERY == 0 else "train"
            selected.append((doc.name, doc.text, split))
            total += sentences
            if slot == count:
                return selected
        return None

    def generate(self) -> None:
        # Most drawn documents fit the pace; draw more until the corpus is
        # complete.
        draws = 1.5 * self.sizes()["documents"]
        while True:
            data = build_relation_task(cdr.build_spec(scale=draws / 900), seed=self.seed)
            self.documents = self._select(data.corpus)
            if self.documents is not None:
                break
            draws *= 1.25
        self.true_pairs = set(data.true_pairs)
        self.all_pairs = list(data.all_pairs)

    def setup(self) -> None:
        kbs = [
            build_noisy_kb(
                name="ctd", true_pairs=self.true_pairs, all_pairs=self.all_pairs,
                positive_subset="causes", negative_subset="treats", coverage=0.5,
                precision=0.85, negative_coverage=0.25, negative_precision=0.85,
                seed=self.seed + 1,
            ),
            build_noisy_kb(
                name="drugbank", true_pairs=self.true_pairs, all_pairs=self.all_pairs,
                positive_subset="adverse_effects", negative_subset="indications",
                coverage=0.3, precision=0.7, negative_coverage=0.15,
                negative_precision=0.7, seed=self.seed + 2,
            ),
        ]
        self.lfs = (
            keyword_pattern_lfs(cdr.POSITIVE_CUES, cdr.NEGATIVE_CUES)
            + regex_variant_lfs(cdr.CORRELATED_STEMS)
            + distant_supervision_lfs(kbs[0], "causes", "treats")
            + distant_supervision_lfs(kbs[1], "adverse_effects", "indications")
            + structure_based_lfs()
        )
        true_pairs = self.true_pairs

        def gold(candidate):
            pair = (candidate.span1.canonical_id, candidate.span2.canonical_id)
            if None in pair:
                return None
            return POSITIVE if pair in true_pairs else NEGATIVE

        self.preprocessor = TextPreprocessor(
            entity_tagger=DictionaryEntityTagger(
                {"chemical": dict(CHEMICALS), "disease": dict(DISEASES)}
            )
        )
        self.extractor = CandidateExtractor(
            PairedEntityCandidateSpace(
                relation_type="causes", type1="chemical", type2="disease"
            ),
            gold_labeler=gold,
        )
        self.pipeline = SnorkelPipeline(
            lfs=self.lfs, config=PipelineConfig(lf_pushdown="auto", use_optimizer=True)
        )
        # Warm up on a quarter of each split's documents.
        warm = []
        for split in ("train", "test"):
            docs = [doc for doc in self.documents if doc[2] == split]
            warm += docs[: max(2, len(docs) // 4)]
        self.pipeline.run(self._task(warm))

    def _task(self, documents) -> TaskDataset:
        corpus = Corpus(name="cdr", preprocessor=self.preprocessor)
        for name, text, split in documents:
            corpus.add_document(name=name, text=text, split=split)
        self.extractor.extract(corpus)
        candidates = {split: corpus.candidates(split) for split in ("train", "test")}
        return TaskDataset(
            name="cdr",
            candidates=candidates,
            gold={
                split: np.array([c.gold_label for c in cands], dtype=np.int64)
                for split, cands in candidates.items()
            },
            lfs=self.lfs,
        )

    def reference(self) -> None:
        task = self._task(self.documents)
        self.ref_gold = {split: task.split_gold(split) for split in ("train", "test")}
        self.ref_matrix = dense(
            LFApplier(self.lfs, pushdown="off").apply(task.split_candidates("train"))
        )

    def run(self) -> Outcome:
        task = self._task(self.documents)
        result = self.pipeline.run(task)
        return Outcome(
            candidates=len(task.split_candidates("train")) + len(task.split_candidates("test")),
            label_matrix=result.label_matrix,
            end_model=result.discriminative_model,
            outputs={"result": result, "task": task},
        )

    def check(self, outcome: Outcome) -> list[str]:
        result, task = outcome.outputs["result"], outcome.outputs["task"]
        self._last = result
        problems = [
            f"extracted {split} candidates differ from the reference extraction"
            for split in ("train", "test")
            if not same(task.split_gold(split), self.ref_gold[split])
        ]
        if not same(dense(result.label_matrix), self.ref_matrix):
            problems.append("compiled Λ differs from interpreted pushdown='off'")
        problems += self._repeatable(
            {
                "training_probs": result.training_probs,
                "end_weights": result.discriminative_model.weights,
            }
        )
        # No F1 floor: the test split holds ~50 candidates, ~15 of them
        # positive, so F1 swings from seed to seed.
        return problems

    def reported(self) -> dict[str, tuple[float, str]]:
        return {
            "end_f1": (self._last.discriminative_f1, "f1"),
            "label_f1": (self._last.generative_f1, "f1"),
        }


WORKLOADS = {
    workload.name: workload for workload in (TextStream, RelationLFDev, DurableK3, CdrCorpus)
}
