"""metovec: word embeddings with hierarchical softmax and paraphrase
ranking for verbal metonymy ("begin the book" -> "read the book")."""

from .corpus import (Corpus, CorpusFormatError, NextWordCounts, Sentence,
                     Token, Vocabulary, build_vocabulary, load_corpus,
                     next_word_counts)
from .embeddings import (CBOW, SKIPGRAM, EmbeddingModel,
                         NotInVocabularyError, TrainingConfig, TrainStats,
                         init_model, leaf_probability, load_model,
                         save_model, train)
from .evaluation import (ConfusionMatrix, Fixture, PRPoint,
                         UndefinedMetricError, confusion, load_fixture,
                         phi_coefficient, pr_curve, precision, recall)
from .huffman import HuffmanTree, build_huffman_tree
from .metonymy import (DEFAULT_VERBS, CandidateSentence, MetonymyTarget,
                       VerbObject, VerbObjectIndex, VerbSpec, find_targets,
                       harvest_candidates, index_corpus, load_gold_targets,
                       object_np_after, validate_direct_object)
from .ranking import (DISCARD_THRESHOLD, VIABLE_THRESHOLD, RankingTable,
                      ScoredCandidate, label_for, rank, score_candidate,
                      write_table)
from .vectorspace import (PhraseVector, analogy, confidence,
                          cosine_similarity, nearest_neighbours,
                          phrase_vector)

__version__ = "0.1.0"

__all__ = [
    "Corpus", "CorpusFormatError", "NextWordCounts", "Sentence", "Token",
    "Vocabulary", "build_vocabulary", "load_corpus", "next_word_counts",
    "CBOW", "SKIPGRAM", "EmbeddingModel", "NotInVocabularyError",
    "TrainingConfig", "TrainStats", "init_model", "leaf_probability",
    "load_model", "save_model", "train",
    "HuffmanTree", "build_huffman_tree",
    "ConfusionMatrix", "Fixture", "PRPoint", "UndefinedMetricError",
    "confusion", "load_fixture", "phi_coefficient", "pr_curve",
    "precision", "recall",
    "DEFAULT_VERBS", "CandidateSentence", "MetonymyTarget", "VerbObject",
    "VerbObjectIndex", "VerbSpec", "find_targets", "harvest_candidates",
    "index_corpus", "load_gold_targets",
    "object_np_after", "validate_direct_object",
    "DISCARD_THRESHOLD", "VIABLE_THRESHOLD", "RankingTable",
    "ScoredCandidate", "label_for", "rank", "score_candidate", "write_table",
    "PhraseVector", "analogy", "confidence", "cosine_similarity",
    "nearest_neighbours", "phrase_vector",
]
