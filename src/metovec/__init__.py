"""metovec: word embeddings with hierarchical softmax and paraphrase
ranking for verbal metonymy ("begin the book" -> "read the book")."""

from .corpus import (CorpusFormatError, NextWordCounts, Sentence, Vocabulary,
                     build_vocabulary, load_corpus, next_word_counts)
from .embeddings import (CBOW, SKIPGRAM, EmbeddingModel, EpochStats,
                         NotInVocabularyError, TrainingConfig, TrainStats,
                         init_model, leaf_probability, load_model,
                         save_model, train)
from .evaluation import (ConfusionMatrix, Fixture, PRPoint,
                         UndefinedMetricError, confusion, load_fixture,
                         phi_coefficient, pr_curve, precision, recall)
from .huffman import HuffmanTree, build_huffman_tree
from .metonymy import (DEFAULT_VERBS, CandidateSentence, VerbObject,
                       VerbObjectIndex, VerbSpec, find_targets,
                       harvest_candidates, index_corpus, load_gold_targets,
                       object_np_after)
from .ranking import (DISCARD_THRESHOLD, VIABLE_THRESHOLD, RankingTable,
                      ScoredCandidate, label_for, rank, write_table)
from .vectorspace import (PhraseVector, analogy, confidence_scores,
                          cosine_scores, cosine_similarity,
                          nearest_neighbours, phrase_vector)

__version__ = "0.1.0"
