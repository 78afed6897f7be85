"""Coarse-to-fine hierarchical attention re-identification engine.

A self-contained numerical implementation: a reverse-mode autodiff core, a
small conv backbone or descriptor ingestion, a shared-weight two-step GRU
hierarchy with an attention module over deep descriptors, RMSprop training,
and an mAP/CMC retrieval-evaluation harness with image-to-track and
repeated-gallery-sampling protocols.
"""

from .attention import (AttentionWeights, attend, attention_embedding, attention_pipeline,
                        attention_scores, guidance_signal, normalize_scores)
from .autodiff import (Graph, Tensor, backward, constant, conv2d, global_average_pool,
                       grad_check, grad_check_groups, matmul, max_pool2, parameter, relu,
                       reshape, scale_rows, sigmoid, softmax_cross_entropy, softplus, stack,
                       tanh, transpose, tsum, zeros)
from .backbone import (ActivationMap, ConvStackConfig, ConvStackParams, conv_forward,
                       from_descriptors, to_descriptors)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (DatasetSplit, LabeledSample, SynthConfig, SynthDataset, load_manifest,
                   sample_input, synth_generate, training_items, write_manifest, write_synth)
from .errors import (ConfigError, FormatError, HareidError, NumericError, ShapeError,
                     ValidationError)
from .gru import (ClassifierHead, GruParams, GruState, LossReport, Mlp, classify, gru_step,
                  hierarchical_loss)
from .model import (VARIANTS, FeatureVector, ForwardResult, Model, ModelConfig,
                    normalize_feature)
from .optim import RmspropState, TrainSchedule, lr_schedule, rmsprop_step, rng_for, train
from .retrieval import (EvaluationReport, RetrievalIndex, average_precision, cmc_at_k,
                        cosine_similarity, image_retrieval_metrics, rank_items,
                        vehicleid_protocol, veri_protocol)

__version__ = "0.1.0"
