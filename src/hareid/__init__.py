"""Coarse-to-fine hierarchical attention re-identification engine.

A self-contained numerical implementation: a reverse-mode autodiff core, a
small conv backbone or descriptor ingestion, a shared-weight two-step GRU
hierarchy with an attention module over deep descriptors, RMSprop training,
and an mAP/CMC retrieval-evaluation harness with image-to-track and
repeated-gallery-sampling protocols.
"""

from . import (attention, autodiff, backbone, checkpoint, data, errors, formats, gru, model,
               optim, retrieval)

__version__ = "0.1.0"
