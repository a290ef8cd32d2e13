"""A NumPy neural-network substrate.

Replaces the PyTorch dependency of the original demo with a small, fully
deterministic MLP stack: dense layers, ReLU/softmax activations, cross-entropy
loss, the Adam optimizer, a minibatch trainer and model
(de)serialization.  The paper's model -- a three-layer MLP (784, 100, 10)
trained with batch size 64, learning rate 0.001 and 10 local epochs -- is
expressed directly with these pieces.  It trains, aggregates and evaluates in
float32, the precision of its serialized payload (~317 KB, matching the model
size reported in the paper's overhead analysis).
"""

from repro.ml.activations import relu, relu_grad, softmax
from repro.ml.dataloader import batch_iterator
from repro.ml.layers import DenseLayer
from repro.ml.losses import cross_entropy_loss, cross_entropy_with_softmax
from repro.ml.metrics import accuracy
from repro.ml.mlp import MLP
from repro.ml.optimizers import Adam, Optimizer
from repro.ml.serialization import model_payload_size, serialize_model
from repro.ml.trainer import EvalResult, Trainer, TrainingConfig, TrainingHistory

__all__ = [
    "relu",
    "relu_grad",
    "softmax",
    "batch_iterator",
    "DenseLayer",
    "cross_entropy_loss",
    "cross_entropy_with_softmax",
    "accuracy",
    "MLP",
    "Adam",
    "Optimizer",
    "model_payload_size",
    "serialize_model",
    "EvalResult",
    "Trainer",
    "TrainingConfig",
    "TrainingHistory",
]
