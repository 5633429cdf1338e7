"""Adversarially robust pruning with learned per-layer rates and connection scores."""

from .adversary import AttackConfig, RobustLossConfig, evaluate, pgd, robust_loss
from .config import RunConfig, config_from_dict, parse_config_file
from .data import Dataset, ingest, synthetic_blobs
from .network import Network, LayerSpec, build_network, count_preserved, flops
from .optim import SgdState, sgd_step
from .pipeline import run_all, stage_finetune, stage_pretrain, stage_prune
from .pruning import (
    CompressionConfig,
    build_masks,
    g_activation,
    g_derivative,
    hw_loss,
    init_rate,
    init_scores,
    prune_epoch,
    top_fraction_mask,
)
from .strategies import (
    apply_strategy,
    erk_strategy,
    lamp_strategy,
    uniform_strategy,
)
from .tensor import Tensor, backward, no_grad, scoped_tape

__version__ = "0.1.0"
