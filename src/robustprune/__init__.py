"""Adversarially robust pruning with learned per-layer rates and connection scores.

Importing the package loads every module but ``cli``; callers import the submodule
that defines a name, e.g. ``from robustprune.config import RunConfig``.
"""

from . import (adversary, checkpoint, config, data, network, optim, pipeline, pruning,
               strategies, tensor)
