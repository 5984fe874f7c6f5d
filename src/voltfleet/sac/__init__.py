from .agent import Adam, SacAgent, SacConfig
from .nets import DenseNet, GaussianPolicy, QNetwork
from .replay import ReplayBuffer
from .tensor import Tensor, concat, minimum
from .train import TrainResult, episode_return, train

__all__ = [
    "Adam",
    "SacAgent",
    "SacConfig",
    "DenseNet",
    "GaussianPolicy",
    "QNetwork",
    "ReplayBuffer",
    "Tensor",
    "concat",
    "minimum",
    "TrainResult",
    "train",
    "episode_return",
]
