"""Over-parameterized deep ReLU network training and verification toolkit."""

__version__ = "0.1.0"
