"""Learnable-layer kit: the differentiation tape and its ops, conv and norm layers, Adam."""

from . import adam, layers, tape

__all__ = ["adam", "layers", "tape"]
