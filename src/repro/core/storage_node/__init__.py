"""The NICE storage node (§4.3–§4.4 and Fig 3): a shell plus four
state-owning components — see :mod:`.shell`."""

from .shell import NiceStorageNode

__all__ = ["NiceStorageNode"]
