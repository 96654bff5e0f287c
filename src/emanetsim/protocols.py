"""Protocol driver registry used by the world at run start."""

from .aodv import AodvNode
from .cml import CmlNode
from .dsr import DsrNode
from .olsr import OlsrNode

_DRIVERS = {
    "olsr": OlsrNode,
    "aodv": AodvNode,
    "dsr": DsrNode,
    "cml": CmlNode,
}


def make_driver(protocol, world, node):
    try:
        cls = _DRIVERS[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}") from None
    return cls(world, node)
