"""Protocol driver registry used by the world at run start. Every driver
implements the interface that the network module's docstring states: boot,
on_frame (control frames only), send_data, forward and on_link_failure."""

from importlib import import_module

# protocol -> "module.DriverClass". The module is imported on first use, so
# importing the package (config reads PROTOCOLS) does not load every driver.
_DRIVERS = {
    "olsr": "olsr.OlsrNode",
    "aodv": "aodv.AodvNode",
    "dsr": "dsr.DsrNode",
    "cml": "cml.CmlNode",
}
PROTOCOLS = tuple(_DRIVERS)


def make_driver(protocol, world, node):
    try:
        module, cls = _DRIVERS[protocol].split(".")
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}") from None
    return getattr(import_module(f".{module}", __package__), cls)(world, node)
