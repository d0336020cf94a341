"""The NICE SDN controller (the paper's Ryu app, §5 "Mapping Service"):
a :class:`Directory` of who is where, a pure :class:`Planner` of what each
switch should hold, and the :class:`NiceControllerApp` that learns, caches
plans, installs and repairs."""

from .app import NiceControllerApp
from .directory import Directory, HostRecord, SwitchInfo
from .planner import Plan, Planner, client_divisions

__all__ = [
    "Directory", "HostRecord", "NiceControllerApp", "Plan", "Planner", "SwitchInfo",
    "client_divisions",
]
