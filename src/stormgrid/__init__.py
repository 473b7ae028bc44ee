"""stormgrid: coupled power/road network hurricane restoration simulator."""

__version__ = "0.1.0"
