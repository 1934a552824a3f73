"""The layered host-time benchmark; run it with ``python3 -m perfbench.run``."""
