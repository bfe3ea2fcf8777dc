"""Hardware substrate: hosts, CPUs, memory, chipsets, PCI-X and NICs.

Models the machines of the paper's testbed — Dell PowerEdge 2650/4600,
the Intel E7505 evaluation systems, the quad Itanium-II box — and the
Intel PRO/10GbE LR adapter (82597EX controller) they host.
"""
