"""Network fabric: Ethernet links, switches, WAN circuits and generated
cluster/grid fabrics (fat-tree, torus) with the hybrid fluid+DES mode."""
