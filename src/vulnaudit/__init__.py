"""Per-pixel vulnerability distributions from building-height rasters under a
coarse prior, with spatiotemporal change auditing."""

from .grid_store import (CategoryField, GridStack, RasterGrid, StackKind, StackManifest,
                         normalize_prior_counts, read_grid_stack, upsample_nearest,
                         write_grid_stack)
from .graph_build import (GridGraph, SplitAssignment, Tile, build_graph, dominant_categories,
                          epoch_subgraphs, log_normalize, normalize_adjacency, split_tiles,
                          tile_region)
from .model import (ModelParams, TrainConfig, encode, decode,
                    gumbel_softmax_sample, infer_posterior, train)
from .audit import (aitchison_distance, ad_map, change_map, transition_matrix,
                    transition_to_dot)

__version__ = "0.1.0"
