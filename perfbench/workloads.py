"""The benchmark's workloads: which preset, which generated inputs, which job.

Sizes are chosen so that one round of each workload takes roughly 5-15 s on
a 2-core Xeon with single-threaded OpenBLAS, and so that every round makes at
least 100 windowed predictions (the minimum for a 90th percentile).
"""

WINDOW = 3
INIT_SEED = 0      # model initialisation, and the segmentation checkpoint
TRAIN_SEED = 0     # TrainConfig.seed (epoch shuffling)
EPOCHS = 3
VAL_WINDOWS = 12   # held-out windows scored by train() after every epoch

# A grey moving-digit dataset: 3 training sequences of 6 frames (12 windows)
# and 20 held-out sequences of 12 frames (200 windows). A short training
# phase keeps rounds short, so a run holds several rounds and its inference
# timings are sampled at several points in time rather than in one burst.
_GREY_SPLITS = {"train": (3, 6), "test": (20, 12)}

WORKLOADS = {
    # Not in BENCHMARK.json: rfc-lenet inference streams six 784x784 GRU
    # matrices from memory per step, and on a shared 2-vCPU host its timings
    # spread up to 0.33 IQR/median from run to run, beyond any allowed bound.
    # Run it by name for the dense-GRU and Adadelta per-layer split.
    "train-rfc-lenet": {
        "job": "train",
        "preset": "rfc-lenet",
        "data": dict(_GREY_SPLITS, kind="grey", canvas=(28, 28), scale=3,
                     max_speed=2.0, noise=0.1),
    },
    "train-rfc-12s": {
        "job": "train",
        "preset": "rfc-12s",
        # 5x7 glyphs scaled x12 (84x60 px): strokes 12 px wide, one cell of
        # the 12-strided coarse map, so the target is visible to the trunk.
        "data": dict(_GREY_SPLITS, kind="grey", canvas=(120, 180), scale=12,
                     max_speed=6.0, noise=0.1),
    },
    "segment-rfcn-8s": {
        "job": "segment",
        "preset": "rfcn-8s-sketch",
        # 6 sequences of 20 frames: 108 windowed and 120 streamed frames.
        "data": {"kind": "colour", "train": (0, 0), "test": (6, 20),
                 "canvas": (96, 96), "scale": 4, "max_speed": 3.0, "objects": 3},
    },
}
