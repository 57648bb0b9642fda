// Umbrella header for the APF library.
//
// Include this to get the full public API: the APF manager family, its
// building blocks, the FL runtime, the neural-network substrate, datasets,
// optimizers and the competing synchronization strategies.
#pragma once

#include "compress/cmfl.h"
#include "compress/codecs.h"
#include "compress/gaia.h"
#include "compress/quantized_sync.h"
#include "compress/randk.h"
#include "compress/topk.h"
#include "compress/wrappers.h"
#include "core/apf_manager.h"
#include "core/freeze_controller.h"
#include "core/perturbation.h"
#include "core/strawmen.h"
#include "data/loader.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "data/synthetic_sequences.h"
#include "fl/evaluate.h"
#include "fl/runner.h"
#include "fl/sync_strategy.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/param_vector.h"
#include "nn/serialize.h"
#include "optim/clip.h"
#include "optim/fedprox.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "wire/masked.h"
#include "wire/quantize.h"
