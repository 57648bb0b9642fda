// Gradient clipping utilities.
#pragma once

#include "nn/module.h"

namespace apf::optim {

/// Scales all parameter gradients of `module` so their global L2 norm is at
/// most `max_norm`. Returns the pre-clipping norm. Standard guard for
/// recurrent models (exploding gradients through time).
double clip_grad_norm(nn::Module& module, double max_norm);

}  // namespace apf::optim
