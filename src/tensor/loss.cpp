#include "tensor/loss.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "runtime/scratch.h"

namespace ada {

void softmax_span(const float* logits, int num_classes, float* probs) {
  float mx = logits[0];
  for (int c = 1; c < num_classes; ++c) mx = std::max(mx, logits[c]);
  // Each exponential is evaluated once, kept for the quotient; the arena
  // keeps the call allocation-free after warm-up.
  ScratchFrame frame(&scratch_arena());
  double* e = frame.alloc_as<double>(static_cast<std::size_t>(num_classes));
  double denom = 0.0;
  for (int c = 0; c < num_classes; ++c) {
    e[c] = std::exp(static_cast<double>(logits[c] - mx));
    denom += e[c];
  }
  for (int c = 0; c < num_classes; ++c)
    probs[c] = static_cast<float>(e[c] / denom);
}

float softmax_cross_entropy_span(const float* logits, int num_classes,
                                 int target_class, float* dlogits) {
  assert(target_class >= 0 && target_class < num_classes);
  std::vector<float> probs(static_cast<std::size_t>(num_classes));
  softmax_span(logits, num_classes, probs.data());
  float p = std::max(probs[static_cast<std::size_t>(target_class)], 1e-12f);
  float loss = -std::log(p);
  if (dlogits != nullptr) {
    for (int c = 0; c < num_classes; ++c)
      dlogits[c] += probs[static_cast<std::size_t>(c)] -
                    (c == target_class ? 1.0f : 0.0f);
  }
  return loss;
}

float softmax_cross_entropy(const Tensor& logits, int target_class,
                            Tensor* dlogits) {
  assert(logits.n() == 1 && logits.h() == 1 && logits.w() == 1);
  return softmax_cross_entropy_span(
      logits.data(), logits.c(), target_class,
      dlogits != nullptr ? dlogits->data() : nullptr);
}

float smooth_l1(const float* pred, const float* target, int n, float* dpred) {
  float loss = 0.0f;
  for (int i = 0; i < n; ++i) {
    float d = pred[i] - target[i];
    float ad = std::fabs(d);
    if (ad < 1.0f) {
      loss += 0.5f * d * d;
      if (dpred != nullptr) dpred[i] += d;
    } else {
      loss += ad - 0.5f;
      if (dpred != nullptr) dpred[i] += (d > 0.0f ? 1.0f : -1.0f);
    }
  }
  return loss;
}

float mse_scalar(float pred, float target, float* dpred) {
  float d = pred - target;
  if (dpred != nullptr) *dpred += 2.0f * d;
  return d * d;
}

}  // namespace ada
