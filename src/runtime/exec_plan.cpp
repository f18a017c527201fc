#include "runtime/exec_plan.h"

#include <algorithm>
#include <cstdio>

namespace ada {

const char* kernel_kind_name(KernelKind k) {
  switch (k) {
    case KernelKind::kGemmReference: return "reference";
    case KernelKind::kGemmPacked: return "packed";
    case KernelKind::kInt8: return "int8";
    case KernelKind::kNone: break;
  }
  return "-";
}

long long ExecutionPlan::total_macs() const {
  long long total = 0;
  for (const PlanStep& s : steps) total += s.macs;
  return total;
}

void ExecutionPlan::finalize() {
  arena_floats = 0;
  for (const PlanStep& s : steps)
    arena_floats = std::max(arena_floats, s.workspace_floats);
}

namespace {
std::string shape_str(const PlanShape& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%dx%dx%dx%d", s.n, s.c, s.h, s.w);
  return buf;
}
}  // namespace

std::string ExecutionPlan::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "plan input=%s policy=%s steps=%zu arena=%.1f KiB "
                "macs=%.1fM\n",
                shape_str(input).c_str(), policy.c_str(), steps.size(),
                static_cast<double>(arena_floats) * sizeof(float) / 1024.0,
                static_cast<double>(total_macs()) * 1e-6);
  std::string out = buf;
  std::snprintf(buf, sizeof(buf), "  %-3s %-12s %-10s %-16s %-16s %12s %10s\n",
                "#", "layer", "kernel", "in", "out", "workspace_B", "macs");
  out += buf;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& s = steps[i];
    std::snprintf(buf, sizeof(buf),
                  "  %-3zu %-12s %-10s %-16s %-16s %12zu %10lld\n", i,
                  s.layer.c_str(), kernel_kind_name(s.kernel),
                  shape_str(s.in).c_str(), shape_str(s.out).c_str(),
                  s.workspace_floats * sizeof(float), s.macs);
    out += buf;
  }
  return out;
}

}  // namespace ada
