// The evaluated-design record shared by the optimizer, the Pareto-front
// container and the synthesis report, split out of optimizer.hpp so the
// lightweight consumers do not pull in the whole search stack.
#pragma once

#include "core/resource_estimator.hpp"
#include "model/perf_model.hpp"
#include "sim/design.hpp"

namespace scl::core {

/// One evaluated design: configuration, predicted latency, resources.
struct DesignPoint {
  sim::DesignConfig config;
  model::Prediction prediction;
  DesignResources resources;
};

/// The total deterministic design ordering: predicted latency, then the
/// resource vector (BRAM18, FF, LUT, DSP), then the canonical config key.
/// No two distinct configs compare equal, so any selection or sort that
/// uses this order is independent of enumeration order. (Defined in
/// optimizer.cpp.)
bool design_order(const DesignPoint& a, const DesignPoint& b);

}  // namespace scl::core
