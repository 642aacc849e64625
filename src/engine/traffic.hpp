// Traffic accounting shared by the phase engines and the inter-phase model.
//
// Global-buffer accesses are attributed to the matrix they move (the six
// categories of Fig. 13: adjacency, input, weight, intermediate, output,
// partial sums); register-file and DRAM accesses are tracked as aggregates.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "arch/energy.hpp"
#include "util/saturate.hpp"

namespace omega {

enum class TrafficCategory : std::uint8_t {
  kAdjacency = 0,     // CSR vertex/edge arrays (+ edge values)
  kInput = 1,         // X0 feature matrix
  kWeight = 2,        // W
  kIntermediate = 3,  // the matrix handed between phases
  kOutput = 4,        // X1
  kPsum = 5,          // partial-sum spills
};
inline constexpr std::size_t kNumTrafficCategories = 6;

[[nodiscard]] const char* to_string(TrafficCategory c);

/// Per-run traffic: GB accesses by category, plus RF/DRAM aggregates.
struct TrafficCounters {
  std::array<AccessCounts, kNumTrafficCategories> gb{};
  AccessCounts rf;
  AccessCounts dram;
  /// Accesses to the PP intermediate ping-pong partition (charged at the
  /// partition-scaled energy rather than full GB energy).
  AccessCounts intermediate_partition;

  [[nodiscard]] AccessCounts& gb_for(TrafficCategory c) {
    return gb[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const AccessCounts& gb_for(TrafficCategory c) const {
    return gb[static_cast<std::size_t>(c)];
  }

  [[nodiscard]] std::uint64_t gb_total() const {
    std::uint64_t t = 0;
    for (const auto& a : gb) t = sat_add_u64(t, a.total());
    return t;
  }

  TrafficCounters& operator+=(const TrafficCounters& o) {
    for (std::size_t i = 0; i < gb.size(); ++i) gb[i] += o.gb[i];
    rf += o.rf;
    dram += o.dram;
    intermediate_partition += o.intermediate_partition;
    return *this;
  }
};

}  // namespace omega
