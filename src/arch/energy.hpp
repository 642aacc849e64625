// Energy model (Section V-B2).
//
// Access energies follow the paper's numbers from Dally et al., "Domain-
// Specific Hardware Accelerators" (CACM 2020): 1.046 pJ per global-buffer
// access at the 1 MB/bank reference point and 0.053 pJ per PE register-file
// access. Smaller on-chip partitions are cheaper to access: we scale buffer
// access energy with sqrt(capacity) relative to the 1 MB bank (the standard
// first-order SRAM scaling), clamped to the RF energy from below. This is
// what gives the PP dataflow its intermediate-buffer energy advantage in
// Fig. 12. DRAM is modeled only as the Seq spill target and is reported
// separately from on-chip energy, mirroring the paper's on-chip focus.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/saturate.hpp"

namespace omega {

struct EnergyModel {
  double gb_access_pj = 1.046;   // per element access, 1 MB bank
  double rf_access_pj = 0.053;   // per element access
  double dram_access_pj = 160.0; // per element access (LPDDR-class, ~150x GB)
  std::size_t reference_bank_bytes = 1ull << 20;

  /// Access energy for an on-chip buffer partition of `capacity_bytes`,
  /// sqrt-scaled from the reference bank and clamped to [rf, gb].
  [[nodiscard]] double buffer_access_pj(std::size_t capacity_bytes) const;
};

/// Raw access counts for one memory level.
struct AccessCounts {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  // Saturating, like every count (DESIGN.md "Overflow contract"): a
  // wrapped sum would price an adversarially wide workload as cheap.
  [[nodiscard]] std::uint64_t total() const {
    return sat_add_u64(reads, writes);
  }
  AccessCounts& operator+=(const AccessCounts& o) {
    reads = sat_add_u64(reads, o.reads);
    writes = sat_add_u64(writes, o.writes);
    return *this;
  }
};

}  // namespace omega
