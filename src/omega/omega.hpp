// OMEGA: Observing Mapping Efficiency over GNN Accelerators (Fig. 10).
//
// The facade wires the two intra-phase engines (STONNE-style SpMM and GEMM
// cost models) to the inter-phase cost model of Section IV / Table III and
// returns runtime, buffering, per-matrix traffic and energy for a complete
// GNN-layer dataflow on the modeled spatial accelerator.
#pragma once

#include <string>

#include "arch/accelerator.hpp"
#include "arch/energy.hpp"
#include "dataflow/patterns.hpp"
#include "engine/gemm_engine.hpp"
#include "engine/spmm_engine.hpp"
#include "graph/datasets.hpp"
#include "omega/tiler.hpp"

namespace omega {

struct PipelineSpec;    // omega/pipeline.hpp
struct PipelineResult;  // omega/pipeline.hpp

/// Energy roll-up (Section V-B2). On-chip = GB + RF + the PP intermediate
/// partition; DRAM (Seq spill) is reported separately, matching the paper's
/// on-chip characterization.
struct EnergyBreakdown {
  std::array<double, kNumTrafficCategories> gb_by_category_pj{};
  double gb_pj = 0.0;
  double rf_pj = 0.0;
  double partition_pj = 0.0;  // PP ping-pong buffer accesses
  double dram_pj = 0.0;

  [[nodiscard]] double on_chip_pj() const {
    return gb_pj + rf_pj + partition_pj;
  }
  [[nodiscard]] double total_pj() const { return on_chip_pj() + dram_pj; }
};

/// Complete result of evaluating one dataflow on one workload.
struct RunResult {
  std::string config_name;  // Table V name when run via run_pattern
  DataflowDescriptor dataflow;

  std::uint64_t cycles = 0;
  PhaseResult agg;
  PhaseResult cmb;
  std::size_t pes_agg = 0;
  std::size_t pes_cmb = 0;

  Granularity granularity = Granularity::kNone;
  std::size_t pipeline_chunks = 1;
  std::size_t pipeline_elements = 0;            // Pel
  std::size_t intermediate_buffer_elements = 0; // Table III buffering
  bool intermediate_spilled = false;            // Seq: V x F exceeded the GB

  /// Layer shape this result was evaluated for (V rows, F -> G features);
  /// the inter-layer composer (omega/compose.hpp) reads the output extent
  /// and the chunk grid off the result instead of re-deriving them.
  std::size_t num_rows = 0;      // V
  std::size_t in_features = 0;   // F
  std::size_t out_features = 0;  // G
  /// The chunk grid both phases share (Section IV-D). For non-chunked
  /// strategies (Seq / SP-Optimized) this is the single all-covering chunk.
  ChunkSpec chunk_grid;

  TrafficCounters traffic;
  EnergyBreakdown energy;

  double agg_static_utilization = 0.0;
  double cmb_static_utilization = 0.0;
  [[nodiscard]] double agg_dynamic_utilization() const {
    return agg.utilization(pes_agg);
  }
  [[nodiscard]] double cmb_dynamic_utilization() const {
    return cmb.utilization(pes_cmb);
  }
};

/// The analytical framework. Immutable after construction; run() is const
/// and thread-safe, so design-space sweeps can evaluate mappings in
/// parallel.
class Omega {
 public:
  explicit Omega(AcceleratorConfig hw = default_accelerator(),
                 EnergyModel energy = EnergyModel{});

  /// Evaluates a fully bound dataflow descriptor.
  [[nodiscard]] RunResult run(const GnnWorkload& workload,
                              const LayerSpec& layer,
                              const DataflowDescriptor& df) const;

  /// Same evaluation through a per-workload memo (engine/schedule_cache.hpp):
  /// the adjacency transpose and lane schedules shared across candidates are
  /// computed once and reused, which is what makes exhaustive sweeps fast.
  /// `context` must be constructed over `workload.adjacency`. Results are
  /// bit-identical to the context-free overload.
  [[nodiscard]] RunResult run(const GnnWorkload& workload,
                              const LayerSpec& layer,
                              const DataflowDescriptor& df,
                              const WorkloadContext& context) const;

  /// Binds a pattern's tile sizes (omega/tiler.hpp) and evaluates it.
  [[nodiscard]] RunResult run_pattern(const GnnWorkload& workload,
                                      const LayerSpec& layer,
                                      const DataflowPattern& pattern) const;

  /// The N-phase evaluation core (omega/pipeline.hpp): evaluates an
  /// arbitrary chain of sparse-dense / dense / sparse-weight phases with
  /// one inter-phase strategy per adjacent pair. run() is a two-phase
  /// adapter over this (bit-identical to the historic two-phase model).
  /// `context`, when non-null, must be bound to `workload.adjacency`.
  [[nodiscard]] PipelineResult run_pipeline(
      const GnnWorkload& workload, const PipelineSpec& spec,
      const WorkloadContext* context = nullptr) const;

  [[nodiscard]] const AcceleratorConfig& config() const { return hw_; }
  [[nodiscard]] const EnergyModel& energy_model() const { return energy_; }

 private:
  [[nodiscard]] RunResult run_impl(const GnnWorkload& workload,
                                   const LayerSpec& layer,
                                   const DataflowDescriptor& df,
                                   const WorkloadContext* context) const;

  /// Shared core behind run_pipeline and the two-phase adapter;
  /// `validated` skips the rule set (pipeline_violation) for specs lowered
  /// from a DataflowDescriptor that Omega::run already validated against
  /// the substrate.
  [[nodiscard]] PipelineResult run_pipeline_impl(
      const GnnWorkload& workload, const PipelineSpec& spec,
      const WorkloadContext* context, bool validated) const;

  AcceleratorConfig hw_;
  EnergyModel energy_;
};

/// Pipeline composition (exposed for unit tests): the consumer starts chunk
/// i once the producer has COMPLETED it and the consumer finished chunk i-1:
///   cons_done[i] = max(producer_completion[i], cons_done[i-1]) + cons[i]
/// Producer completions are absolute cycle stamps (PhaseResult::
/// chunk_completion), which correctly handles producers that revisit chunks
/// across sweeps. Returns cons_done.back(). The recurrence saturates at
/// UINT64_MAX instead of wrapping (DESIGN.md "Overflow contract"): a wrapped
/// sum would report a near-zero makespan for an adversarially huge workload.
[[nodiscard]] std::uint64_t compose_parallel_pipeline(
    const std::vector<std::uint64_t>& producer_completion,
    const std::vector<std::uint64_t>& consumer_chunk_cycles);

/// Same recurrence, returning the whole cons_done vector — the per-chunk
/// consumer completion timeline the inter-layer composer re-tiles into the
/// next layer's start times (omega/compose.hpp). `consumer_start` floors
/// the consumer's clock (the cycle its array partition frees in cross-layer
/// composition); 0 reproduces the scalar overload's timeline exactly.
[[nodiscard]] std::vector<std::uint64_t> compose_parallel_pipeline_timeline(
    const std::vector<std::uint64_t>& producer_completion,
    const std::vector<std::uint64_t>& consumer_chunk_cycles,
    std::uint64_t consumer_start = 0);

/// Share of a GB port bandwidth granted to a phase owning `part` of `total`
/// PEs under PP (Section V-C3), floored at 1 element/cycle. Computed in
/// 128-bit: `bw * part` can wrap std::size_t for large configured
/// bandwidths, which used to hand a phase a tiny garbage share. Exposed for
/// the overflow regression test.
[[nodiscard]] std::size_t scaled_bandwidth(std::size_t bw, std::size_t part,
                                           std::size_t total);

}  // namespace omega
