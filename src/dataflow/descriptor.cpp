#include "dataflow/descriptor.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"

namespace omega {

const char* to_string(InterPhase ip) {
  switch (ip) {
    case InterPhase::kSequential: return "Seq";
    case InterPhase::kSPGeneric: return "SPg";
    case InterPhase::kSPOptimized: return "SP";
    case InterPhase::kParallelPipeline: return "PP";
  }
  return "?";
}

const char* to_string(Granularity g) {
  switch (g) {
    case Granularity::kElement: return "element";
    case Granularity::kRow: return "row";
    case Granularity::kColumn: return "column";
    case Granularity::kNone: return "none";
  }
  return "?";
}

namespace {

/// Per-role view of the intermediate matrix: which loop dim indexes its
/// rows, which its columns, and which is the "third" loop (contraction for
/// the producer, the streamed/output dim for the consumer).
struct RoleDims {
  Dim row;
  Dim col;
  Dim third;
};

/// Producer/consumer dim roles per phase order.
/// AC: Agg produces V x F (contraction N); Cmb consumes via (V, F), streams G.
/// CA: Cmb produces V x G (contraction F); Agg consumes rows by N, columns by
///     its F-labelled loop (extent G), scattering into outputs over V.
RoleDims producer_dims(PhaseOrder order) {
  return order == PhaseOrder::kAC ? RoleDims{Dim::kV, Dim::kF, Dim::kN}
                                  : RoleDims{Dim::kV, Dim::kG, Dim::kF};
}
RoleDims consumer_dims(PhaseOrder order) {
  return order == PhaseOrder::kAC ? RoleDims{Dim::kV, Dim::kF, Dim::kG}
                                  : RoleDims{Dim::kN, Dim::kF, Dim::kV};
}

enum class Unit { kElement, kRow, kColumn };

struct RoleAnalysis {
  bool feasible = false;
  Unit unit = Unit::kElement;
  TraversalMajor major = TraversalMajor::kRowMajor;
  std::string reason;
};

RoleDims role_dims(const HandoffRole& role) {
  return RoleDims{role.row, role.col, role.third};
}

/// Shared analysis for both roles: look at where the "third" loop sits.
/// third innermost  -> element-wise hand-off in (outermost-dim)-major order
/// third in middle  -> whole row/column completes (inner dim spans it)
/// third outermost  -> the full intermediate is revisited; not pipelineable
RoleAnalysis analyze_role(const LoopOrder& order, const RoleDims& dims,
                          const char* role_name) {
  RoleAnalysis out;
  const std::size_t third_depth = order.depth_of(dims.third);
  const Dim outer = order.at(0);
  if (third_depth == 2) {
    out.feasible = true;
    out.unit = Unit::kElement;
    out.major = (outer == dims.row) ? TraversalMajor::kRowMajor
                                    : TraversalMajor::kColumnMajor;
    return out;
  }
  if (third_depth == 1) {
    out.feasible = true;
    if (outer == dims.row) {
      out.unit = Unit::kRow;
      out.major = TraversalMajor::kRowMajor;
    } else {
      out.unit = Unit::kColumn;
      out.major = TraversalMajor::kColumnMajor;
    }
    return out;
  }
  out.feasible = false;
  out.reason = std::string(role_name) + " loop order " + order.letters() +
               " places " + dim_letter(dims.third) +
               " outermost: every intermediate element is revisited across "
               "the whole nest, so no chunk ever becomes final/consumable";
  return out;
}

}  // namespace

PipelineAnalysis analyze_pipeline(const LoopOrder& agg, const LoopOrder& cmb,
                                  PhaseOrder order) {
  const LoopOrder& producer_order = order == PhaseOrder::kAC ? agg : cmb;
  const LoopOrder& consumer_order = order == PhaseOrder::kAC ? cmb : agg;
  const RoleDims pd = producer_dims(order);
  const RoleDims cd = consumer_dims(order);
  return analyze_handoff(HandoffRole{producer_order, pd.row, pd.col, pd.third},
                         HandoffRole{consumer_order, cd.row, cd.col, cd.third});
}

PipelineAnalysis analyze_handoff(const HandoffRole& producer,
                                 const HandoffRole& consumer) {
  PipelineAnalysis out;
  const RoleAnalysis prod =
      analyze_role(producer.order, role_dims(producer), "producer");
  if (!prod.feasible) {
    out.reason = prod.reason;
    return out;
  }
  const RoleAnalysis cons =
      analyze_role(consumer.order, role_dims(consumer), "consumer");
  if (!cons.feasible) {
    out.reason = cons.reason;
    return out;
  }
  if (prod.major != cons.major) {
    out.reason = "producer traverses the intermediate " +
                 std::string(prod.major == TraversalMajor::kRowMajor
                                 ? "row-major"
                                 : "column-major") +
                 " but consumer needs it " +
                 (cons.major == TraversalMajor::kRowMajor ? "row-major"
                                                          : "column-major") +
                 "; chunks would be consumed out of production order";
    return out;
  }

  out.feasible = true;
  out.major = prod.major;
  if (prod.unit == Unit::kElement && cons.unit == Unit::kElement) {
    out.granularity = Granularity::kElement;
  } else if (out.major == TraversalMajor::kRowMajor) {
    out.granularity = Granularity::kRow;
  } else {
    out.granularity = Granularity::kColumn;
  }
  return out;
}

Granularity DataflowDescriptor::granularity() const {
  if (inter == InterPhase::kSequential || inter == InterPhase::kSPOptimized) {
    return Granularity::kNone;
  }
  const auto analysis = analyze_pipeline(agg.order, cmb.order, phase_order);
  return analysis.feasible ? analysis.granularity : Granularity::kNone;
}

std::size_t DataflowDescriptor::t_row_max() const {
  // Intermediate rows: produced over V; consumed over V (AC) or N (CA).
  if (phase_order == PhaseOrder::kAC) {
    return std::max(agg.tiles.v, cmb.tiles.v);
  }
  return std::max(cmb.tiles.v, agg.tiles.n);
}

std::size_t DataflowDescriptor::t_col_max() const {
  // Intermediate columns: F for AC (both phases), G/F_agg for CA.
  if (phase_order == PhaseOrder::kAC) {
    return std::max(agg.tiles.f, cmb.tiles.f);
  }
  return std::max(cmb.tiles.g, agg.tiles.f);
}

std::string DataflowDescriptor::to_string() const {
  std::ostringstream os;
  os << omega::to_string(inter) << "_" << omega::to_string(phase_order) << "("
     << agg.to_string() << ", " << cmb.to_string() << ")";
  return os.str();
}

DataflowDescriptor DataflowDescriptor::parse(const std::string& text) {
  const auto open = text.find('(');
  const auto comma = text.find(',');
  const auto close = text.find(')');
  OMEGA_CHECK(open != std::string::npos && comma != std::string::npos &&
                  close != std::string::npos && open < comma && comma < close,
              "dataflow must look like PP_AC(VtFsNt, VsGsFt)");
  const std::string head = trim(text.substr(0, open));
  const auto underscore = head.find('_');
  OMEGA_CHECK(underscore != std::string::npos, "missing _AC/_CA phase order");
  const std::string inter_s = head.substr(0, underscore);
  const std::string order_s = head.substr(underscore + 1);

  DataflowDescriptor df;
  if (inter_s == "Seq") df.inter = InterPhase::kSequential;
  else if (inter_s == "SPg") df.inter = InterPhase::kSPGeneric;
  else if (inter_s == "SP") df.inter = InterPhase::kSPOptimized;
  else if (inter_s == "PP") df.inter = InterPhase::kParallelPipeline;
  else throw InvalidDataflowError("unknown inter-phase strategy: " + inter_s);

  if (order_s == "AC") df.phase_order = PhaseOrder::kAC;
  else if (order_s == "CA") df.phase_order = PhaseOrder::kCA;
  else throw InvalidDataflowError("unknown phase order: " + order_s);

  df.agg = IntraPhaseDataflow::parse(trim(text.substr(open + 1, comma - open - 1)),
                                     GnnPhase::kAggregation);
  df.cmb = IntraPhaseDataflow::parse(trim(text.substr(comma + 1, close - comma - 1)),
                                     GnnPhase::kCombination);
  return df;
}

namespace {

std::optional<std::string> sp_optimized_error(const DataflowDescriptor& df) {
  // Table II row 2. The intermediate stays in the PE register files, so the
  // producer's contraction must be temporal (data never leaves the PE), the
  // consumer streams its third dim temporally over the stationary tile, and
  // the shared tile sizes must match between phases.
  if (df.phase_order == PhaseOrder::kAC) {
    const std::string a = df.agg.order.letters();
    const std::string c = df.cmb.order.letters();
    const bool pair_ok = (a == "VFN" && c == "VFG") || (a == "FVN" && c == "FVG");
    if (!pair_ok) {
      return "SP-Optimized (AC) requires loop-order pair (VFN,VFG) or "
             "(FVN,FVG); got (" + a + "," + c + ")";
    }
    if (df.agg.tiles.n != 1) {
      return "SP-Optimized requires temporal reduction in Aggregation "
             "(T_N = 1) so accumulated data stays inside the PEs";
    }
    if (df.cmb.tiles.g != 1) {
      return "SP-Optimized (AC) streams G temporally over the stationary "
             "intermediate (T_G = 1)";
    }
    if (df.agg.tiles.v != df.cmb.tiles.v || df.agg.tiles.f != df.cmb.tiles.f) {
      return "SP-Optimized requires matched tiles: T_V_AGG == T_V_CMB and "
             "T_F_AGG == T_F_CMB (same intermediate data stays in the PEs)";
    }
    return std::nullopt;
  }
  // CA: Combination produces V x G resident in PEs; Aggregation scatters
  // over output vertices with a temporal innermost V loop.
  const std::string a = df.agg.order.letters();
  const std::string c = df.cmb.order.letters();
  const bool pair_ok = (a == "NFV" && c == "VGF") || (a == "FNV" && c == "GVF");
  if (!pair_ok) {
    return "SP-Optimized (CA) requires loop-order pair (NFV,VGF) or "
           "(FNV,GVF); got (" + a + "," + c + ")";
  }
  if (df.cmb.tiles.f != 1) {
    return "SP-Optimized (CA) requires temporal reduction in Combination "
           "(T_F_CMB = 1)";
  }
  if (df.agg.tiles.v != 1) {
    return "SP-Optimized (CA) scatters outputs with a temporal V loop "
           "(T_V_AGG = 1)";
  }
  if (df.agg.tiles.n != df.cmb.tiles.v || df.agg.tiles.f != df.cmb.tiles.g) {
    return "SP-Optimized (CA) requires matched tiles: T_N_AGG == T_V_CMB "
           "and T_F_AGG == T_G";
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> DataflowDescriptor::validation_error() const {
  try {
    agg.validate();
    cmb.validate();
  } catch (const Error& e) {
    return std::string(e.what());
  }
  if (agg.phase != GnnPhase::kAggregation || cmb.phase != GnnPhase::kCombination) {
    return "descriptor phases mislabeled";
  }
  switch (inter) {
    case InterPhase::kSequential:
      return std::nullopt;  // any intra-phase pair runs sequentially
    case InterPhase::kSPOptimized:
      return sp_optimized_error(*this);
    case InterPhase::kSPGeneric:
    case InterPhase::kParallelPipeline: {
      const auto analysis = analyze_pipeline(agg.order, cmb.order, phase_order);
      if (!analysis.feasible) return analysis.reason;
      if (inter == InterPhase::kParallelPipeline &&
          (pp_agg_pe_fraction <= 0.0 || pp_agg_pe_fraction >= 1.0)) {
        return "PP needs 0 < pp_agg_pe_fraction < 1 (both engines need PEs)";
      }
      return std::nullopt;
    }
  }
  return "unknown inter-phase strategy";
}

void DataflowDescriptor::validate() const {
  if (const auto err = validation_error()) {
    throw InvalidDataflowError(to_string() + ": " + *err);
  }
}

HardwareRequirements hardware_requirements(const DataflowDescriptor& df) {
  HardwareRequirements req;
  const bool agg_spatial_n = df.agg.tiles.n > 1;
  const bool cmb_spatial_f = df.cmb.tiles.f > 1;
  req.needs_spatial_reduction = agg_spatial_n || cmb_spatial_f;
  req.needs_temporal_reduction = !agg_spatial_n || !cmb_spatial_f;
  req.needs_intermediate_noc = df.inter == InterPhase::kSPGeneric ||
                               df.inter == InterPhase::kParallelPipeline;
  req.needs_local_accumulation = df.inter == InterPhase::kSPOptimized;
  return req;
}

}  // namespace omega
